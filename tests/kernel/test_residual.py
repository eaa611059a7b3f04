"""Residual construction, the timed re-plan path and the solve memo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Job, ProblemInstance
from repro.kernel import build_residual_instance
from repro.kernel.residual import (
    build_residual,
    replan,
    solve_memo,
    solve_relaxation,
)
from repro.obs import Obs, use
from repro.schedulers import HareScheduler
from repro.schedulers.relaxation import FluidRelaxationSolver


@pytest.fixture
def inst() -> ProblemInstance:
    jobs = [
        Job(job_id=0, model="a", num_rounds=3, sync_scale=2, weight=2.0),
        Job(job_id=1, model="b", num_rounds=2, sync_scale=1, arrival=1.0),
    ]
    tc = np.array([[1.0, 2.0, 3.0], [1.5, 1.0, 0.5]])
    ts = np.array([[0.1, 0.2, 0.3], [0.1, 0.1, 0.1]])
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


class TestBuildResidualInstance:
    def test_remaining_rounds_and_id_map(self, inst):
        residual, id_map = build_residual_instance(
            inst, list(inst.jobs), {0: 1, 1: 0}, {0: 4.0, 1: 1.0}
        )
        assert id_map == [(0, 1), (1, 0)]
        assert [j.num_rounds for j in residual.jobs] == [2, 2]
        assert residual.jobs[0].arrival == 4.0  # last committed barrier
        assert residual.jobs[0].weight == 2.0
        assert residual.jobs[1].arrival == 1.0

    def test_finished_jobs_dropped(self, inst):
        residual, id_map = build_residual_instance(
            inst, list(inst.jobs), {0: 3, 1: 0}, {0: 9.0, 1: 1.0}
        )
        assert id_map == [(1, 0)]
        assert residual.num_jobs == 1
        np.testing.assert_array_equal(
            residual.train_time, inst.train_time[[1]]
        )

    def test_all_done_returns_none(self, inst):
        residual, id_map = build_residual_instance(
            inst, list(inst.jobs), {0: 3, 1: 2}, {0: 9.0, 1: 9.0}
        )
        assert residual is None
        assert id_map == []

    def test_gpu_subset_slices_columns_and_labels(self, inst):
        residual, _ = build_residual_instance(
            inst,
            list(inst.jobs),
            {0: 0, 1: 0},
            {0: 0.0, 1: 1.0},
            gpu_subset=[0, 2],
        )
        np.testing.assert_array_equal(
            residual.train_time, inst.train_time[:, [0, 2]]
        )
        assert residual.gpu_labels == [
            inst.gpu_labels[0], inst.gpu_labels[2]
        ]

    def test_arrival_never_before_original(self, inst):
        residual, _ = build_residual_instance(
            inst, list(inst.jobs), {0: 0, 1: 0}, {0: 0.0, 1: 0.0}
        )
        assert residual.jobs[1].arrival == 1.0  # max(ready, arrival)


class TestTimedReplan:
    def test_build_observes_latency_every_call(self, inst):
        rounds, ready = {0: 1, 1: 0}, {0: 2.0, 1: 1.0}
        with use(Obs.start()) as obs:
            first, _ = build_residual(inst, list(inst.jobs), rounds, ready)
            second, _ = build_residual(inst, list(inst.jobs), rounds, ready)
            snap = obs.metrics.snapshot()
        assert first is not second
        np.testing.assert_array_equal(first.train_time, second.train_time)
        assert snap["kernel.residual_build_s"]["count"] == 2

    def test_replan_counts_replans_and_observes_latency(self, inst):
        residual, _ = build_residual_instance(
            inst, list(inst.jobs), {0: 0, 1: 0}, {0: 0.0, 1: 1.0}
        )
        with use(Obs.start()) as obs:
            plan = replan(HareScheduler(relaxation="fluid"), residual)
            snap = obs.metrics.snapshot()
        assert len(plan) == residual.num_tasks
        assert snap["kernel.replans"]["value"] == 1
        assert snap["kernel.residual_solve_s"]["count"] == 1


class TestSolveMemo:
    """The content-keyed solve memo, open only inside :func:`solve_memo`."""

    @staticmethod
    def residual(inst, gpu_subset=None):
        residual, _ = build_residual_instance(
            inst, list(inst.jobs), {0: 0, 1: 0}, {0: 0.0, 1: 1.0},
            gpu_subset=gpu_subset,
        )
        return residual

    @staticmethod
    def solve_twice(first, second):
        solver = FluidRelaxationSolver()
        with use(Obs.start()) as obs:
            a = solve_relaxation(solver, first)
            b = solve_relaxation(solver, second)
            snap = obs.metrics.snapshot()
        return a, b, snap

    def test_identical_solves_both_run_outside_the_memo(self, inst):
        residual = self.residual(inst)
        first, second, snap = self.solve_twice(residual, residual)
        assert first is not second
        assert first.h.tobytes() == second.h.tobytes()
        assert "kernel.solver_cache_hits" not in snap
        assert snap["kernel.residual_solve_s"]["count"] == 2

    def test_hits_on_identical_residual(self, inst):
        residual = self.residual(inst)
        with solve_memo():
            first, second, snap = self.solve_twice(residual, residual)
        assert first is second  # deterministic solver: memo is exact
        assert snap["kernel.solver_cache_hits"]["value"] == 1
        assert snap["kernel.residual_solve_s"]["count"] == 1

    def test_keyed_by_content_not_identity(self, inst):
        with solve_memo():
            first, second, _ = self.solve_twice(
                self.residual(inst), self.residual(inst)
            )
        assert first is second

    def test_different_content_misses(self, inst):
        residual = self.residual(inst)
        other = ProblemInstance(
            jobs=list(residual.jobs),
            train_time=residual.train_time * 2.0,
            sync_time=residual.sync_time,
        )
        with solve_memo():
            first, second, snap = self.solve_twice(residual, other)
        assert first is not second
        assert "kernel.solver_cache_hits" not in snap

    def test_gpu_subset_is_part_of_the_key(self, inst):
        with solve_memo():
            _, _, snap = self.solve_twice(
                self.residual(inst), self.residual(inst, gpu_subset=[0, 1])
            )
        assert "kernel.solver_cache_hits" not in snap
        assert snap["kernel.residual_solve_s"]["count"] == 2

    def test_table_dropped_on_exit(self, inst):
        residual = self.residual(inst)
        solver = FluidRelaxationSolver()
        with solve_memo():
            first = solve_relaxation(solver, residual)
        with solve_memo():
            assert solve_relaxation(solver, residual) is not first

    def test_every_recorded_replan_of_run_chaos_hits(self):
        """run_chaos opens the memo: its recorded run repeats the last
        recovery run, so each of its re-plans is answered from it."""
        from repro.cluster import testbed_cluster
        from repro.control import ControlPlane
        from repro.faults import FaultScenario, GpuCrash, HeartbeatConfig
        from repro.harness.experiments import make_loaded_workload
        from repro.schedulers import create
        from repro.workload import WorkloadConfig

        jobs = make_loaded_workload(
            12, reference_gpus=15, load=1.0, seed=1,
            config=WorkloadConfig(rounds_scale=0.2),
        )
        plane = ControlPlane(
            cluster=testbed_cluster(), scheduler=create("hare_online"),
            checkpoint_interval=2,
        )
        plane.submit(jobs)
        scenario = FaultScenario(crashes=(
            GpuCrash(time=3.0, gpu_id=1),
            GpuCrash(time=6.0, gpu_id=5),
            GpuCrash(time=9.0, gpu_id=10),
        ))
        with use(Obs.start()) as obs:
            result = plane.run_chaos(
                scenario,
                heartbeat=HeartbeatConfig(interval_s=1.0, lease_s=3.0),
            )
            snap = obs.metrics.snapshot()
        assert result.report.replans == 3
        replans = snap["kernel.replans"]["value"]
        assert replans > 0
        assert snap["kernel.solver_cache_hits"]["value"] == replans
