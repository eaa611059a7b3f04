"""Residual construction and the timed re-plan path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Job, ProblemInstance
from repro.kernel import build_residual_instance
from repro.kernel.residual import (
    build_residual,
    replan,
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
            inst, range(inst.num_jobs), [1, 0], [4.0, 1.0]
        )
        assert id_map == [(0, 1), (1, 0)]
        assert [j.num_rounds for j in residual.jobs] == [2, 2]
        assert residual.jobs[0].arrival == 4.0  # last committed barrier
        assert residual.jobs[0].weight == 2.0
        assert residual.jobs[1].arrival == 1.0

    def test_finished_jobs_dropped(self, inst):
        residual, id_map = build_residual_instance(
            inst, range(inst.num_jobs), [3, 0], [9.0, 1.0]
        )
        assert id_map == [(1, 0)]
        assert residual.num_jobs == 1
        np.testing.assert_array_equal(
            residual.train_time, inst.train_time[[1]]
        )

    def test_all_done_returns_none(self, inst):
        residual, id_map = build_residual_instance(
            inst, range(inst.num_jobs), [3, 2], [9.0, 9.0]
        )
        assert residual is None
        assert id_map == []

    def test_gpu_subset_slices_columns_and_labels(self, inst):
        residual, _ = build_residual_instance(
            inst,
            range(inst.num_jobs),
            [0, 0],
            [0.0, 1.0],
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
            inst, range(inst.num_jobs), [0, 0], [0.0, 0.0]
        )
        assert residual.jobs[1].arrival == 1.0  # max(ready, arrival)


class TestTimedReplan:
    def test_build_observes_latency_every_call(self, inst):
        ids, rounds, ready = range(inst.num_jobs), [1, 0], [2.0, 1.0]
        with use(Obs.start()) as obs:
            first, _ = build_residual(inst, ids, rounds, ready)
            second, _ = build_residual(inst, ids, rounds, ready)
            snap = obs.metrics.snapshot()
        assert first is not second
        np.testing.assert_array_equal(first.train_time, second.train_time)
        assert snap["kernel.residual_build_s"]["count"] == 2

    def test_replan_counts_replans_and_observes_latency(self, inst):
        residual, _ = build_residual_instance(
            inst, range(inst.num_jobs), [0, 0], [0.0, 1.0]
        )
        with use(Obs.start()) as obs:
            plan = replan(HareScheduler(relaxation="fluid"), residual)
            snap = obs.metrics.snapshot()
        assert len(plan) == residual.num_tasks
        assert snap["kernel.replans"]["value"] == 1
        assert snap["kernel.residual_solve_s"]["count"] == 1

    def test_solve_observes_latency_every_call(self, inst):
        residual, _ = build_residual_instance(
            inst, range(inst.num_jobs), [0, 0], [0.0, 1.0]
        )
        solver = FluidRelaxationSolver()
        with use(Obs.start()) as obs:
            first = solve_relaxation(solver, residual)
            second = solve_relaxation(solver, residual)
            snap = obs.metrics.snapshot()
        assert first is not second
        assert first.h.tobytes() == second.h.tobytes()
        assert snap["kernel.residual_solve_s"]["count"] == 2
