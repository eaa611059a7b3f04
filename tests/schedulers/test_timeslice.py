"""Tests for the Gandiva/Gavel-style time-sliced scheduler."""

import numpy as np
import pytest

from repro.core import (
    InfeasibleProblemError,
    Job,
    ProblemInstance,
    metrics_from_schedule,
    validate_schedule,
)
from repro.schedulers import HareScheduler, TimeSliceScheduler
from tests.conftest import make_random_instance


class TestFeasibility:
    @pytest.mark.parametrize("quantum", [0.5, 2.0, 10.0])
    def test_valid_schedules(self, fig1_instance, quantum):
        sched = TimeSliceScheduler(quantum_s=quantum).schedule(fig1_instance)
        validate_schedule(sched)

    @pytest.mark.parametrize("seed", range(8))
    def test_valid_on_random(self, seed):
        inst = make_random_instance(seed, max_jobs=4, max_rounds=3, max_scale=2)
        if any(j.sync_scale > inst.num_gpus for j in inst.jobs):
            pytest.skip("gang-infeasible")
        sched = TimeSliceScheduler(quantum_s=3.0).schedule(inst)
        validate_schedule(sched)

    def test_invalid_quantum(self):
        with pytest.raises(InfeasibleProblemError):
            TimeSliceScheduler(quantum_s=0.0)

    def test_quantum_smaller_than_round_still_progresses(self):
        jobs = [Job(job_id=0, model="m", num_rounds=3)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[5.0]]),
            sync_time=np.zeros((1, 1)),
        )
        sched = TimeSliceScheduler(quantum_s=1.0).schedule(inst)
        validate_schedule(sched)
        assert sched.completions()[0] == pytest.approx(15.0)


class TestQuantization:
    def test_jobs_share_by_quantum(self):
        """Two equal jobs on one GPU alternate quantum by quantum."""
        jobs = [
            Job(job_id=0, model="a", num_rounds=4),
            Job(job_id=1, model="b", num_rounds=4),
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((2, 1)),
            sync_time=np.zeros((2, 1)),
        )
        sched = TimeSliceScheduler(quantum_s=2.0).schedule(inst)
        validate_schedule(sched)
        # both jobs finish near each other (fair sharing), not one-then-other
        gap = abs(sched.completions()[0] - sched.completions()[1])
        assert gap <= 2.0 + 1e-9

    def test_coarser_quanta_are_worse_under_load(self):
        """Quantization loss grows with the quantum — a statistical claim
        that needs a loaded workload (tiny instances can flip)."""
        from repro.cluster import scaled_cluster
        from repro.harness.experiments import make_loaded_workload, make_problem
        from repro.workload import WorkloadConfig

        cluster = scaled_cluster(8)
        jobs = make_loaded_workload(
            16, reference_gpus=8, load=2.0, seed=3,
            config=WorkloadConfig(rounds_scale=0.1),
        )
        inst = make_problem(cluster, jobs)
        flows = []
        for q in (2.0, 10.0, 40.0):
            sched = TimeSliceScheduler(quantum_s=q).schedule(inst)
            validate_schedule(sched)
            flows.append(metrics_from_schedule(sched).total_weighted_flow)
        assert flows[0] < flows[1] < flows[2]

    def test_hare_beats_time_slicing(self, fig1_instance):
        """§8's claim: coarse-grained slicing leaves optimization space."""
        ts = TimeSliceScheduler(quantum_s=1.0).schedule(fig1_instance)
        hare = HareScheduler(relaxation="exact").schedule(fig1_instance)
        assert (
            metrics_from_schedule(hare).total_weighted_completion
            < metrics_from_schedule(ts).total_weighted_completion
        )

    def test_arrivals_respected(self):
        jobs = [
            Job(job_id=0, model="a", num_rounds=2),
            Job(job_id=1, model="b", num_rounds=2, arrival=7.0),
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((2, 2)),
            sync_time=np.zeros((2, 2)),
        )
        sched = TimeSliceScheduler(quantum_s=2.0).schedule(inst)
        validate_schedule(sched)
        first_start = min(
            a.start for a in sched.assignments.values()
            if a.task.job_id == 1
        )
        assert first_start >= 7.0
