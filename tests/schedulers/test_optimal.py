"""Tests for the brute-force optimal scheduler."""

import numpy as np
import pytest

from repro.api import DEFAULT_SCHEMES
from repro.core import (
    InfeasibleProblemError,
    Job,
    ProblemInstance,
    metrics_from_schedule,
    validate_schedule,
)
from repro.schedulers import brute_force_optimal, create
from tests.conftest import make_random_instance, make_uniform_instance


class TestKnownOptima:
    def test_single_task_picks_best_gpu(self):
        jobs = [Job(job_id=0, model="m", weight=1.0)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[3.0, 1.0]]),
            sync_time=np.array([[0.0, 0.5]]),
        )
        opt = brute_force_optimal(inst)
        assert metrics_from_schedule(
            opt
        ).total_weighted_completion == pytest.approx(1.5)

    def test_two_identical_tasks_parallelize(self):
        inst = make_uniform_instance(2, 2, train_time=1.0)
        opt = brute_force_optimal(inst)
        assert opt.makespan() == pytest.approx(1.0)

    def test_wspt_on_single_machine(self):
        # classic: on one machine, WSPT is optimal; check objective value.
        jobs = [
            Job(job_id=0, model="a", weight=1.0),  # p=2
            Job(job_id=1, model="b", weight=4.0),  # p=1
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[2.0], [1.0]]),
            sync_time=np.zeros((2, 1)),
        )
        opt = brute_force_optimal(inst)
        # run heavy first: 4*1 + 1*3 = 7 (vs 1*2 + 4*3 = 14)
        assert metrics_from_schedule(
            opt
        ).total_weighted_completion == pytest.approx(7.0)

    def test_respects_arrivals(self):
        jobs = [Job(job_id=0, model="m", arrival=2.0)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0]]),
            sync_time=np.zeros((1, 1)),
        )
        opt = brute_force_optimal(inst)
        assert metrics_from_schedule(
            opt
        ).total_weighted_completion == pytest.approx(3.0)


class TestDominance:
    @pytest.mark.parametrize("seed", range(8))
    def test_no_scheduler_beats_brute_force(self, seed):
        inst = make_random_instance(
            seed, max_jobs=3, max_gpus=2, max_rounds=2, max_scale=2
        )
        if inst.num_tasks > 5:
            pytest.skip("too large for brute force in CI time")
        if any(j.sync_scale > inst.num_gpus for j in inst.jobs):
            pytest.skip("gang-infeasible for the baselines")
        opt_obj = metrics_from_schedule(
            brute_force_optimal(inst)
        ).total_weighted_completion
        for sched in map(create, DEFAULT_SCHEMES):
            obj = metrics_from_schedule(
                sched.schedule(inst)
            ).total_weighted_completion
            assert obj >= opt_obj - 1e-6, sched.name

    def test_optimal_schedule_is_valid(self, tiny_instance):
        validate_schedule(brute_force_optimal(tiny_instance))


class TestLimits:
    def test_size_cap(self):
        inst = make_uniform_instance(7, 2)
        with pytest.raises(InfeasibleProblemError):
            brute_force_optimal(inst)
