"""Tests for scheduler shared machinery."""

import numpy as np
import pytest

from repro.core import InfeasibleProblemError, Job, ProblemInstance
from repro.schedulers import check_gang_feasible, fastest_free_gpus
from repro.schedulers.base import ObliviousPicker


@pytest.fixture
def inst():
    jobs = [Job(job_id=0, model="m", num_rounds=2, sync_scale=2)]
    tc = np.array([[1.0, 2.0, 3.0]])
    ts = np.array([[0.1, 0.1, 0.1]])
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


class TestGangFeasibility:
    def test_ok(self, inst):
        check_gang_feasible(inst)

    def test_too_wide_job(self):
        jobs = [Job(job_id=0, model="m", sync_scale=4)]
        bad = ProblemInstance(
            jobs=jobs, train_time=np.ones((1, 2)), sync_time=np.zeros((1, 2))
        )
        with pytest.raises(InfeasibleProblemError):
            check_gang_feasible(bad)


class TestFastestFreeGpus:
    def test_picks_by_task_time(self, inst):
        assert fastest_free_gpus(inst, 0, [2, 1, 0], 2) == [0, 1]

    def test_ties_break_by_index(self):
        jobs = [Job(job_id=0, model="m")]
        flat = ProblemInstance(
            jobs=jobs, train_time=np.ones((1, 3)), sync_time=np.zeros((1, 3))
        )
        assert fastest_free_gpus(flat, 0, [2, 0, 1], 2) == [0, 1]


class TestObliviousPicker:
    def test_rotates_across_cluster(self):
        p = ObliviousPicker()
        free = list(range(6))
        seen = set()
        for _ in range(6):
            seen.update(p.pick(free, 1))
        assert seen == set(free)

    def test_pick_count(self):
        p = ObliviousPicker()
        assert len(p.pick([0, 1, 2, 3], 3)) == 3

    def test_over_pick_rejected(self):
        with pytest.raises(InfeasibleProblemError):
            ObliviousPicker().pick([0], 2)
