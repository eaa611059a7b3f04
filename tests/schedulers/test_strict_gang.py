"""Tests for the strict-gang ablation variant of Algorithm 1."""

import numpy as np
import pytest

from repro.core import (
    InfeasibleProblemError,
    Job,
    ProblemInstance,
    metrics_from_schedule,
    validate_schedule,
)
from repro.schedulers import HareScheduler, strict_gang_schedule
from repro.schedulers.hare import _precedence_safe_order
from tests.conftest import make_random_instance


def ordering_for(instance):
    sched = HareScheduler(relaxation="fluid")
    sched.schedule(instance)
    return list(_precedence_safe_order(instance, sched.last_relaxation))


class TestStrictGang:
    @pytest.mark.parametrize("seed", range(6))
    def test_valid_schedules(self, seed):
        inst = make_random_instance(seed, max_jobs=4, max_rounds=3, max_scale=2)
        if any(j.sync_scale > inst.num_gpus for j in inst.jobs):
            pytest.skip("gang-infeasible instance")
        sched = strict_gang_schedule(inst, ordering_for(inst))
        validate_schedule(sched)

    def test_round_tasks_start_simultaneously(self):
        jobs = [Job(job_id=0, model="m", num_rounds=2, sync_scale=3)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0, 2.0, 3.0]]),
            sync_time=np.zeros((1, 3)),
        )
        sched = strict_gang_schedule(inst, ordering_for(inst))
        for r in range(2):
            starts = {sched[t].start for t in jobs[0].round_tasks(r)}
            assert len(starts) == 1  # strict gang: one simultaneous start

    def test_one_gpu_per_task_in_round(self):
        jobs = [Job(job_id=0, model="m", num_rounds=1, sync_scale=3)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((1, 4)),
            sync_time=np.zeros((1, 4)),
        )
        sched = strict_gang_schedule(inst, ordering_for(inst))
        gpus = [sched[t].gpu for t in jobs[0].round_tasks(0)]
        assert len(set(gpus)) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_relaxed_never_worse(self, seed):
        """Hare's relaxed packing dominates strict gangs on the same π."""
        inst = make_random_instance(
            seed + 50, max_jobs=4, max_rounds=3, max_scale=2
        )
        if any(j.sync_scale > inst.num_gpus for j in inst.jobs):
            pytest.skip("gang-infeasible instance")
        order = ordering_for(inst)
        relaxed = HareScheduler(relaxation="fluid").schedule(inst)
        strict = strict_gang_schedule(inst, order)
        assert (
            metrics_from_schedule(relaxed).total_weighted_completion
            <= 1.3 * metrics_from_schedule(strict).total_weighted_completion
        )

    def test_oversized_gang_rejected_up_front(self):
        """sync_scale > num_gpus: a gang can never assemble — the old code
        silently truncated the round; now it must refuse the instance."""
        jobs = [Job(job_id=0, model="m", num_rounds=2, sync_scale=3)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((1, 2)),
            sync_time=np.zeros((1, 2)),
        )
        with pytest.raises(
            InfeasibleProblemError, match="sync_scale <= num_gpus"
        ):
            strict_gang_schedule(inst, list(inst.all_tasks()))

