"""OnlineHarePolicy on the kernel: replans, commitments, faults."""

from __future__ import annotations

import numpy as np
from repro.core import (
    Job,
    ProblemInstance,
    metrics_from_schedule,
    validate_schedule,
)
from repro.kernel import run_policy
from repro.schedulers import HareScheduler, OnlineHarePolicy

from tests.conftest import make_random_instance


def staggered_instance() -> ProblemInstance:
    jobs = [
        Job(job_id=0, model="a", num_rounds=2, sync_scale=2, weight=2.0),
        Job(job_id=1, model="b", num_rounds=3, sync_scale=1, arrival=1.0),
        Job(job_id=2, model="c", num_rounds=1, sync_scale=2, arrival=2.5),
    ]
    tc = np.array([[1.0, 2.0, 1.5], [0.5, 1.0, 0.7], [2.0, 1.0, 1.0]])
    ts = np.array([[0.1, 0.2, 0.1], [0.1, 0.1, 0.1], [0.2, 0.1, 0.1]])
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


class TestReplanning:
    def test_complete_feasible_schedule(self):
        inst = staggered_instance()
        result = run_policy(inst, OnlineHarePolicy())
        assert len(result.schedule) == inst.num_tasks
        validate_schedule(result.schedule)

    def test_one_replan_per_distinct_arrival_time(self):
        inst = staggered_instance()
        policy = OnlineHarePolicy()
        result = run_policy(inst, policy)
        assert policy.replans == 3  # arrivals at 0.0, 1.0, 2.5
        assert result.replans == 3

    def test_simultaneous_arrivals_share_one_replan(self):
        jobs = [
            Job(job_id=n, model="m", num_rounds=1, sync_scale=1)
            for n in range(4)
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((4, 2)),
            sync_time=np.zeros((4, 2)),
        )
        policy = OnlineHarePolicy()
        run_policy(inst, policy)
        assert policy.replans == 1  # the kernel batches the arrivals

    def test_t0_arrivals_equal_offline_hare_exactly(self):
        """With every arrival at t=0 the single re-plan *is* the offline
        solve, so online Hare equals offline Hare to the bit."""
        for seed in range(25):
            inst = make_random_instance(seed, max_jobs=4, max_gpus=3)
            jobs = [
                Job(
                    job_id=j.job_id,
                    model=j.model,
                    arrival=0.0,
                    weight=j.weight,
                    num_rounds=j.num_rounds,
                    sync_scale=j.sync_scale,
                )
                for j in inst.jobs
            ]
            inst0 = ProblemInstance(
                jobs=jobs,
                train_time=inst.train_time,
                sync_time=inst.sync_time,
            )
            offline = HareScheduler(relaxation="fluid").schedule(inst0)
            online = run_policy(
                inst0, OnlineHarePolicy(relaxation="fluid")
            ).schedule
            for task, a in offline.assignments.items():
                b = online.assignments[task]
                assert (b.gpu, b.start) == (a.gpu, a.start), task

    def test_replan_timer_triggers_extra_passes(self):
        inst = staggered_instance()
        timed = OnlineHarePolicy()
        run_policy(inst, timed, replan_interval=0.25)
        plain = OnlineHarePolicy()
        run_policy(inst, plain)
        assert timed.replans > plain.replans

    def test_exact_relaxation_also_runs(self):
        inst = staggered_instance()
        result = run_policy(inst, OnlineHarePolicy(relaxation="exact"))
        assert len(result.schedule) == inst.num_tasks
        validate_schedule(result.schedule)


class TestFaults:
    def test_crash_moves_work_off_dead_gpu(self):
        inst = staggered_instance()
        crash_t, dead = 1.2, 0
        result = run_policy(
            inst, OnlineHarePolicy(), crashes=[(crash_t, dead)]
        )
        assert len(result.schedule) == inst.num_tasks
        validate_schedule(result.schedule)
        for a in result.schedule.assignments.values():
            if a.gpu == dead:
                assert a.compute_end <= crash_t + 1e-9

    def test_retraction_counted(self):
        """A crash landing mid-flight on committed work retracts rounds."""
        jobs = [Job(job_id=0, model="a", num_rounds=4, sync_scale=1)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0, 5.0]]),
            sync_time=np.zeros((1, 2)),
        )
        # All rounds are committed at t=0 on gpu0 (no later arrivals);
        # the crash at t=1.5 retracts the unfinished suffix.
        result = run_policy(inst, OnlineHarePolicy(), crashes=[(1.5, 0)])
        assert result.retracted_rounds > 0
        assert len(result.schedule) == inst.num_tasks
        validate_schedule(result.schedule)
        degraded = metrics_from_schedule(result.schedule)
        clean = metrics_from_schedule(
            run_policy(inst, OnlineHarePolicy()).schedule
        )
        assert degraded.makespan >= clean.makespan - 1e-9

    def test_crash_before_any_commitment_is_benign(self):
        jobs = [
            Job(job_id=0, model="a", num_rounds=1, sync_scale=1, arrival=2.0)
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0, 1.0]]),
            sync_time=np.zeros((1, 2)),
        )
        result = run_policy(inst, OnlineHarePolicy(), crashes=[(0.5, 1)])
        assert result.retracted_rounds == 0
        assert len(result.schedule) == inst.num_tasks
