"""Crash recovery on the kernel: detection delay, checkpoint rollback,
quarantine snapshots, and how each policy shape re-places lost work."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import run_experiment
from repro.cluster import scaled_cluster
from repro.core import Job, ProblemInstance, validate_schedule
from repro.kernel import KernelCrash, PlannedPolicy, run_policy
from repro.schedulers import HareScheduler, SrtfScheduler

#: One 6-round job; GPU 0 runs a round in 1 s, GPU 1 in 2 s.
CHAIN = ProblemInstance(
    jobs=[Job(job_id=0, model="m", num_rounds=6, sync_scale=1)],
    train_time=np.array([[1.0, 2.0]]),
    sync_time=np.zeros((1, 2)),
)


def _crash(**kw) -> KernelCrash:
    # GPU 0 dies mid round 2 (t=2.5); the detector notices at t=4.
    return KernelCrash(time=2.5, gpu=0, detected_at=4.0, **kw)


class TestPlannedRecovery:
    def test_plan_runs_on_the_fast_gpu(self):
        plan = HareScheduler().schedule(CHAIN)
        assert {a.gpu for a in plan.assignments.values()} == {0}

    def test_retraction_cuts_at_the_crash_and_replans_after_detection(self):
        result = run_policy(
            CHAIN, PlannedPolicy(HareScheduler()), crashes=[_crash()]
        )
        (r,) = result.retractions
        # Rounds 2 and 3 were committed; round 2 computed past the crash.
        assert (r.time, r.job, r.rounds_done) == (4.0, 0, 2)
        assert (r.rounds_lost, r.restore_s) == (0, 0)
        assert result.retracted_rounds == 2
        # 0.5 s of round 2 ran on GPU 0; round 3 (GPU 0, from t=3) did
        # not compute before the crash.
        assert r.lost_work_s == pytest.approx(0.5)
        schedule = result.schedule
        validate_schedule(schedule)
        assert result.replans == 1
        moved = [a for a in schedule.assignments.values() if a.gpu == 1]
        assert sorted(a.task.round_idx for a in moved) == [2, 3, 4, 5]
        assert min(a.start for a in moved) == pytest.approx(4.0)
        assert result.metrics.makespan == pytest.approx(12.0)

    @pytest.mark.parametrize(
        "interval, keep, lost, restore",
        [(2, 2, 0, 0.5), (3, 0, 2, 0.0)],
    )
    def test_rollback_to_the_newest_opened_checkpoint(
        self, interval, keep, lost, restore
    ):
        crash = _crash(checkpoint_interval=interval, restore_s={0: 0.5})
        result = run_policy(
            CHAIN, PlannedPolicy(HareScheduler()), crashes=[crash]
        )
        (r,) = result.retractions
        assert (r.rounds_done, r.rounds_lost, r.restore_s) == (
            keep, lost, restore
        )
        validate_schedule(result.schedule)
        rerun = [
            a for a in result.schedule.assignments.values()
            if a.task.round_idx >= keep
        ]
        assert min(a.start for a in rerun) == pytest.approx(4.0 + restore)

    def test_plain_crash_equals_undetected_crash(self):
        plain = run_policy(
            CHAIN, PlannedPolicy(HareScheduler()), crashes=[(2.5, 0)]
        )
        spec = run_policy(
            CHAIN, PlannedPolicy(HareScheduler()),
            crashes=[KernelCrash(time=2.5, gpu=0)],
        )
        assert plain.retractions == spec.retractions
        assert plain.schedule.assignments == spec.schedule.assignments

    def test_quarantine_snapshot_steers_the_replan(self):
        three = ProblemInstance(
            jobs=[Job(job_id=0, model="m", num_rounds=6, sync_scale=1)],
            train_time=np.array([[1.0, 2.0, 3.0]]),
            sync_time=np.zeros((1, 3)),
        )
        result = run_policy(
            three, PlannedPolicy(HareScheduler()),
            crashes=[_crash(quarantined=frozenset({1}))],
        )
        used = {
            a.gpu for a in result.schedule.assignments.values()
            if a.task.round_idx >= 2
        }
        assert used == {2}


class TestGangRecovery:
    def test_retracted_gang_restarts_from_its_committed_rounds(self):
        result = run_policy(
            CHAIN, SrtfScheduler().make_policy(CHAIN), crashes=[_crash()]
        )
        (r,) = result.retractions
        schedule = result.schedule
        validate_schedule(schedule)
        restarted = sorted(
            (a for a in schedule.assignments.values()
             if a.task.round_idx >= r.rounds_done),
            key=lambda a: a.start,
        )
        alive = {a.gpu for a in restarted}
        assert 0 not in alive
        assert restarted[0].start == pytest.approx(4.0)


class TestFaultsOnlyDelayHare:
    """A crash can shorten a gang baseline's makespan (DESIGN.md §9).

    On ``scaled_cluster(6)`` GPU 2 is a T4. Killing it at t = 0 takes
    ``gavel_fifo``'s slowest device out of its gangs, so the makespan
    falls, while queueing on five GPUs raises the weighted completion.
    Hare places tasks one by one and only loses capacity (measured:
    14.513 s to 15.305 s makespan, 80.738 to 81.078 weighted
    completion). Its plan comes from the exact LP, whose optimal vertex
    can differ between solver builds, so only the direction is asserted
    for Hare.
    """

    @staticmethod
    def _metrics(scheduler, crashes=None):
        return run_experiment(
            cluster=scaled_cluster(6), scheduler=scheduler, seed=0,
            jobs=10, rounds_scale=0.1, simulate=False, trace=False,
            crashes=crashes,
        ).metrics

    def test_a_crash_removes_a_gang_straggler(self):
        assert scaled_cluster(6).labels()[2].startswith("T4")
        free = self._metrics("gavel_fifo")
        hit = self._metrics("gavel_fifo", [(0.0, 2)])
        assert free.makespan == pytest.approx(26.594, abs=1e-3)
        assert hit.makespan == pytest.approx(21.048, abs=1e-3)
        assert free.total_weighted_completion == pytest.approx(
            109.578, abs=1e-3
        )
        assert hit.total_weighted_completion == pytest.approx(
            119.957, abs=1e-3
        )

    def test_the_same_crash_only_delays_hare(self):
        free = self._metrics("hare")
        hit = self._metrics("hare", [(0.0, 2)])
        assert hit.makespan > free.makespan
        assert (
            hit.total_weighted_completion > free.total_weighted_completion
        )
