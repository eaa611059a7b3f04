"""Gang policies on the kernel vs the retired virtual-time loop.

``run_gang_scheduler``/``GangState`` were deleted from
``repro.schedulers.base`` when the gang baselines became native kernel
policies. This file keeps a faithful copy of that loop as an *oracle* and
asserts the kernel-driven schedulers reproduce it assignment-for-
assignment — the refactor's no-behavior-change guarantee.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GangDoesNotFitError,
    InfeasibleProblemError,
    Job,
    ProblemInstance,
    validate_schedule,
)
from repro.core.schedule import Schedule, ScheduleRow, schedule_from_rows
from repro.kernel import KernelState, gang_commitment, run_policy
from repro.schedulers import (
    GavelFifoPolicy,
    GavelFifoScheduler,
    SchedHomoPolicy,
    SchedHomoScheduler,
    SrtfPolicy,
    SrtfScheduler,
)
from repro.schedulers.base import (
    ObliviousPicker,
    check_gang_feasible,
    fastest_free_gpus,
)

from tests.conftest import make_random_instance


# -- the retired loop, verbatim semantics --------------------------------
def gang_rows(
    rows: list[ScheduleRow],
    instance: ProblemInstance,
    job: Job,
    gpus: list[int],
    start: float,
) -> float:
    """The retired loop's gang rule: *job* pinned one task per GPU from
    *start*, every round at the gang's slowest ``T^c + T^s``. Appends one
    ``(job, rnd, slot, gpu, start)`` row per task to *rows* and returns
    the job's completion time."""
    round_time = max(instance.task_time(job.job_id, m) for m in gpus)
    t = start
    for r in range(job.num_rounds):
        rows.extend(
            (job.job_id, r, slot, m, t) for slot, m in enumerate(gpus)
        )
        t += round_time
    return t


def legacy_gang_schedule(instance: ProblemInstance, select) -> Schedule:
    """The pre-kernel virtual-time gang loop (oracle copy).

    *select(t, runnable, free) -> (job_id, gpus) | None* mirrors the old
    module-level policy closures.
    """
    check_gang_feasible(instance)
    rows: list[ScheduleRow] = []
    gpu_free = [0.0] * instance.num_gpus
    waiting = {j.job_id for j in instance.jobs}
    t = 0.0
    while waiting:
        runnable = sorted(
            n for n in waiting if instance.jobs[n].arrival <= t + 1e-12
        )
        free = [m for m, ft in enumerate(gpu_free) if ft <= t + 1e-12]
        decision = select(t, runnable, free) if runnable else None
        if decision is not None:
            job_id, gpus = decision
            job = instance.jobs[job_id]
            start = max(t, job.arrival)
            completion = gang_rows(rows, instance, job, gpus, start)
            for m in gpus:
                gpu_free[m] = completion
            waiting.discard(job_id)
            continue
        candidates = [ft for ft in gpu_free if ft > t + 1e-12]
        candidates += [
            instance.jobs[n].arrival
            for n in waiting
            if instance.jobs[n].arrival > t + 1e-12
        ]
        if not candidates:
            raise InfeasibleProblemError("stuck")
        t = min(candidates)
    return schedule_from_rows(instance, rows)


def legacy_fifo(instance: ProblemInstance) -> Schedule:
    def select(t, runnable, free):
        head = min(runnable, key=lambda n: (instance.jobs[n].arrival, n))
        need = instance.jobs[head].sync_scale
        if len(free) < need:
            return None
        return head, fastest_free_gpus(instance, head, free, need)

    return legacy_gang_schedule(instance, select)


def legacy_srtf(instance: ProblemInstance) -> Schedule:
    picker = ObliviousPicker()
    avg = np.mean(instance.train_time + instance.sync_time, axis=1)
    est = [
        instance.jobs[n].num_rounds * avg[n]
        for n in range(instance.num_jobs)
    ]

    def select(t, runnable, free):
        fitting = [
            n for n in runnable
            if instance.jobs[n].sync_scale <= len(free)
        ]
        if not fitting:
            return None
        best = min(fitting, key=lambda n: (est[n], n))
        return best, picker.pick(free, instance.jobs[best].sync_scale)

    return legacy_gang_schedule(instance, select)


def legacy_homo(instance: ProblemInstance) -> Schedule:
    picker = ObliviousPicker()
    avg = np.mean(instance.train_time + instance.sync_time, axis=1)
    est = [
        instance.jobs[n].num_rounds * avg[n]
        for n in range(instance.num_jobs)
    ]

    def select(t, runnable, free):
        fitting = [
            n for n in runnable
            if instance.jobs[n].sync_scale <= len(free)
        ]
        if not fitting:
            return None
        best = min(
            fitting, key=lambda n: (est[n] / instance.jobs[n].weight, n)
        )
        return best, picker.pick(free, instance.jobs[best].sync_scale)

    return legacy_gang_schedule(instance, select)


PAIRS = [
    (GavelFifoScheduler(), legacy_fifo),
    (SrtfScheduler(), legacy_srtf),
    (SchedHomoScheduler(), legacy_homo),
]


def assert_identical(new: Schedule, old: Schedule) -> None:
    assert set(new.assignments) == set(old.assignments)
    for task, a in old.assignments.items():
        b = new.assignments[task]
        assert b.gpu == a.gpu, task
        assert b.start == a.start, task


@pytest.mark.parametrize(
    "scheduler,oracle", PAIRS, ids=[s.name for s, _ in PAIRS]
)
def test_matches_retired_loop_on_random_instances(scheduler, oracle):
    checked = 0
    for seed in range(60):
        inst = make_random_instance(
            seed, max_jobs=5, max_gpus=4, max_rounds=3, max_scale=3
        )
        if any(j.sync_scale > inst.num_gpus for j in inst.jobs):
            continue  # gang-infeasible; both sides would raise
        assert_identical(scheduler.schedule(inst), oracle(inst))
        checked += 1
    assert checked >= 30  # the filter must not hollow the test out


@pytest.mark.parametrize(
    "scheduler,oracle", PAIRS, ids=[s.name for s, _ in PAIRS]
)
def test_matches_retired_loop_on_small_workload(
    scheduler, oracle, small_instance
):
    assert_identical(
        scheduler.schedule(small_instance), oracle(small_instance)
    )


@pytest.mark.parametrize(
    "policy_cls",
    [GavelFifoPolicy, SrtfPolicy, SchedHomoPolicy],
    ids=lambda c: c.__name__,
)
def test_policy_rejects_oversized_gang(policy_cls):
    jobs = [Job(job_id=0, model="m", num_rounds=1, sync_scale=3)]
    inst = ProblemInstance(
        jobs=jobs, train_time=np.ones((1, 2)), sync_time=np.zeros((1, 2))
    )
    with pytest.raises(InfeasibleProblemError, match="simultaneous"):
        run_policy(inst, policy_cls())


@pytest.mark.parametrize(
    "policy_cls",
    [GavelFifoPolicy, SrtfPolicy, SchedHomoPolicy],
    ids=lambda c: c.__name__,
)
def test_crash_below_gang_width_is_refused(policy_cls):
    """A crash retracts a running 3-wide gang on 3 GPUs: it can never
    restart, and the guard names the job, its scale and the alive
    count instead of letting the kernel drain."""
    jobs = [Job(job_id=0, model="m", num_rounds=2, sync_scale=3)]
    inst = ProblemInstance(
        jobs=jobs, train_time=np.ones((1, 3)), sync_time=np.zeros((1, 3))
    )
    with pytest.raises(
        GangDoesNotFitError,
        match="job 0 needs 3 simultaneous GPUs but only 2 are alive$",
    ):
        run_policy(inst, policy_cls(), crashes=[(0.5, 0)])


@pytest.mark.parametrize("key", ["gavel_fifo", "srtf", "sched_homo"])
def test_sharded_crash_below_gang_width_names_global_job(key):
    """Cell 0 (GPUs 0-3) loses GPU 2 while it holds a 4-wide job."""
    from repro import api

    with pytest.raises(GangDoesNotFitError) as info:
        api.run_experiment(
            gpus=16, jobs=20, scheduler=key, seed=1, simulate=False,
            trace=False, cells=4, crashes=((3.0, 2), (8.0, 9)),
        )
    err = info.value
    assert (err.job_id, err.scale, err.alive, err.cell) == (19, 4, 3, 0)
    assert str(err) == (
        "job 19 needs 4 simultaneous GPUs but only 3 are alive in cell 0"
    )


def test_gang_holds_gpus_through_sync_tail():
    """A gang job's GPUs stay busy until completion (gpu_release), so a
    second job cannot slip into the final round's sync window."""
    jobs = [
        Job(job_id=0, model="a", num_rounds=1, sync_scale=1),
        Job(job_id=1, model="b", num_rounds=1, sync_scale=1, arrival=0.5),
    ]
    inst = ProblemInstance(
        jobs=jobs,
        train_time=np.array([[1.0], [1.0]]),
        sync_time=np.array([[2.0], [0.0]]),
    )
    sched = GavelFifoScheduler().schedule(inst)
    # Job 0 occupies gpu0 until 1.0 (compute) + 2.0 (sync) = 3.0.
    assert sched.assignments[next(iter(inst.jobs[1].tasks()))].start == 3.0


class TestGangCommitment:
    """The one gang rule, ``gang_commitment``: a job's rounds pinned one
    task per GPU, each at the pace of the gang's slowest GPU."""

    @pytest.fixture
    def state(self):
        jobs = [Job(job_id=0, model="m", num_rounds=2, sync_scale=2)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0, 2.0, 3.0]]),
            sync_time=np.full((1, 3), 0.1),
        )
        return KernelState(inst)

    def test_round_time_is_slowest_gpu(self, state):
        block = gang_commitment(state, 0, [0, 2], 1.0)
        # round = max(1.1, 3.1) = 3.1; two rounds from t=1.0
        assert block.start.tolist() == [1.0, 1.0, 1.0 + 3.1, 1.0 + 3.1]
        assert block.gpu_release == pytest.approx(1.0 + 2 * 3.1)
        rows = zip(
            [block.job] * len(block.rnd), block.rnd.tolist(),
            block.slot.tolist(), block.gpu.tolist(), block.start.tolist(),
        )
        validate_schedule(schedule_from_rows(state.instance, list(rows)))

    def test_one_row_per_task(self, state):
        block = gang_commitment(state, 0, [0, 1], 0.0)
        tasks = list(zip(block.rnd.tolist(), block.slot.tolist()))
        assert tasks == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert block.gpu.tolist() == [0, 1, 0, 1]

    def test_wrong_gpu_count(self, state):
        with pytest.raises(InfeasibleProblemError, match="given 1 GPUs"):
            gang_commitment(state, 0, [0], 0.0)
