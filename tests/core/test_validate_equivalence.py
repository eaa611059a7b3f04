"""Columnar checks ≡ the object-walk oracles (Hypothesis).

``validate_schedule`` and the schedule metrics read a
:class:`~repro.core.schedule.ScheduleColumns` view; ``tests/core/oracles.py``
keeps the per-task loops they replaced. On plans from every registered
scheduler — planned, streaming, and streaming at ``cells=4`` — and on
single and double mutations of those plans, the two must agree: the same
exception class, constraint and message (or both pass) in both
``check_durations`` modes, and bit-equal completions and makespan.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import run_sharded
from repro.core import (
    Job,
    ProblemInstance,
    Schedule,
    ScheduleValidationError,
    TaskAssignment,
    TaskRef,
    metrics_from_schedule,
    validate_schedule,
)
from repro.core.errors import InfeasibleProblemError
from repro.kernel import SchedulingKernel, run_policy
from repro.schedulers import OnlineHarePolicy
from repro.schedulers.registry import available, create
from tests.core.oracles import (
    reference_completions,
    reference_makespan,
    reference_metrics_from_schedule,
    reference_validate_schedule,
)

#: (arrivals, cells) plan sources.
MODES = (("planned", 1), ("streaming", 1), ("streaming", 4))

#: Every mutation kind the suite applies to a plan.
KINDS = (
    "missing",
    "unknown_job",
    "unknown_round",
    "unknown_slot",
    "unknown_negative",
    "bad_gpu",
    "negative_gpu",
    "early_start",
    "late_start",
    "wrong_train",
    "wrong_sync",
    "negative_train",
    "nan_start",
    "inf_start",
    "nan_train",
    "inf_sync",
    "gpu_overlap",
    "barrier",
)


@st.composite
def instances(draw):
    n_gpus = draw(st.integers(4, 8))
    n_jobs = draw(st.integers(1, 4))
    jobs = [
        Job(
            job_id=n,
            model=f"m{n % 3}",
            arrival=draw(st.floats(0, 5)),
            weight=draw(st.floats(0.5, 4.0)),
            num_rounds=draw(st.integers(1, 3)),
            sync_scale=draw(st.integers(1, 2)),
        )
        for n in range(n_jobs)
    ]
    tc = np.array(
        [[draw(st.floats(0.1, 5.0)) for _ in range(n_gpus)] for _ in jobs]
    )
    ts = np.array(
        [[draw(st.floats(0.0, 0.5)) for _ in range(n_gpus)] for _ in jobs]
    )
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


def make_plan(inst, key: str, arrivals: str, cells: int) -> Schedule | None:
    sched = create(key)
    try:
        if arrivals == "planned":
            return sched.plan(inst)
        if cells == 1:
            return run_policy(inst, sched.make_policy(inst)).schedule
        return run_sharded(inst, sched, cells=cells).schedule
    except InfeasibleProblemError:
        return None


def mutate(plan: Schedule, kind: str, pick: int, delta: float) -> Schedule:
    """*plan* with one assignment changed, removed or added."""
    inst = plan.instance
    known = set(inst.all_tasks())
    items = [(t, x) for t, x in plan.assignments.items() if t in known]
    if not items:
        return plan
    task, a = items[pick % len(items)]
    job = inst.jobs[task.job_id]
    out = dict(plan.assignments)

    def add(ref: TaskRef) -> None:
        out[ref] = replace(a, task=ref)

    if kind == "missing":
        del out[task]
    elif kind == "unknown_job":
        add(TaskRef(inst.num_jobs + pick % 3, 0, 0))
    elif kind == "unknown_round":
        add(TaskRef(task.job_id, job.num_rounds + pick % 2, task.slot))
    elif kind == "unknown_slot":
        add(TaskRef(task.job_id, task.round_idx, job.sync_scale))
    elif kind == "unknown_negative":
        add(TaskRef(-1 - pick % 2, 0, 0))
    elif kind == "bad_gpu":
        out[task] = replace(a, gpu=inst.num_gpus + pick % 2)
    elif kind == "negative_gpu":
        out[task] = replace(a, gpu=-1)
    elif kind == "early_start":
        out[task] = replace(a, start=job.arrival - delta)
    elif kind == "late_start":
        out[task] = replace(a, start=a.start + delta)
    elif kind == "wrong_train":
        out[task] = replace(a, train_time=a.train_time + delta)
    elif kind == "wrong_sync":
        out[task] = replace(a, sync_time=a.sync_time + delta)
    elif kind == "negative_train":
        out[task] = replace(a, train_time=-delta)
    elif kind == "nan_start":
        out[task] = replace(a, start=math.nan)
    elif kind == "inf_start":
        out[task] = replace(a, start=math.inf)
    elif kind == "nan_train":
        out[task] = replace(a, train_time=math.nan)
    elif kind == "inf_sync":
        out[task] = replace(a, sync_time=math.inf)
    elif kind == "gpu_overlap":
        # Onto another task's GPU at its start, with the durations that
        # GPU really has: an overlap (8) that no earlier check catches.
        donor = items[(pick + 1) % len(items)][1]
        if not 0 <= donor.gpu < inst.num_gpus:
            return plan  # an earlier bad_gpu mutation moved the donor
        out[task] = replace(
            a,
            gpu=donor.gpu,
            start=donor.start,
            train_time=inst.tc(task.job_id, donor.gpu),
            sync_time=inst.ts(task.job_id, donor.gpu),
        )
    elif kind == "barrier":
        # A round > 0 task starting before its predecessor's barrier.
        later = [
            (t, x) for t, x in items[pick % len(items):] + items
            if t.round_idx > 0
        ]
        if later:
            task, a = later[0]
            try:
                barrier = plan.round_end(task.job_id, task.round_idx - 1)
            except ScheduleValidationError:  # that round lost a task
                return plan
            start = max(inst.jobs[task.job_id].arrival, barrier - delta)
            out[task] = replace(a, start=start)
    else:  # pragma: no cover - guards the KINDS table
        raise AssertionError(kind)
    return Schedule(inst, out)


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except ScheduleValidationError as exc:
        return type(exc), exc.constraint, str(exc)


def _finite(plan: Schedule) -> bool:
    return all(
        math.isfinite(a.start + a.train_time + a.sync_time)
        for a in plan.assignments.values()
    )


def assert_equivalent(plan: Schedule) -> None:
    for check_durations in (True, False):
        assert _outcome(
            validate_schedule, plan, check_durations=check_durations
        ) == _outcome(
            reference_validate_schedule, plan, check_durations=check_durations
        ), check_durations
    if _finite(plan):
        assert _outcome(plan.completions) == _outcome(
            reference_completions, plan
        )
        assert plan.makespan() == reference_makespan(plan)
        got = _outcome(metrics_from_schedule, plan)
        assert got == _outcome(reference_metrics_from_schedule, plan)


plan_sources = st.tuples(
    st.sampled_from(available()), st.sampled_from(MODES)
)


@given(inst=instances(), source=plan_sources)
@settings(max_examples=40, deadline=None)
def test_unmutated_plans_agree(inst, source):
    key, (arrivals, cells) = source
    plan = make_plan(inst, key, arrivals, cells)
    if plan is None:
        return
    assert_equivalent(plan)


@pytest.mark.parametrize("kind", KINDS)
@given(
    inst=instances(),
    source=plan_sources,
    pick=st.integers(0, 1000),
    delta=st.sampled_from([1e-6, 0.01, 0.5, 3.0]),
)
@settings(max_examples=12, deadline=None)
def test_single_mutations_agree(kind, inst, source, pick, delta):
    key, (arrivals, cells) = source
    plan = make_plan(inst, key, arrivals, cells)
    if plan is None:
        return
    assert_equivalent(mutate(plan, kind, pick, delta))


@given(
    inst=instances(),
    source=plan_sources,
    kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
    picks=st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
    delta=st.sampled_from([1e-6, 0.5, 3.0]),
)
@settings(max_examples=100, deadline=None)
def test_double_mutations_keep_the_error_precedence(
    inst, source, kinds, picks, delta
):
    key, (arrivals, cells) = source
    plan = make_plan(inst, key, arrivals, cells)
    if plan is None:
        return
    for kind, pick in zip(kinds, picks):
        plan = mutate(plan, kind, pick, delta)
    assert_equivalent(plan)


def test_every_mode_yields_plans():
    """The plan sources are live: each (scheduler, mode) pair plans."""
    jobs = [
        Job(job_id=n, model="m", arrival=float(n), num_rounds=2,
            sync_scale=1 + n % 2)
        for n in range(4)
    ]
    rng = np.random.default_rng(0)
    inst = ProblemInstance(
        jobs=jobs,
        train_time=rng.uniform(0.5, 2.0, (4, 8)),
        sync_time=rng.uniform(0.0, 0.3, (4, 8)),
    )
    for key in available():
        for arrivals, cells in MODES:
            plan = make_plan(inst, key, arrivals, cells)
            assert plan is not None and len(plan) == inst.num_tasks
            validate_schedule(plan)
            assert_equivalent(plan)


def test_overlaps_reported_on_the_first_gpu_to_appear():
    """GPUs are scanned in first-appearance order, not by id."""
    inst = ProblemInstance(
        jobs=[Job(job_id=n, model="m") for n in range(4)],
        train_time=np.ones((4, 2)),
        sync_time=np.zeros((4, 2)),
    )
    plan = Schedule(inst)
    placements = ((0, 1, 0.0), (1, 0, 0.0), (2, 1, 0.5), (3, 0, 0.5))
    for job, gpu, start in placements:
        plan.add(TaskAssignment(TaskRef(job, 0, 0), gpu, start, 1.0, 0.0))
    overlap_on_gpu1 = r"^constraint \(8\): GPU 1:"
    with pytest.raises(ScheduleValidationError, match=overlap_on_gpu1):
        validate_schedule(plan)
    assert_equivalent(plan)


def test_reference_kernel_retraction_is_seen(fig1_instance):
    """Validation after a crash retraction sees the retracted schedule.

    The committed schedule is checked, then the reference kernel's crash
    retraction pops rounds from it (under a re-planning policy: a fixed
    plan refuses the retraction); a view cached from the first check
    would still pass. The second check must fail on coverage exactly as
    the object-walk oracle does.
    """
    kernel = SchedulingKernel(fig1_instance, OnlineHarePolicy())
    result = kernel.run()
    committed = result.schedule
    validate_schedule(committed)
    before = metrics_from_schedule(committed)
    assert before == reference_metrics_from_schedule(committed)
    kernel._apply_crash(0, 0.0)
    assert kernel.retracted_rounds > 0
    got = _outcome(validate_schedule, committed)
    assert got[:2] == (ScheduleValidationError, 5)
    assert got == _outcome(reference_validate_schedule, committed)
    assert _outcome(committed.completions) == _outcome(
        reference_completions, committed
    )


def test_online_crash_run_validates_like_the_oracle():
    """A full re-planning run with retractions: same verdict, same scores."""
    jobs = [Job(job_id=0, model="a", num_rounds=4, sync_scale=1)]
    inst = ProblemInstance(
        jobs=jobs,
        train_time=np.array([[1.0, 5.0]]),
        sync_time=np.zeros((1, 2)),
    )
    result = run_policy(inst, OnlineHarePolicy(), crashes=[(1.5, 0)])
    assert result.retracted_rounds > 0
    assert_equivalent(result.schedule)
    validate_schedule(result.schedule)
    assert result.metrics == reference_metrics_from_schedule(result.schedule)
