"""Test oracles: the straightforward object walks behind schedule checks.

Each function here is the simple per-task Python loop that a columnar
production routine in :mod:`repro.core` replaced. The equivalence suite
(``test_validate_equivalence.py``) pins the production code to these:
the same exception class, constraint and message (or a pass) for
:func:`reference_validate_schedule`, and bit-equal completions and
makespan for :func:`reference_metrics_from_schedule`.

- :func:`reference_validate_schedule` — constraints (4)-(8) as set
  differences, a per-assignment loop, per-round ``round_end`` walks and
  sorted per-GPU object lists. It includes the non-finite rule (a NaN
  or infinite start fails (4), non-finite durations fail (6), in both
  modes), which the loop originally lacked: a NaN start made every
  comparison false and passed.
- :func:`reference_metrics_from_schedule` — completions through
  :func:`reference_round_end` per job, makespan as a max over
  ``TaskAssignment.end``.
- :func:`reference_round_end` — a round's barrier as a walk over its
  assignment objects (once ``Schedule.round_end``).
- :func:`object_walk_rounds` — the ``kernel.round`` args
  (``Schedule.round_spans`` plus ``best``) from grouped
  assignment objects and a strict ``>`` scan for the critical task.

:func:`schedule_of` turns ``TaskAssignment`` objects — with arbitrary
durations, or tasks the instance lacks — into a schedule, for tests
that build or corrupt one object by object.
:func:`assert_same_instance` compares two problem instances column by
column, for the sub-instance equivalence suites.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.core.errors import ConfigurationError, ScheduleValidationError
from repro.core.metrics import ScheduleMetrics, metrics_from_completions
from repro.core.schedule import TIME_EPS, Schedule, TaskAssignment
from repro.core.types import TaskRef


def schedule_of(
    instance, assignments: Iterable[TaskAssignment]
) -> Schedule:
    """A schedule holding *assignments* as its rows, in order, with
    their own durations."""
    rows = [
        (a.task.job_id, a.task.round_idx, a.task.slot, a.gpu, a.start,
         a.train_time, a.sync_time)
        for a in assignments
    ]
    return Schedule(instance, *(zip(*rows) if rows else ((),) * 7))


def reference_validate_schedule(
    schedule: Schedule,
    *,
    check_durations: bool = True,
    eps: float = TIME_EPS,
) -> None:
    """``validate_schedule`` as a walk over the assignment objects."""
    inst = schedule.instance

    # (5): full coverage, no duplicates (duplicates impossible by dict).
    expected = set(inst.all_tasks())
    got = set(schedule.assignments)
    missing = expected - got
    extra = got - expected
    if missing:
        raise ScheduleValidationError(
            5, f"{len(missing)} tasks unscheduled, e.g. {sorted(missing)[0]}"
        )
    if extra:
        raise ScheduleValidationError(
            5, f"{len(extra)} unknown tasks scheduled, e.g. {sorted(extra)[0]}"
        )

    for task, a in schedule.assignments.items():
        job = inst.jobs[task.job_id]
        if not 0 <= a.gpu < inst.num_gpus:
            raise ScheduleValidationError(
                5, f"{task} placed on nonexistent GPU {a.gpu}"
            )
        # (4)
        if not math.isfinite(a.start):
            raise ScheduleValidationError(
                4, f"{task} has non-finite start {a.start}"
            )
        if a.start < job.arrival - eps:
            raise ScheduleValidationError(
                4,
                f"{task} starts at {a.start:.6f} before arrival "
                f"{job.arrival:.6f}",
            )
        if not (math.isfinite(a.train_time) and math.isfinite(a.sync_time)):
            raise ScheduleValidationError(
                6,
                f"{task} has non-finite durations ({a.train_time}, "
                f"{a.sync_time})",
            )
        if check_durations:
            tc = inst.tc(task.job_id, a.gpu)
            ts = inst.ts(task.job_id, a.gpu)
            if abs(a.train_time - tc) > eps or abs(a.sync_time - ts) > eps:
                raise ScheduleValidationError(
                    6,
                    f"{task} durations ({a.train_time}, {a.sync_time}) do not"
                    f" match instance ({tc}, {ts}) on GPU {a.gpu}",
                )
        elif a.train_time < 0 or a.sync_time < 0:
            raise ScheduleValidationError(
                6, f"{task} has negative durations"
            )

    # (7): synchronization barrier between consecutive rounds.
    for job in inst.jobs:
        prev_end = job.arrival
        for r in range(job.num_rounds):
            starts = [schedule[t].start for t in job.round_tasks(r)]
            if min(starts) < prev_end - eps:
                raise ScheduleValidationError(
                    7,
                    f"job {job.job_id} round {r} starts at {min(starts):.6f} "
                    f"before previous round barrier {prev_end:.6f}",
                )
            prev_end = reference_round_end(schedule, job.job_id, r)

    # (8): non-overlap of compute on each GPU.
    for gpu, seq in schedule.gpu_sequences().items():
        for earlier, later in zip(seq, seq[1:]):
            if later.start < earlier.compute_end - eps:
                raise ScheduleValidationError(
                    8,
                    f"GPU {gpu}: {later.task} starts at {later.start:.6f} "
                    f"inside {earlier.task} which computes until "
                    f"{earlier.compute_end:.6f}",
                )


def reference_round_end(
    schedule: Schedule, job_id: int, round_idx: int
) -> float:
    """Completion (post-sync) time of a round: max end over its tasks."""
    instance = schedule.instance
    rounds = int(instance.num_rounds[job_id])
    if not 0 <= round_idx < rounds:
        raise ConfigurationError(
            f"round {round_idx} out of range for job {job_id} "
            f"with {rounds} rounds"
        )
    scale = int(instance.sync_scale[job_id])
    assignments = schedule.assignments
    ends = [
        assignments[t].end
        for t in (TaskRef(job_id, round_idx, d) for d in range(scale))
        if t in assignments
    ]
    if len(ends) != scale:
        raise ScheduleValidationError(
            5,
            f"job {job_id} round {round_idx} has {len(ends)} scheduled "
            f"tasks, expected {scale}",
        )
    return max(ends)


def reference_completions(schedule: Schedule) -> dict[int, float]:
    """``C_n`` per job: ``round_end`` of each job's final round."""
    return {
        job.job_id: reference_round_end(
            schedule, job.job_id, job.num_rounds - 1
        )
        for job in schedule.instance.jobs
    }


def reference_makespan(schedule: Schedule) -> float:
    """Max ``TaskAssignment.end`` (0 for an empty schedule)."""
    if not schedule.assignments:
        return 0.0
    return max(a.end for a in schedule.assignments.values())


def reference_metrics_from_schedule(schedule: Schedule) -> ScheduleMetrics:
    """``metrics_from_schedule`` through the object walks above."""
    return metrics_from_completions(
        schedule.instance.jobs,
        reference_completions(schedule),
        makespan=reference_makespan(schedule),
    )


def object_walk_rounds(instance, schedule: Schedule) -> list[dict]:
    """``kernel.round`` args per (job, round) of *schedule*, by round end.

    The critical task is the first in insertion order with the latest
    end (a strict ``>`` scan).
    """
    by_round: dict[tuple[int, int], list[TaskAssignment]] = {}
    for a in schedule.assignments.values():
        by_round.setdefault((a.task.job_id, a.task.round_idx), []).append(a)
    rounds = []
    for (job_id, r), tasks in by_round.items():
        crit = tasks[0]
        for a in tasks[1:]:
            if a.end > crit.end:
                crit = a
        rounds.append(
            (crit.end, job_id, r, min(a.start for a in tasks), crit)
        )
    rounds.sort(key=lambda item: item[:3])
    return [
        {
            "job": job_id,
            "round": r,
            "start": start,
            "end": end,
            "gpu": crit.gpu,
            "busy": crit.train_time + crit.sync_time,
            "best": instance.best_round_time(job_id),
        }
        for end, job_id, r, start, crit in rounds
    ]


def assert_same_instance(got, want) -> None:
    """*got* and *want* hold the same job table (dtypes and bytes), time
    matrices, GPU labels, ``Job`` values and task columns."""
    for name in ("arrival", "weight", "num_rounds", "sync_scale",
                 "task_offset", "train_time", "sync_time"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.model == want.model
    assert got.batch_scale == want.batch_scale
    assert list(got.gpu_labels) == list(want.gpu_labels)
    assert got.num_tasks == want.num_tasks
    for a, b in zip(got.task_columns(), want.task_columns()):
        assert a.tobytes() == b.tobytes()
    assert got.jobs == tuple(want.jobs)
