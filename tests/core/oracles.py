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
  ``Schedule.round_end`` per job, makespan as a max over
  ``TaskAssignment.end``.
"""

from __future__ import annotations

import math

from repro.core.errors import ScheduleValidationError
from repro.core.metrics import ScheduleMetrics, metrics_from_completions
from repro.core.schedule import TIME_EPS, Schedule


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
            prev_end = schedule.round_end(job.job_id, r)

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


def reference_completions(schedule: Schedule) -> dict[int, float]:
    """``C_n`` per job: ``round_end`` of each job's final round."""
    return {
        job.job_id: schedule.round_end(job.job_id, job.num_rounds - 1)
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
