"""Schedule representation and validation against constraints (4)-(8).

A :class:`Schedule` is the output of an offline scheduler: for every task it
records the GPU assignment (the paper's ``y_{i,m}``), the start time
(``x_i``), and the realized training / synchronization durations. The module
also provides :func:`validate_schedule`, which checks the full Hare_Sched
constraint set, and helpers to derive per-GPU task sequences and per-job
completion times.

A schedule is numpy columns, one row per task, built by
:func:`schedule_from_rows` or straight from a producer's arrays. Checks
and metrics read the columns; per-task objects are built only for a
reader that asks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigurationError, ScheduleValidationError
from .job import ProblemInstance
from .types import TaskRef

#: Start-time comparisons tolerate this much float slack (seconds).
TIME_EPS = 1e-9

#: The columns a :class:`Schedule` is built from, in constructor order.
_COLUMNS = ("job", "rnd", "slot", "gpu", "start", "train", "sync")

#: One task's placement as :func:`schedule_from_rows` reads it:
#: ``(job, rnd, slot, gpu, start)``.
ScheduleRow = tuple[int, int, int, int, float]


@dataclass(frozen=True, slots=True)
class TaskAssignment:
    """Placement of one task: GPU, start time and durations.

    ``train_time``/``sync_time`` are stored explicitly (instead of looked up
    from the instance) so a schedule can also represent *realized* execution
    from the simulator, where runtime jitter and GPU slowdowns change the
    durations; a task switch's cost delays the start instead.
    """

    task: TaskRef
    gpu: int
    start: float
    train_time: float
    sync_time: float

    @property
    def compute_end(self) -> float:
        """Time the GPU is released (sync overlaps the next task, §5.2)."""
        return self.start + self.train_time

    @property
    def end(self) -> float:
        """Time the task's gradients are synchronized (round-barrier input)."""
        return self.start + self.train_time + self.sync_time


class Schedule:
    """A task schedule for a problem instance, as numpy columns, one row
    per task.

    Rows keep the producer's order. ``job``/``rnd``/``slot`` name each
    row's task, ``gpu``/``start``/``train``/``sync`` its placement, and
    ``canon`` its position in ``instance.all_tasks()`` order —
    ``task_offset[job] + rnd · sync_scale[job] + slot``, read from the
    instance's job table — or -1 for a task the instance does not have.
    Producers build it straight from their arrays or rows
    (:func:`schedule_from_rows`), and it never changes.
    :attr:`assignments` is a read-only ``task -> TaskAssignment`` mapping
    built on its first read; ``len``, validation and the metrics read the
    columns, so they never build objects. A schedule pickles as its
    columns.
    """

    __slots__ = (
        "instance", "job", "rnd", "slot", "gpu",
        "start", "train", "sync", "canon", "_assignments",
    )
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self, instance: ProblemInstance, job, rnd, slot, gpu, start, train,
        sync,
    ) -> None:
        self.instance = instance
        self.job = np.asarray(job, dtype=np.int64)
        self.rnd = np.asarray(rnd, dtype=np.int64)
        self.slot = np.asarray(slot, dtype=np.int64)
        self.gpu = np.asarray(gpu, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.train = np.asarray(train, dtype=np.float64)
        self.sync = np.asarray(sync, dtype=np.float64)
        self._assignments: Mapping[TaskRef, TaskAssignment] | None = None
        lengths = [len(getattr(self, name)) for name in _COLUMNS]
        if len(set(lengths)) > 1:
            raise ConfigurationError(
                "schedule columns differ in length: "
                + ", ".join(
                    f"{name}={n}" for name, n in zip(_COLUMNS, lengths)
                )
            )
        nj = instance.num_jobs
        # Unknown job ids index a sentinel job with no rounds.
        j = np.where((self.job >= 0) & (self.job < nj), self.job, nj)
        rounds = np.append(instance.num_rounds, 0)
        scale = np.append(instance.sync_scale, 0)
        known = (self.rnd >= 0) & (self.rnd < rounds[j])
        known &= (self.slot >= 0) & (self.slot < scale[j])
        self.canon = np.where(
            known, instance.task_offset[j] + self.rnd * scale[j] + self.slot,
            -1,
        )

    def __reduce__(self):
        return Schedule, (
            self.instance, *(getattr(self, name) for name in _COLUMNS)
        )

    @property
    def assignments(self) -> Mapping[TaskRef, TaskAssignment]:
        """Task → assignment, read-only, in row order; built on first
        read. A task on two rows keeps its last (:func:`validate_schedule`
        rejects it)."""
        if self._assignments is None:
            assignments: dict[TaskRef, TaskAssignment] = {}
            for j, r, s, g, st, tr, sy in zip(
                *(getattr(self, name).tolist() for name in _COLUMNS)
            ):
                task = TaskRef(j, r, s)
                assignments[task] = TaskAssignment(
                    task=task, gpu=g, start=st, train_time=tr, sync_time=sy
                )
            self._assignments = MappingProxyType(assignments)
        return self._assignments

    def __len__(self) -> int:
        return len(self.job)

    def __contains__(self, task: TaskRef) -> bool:
        return task in self.assignments

    def __getitem__(self, task: TaskRef) -> TaskAssignment:
        return self.assignments[task]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.instance == other.instance
            and len(self) == len(other)
            and self.assignments == other.assignments
        )

    def __repr__(self) -> str:
        return (
            f"Schedule(rows={len(self)}, "
            f"jobs={np.unique(self.job).size}, "
            f"gpus={np.unique(self.gpu).size}, "
            f"makespan={self.makespan():.6g})"
        )

    @property
    def end(self) -> np.ndarray:
        """Per-row ``(start + train) + sync``, bit-equal to
        :attr:`TaskAssignment.end`."""
        return (self.start + self.train) + self.sync

    def gpu_sequences(self) -> dict[int, list[TaskAssignment]]:
        """Per-GPU task sequences ordered by start time.

        This is exactly what the Hare scheduler ships to each executor
        (§3, Fig. 9): an ordered list of tasks per GPU.
        """
        seqs: dict[int, list[TaskAssignment]] = {}
        for a in self.assignments.values():
            seqs.setdefault(a.gpu, []).append(a)
        for seq in seqs.values():
            seq.sort(key=lambda a: (a.start, a.task))
        return seqs

    def _canonical_task(self, k: int) -> TaskRef:
        """The instance task at canonical index *k*."""
        inst = self.instance
        j = int(np.searchsorted(inst.task_offset, k, side="right")) - 1
        r, s = divmod(k - int(inst.task_offset[j]), int(inst.sync_scale[j]))
        return TaskRef(j, r, s)

    def _rows_by_canon(self) -> np.ndarray:
        """Row holding each instance task, in canonical order (-1: none)."""
        rows = np.full(self.instance.num_tasks, -1, dtype=np.int64)
        known = self.canon >= 0
        rows[self.canon[known]] = np.flatnonzero(known)
        return rows

    def canonical_rows(self) -> np.ndarray:
        """Row holding each instance task, in ``all_tasks()`` order.

        Raises :class:`KeyError` naming the first task the schedule lacks;
        rows for tasks the instance does not have are ignored.
        """
        rows = self._rows_by_canon()
        if rows.size and rows.min() < 0:
            raise KeyError(self._canonical_task(int(rows.argmin())))
        return rows

    def rows_of(self, tasks: Iterable[TaskRef]) -> list[int]:
        """The row holding each of *tasks* (-1: the schedule lacks it)."""
        by_canon = self._rows_by_canon().tolist()
        inst = self.instance
        rounds, scale = inst.num_rounds.tolist(), inst.sync_scale.tolist()
        off = inst.task_offset.tolist()
        rows = []
        for task in tasks:
            j, r, s = task.job_id, task.round_idx, task.slot
            known = 0 <= j < len(rounds) and 0 <= r < rounds[j]
            if known and 0 <= s < scale[j]:
                rows.append(by_canon[off[j] + r * scale[j] + s])
            else:
                rows.append(-1)
        return rows

    def completions(self) -> dict[int, float]:
        """``C_n`` for every job: the max end over its final round.

        Raises :class:`ScheduleValidationError` (5) for the first job, by
        id, whose final round is not fully scheduled.
        """
        rounds, scale = self.instance.num_rounds, self.instance.sync_scale
        num_jobs = len(rounds)
        final = self.canon >= 0
        final[final] = self.rnd[final] == rounds[self.job[final]] - 1
        counts = np.bincount(self.job[final], minlength=num_jobs)
        short = np.flatnonzero(counts != scale)
        if short.size:
            j = int(short[0])
            raise ScheduleValidationError(
                5,
                f"job {j} round {int(rounds[j]) - 1} has "
                f"{int(counts[j])} scheduled tasks, expected "
                f"{int(scale[j])}",
            )
        comp = np.full(num_jobs, -np.inf)
        np.maximum.at(comp, self.job[final], self.end[final])
        return dict(enumerate(comp.tolist()))

    def makespan(self) -> float:
        """Latest task end (0 for an empty schedule)."""
        return float(self.end.max()) if len(self) else 0.0

    def round_spans(self) -> tuple[np.ndarray, ...]:
        """Every committed round's span, one row per ``(job, round)``.

        Returns the columns ``(job, rnd, start, end, gpu, busy)``, rows
        ordered by ``(end, job, rnd)``. ``start`` is the round's earliest
        task start. ``end``, ``gpu`` and ``busy`` (``train + sync``)
        belong to the round's critical task: the first row, in insertion
        order, with the latest end — the task whose end sets the barrier.
        """
        if not len(self):
            ints, floats = np.empty(0, dtype=np.int64), np.empty(0)
            return ints, ints, floats, floats, ints, floats
        end = self.end
        # Rows grouped by (job, round), latest end first and ties in
        # insertion order: each group's first row is its critical task.
        order = np.lexsort((np.arange(len(self)), -end, self.rnd, self.job))
        job, rnd = self.job[order], self.rnd[order]
        first = np.flatnonzero(
            np.r_[True, (job[1:] != job[:-1]) | (rnd[1:] != rnd[:-1])]
        )
        crit = order[first]
        round_start = np.minimum.reduceat(self.start[order], first)
        emit = np.lexsort((self.rnd[crit], self.job[crit], end[crit]))
        rows = crit[emit]
        return (
            self.job[rows], self.rnd[rows], round_start[emit], end[rows],
            self.gpu[rows], self.train[rows] + self.sync[rows],
        )


def _check_assignment(
    instance: ProblemInstance,
    task: TaskRef,
    a: TaskAssignment,
    *,
    check_durations: bool,
    eps: float,
) -> None:
    """The per-task checks of one assignment, raising on the first failure."""
    arrival = float(instance.arrival[task.job_id])
    if not 0 <= a.gpu < instance.num_gpus:
        raise ScheduleValidationError(
            5, f"{task} placed on nonexistent GPU {a.gpu}"
        )
    if not math.isfinite(a.start):
        raise ScheduleValidationError(
            4, f"{task} has non-finite start {a.start}"
        )
    if a.start < arrival - eps:
        raise ScheduleValidationError(
            4,
            f"{task} starts at {a.start:.6f} before arrival "
            f"{arrival:.6f}",
        )
    if not (math.isfinite(a.train_time) and math.isfinite(a.sync_time)):
        raise ScheduleValidationError(
            6,
            f"{task} has non-finite durations ({a.train_time}, "
            f"{a.sync_time})",
        )
    if check_durations:
        tc = instance.tc(task.job_id, a.gpu)
        ts = instance.ts(task.job_id, a.gpu)
        if abs(a.train_time - tc) > eps or abs(a.sync_time - ts) > eps:
            raise ScheduleValidationError(
                6,
                f"{task} durations ({a.train_time}, {a.sync_time}) do not"
                f" match instance ({tc}, {ts}) on GPU {a.gpu}",
            )
    elif a.train_time < 0 or a.sync_time < 0:
        raise ScheduleValidationError(6, f"{task} has negative durations")


def _task(schedule: Schedule, row: int) -> TaskRef:
    """The task on *row*."""
    return TaskRef(
        int(schedule.job[row]), int(schedule.rnd[row]),
        int(schedule.slot[row]),
    )


def _item(schedule: Schedule, row: int) -> tuple[TaskRef, TaskAssignment]:
    """The (task, assignment) pair on *row* of a schedule whose tasks
    are on one row each."""
    task = _task(schedule, row)
    return task, schedule[task]


def validate_schedule(
    schedule: Schedule,
    *,
    check_durations: bool = True,
    eps: float = TIME_EPS,
) -> None:
    """Raise :class:`ScheduleValidationError` unless the schedule is feasible.

    Checks, in the paper's numbering:

    * (5) every task of every job is assigned exactly once, to one GPU;
    * (4) no task starts before its job's arrival ``a_n``;
    * (7) round ``r+1`` tasks start only after *all* round ``r`` tasks have
      finished training **and** synchronizing;
    * (8) tasks sharing a GPU do not overlap in compute time
      (non-preemption); sync time may overlap the successor's compute.

    With ``check_durations=True`` (the planning case) each assignment's
    durations must equal the instance's ``T^c``/``T^s``; the simulator's
    realized schedules pass ``check_durations=False`` because runtime
    jitter and GPU slowdowns change the realized durations (negative ones
    still fail; a switch's cost delays the start instead). A
    non-finite start fails (4) and non-finite durations fail (6) in both
    modes.

    **Precedence.** The error names the first offender of the first
    failing check, in this order:

    1. (5) missing tasks — the count and the smallest missing task — then
       unknown tasks, then tasks on more than one row, likewise;
    2. the first assignment in insertion order that fails a per-task
       check, checked as GPU range (5), finite start (4), arrival (4),
       finite durations (6), then the durations rule of the mode (6);
    3. (7) the first round, jobs by id and rounds ascending, that starts
       before its predecessor's barrier;
    4. (8) the first overlapping pair on the first GPU, GPUs in order of
       first appearance, each GPU's tasks by ``(start, task)``.

    **Cost.** Every check is numpy work over the schedule's columns —
    one ``bincount``, masks, per-round ``reduceat`` and one ``lexsort``
    — so O(n log n) with no per-task Python work.
    """
    inst = schedule.instance

    # (5): full coverage, then no unknown and no duplicated tasks (a
    # schedule can hold a task on two rows).
    known = schedule.canon >= 0
    times = np.bincount(schedule.canon[known], minlength=inst.num_tasks)
    missing = times == 0
    if missing.any():
        raise ScheduleValidationError(
            5,
            f"{int(missing.sum())} tasks unscheduled, e.g. "
            f"{schedule._canonical_task(int(missing.argmax()))}",
        )
    unknown = np.flatnonzero(~known)
    if unknown.size:
        first = unknown[
            np.lexsort((
                schedule.slot[unknown], schedule.rnd[unknown],
                schedule.job[unknown],
            ))[0]
        ]
        raise ScheduleValidationError(
            5,
            f"{unknown.size} unknown tasks scheduled, e.g. "
            f"{_task(schedule, int(first))}",
        )
    repeated = times > 1
    if repeated.any():
        raise ScheduleValidationError(
            5,
            f"{int(repeated.sum())} tasks assigned more than once, e.g. "
            f"{schedule._canonical_task(int(repeated.argmax()))}",
        )
    if not len(schedule):
        return
    canon_rows = schedule._rows_by_canon()

    # Per-task checks, each row in the precedence of _check_assignment.
    job, gpu = schedule.job, schedule.gpu
    start, train, sync = schedule.start, schedule.train, schedule.sync
    arrival = inst.arrival
    gpu_ok = (gpu >= 0) & (gpu < inst.num_gpus)
    bad = ~gpu_ok | ~np.isfinite(start) | (start < arrival[job] - eps)
    bad |= ~(np.isfinite(train) & np.isfinite(sync))
    with np.errstate(invalid="ignore"):
        if check_durations:
            want_train, want_sync = inst.times(job, np.where(gpu_ok, gpu, 0))
            bad |= np.abs(train - want_train) > eps
            bad |= np.abs(sync - want_sync) > eps
        else:
            bad |= (train < 0) | (sync < 0)
    if bad.any():
        task, a = _item(schedule, int(bad.argmax()))
        _check_assignment(
            inst, task, a, check_durations=check_durations, eps=eps
        )

    # (7): synchronization barrier between consecutive rounds, over the
    # rows in canonical order (round blocks of sync_scale rows each).
    rounds = inst.num_rounds
    block = np.zeros(int(rounds.sum()), dtype=np.int64)
    np.cumsum(np.repeat(inst.sync_scale, rounds)[:-1], out=block[1:])
    round_start = np.minimum.reduceat(start[canon_rows], block)
    round_end = np.maximum.reduceat(schedule.end[canon_rows], block)
    first_round = np.cumsum(rounds) - rounds
    barrier = np.empty_like(round_end)
    barrier[1:] = round_end[:-1]
    barrier[first_round] = arrival
    late = round_start < barrier - eps
    if late.any():
        b = int(late.argmax())
        j = int(np.searchsorted(first_round, b, side="right")) - 1
        raise ScheduleValidationError(
            7,
            f"job {j} round {b - int(first_round[j])} starts at "
            f"{float(round_start[b]):.6f} before previous round barrier "
            f"{float(barrier[b]):.6f}",
        )

    # (8): non-overlap of compute on each GPU — rows by (GPU, start,
    # task), adjacent pairs (canonical order is task order). The report
    # names the first clash on the clashing GPU that appears first.
    order = np.lexsort((schedule.canon, start, gpu))
    g_sorted = gpu[order]
    compute_end = (start + train)[order]
    clash = np.flatnonzero(
        (g_sorted[1:] == g_sorted[:-1])
        & (start[order][1:] < compute_end[:-1] - eps)
    )
    if clash.size:
        clashing = np.unique(g_sorted[clash])
        seen = [int(np.argmax(gpu == g)) for g in clashing]
        g = clashing[int(np.argmin(seen))]
        k = int(clash[np.argmax(g_sorted[clash] == g)])
        earlier = _item(schedule, int(order[k]))[1]
        later = _item(schedule, int(order[k + 1]))[1]
        raise ScheduleValidationError(
            8,
            f"GPU {later.gpu}: {later.task} starts at {later.start:.6f} "
            f"inside {earlier.task} which computes until "
            f"{earlier.compute_end:.6f}",
        )


def schedule_from_rows(
    instance: ProblemInstance, rows: Iterable[ScheduleRow]
) -> Schedule:
    """A schedule from ``(job, rnd, slot, gpu, start)`` rows, in order,
    with each row's durations read from the instance's ``T^c``/``T^s``.

    A task on two rows keeps both (:func:`validate_schedule` names it).
    A row whose job or GPU the instance lacks raises
    :class:`ScheduleValidationError` (5) before any duration is read.
    """
    cols = np.array(list(rows), dtype=np.float64).reshape(-1, 5).T.copy()
    job, rnd, slot, gpu = cols[:4].astype(np.int64)
    start = cols[4]
    bad = (job < 0) | (job >= instance.num_jobs)
    bad |= (gpu < 0) | (gpu >= instance.num_gpus)
    if bad.any():
        k = int(bad.argmax())
        task = TaskRef(int(job[k]), int(rnd[k]), int(slot[k]))
        if not 0 <= task.job_id < instance.num_jobs:
            raise ScheduleValidationError(
                5, f"unknown task {task} scheduled: the instance has no "
                f"job {task.job_id}"
            )
        raise ScheduleValidationError(
            5, f"{task} placed on nonexistent GPU {int(gpu[k])}"
        )
    return Schedule(
        instance, job, rnd, slot, gpu, start, *instance.times(job, gpu)
    )


def schedule_from_mapping(
    instance: ProblemInstance,
    placements: Mapping[TaskRef, tuple[int, float]],
) -> Schedule:
    """Build a Schedule from ``task -> (gpu, start)`` using instance durations."""
    return schedule_from_rows(
        instance,
        (
            (task.job_id, task.round_idx, task.slot, gpu, start)
            for task, (gpu, start) in placements.items()
        ),
    )


def merge_intervals(
    intervals: Iterable[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Merge possibly-overlapping intervals into a disjoint sorted list."""
    items = sorted(intervals)
    merged: list[tuple[float, float]] = []
    for s, e in items:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged
