"""Schedule representation and validation against constraints (4)-(8).

A :class:`Schedule` is the output of an offline scheduler: for every task it
records the GPU assignment (the paper's ``y_{i,m}``), the start time
(``x_i``), and the realized training / synchronization durations. The module
also provides :func:`validate_schedule`, which checks the full Hare_Sched
constraint set, and helpers to derive per-GPU task sequences and per-job
completion times.

Checks and metrics read a :class:`ScheduleColumns` view — the schedule as
numpy columns — rather than walking the per-task objects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping

import numpy as np

from .errors import ScheduleValidationError
from .job import ProblemInstance
from .types import TaskRef

#: Start-time comparisons tolerate this much float slack (seconds).
TIME_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class TaskAssignment:
    """Placement of one task: GPU, start time and durations.

    ``train_time``/``sync_time`` are stored explicitly (instead of looked up
    from the instance) so a schedule can also represent *realized* execution
    from the simulator, where switching overhead inflates the span.
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


@dataclass(slots=True)
class Schedule:
    """A complete task schedule for a problem instance."""

    instance: ProblemInstance
    assignments: dict[TaskRef, TaskAssignment] = field(default_factory=dict)

    def add(self, assignment: TaskAssignment) -> None:
        if assignment.task in self.assignments:
            raise ScheduleValidationError(
                5, f"task {assignment.task} assigned twice"
            )
        self.assignments[assignment.task] = assignment

    def __len__(self) -> int:
        return len(self.assignments)

    def __contains__(self, task: TaskRef) -> bool:
        return task in self.assignments

    def __getitem__(self, task: TaskRef) -> TaskAssignment:
        return self.assignments[task]

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def columns(self) -> ScheduleColumns:
        """The schedule as columns, built by one pass over the assignments.

        Built on every call and never stored, so no mutation of
        :attr:`assignments` can leave a view stale.
        """
        keys = self.assignments.keys()
        rows = self.assignments.values()
        n = len(keys)

        def col(objs, name, dtype):
            return np.fromiter(map(attrgetter(name), objs), dtype, count=n)

        return ScheduleColumns(
            self.instance,
            col(keys, "job_id", np.int64),
            col(keys, "round_idx", np.int64),
            col(keys, "slot", np.int64),
            col(rows, "gpu", np.int64),
            col(rows, "start", np.float64),
            col(rows, "train_time", np.float64),
            col(rows, "sync_time", np.float64),
        )

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

    def round_end(self, job_id: int, round_idx: int) -> float:
        """Completion (post-sync) time of a round: max end over its tasks."""
        job = self.instance.jobs[job_id]
        ends = [
            self.assignments[t].end for t in job.round_tasks(round_idx)
            if t in self.assignments
        ]
        if len(ends) != job.sync_scale:
            raise ScheduleValidationError(
                5,
                f"job {job_id} round {round_idx} has {len(ends)} scheduled "
                f"tasks, expected {job.sync_scale}",
            )
        return max(ends)

    def job_completion(self, job_id: int) -> float:
        """``C_n``: the end of the job's last round."""
        job = self.instance.jobs[job_id]
        return self.round_end(job_id, job.num_rounds - 1)

    def completions(self) -> dict[int, float]:
        """``C_n`` for every job."""
        return self.columns().completions()

    def makespan(self) -> float:
        """Latest task end over all jobs (0 for an empty schedule)."""
        return self.columns().makespan()

    def total_weighted_completion(self) -> float:
        """The paper's objective ``Σ_n w_n · C_n``."""
        return sum(
            job.weight * self.job_completion(job.job_id)
            for job in self.instance.jobs
        )


class ScheduleColumns:
    """A schedule as numpy columns, one row per assignment.

    Rows keep the schedule's insertion order. ``job``/``rnd``/``slot``
    name each row's task, ``gpu``/``start``/``train``/``sync`` its
    placement, and ``canon`` its position in ``instance.all_tasks()``
    order — ``off[job] + rnd · sync_scale + slot`` — or -1 for a task the
    instance does not have. :meth:`Schedule.columns` builds the view from
    the objects; the array kernel and the cell merge build it straight
    from their arrays and only materialize objects on demand
    (:meth:`to_schedule`).
    """

    __slots__ = (
        "instance", "job", "rnd", "slot", "gpu",
        "start", "train", "sync", "canon", "_off", "_rounds", "_scale",
    )

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
        jobs = instance.jobs
        nj = len(jobs)
        self._rounds = np.fromiter(
            (j.num_rounds for j in jobs), np.int64, count=nj
        )
        self._scale = np.fromiter(
            (j.sync_scale for j in jobs), np.int64, count=nj
        )
        self._off = np.zeros(nj + 1, dtype=np.int64)
        np.cumsum(self._rounds * self._scale, out=self._off[1:])
        # Unknown job ids index a sentinel job with no rounds.
        j = np.where((self.job >= 0) & (self.job < nj), self.job, nj)
        rounds = np.append(self._rounds, 0)
        scale = np.append(self._scale, 0)
        known = (self.rnd >= 0) & (self.rnd < rounds[j])
        known &= (self.slot >= 0) & (self.slot < scale[j])
        self.canon = np.where(
            known, self._off[j] + self.rnd * scale[j] + self.slot, -1
        )

    def __len__(self) -> int:
        return len(self.job)

    @property
    def end(self) -> np.ndarray:
        """Per-row ``(start + train) + sync``, bit-equal to
        :attr:`TaskAssignment.end`."""
        return (self.start + self.train) + self.sync

    def _canonical_task(self, k: int) -> TaskRef:
        """The instance task at canonical index *k*."""
        j = int(np.searchsorted(self._off, k, side="right")) - 1
        r, s = divmod(k - int(self._off[j]), int(self._scale[j]))
        return TaskRef(j, r, s)

    def _rows_by_canon(self) -> np.ndarray:
        """Row holding each instance task, in canonical order (-1: none)."""
        rows = np.full(int(self._off[-1]), -1, dtype=np.int64)
        known = self.canon >= 0
        rows[self.canon[known]] = np.flatnonzero(known)
        return rows

    def canonical_rows(self) -> np.ndarray:
        """Row holding each instance task, in ``all_tasks()`` order.

        Raises :class:`KeyError` naming the first task the view lacks;
        rows for tasks the instance does not have are ignored.
        """
        rows = self._rows_by_canon()
        if rows.size and rows.min() < 0:
            raise KeyError(self._canonical_task(int(rows.argmin())))
        return rows

    def completions(self) -> dict[int, float]:
        """``C_n`` for every job: the max end over its final round.

        Raises the same :class:`ScheduleValidationError` as
        :meth:`Schedule.round_end` for the first job, by id, whose final
        round is not fully scheduled.
        """
        num_jobs = len(self._rounds)
        final = self.canon >= 0
        final[final] = self.rnd[final] == self._rounds[self.job[final]] - 1
        counts = np.bincount(self.job[final], minlength=num_jobs)
        short = np.flatnonzero(counts != self._scale)
        if short.size:
            j = int(short[0])
            raise ScheduleValidationError(
                5,
                f"job {j} round {int(self._rounds[j]) - 1} has "
                f"{int(counts[j])} scheduled tasks, expected "
                f"{int(self._scale[j])}",
            )
        comp = np.full(num_jobs, -np.inf)
        np.maximum.at(comp, self.job[final], self.end[final])
        return dict(enumerate(comp.tolist()))

    def makespan(self) -> float:
        """Latest task end (0 for an empty schedule)."""
        return float(self.end.max()) if len(self) else 0.0

    def to_schedule(self) -> Schedule:
        """Materialize one :class:`TaskAssignment` per row, in row order.

        Rows must name distinct tasks (the kernel log and the cell merge
        guarantee it), so no duplicate check is made.
        """
        sched = Schedule(self.instance)
        assignments = sched.assignments
        for j, r, s, g, st, tr, sy in zip(
            self.job.tolist(), self.rnd.tolist(), self.slot.tolist(),
            self.gpu.tolist(), self.start.tolist(), self.train.tolist(),
            self.sync.tolist(),
        ):
            task = TaskRef(j, r, s)
            assignments[task] = TaskAssignment(
                task=task, gpu=g, start=st, train_time=tr, sync_time=sy
            )
        return sched


def _check_assignment(
    instance: ProblemInstance,
    task: TaskRef,
    a: TaskAssignment,
    *,
    check_durations: bool,
    eps: float,
) -> None:
    """The per-task checks of one assignment, raising on the first failure."""
    job = instance.jobs[task.job_id]
    if not 0 <= a.gpu < instance.num_gpus:
        raise ScheduleValidationError(
            5, f"{task} placed on nonexistent GPU {a.gpu}"
        )
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


def _item(schedule: Schedule, row: int) -> tuple[TaskRef, TaskAssignment]:
    """The (task, assignment) pair at insertion position *row*."""
    return next(itertools.islice(schedule.assignments.items(), row, None))


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
    realized schedules pass ``check_durations=False`` because switching
    overhead legitimately inflates spans (negative ones still fail). A
    non-finite start fails (4) and non-finite durations fail (6) in both
    modes.

    **Precedence.** The error names the first offender of the first
    failing check, in this order:

    1. (5) missing tasks — the count and the smallest missing task — then
       unknown tasks, likewise;
    2. the first assignment in insertion order that fails a per-task
       check, checked as GPU range (5), finite start (4), arrival (4),
       finite durations (6), then the durations rule of the mode (6);
    3. (7) the first round, jobs by id and rounds ascending, that starts
       before its predecessor's barrier;
    4. (8) the first overlapping pair on the first GPU, GPUs in order of
       first appearance, each GPU's tasks by ``(start, task)``.

    **Cost.** One pass over the assignments builds the
    :class:`ScheduleColumns`; every check is then numpy work over the
    columns — masks, per-round ``reduceat`` and one ``lexsort`` — so
    O(n log n) with no per-task Python work.
    """
    inst = schedule.instance
    cols = schedule.columns()

    # (5): full coverage, no duplicates (duplicates impossible by dict).
    canon_rows = cols._rows_by_canon()
    missing = canon_rows < 0
    if missing.any():
        raise ScheduleValidationError(
            5,
            f"{int(missing.sum())} tasks unscheduled, e.g. "
            f"{cols._canonical_task(int(missing.argmax()))}",
        )
    unknown = np.flatnonzero(cols.canon < 0)
    if unknown.size:
        first = unknown[
            np.lexsort(
                (cols.slot[unknown], cols.rnd[unknown], cols.job[unknown])
            )[0]
        ]
        raise ScheduleValidationError(
            5,
            f"{unknown.size} unknown tasks scheduled, e.g. "
            f"{_item(schedule, int(first))[0]}",
        )
    if not len(cols):
        return

    # Per-task checks, each row in the precedence of _check_assignment.
    job, gpu = cols.job, cols.gpu
    start, train, sync = cols.start, cols.train, cols.sync
    arrival = np.fromiter(
        (j.arrival for j in inst.jobs), np.float64, count=inst.num_jobs
    )
    gpu_ok = (gpu >= 0) & (gpu < inst.num_gpus)
    bad = ~gpu_ok | ~np.isfinite(start) | (start < arrival[job] - eps)
    bad |= ~(np.isfinite(train) & np.isfinite(sync))
    with np.errstate(invalid="ignore"):
        if check_durations:
            g = np.where(gpu_ok, gpu, 0)
            bad |= np.abs(train - inst.train_time[job, g]) > eps
            bad |= np.abs(sync - inst.sync_time[job, g]) > eps
        else:
            bad |= (train < 0) | (sync < 0)
    if bad.any():
        task, a = _item(schedule, int(bad.argmax()))
        _check_assignment(
            inst, task, a, check_durations=check_durations, eps=eps
        )

    # (7): synchronization barrier between consecutive rounds, over the
    # rows in canonical order (round blocks of sync_scale rows each).
    block = np.zeros(int(cols._rounds.sum()), dtype=np.int64)
    np.cumsum(np.repeat(cols._scale, cols._rounds)[:-1], out=block[1:])
    round_start = np.minimum.reduceat(start[canon_rows], block)
    round_end = np.maximum.reduceat(cols.end[canon_rows], block)
    first_round = np.cumsum(cols._rounds) - cols._rounds
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
    order = np.lexsort((cols.canon, start, gpu))
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


def schedule_from_mapping(
    instance: ProblemInstance,
    placements: Mapping[TaskRef, tuple[int, float]],
) -> Schedule:
    """Build a Schedule from ``task -> (gpu, start)`` using instance durations."""
    sched = Schedule(instance)
    for task, (gpu, start) in placements.items():
        sched.add(
            TaskAssignment(
                task=task,
                gpu=gpu,
                start=start,
                train_time=instance.tc(task.job_id, gpu),
                sync_time=instance.ts(task.job_id, gpu),
            )
        )
    return sched


def gpu_busy_intervals(
    schedule: Schedule,
) -> dict[int, list[tuple[float, float]]]:
    """Per-GPU sorted ``(start, compute_end)`` intervals (for utilization)."""
    out: dict[int, list[tuple[float, float]]] = {}
    for gpu, seq in schedule.gpu_sequences().items():
        out[gpu] = [(a.start, a.compute_end) for a in seq]
    return out


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
