"""Scheduler interface and shared policy helpers.

Every scheme — Hare and the four baselines of §7.1 — is an *offline
planner*: it receives a :class:`~repro.core.job.ProblemInstance` (jobs with
arrival times, the ``T^c``/``T^s`` matrices) and emits a full
:class:`~repro.core.schedule.Schedule`. Baselines that are conceptually
online (FIFO, SRTF, AlloX) respect causality internally: every decision at
virtual time ``t`` uses only jobs with ``a_n <= t``.

Execution over time is the job of :mod:`repro.kernel`: every scheduler can
produce an incremental kernel policy through :meth:`Scheduler.make_policy`
(by default a clairvoyant :class:`~repro.kernel.policies.PlannedPolicy`
over this planner; event-driven schemes override it with a native
policy). The virtual-time gang loop that used to live here
(``run_gang_scheduler``/``GangState``) is gone — the gang baselines now
run on the kernel — while the helpers gang policies share
(:func:`check_gang_feasible`, from :mod:`repro.kernel.policies`,
:func:`gang_run_job`,
:class:`ObliviousPicker`, :func:`fastest_free_gpus`,
:class:`HeapTimeline`) remain here.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from ..core.errors import InfeasibleProblemError
from ..core.job import Job, ProblemInstance
from ..core.schedule import Schedule, ScheduleRow
from ..kernel.policies import check_gang_feasible

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel.policies import Policy


class Scheduler(ABC):
    """Base class: turn a problem instance into a feasible schedule."""

    #: Display name used in result tables (matches the paper's legend).
    name: str = "scheduler"

    @abstractmethod
    def schedule(self, instance: ProblemInstance) -> Schedule:
        """Produce a schedule satisfying constraints (4)-(8)."""

    def make_policy(self, instance: ProblemInstance) -> "Policy":
        """This scheme as an incremental :mod:`repro.kernel` policy.

        The default adapts the offline planner clairvoyantly (solve once
        at t=0, release rounds as their predecessors complete), which
        realizes exactly the offline metrics. Event-driven schemes
        override this with a native policy.
        """
        from ..kernel.policies import PlannedPolicy

        return PlannedPolicy(self)

    def plan(self, instance: ProblemInstance) -> Schedule:
        """A complete schedule for *instance*, offline or via the kernel.

        Offline planners answer through :meth:`schedule`; natively online
        schemes (which raise :class:`NotImplementedError` there) are
        driven through :func:`repro.kernel.run_policy` with every arrival
        known — the clairvoyant rendering of an event-driven policy. Use
        this whenever "give me this scheme's schedule" should work for
        *any* registered scheduler.
        """
        try:
            return self.schedule(instance)
        except NotImplementedError:
            from ..kernel.runner import run_policy

            return run_policy(instance, self.make_policy(instance)).schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def gang_run_job(
    rows: list[ScheduleRow],
    instance: ProblemInstance,
    job: Job,
    gpus: Sequence[int],
    start: float,
) -> float:
    """Execute *job* with one task pinned per GPU, all rounds, from *start*.

    Every round takes ``max_d (T^c + T^s)`` over the assigned GPUs — the
    straggler effect that motivates the paper (§2.2.2): fast GPUs idle at
    the barrier waiting for the slowest one. Appends one
    ``(job, rnd, slot, gpu, start)`` row per task to *rows*
    (:func:`~repro.core.schedule.schedule_from_rows`) and returns the job
    completion time ``C_n``.
    """
    if len(gpus) != job.sync_scale:
        raise InfeasibleProblemError(
            f"job {job.job_id} with scale {job.sync_scale} given "
            f"{len(gpus)} GPUs"
        )
    round_time = max(instance.task_time(job.job_id, m) for m in gpus)
    t = start
    for r in range(job.num_rounds):
        rows.extend(
            (job.job_id, r, slot, m, t) for slot, m in enumerate(gpus)
        )
        t += round_time
    return t


class ObliviousPicker:
    """Heterogeneity-oblivious GPU selection: rotating round-robin.

    A scheduler that believes all GPUs are identical spreads work across
    them without preference; we model that with a rotating cursor over GPU
    indices (deterministic, and unlike "always the lowest index" it
    actually touches the whole cluster — including its slow devices).
    """

    def __init__(self) -> None:
        self._cursor = 0

    def pick(self, free: Sequence[int], count: int) -> list[int]:
        free_sorted = sorted(free)
        if count > len(free_sorted):
            raise InfeasibleProblemError(
                f"picking {count} GPUs from {len(free_sorted)} free"
            )
        start = self._cursor % max(len(free_sorted), 1)
        chosen = [
            free_sorted[(start + i) % len(free_sorted)] for i in range(count)
        ]
        self._cursor += count
        return chosen


def fastest_free_gpus(
    instance: ProblemInstance, job_id: int, free: Sequence[int], count: int
) -> list[int]:
    """The *count* free GPUs with smallest ``T^c + T^s`` for the job."""
    ranked = sorted(free, key=lambda m: (instance.task_time(job_id, m), m))
    return ranked[:count]


class HeapTimeline:
    """Min-heap over per-GPU available times φ_m (Algorithm 1, line 12).

    ``pop_earliest`` returns the GPU with the smallest available time;
    ``push`` re-inserts it with its updated time. Ties break on GPU index
    for determinism.
    """

    def __init__(self, num_gpus: int) -> None:
        self._heap: list[tuple[float, int]] = [(0.0, m) for m in range(num_gpus)]
        heapq.heapify(self._heap)

    def pop_earliest(self) -> tuple[float, int]:
        return heapq.heappop(self._heap)

    def push(self, available: float, gpu: int) -> None:
        heapq.heappush(self._heap, (available, gpu))

    def peek(self) -> tuple[float, int]:
        return self._heap[0]
