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
policy). The gang baselines run on the kernel, where a gang's rows come
from :func:`repro.kernel.policies.gang_commitment`; the GPU pickers they
share (:class:`ObliviousPicker`, :func:`fastest_free_gpus`) live here,
beside :func:`check_gang_feasible`, re-exported from
:mod:`repro.kernel.policies`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from ..core.errors import InfeasibleProblemError
from ..core.job import ProblemInstance
from ..core.schedule import Schedule
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
