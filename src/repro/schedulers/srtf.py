"""SRTF baseline (§7.1): Shortest Remaining Time First.

At every decision point the waiting job with the smallest *remaining
runtime estimate* starts first. The paper lists SRTF as a generic baseline
("widely adopted to minimize total job completion time") without Gavel's
heterogeneity customization, so this implementation is
heterogeneity-oblivious like the classic policy: runtimes are estimated
with the cluster-average task time and GPUs are grabbed by index, whatever
their type. Jobs are not preempted once started (the common non-preemptive
DML variant — checkpoint/restart of arbitrary jobs is exactly what these
systems avoid), so "remaining" equals "total" for every queued job.

Unlike FIFO there is no head-of-line blocking: if the shortest job needs
more GPUs than are free, the next-shortest job that fits may start
(shortest-first backfilling).

:class:`SrtfPolicy` is the native :class:`repro.kernel.GangPolicy`;
:meth:`SrtfScheduler.schedule` drives it through the kernel with all
arrivals known.
"""

from __future__ import annotations

import numpy as np

from ..core.job import ProblemInstance
from ..core.schedule import Schedule
from ..kernel.policies import GangPolicy
from ..kernel.runner import run_policy
from ..kernel.state import KernelState
from .base import ObliviousPicker, Scheduler
from .registry import register


class SrtfPolicy(GangPolicy):
    """Shortest-estimated-total first with shortest-first backfilling."""

    name = "SRTF"

    def __init__(self) -> None:
        self._picker = ObliviousPicker()
        self._est_total: np.ndarray | None = None

    def setup(self, state: KernelState) -> None:
        super().setup(state)
        instance = state.instance
        avg_round = instance.mean_task_time()
        self._est_total = instance.num_rounds * avg_round

    def select(
        self, state: KernelState, runnable: list[int], free: list[int]
    ) -> tuple[int, list[int]] | None:
        est_total = self._est_total
        assert est_total is not None
        fitting = [n for n in runnable if self.scale[n] <= len(free)]
        if not fitting:
            return None
        best = min(fitting, key=lambda n: (est_total[n], n))
        return best, self._picker.pick(free, self.scale[best])


@register("srtf", summary="Shortest-remaining-time-first gang execution")
class SrtfScheduler(Scheduler):
    """Non-preemptive shortest-remaining-time-first with gang execution."""

    name = "SRTF"

    def make_policy(self, instance: ProblemInstance) -> SrtfPolicy:
        return SrtfPolicy()

    def schedule(self, instance: ProblemInstance) -> Schedule:
        return run_policy(instance, self.make_policy(instance)).schedule
