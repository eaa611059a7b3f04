"""Gavel_FIFO baseline (§7.1).

FIFO order by arrival, customized for heterogeneous GPUs the way Gavel [29]
does: a starting job takes the *fastest* currently-free GPUs for itself. If
fewer than ``sync_scale`` GPUs are free the job waits — and, being FIFO,
blocks everything behind it (no backfilling), which is why the paper finds
it has "the largest weighted JCT" despite heterogeneity awareness.

The decision rule lives in :class:`GavelFifoPolicy`, a native
:class:`repro.kernel.GangPolicy`; :meth:`GavelFifoScheduler.schedule` is
the offline view — it drives the same policy through the kernel with all
arrivals known.
"""

from __future__ import annotations

from ..core.job import ProblemInstance
from ..core.schedule import Schedule
from ..kernel.policies import GangPolicy
from ..kernel.runner import run_policy
from ..kernel.state import KernelState
from .base import Scheduler, fastest_free_gpus
from .registry import register


class GavelFifoPolicy(GangPolicy):
    """Head-of-line FIFO: only the earliest-arrived waiting job may start."""

    name = "Gavel_FIFO"

    def select(
        self, state: KernelState, runnable: list[int], free: list[int]
    ) -> tuple[int, list[int]] | None:
        # Head of line = earliest arrival (ties: lowest id). Only the
        # head may start; if it does not fit, everyone waits.
        arrival = self.arrival
        head = min(runnable, key=lambda n: (arrival[n], n))
        need = self.scale[head]
        if len(free) < need:
            return None
        return head, fastest_free_gpus(state.instance, head, free, need)


@register("gavel_fifo", summary="FIFO gang scheduling, no backfill")
class GavelFifoScheduler(Scheduler):
    """Heterogeneity-aware FIFO with gang scheduling and no backfill."""

    name = "Gavel_FIFO"

    def make_policy(self, instance: ProblemInstance) -> GavelFifoPolicy:
        return GavelFifoPolicy()

    def schedule(self, instance: ProblemInstance) -> Schedule:
        return run_policy(instance, self.make_policy(instance)).schedule
