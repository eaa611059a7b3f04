"""Sched_Homo baseline: Zhang et al. [47], heterogeneity-oblivious.

The original targets homogeneous GPUs and minimizes total weighted JCT by
exploiting inter-job parallelism (many jobs share the cluster) and intra-job
parallelism (a job's round runs its tasks in parallel), without job-level
preemption. Transplanted onto a heterogeneous cluster — the experiment the
paper runs — its two blind spots are:

* **GPU choice is oblivious**: all GPUs look identical, so it grabs free
  devices by index instead of matching jobs to the GPUs they benefit from;
* **its job ordering uses homogeneous time estimates**: weighted shortest
  processing time computed from the *cluster-average* task time, which
  mis-ranks jobs whose speeds differ wildly across GPU types.

Each round still synchronizes at the pace of the slowest assigned GPU, so
mixed gangs waste the fast devices (Fig. 5/6) — the behaviour that makes
this baseline lose to Hare most at high heterogeneity (Fig. 16).

:class:`SchedHomoPolicy` is the native :class:`repro.kernel.GangPolicy`;
:meth:`SchedHomoScheduler.schedule` drives it through the kernel with all
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


class SchedHomoPolicy(GangPolicy):
    """Weighted-SPT ordering over cluster-average runtime estimates."""

    name = "Sched_Homo"

    def __init__(self) -> None:
        self._picker = ObliviousPicker()
        self._wspt: np.ndarray | None = None

    def setup(self, state: KernelState) -> None:
        super().setup(state)
        instance = state.instance
        # Homogeneous-world estimate of a job's total processing time: the
        # cluster-average round time, times the number of rounds.
        avg_round = instance.mean_task_time()
        # Smallest processing-per-weight first (classic WSPT ordering).
        self._wspt = instance.num_rounds * avg_round / instance.weight

    def select(
        self, state: KernelState, runnable: list[int], free: list[int]
    ) -> tuple[int, list[int]] | None:
        wspt = self._wspt
        assert wspt is not None
        fitting = [n for n in runnable if self.scale[n] <= len(free)]
        if not fitting:
            return None
        best = min(fitting, key=lambda n: (wspt[n], n))
        return best, self._picker.pick(free, self.scale[best])


@register("sched_homo", summary="Weighted-SPT gang, heterogeneity-oblivious")
class SchedHomoScheduler(Scheduler):
    """Weighted-SPT gang scheduler with heterogeneity-oblivious GPU picks."""

    name = "Sched_Homo"

    def make_policy(self, instance: ProblemInstance) -> SchedHomoPolicy:
        return SchedHomoPolicy()

    def schedule(self, instance: ProblemInstance) -> Schedule:
        return run_policy(instance, self.make_policy(instance)).schedule
