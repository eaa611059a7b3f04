"""Online (non-clairvoyant) Hare — the paper's stated future work.

The paper's Algorithm 1 is offline: it sees every job's arrival time in
advance, which §1 lists as a limitation ("jobs arrive in different time and
we cannot accurately predict future job arrivals. Online algorithms are
needed"). :class:`OnlineHarePolicy` is the natural event-driven extension,
running natively on :mod:`repro.kernel`:

* the policy re-plans at every job arrival (and at GPU crash/restore and
  ``REPLAN_TIMER`` wake-ups), seeing only the jobs that have arrived;
* each re-plan solves the relaxation over the *remaining* rounds of known
  jobs (committed work is fixed) — residual construction and the
  relaxation solve are cached/memoized by the kernel's
  :class:`~repro.kernel.residual.ResidualPlanner` — list-schedules them
  from the GPUs' committed availability, and **commits only the rounds
  that start before the next arrival**; everything later is provisional
  and will be reconsidered when new information lands;
* at the final arrival the whole residual plan is committed.

Commitment is at round granularity: once any task of a round is committed
the whole round is (rounds are short; this keeps the residual problem a
clean :class:`ProblemInstance`). The result is a complete, feasible
schedule produced without future-arrival knowledge — directly comparable
against offline Hare to price clairvoyance.

:class:`OnlineHareScheduler` registers the policy with the scheduler
registry; being natively online it has no offline ``schedule()`` — use
:meth:`~repro.schedulers.base.Scheduler.plan` (which drives
:meth:`make_policy` through the kernel) or
``repro.api.run_experiment(scheduler="hare_online")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.errors import SolverError
from ..core.job import ProblemInstance
from ..core.schedule import Schedule
from ..kernel.events import Event, KernelEventType
from ..kernel.residual import ResidualPlanner, planner_for, to_global
from ..kernel.state import Commitment, KernelState
from ..obs import current as obs_current
from .base import Scheduler
from .hare import (
    AUTO_LP_TASK_LIMIT,
    Placement,
    _precedence_safe_order,
    list_schedule,
)
from .registry import register
from .relaxation import (
    ExactRelaxationSolver,
    FluidRelaxationSolver,
    RelaxationSolver,
)

#: Events that trigger a re-planning pass.
REPLAN_EVENTS = frozenset(
    {
        KernelEventType.JOB_ARRIVED,
        KernelEventType.GPU_CRASHED,
        KernelEventType.GPU_RESTORED,
        KernelEventType.REPLAN_TIMER,
    }
)


class OnlineHarePolicy:
    """Event-driven re-planning Hare without future-arrival knowledge.

    A native :class:`repro.kernel.Policy`: re-plans once per distinct
    wake-up time (the kernel batches simultaneous arrivals, so one pass
    sees them all) and commits provisionally up to the next arrival.
    """

    name = "Hare_Online"

    def __init__(
        self,
        relaxation: str | RelaxationSolver = "fluid",
        placement: Placement = "earliest_finish",
    ) -> None:
        self.relaxation = relaxation
        self.placement = placement
        #: Re-planning passes performed so far (read by the kernel result).
        self.replans = 0
        #: Minimum gap between *timer-driven* re-plans (remediation
        #: ``throttle_replans``); 0 disables. Information-bearing events
        #: (arrivals, crashes, restores) always re-plan.
        self.replan_min_gap_s = 0.0
        self._last_replan: float | None = None
        self._planner: ResidualPlanner | None = None

    def _solver(self, instance: ProblemInstance) -> RelaxationSolver:
        if not isinstance(self.relaxation, str):
            return self.relaxation
        if self.relaxation == "exact":
            return ExactRelaxationSolver()
        if self.relaxation == "fluid":
            return FluidRelaxationSolver()
        if self.relaxation == "auto":
            if instance.num_tasks <= AUTO_LP_TASK_LIMIT:
                return ExactRelaxationSolver()
            return FluidRelaxationSolver()
        raise SolverError(f"unknown relaxation {self.relaxation!r}")

    # -- Policy protocol -------------------------------------------------
    def setup(self, state: KernelState) -> None:
        self.replans = 0
        self.replan_min_gap_s = 0.0
        self._last_replan = None
        # Fresh planner normally; shared (memo-reusing) inside an active
        # kernel.residual.planner_scope — the sweep runner's worker loop.
        self._planner = planner_for(state.instance)

    def on_event(
        self, event: Event, state: KernelState
    ) -> list[Commitment]:
        if event.type not in REPLAN_EVENTS:
            return []
        if self._last_replan is not None and state.now == self._last_replan:
            return []  # one pass per distinct wake-up time
        if (
            event.type == KernelEventType.REPLAN_TIMER
            and self.replan_min_gap_s > 0.0
            and self._last_replan is not None
            and state.now - self._last_replan < self.replan_min_gap_s - 1e-12
        ):
            # Throttled: a timer tick carries no new information, so
            # skipping it cannot lose work — only information-bearing
            # events bypass the gap (no livelock possible).
            obs_current().metrics.counter("kernel.replans_throttled").inc()
            return []
        planner = self._planner
        assert planner is not None
        known = state.known_jobs()
        usable = state.usable_gpus(known)
        gpu_subset = (
            None if len(usable) == state.instance.num_gpus
            else sorted(usable)
        )
        residual, id_map = planner.residual(
            known, state.rounds_done, state.ready_at, gpu_subset=gpu_subset,
            weight_boost=state.weight_boost or None,
        )
        if residual is None:
            return []
        relaxation = planner.solve_relaxation(
            self._solver(residual), residual
        )
        order = _precedence_safe_order(residual, relaxation)
        initial_phi = (
            list(state.phi)
            if gpu_subset is None
            else [state.phi[m] for m in gpu_subset]
        )
        plan = list_schedule(
            residual, order, placement=self.placement,
            initial_phi=initial_phi,
        )
        self._last_replan = state.now
        self.replans += 1
        obs_current().metrics.counter("kernel.replans").inc()
        next_arrival = state.next_arrival_time()
        next_t = math.inf if next_arrival is None else next_arrival
        return self._commitments(
            plan, residual, id_map, gpu_subset, next_t
        )

    def apply_remediation(self, action) -> bool:
        """Accept ``throttle_replans`` (clamp the timer wake-up rate)."""
        if getattr(action, "kind", None) != "throttle_replans":
            return False
        gap = float(action.params.get("min_gap_s", 0.0))
        if gap <= 0.0:
            return False
        self.replan_min_gap_s = max(self.replan_min_gap_s, gap)
        return True

    def _commitments(
        self,
        plan: Schedule,
        residual: ProblemInstance,
        id_map: list[tuple[int, int]],
        gpu_subset: list[int] | None,
        next_t: float,
    ) -> list[Commitment]:
        """One commitment per residual round that starts before *next_t*."""
        out: list[Commitment] = []
        for local_job in residual.jobs:
            for r in range(local_job.num_rounds):
                tasks = local_job.round_tasks(r)
                starts = [plan[task].start for task in tasks]
                if min(starts) >= next_t - 1e-12:
                    break  # later rounds are provisional
                assignments = tuple(
                    to_global(plan[task], id_map, gpu_subset)
                    for task in tasks
                )
                out.append(Commitment(assignments=assignments))
        return out


@register("hare_online", summary="Event-driven re-planning Hare (online)")
@dataclass(slots=True)
class OnlineHareScheduler(Scheduler):
    """Registry entry for :class:`OnlineHarePolicy`.

    The scheme is natively online, so there is no offline ``schedule()``;
    use :meth:`~repro.schedulers.base.Scheduler.plan` (which drives
    :meth:`make_policy` through the kernel with every arrival known) or
    ``repro.api.run_experiment(scheduler="hare_online")``.
    """

    relaxation: str | RelaxationSolver = "fluid"
    placement: Placement = "earliest_finish"
    name: str = field(default="Hare_Online", init=False)

    def make_policy(self, instance: ProblemInstance) -> OnlineHarePolicy:
        return OnlineHarePolicy(
            relaxation=self.relaxation, placement=self.placement
        )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        raise NotImplementedError(
            "OnlineHareScheduler has no offline schedule(); use .plan() "
            "or the api's arrivals='streaming' mode"
        )
