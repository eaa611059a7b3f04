"""Online (non-clairvoyant) Hare — the paper's stated future work.

The paper's Algorithm 1 is offline: it sees every job's arrival time in
advance, which §1 lists as a limitation ("jobs arrive in different time and
we cannot accurately predict future job arrivals. Online algorithms are
needed"). :class:`OnlineHarePolicy` is the natural event-driven extension,
running natively on :mod:`repro.kernel`:

* the policy re-plans at every job arrival (and at GPU crash and
  ``REPLAN_TIMER`` wake-ups), seeing only the jobs that have arrived;
* each re-plan solves the relaxation over the *remaining* rounds of known
  jobs (committed work is fixed; :mod:`repro.kernel.residual` builds and
  solves that residual), list-schedules them
  from the GPUs' committed availability, and **commits only the rounds
  that start before the next arrival**; everything later is provisional
  and will be reconsidered when new information lands. The list schedule
  stops as soon as no further task can join a committed round (the
  ``horizon`` of :func:`~repro.schedulers.hare.list_schedule`), so a
  re-plan's per-task Python work covers what it commits, not the whole
  residual, and only the committed tasks become objects. The fluid
  relaxation stops there too: π is read lazily from its
  :class:`~repro.schedulers.relaxation.FluidStepper`, which runs only
  the events needed to make the next task certain;
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

from dataclasses import dataclass, field

import numpy as np

from ..core.job import ProblemInstance
from ..core.schedule import Schedule
from ..kernel.events import Event, KernelEventType
from ..kernel.residual import (
    build_residual,
    solve_relaxation,
    start_relaxation,
    to_global,
)
from ..kernel.state import Commitment, KernelState
from ..obs import current as obs_current
from .base import Scheduler
from .hare import (
    Placement,
    _precedence_safe_order,
    _stepped_order,
    list_schedule,
    select_solver,
)
from .registry import register
from .relaxation import (
    FluidRelaxationSolver,
    FluidStepper,
    RelaxationResult,
    RelaxationSolver,
)

#: Events that trigger a re-planning pass.
REPLAN_EVENTS = frozenset(
    {
        KernelEventType.JOB_ARRIVED,
        KernelEventType.GPU_CRASHED,
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
        #: (arrivals, crashes) always re-plan.
        self.replan_min_gap_s = 0.0
        self._last_replan: float | None = None

    # -- Policy protocol -------------------------------------------------
    def setup(self, state: KernelState) -> None:
        self.replans = 0
        self.replan_min_gap_s = 0.0
        self._last_replan = None

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
        known = state.known_jobs()
        usable = state.usable_gpus(known)
        gpu_subset = (
            None if len(usable) == state.instance.num_gpus
            else sorted(usable)
        )
        residual, id_map = build_residual(
            state.instance, known, state.rounds_done, state.ready_at,
            gpu_subset=gpu_subset, weight_boost=state.weight_boost or None,
        )
        if residual is None:
            return []
        solver = select_solver(self.relaxation, residual)
        if isinstance(solver, FluidRelaxationSolver):
            relaxation = start_relaxation(solver, residual)
        else:
            relaxation = solve_relaxation(solver, residual)
        next_arrival = state.next_arrival_time()
        # Rounds starting at or after the horizon stay provisional.
        horizon = None if next_arrival is None else next_arrival - 1e-12
        initial_phi = (
            state.phi if gpu_subset is None else state.phi[gpu_subset]
        ).tolist()
        plan = self._plan(residual, relaxation, initial_phi, horizon)
        self._last_replan = state.now
        self.replans += 1
        obs_current().metrics.counter("kernel.replans").inc()
        return self._commitments(plan, residual, id_map, gpu_subset, horizon)

    def apply_remediation(self, action) -> bool:
        """Accept ``throttle_replans`` (clamp the timer wake-up rate)."""
        if getattr(action, "kind", None) != "throttle_replans":
            return False
        gap = float(action.params.get("min_gap_s", 0.0))
        if gap <= 0.0:
            return False
        self.replan_min_gap_s = max(self.replan_min_gap_s, gap)
        return True

    def _plan(
        self,
        residual: ProblemInstance,
        relaxation: RelaxationResult | FluidStepper,
        initial_phi: list[float],
        horizon: float | None,
    ) -> Schedule:
        """List-schedule the residual until no further task can join a
        round that starts before *horizon* (all of it when ``None``).

        A fluid relaxation arrives as its stepper, at its start: π is read
        from it lazily, so the fluid runs only as far as the list
        schedule places tasks."""
        if isinstance(relaxation, FluidStepper):
            order = _stepped_order(residual, relaxation)
        else:
            order = _precedence_safe_order(residual, relaxation)
        return list_schedule(
            residual, order, placement=self.placement,
            initial_phi=initial_phi, horizon=horizon,
        )

    def _commitments(
        self,
        plan: Schedule,
        residual: ProblemInstance,
        id_map: list[tuple[int, int]],
        gpu_subset: list[int] | None,
        horizon: float | None,
    ) -> list[Commitment]:
        """One commitment per residual round that starts before *horizon*.

        A ``None`` horizon (the final arrival) commits the whole plan. A
        truncated plan lacks only tasks that start at or after the
        horizon, in rounds that would not be committed anyway. The plan
        is read as columns: the committed rounds' rows are gathered in
        canonical order, moved to the base instance's frame
        (:func:`~repro.kernel.residual.to_global`) and cut into one
        block per round.
        """
        n = residual.num_tasks
        row = np.full(n, -1, dtype=np.int64)
        row[plan.canon] = np.arange(len(plan))
        start = np.full(n, np.inf)
        start[plan.canon] = plan.start
        job, rnd, slot = residual.task_columns()
        # Canonical order holds each round's tasks as one block, and each
        # job's rounds as consecutive blocks.
        first = np.flatnonzero(
            (np.diff(job, prepend=-1) != 0) | (np.diff(rnd, prepend=-1) != 0)
        )
        cut = np.inf if horizon is None else horizon
        ok = np.logical_and.reduceat(row >= 0, first)
        ok &= np.minimum.reduceat(start, first) < cut
        # A job commits its rounds up to its first round that is not ok:
        # the rounds with no failed round of their job at or before them.
        failed = np.cumsum(~ok)
        job_first = np.flatnonzero(np.diff(job[first], prepend=-1))
        failed_before = np.repeat(
            (failed - ~ok)[job_first], np.diff(job_first, append=len(first))
        )
        keep = failed == failed_before
        sizes = np.diff(first, append=n)
        tasks = np.repeat(keep, sizes)
        take = row[tasks]
        g_job, g_rnd, g_gpu = to_global(
            job[tasks], rnd[tasks], plan.gpu[take], id_map, gpu_subset
        )
        columns = (
            g_rnd, slot[tasks], g_gpu, plan.start[take], plan.train[take],
            plan.sync[take],
        )
        hi = np.cumsum(sizes[keep])
        lo = hi - sizes[keep]
        return [
            Commitment(job_id, *(col[a:b] for col in columns))
            for job_id, a, b in zip(
                g_job[lo].tolist(), lo.tolist(), hi.tolist()
            )
        ]


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
