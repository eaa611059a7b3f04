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
from itertools import accumulate

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
        horizon, in rounds that would not be committed anyway. One walk
        over the plan's rows counts each ``(job, round)``'s placed tasks
        and earliest start (a round's rows need not be adjacent); a job
        commits its prefix of complete rounds that start before the
        horizon. The committed rows are gathered in canonical order,
        moved to the base instance's frame
        (:func:`~repro.kernel.residual.to_global`) and cut into one
        block per round.
        """
        cut = np.inf if horizon is None else horizon
        # (job, round) -> [tasks placed, earliest start]
        placed: dict[tuple[int, int], list] = {}
        for key, s in zip(
            zip(plan.job.tolist(), plan.rnd.tolist()), plan.start.tolist()
        ):
            seen = placed.get(key)
            if seen is None:
                placed[key] = [1, s]
            else:
                seen[0] += 1
                if s < seen[1]:
                    seen[1] = s
        need = residual.sync_scale.tolist()
        committed = np.zeros(residual.num_jobs, dtype=np.int64)
        sizes: list[int] = []
        for j in sorted({j for j, _ in placed}):
            r = 0
            while (seen := placed.get((j, r))) and (
                seen[0] == need[j] and seen[1] < cut
            ):
                r += 1
            committed[j] = r
            sizes += [need[j]] * r
        rows = np.flatnonzero(plan.rnd < committed[plan.job])
        rows = rows[np.argsort(plan.canon[rows])]
        g_job, g_rnd, g_gpu = to_global(
            plan.job[rows], plan.rnd[rows], plan.gpu[rows], id_map,
            gpu_subset,
        )
        columns = (
            g_rnd, plan.slot[rows], g_gpu, plan.start[rows],
            plan.train[rows], plan.sync[rows],
        )
        job_ids, bounds = g_job.tolist(), [0, *accumulate(sizes)]
        return [
            Commitment(job_ids[a], *(col[a:b] for col in columns))
            for a, b in zip(bounds, bounds[1:])
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
