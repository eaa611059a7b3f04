"""The policy protocol and the two reusable policy skeletons.

A **policy** is the incremental form of a scheduler: instead of emitting a
full :class:`~repro.core.schedule.Schedule` from a clairvoyant view, it is
woken on typed events and returns :class:`~repro.kernel.state.Commitment`
values. Three shapes cover every scheme in the repo:

:class:`PlannedPolicy`
    Clairvoyant adapter: solve the whole instance once, then release each
    round's assignments as its precedence predecessor completes. Any
    offline :class:`~repro.schedulers.base.Scheduler` runs on the kernel
    through this wrapper and realizes *exactly* its offline metrics. A
    GPU crash re-plans the residual with the same planner.
:class:`GangPolicy`
    Base for the §7.1 gang baselines (Gavel_FIFO, SRTF, Sched_Homo): a
    job waits for ``sync_scale`` simultaneously free GPUs, pins one task
    per GPU per round at the pace of the slowest device, and releases the
    GPUs only at job completion. Subclasses implement :meth:`select`. A
    job a crash retracted restarts its remaining rounds as a fresh gang.
native policies
    Schemes that genuinely re-plan (online Hare) implement
    :class:`Policy` directly — see ``repro.schedulers.online``.

This module deliberately imports nothing from ``repro.schedulers``; the
planner objects it adapts are duck-typed (``schedule(instance)`` and
``plan(instance)``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from ..core.errors import InfeasibleProblemError
from ..core.schedule import Schedule, TaskAssignment
from ..core.types import TaskRef
from .events import Event, KernelEventType
from .residual import planner_for, to_global
from .state import KERNEL_EPS, Commitment, KernelState


class Policy(ABC):
    """Incremental scheduler: react to events with commitments."""

    #: Display name (mirrors :attr:`repro.schedulers.base.Scheduler.name`).
    name: str = "policy"

    def setup(self, state: KernelState) -> None:
        """One-time hook before the first event (feasibility checks …)."""

    @abstractmethod
    def on_event(
        self, event: Event, state: KernelState
    ) -> list[Commitment]:
        """Decide at ``state.now``; return [] to wait.

        The kernel re-invokes with the same event until the policy
        returns no commitments (a fixed point), so one invocation may
        commit conservatively and rely on being asked again.
        """

    def apply_remediation(self, action) -> bool:
        """Accept or decline a remediation action (``repro.heal``).

        *action* is a :class:`~repro.heal.actions.RemediationAction`
        (duck-typed here to keep the kernel free of a heal import).
        The base policy supports none of them — a clairvoyant plan has
        nothing to throttle or boost — so everything is declined;
        adaptive policies override (see
        :meth:`repro.schedulers.online.OnlineHarePolicy.apply_remediation`).
        """
        return False

    def passive_events(
        self, state: KernelState
    ) -> frozenset[KernelEventType]:
        """Event types this policy provably ignores *in the current state*.

        The array loop's :class:`GangPolicy` batch path bulk-skips whole
        batches made of passive events instead of invoking the policy per
        event (its :class:`PlannedPolicy` path replays the plan as one
        block and never asks). Declaring a type passive is a contract:
        until the next non-passive event is processed, (a) applying an
        event of that type mutates no kernel state (only the pure
        wake-ups ``ROUND_BARRIER_OPEN`` / ``GPU_FREE`` qualify) and (b)
        :meth:`on_event` would return ``[]`` with no side effects. Both
        conditions must be stable across the skipped stretch — they may
        only depend on state that non-passive events change. The default
        claims nothing, which is always safe.
        """
        return frozenset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class PlannedPolicy(Policy):
    """Run an offline planner's schedule through the kernel, verbatim.

    The plan is computed lazily at :meth:`setup` (the planner sees the
    full instance — this wrapper *is* the clairvoyant mode). A job's next
    round is committed when its ``JOB_ARRIVED`` (round 0) or its
    predecessor's ``ROUND_BARRIER_OPEN`` fires. Since commitments carry
    the plan's absolute start times, the committed schedule equals the
    plan assignment-for-assignment.

    When a GPU the plan uses dies, the first event after the crash
    re-plans the residual — every job's remaining rounds — with the same
    planner, on the usable GPUs (:meth:`KernelState.usable_gpus`). The
    planner takes no per-GPU availability, so every residual job is made
    ready no earlier than the time all alive GPUs' committed work
    drains, which keeps the new plan off in-flight rounds.
    """

    def __init__(self, planner) -> None:
        self.planner = planner
        self.name = getattr(planner, "name", type(planner).__name__)
        self._plan: Schedule | None = None
        #: The alive GPUs the current plan was made for.
        self._alive: frozenset[int] = frozenset()
        #: Residual re-plans performed (read by the kernel result).
        self.replans = 0

    def setup(self, state: KernelState) -> None:
        self._plan = self.planner.schedule(state.instance)
        self._alive = frozenset(state.alive)
        self.replans = 0

    def _round_commitment(
        self, state: KernelState, job_id: int, round_idx: int
    ) -> list[Commitment]:
        job = state.instance.jobs[job_id]
        if (
            round_idx >= job.num_rounds
            or round_idx != state.rounds_done[job_id]
        ):
            return []
        assert self._plan is not None
        assignments = tuple(
            self._plan[task] for task in job.round_tasks(round_idx)
        )
        return [Commitment(assignments=assignments)]

    def on_event(
        self, event: Event, state: KernelState
    ) -> list[Commitment]:
        if not self._alive <= state.alive:
            return self._replan(state)
        if event.type == KernelEventType.JOB_ARRIVED:
            return self._round_commitment(state, event.payload, 0)
        if event.type == KernelEventType.ROUND_BARRIER_OPEN:
            job_id, round_idx = event.payload
            return self._round_commitment(state, job_id, round_idx + 1)
        return []

    def _replan(self, state: KernelState) -> list[Commitment]:
        """Re-plan the residual after a crash; release every job whose
        predecessor barrier has already opened (the rest wait for their
        ``ROUND_BARRIER_OPEN`` or ``JOB_ARRIVED``)."""
        self._alive = frozenset(state.alive)
        instance = state.instance
        drain = max([state.now] + [state.phi[m] for m in state.alive])
        ready = {
            j.job_id: max(state.ready_at[j.job_id], drain)
            for j in instance.jobs
        }
        usable = state.usable_gpus(instance.jobs)
        gpu_subset = (
            None if len(usable) == instance.num_gpus else sorted(usable)
        )
        planner = planner_for(instance)
        residual, id_map = planner.residual(
            instance.jobs, state.rounds_done, ready, gpu_subset=gpu_subset,
            weight_boost=state.weight_boost or None,
        )
        if residual is None:
            return []
        local = planner.plan(self.planner, residual)
        self.replans += 1
        self._plan = Schedule(instance)
        for a in local.assignments.values():
            self._plan.add(to_global(a, id_map, gpu_subset))
        out: list[Commitment] = []
        for job_id, done in id_map:
            if job_id not in state.arrived:
                continue
            if (
                done == 0
                or state.committed.round_end(job_id, done - 1)
                <= state.now + KERNEL_EPS
            ):
                out.extend(self._round_commitment(state, job_id, done))
        return out


class GangPolicy(Policy):
    """Gang execution: exclusive GPUs for a job's whole lifetime.

    At every wake-up the policy sees the arrived-but-unstarted jobs and
    the currently free GPUs and may start one job (:meth:`select`); the
    kernel's fixed-point re-invocation lets several jobs start at the
    same instant, exactly like the retired virtual-time gang loop. Every
    round takes ``max_m (T^c + T^s)`` over the gang — the straggler
    effect of §2.2.2 — and the GPUs are released only at job completion
    (``gpu_release``), modeling job-level non-preemption.
    """

    def setup(self, state: KernelState) -> None:
        for job in state.instance.jobs:
            if job.sync_scale > state.instance.num_gpus:
                raise InfeasibleProblemError(
                    f"job {job.job_id} needs {job.sync_scale} simultaneous "
                    f"GPUs but the cluster has {state.instance.num_gpus}"
                )

    @abstractmethod
    def select(
        self, state: KernelState, runnable: list[int], free: list[int]
    ) -> tuple[int, list[int]] | None:
        """Pick (job_id, gpus) to start now, or ``None`` to wait.

        Must be a **pure function of its arguments**: no mutation, and a
        ``None`` return must stay ``None`` until the state changes. The
        array backend relies on this to run one fixed point per event
        *batch* instead of one per event — with a stateful ``select``
        the two loops could diverge.
        """

    def on_event(
        self, event: Event, state: KernelState
    ) -> list[Commitment]:
        # Arrived jobs with rounds left: without a crash exactly the
        # unstarted ones (a gang commits every round at once); a crash
        # adds the jobs it retracted, which restart as a fresh gang.
        runnable = [
            n for n in sorted(state.arrived) if state.remaining_rounds(n)
        ]
        if not runnable:
            return []
        free = state.free_gpus()
        decision = self.select(state, runnable, free)
        if decision is None:
            return []
        job_id, gpus = decision
        job = state.instance.jobs[job_id]
        start = max(state.now, job.arrival, state.ready_at[job_id])
        return [gang_commitment(state, job_id, gpus, start)]

    def passive_events(
        self, state: KernelState
    ) -> frozenset[KernelEventType]:
        """With no waiting job, wake-ups cannot start anything.

        ``unstarted()`` only grows on ``JOB_ARRIVED`` (or crash
        retraction) — never passive types — so the claim is stable
        across a skipped stretch.
        """
        if state.unstarted():
            return frozenset()
        return frozenset(
            {KernelEventType.ROUND_BARRIER_OPEN, KernelEventType.GPU_FREE}
        )


def gang_commitment(
    state: KernelState, job_id: int, gpus: Sequence[int], start: float
) -> Commitment:
    """The remaining rounds of *job_id* pinned one-task-per-GPU from
    *start* (every round, unless a crash retracted a started gang)."""
    instance = state.instance
    job = instance.jobs[job_id]
    if len(gpus) != job.sync_scale:
        raise InfeasibleProblemError(
            f"job {job_id} with scale {job.sync_scale} given "
            f"{len(gpus)} GPUs"
        )
    round_time = max(instance.task_time(job_id, m) for m in gpus)
    assignments: list[TaskAssignment] = []
    t = start
    for r in range(state.rounds_done[job_id], job.num_rounds):
        for slot, m in enumerate(gpus):
            assignments.append(
                TaskAssignment(
                    task=TaskRef(job_id, r, slot),
                    gpu=m,
                    start=t,
                    train_time=instance.tc(job_id, m),
                    sync_time=instance.ts(job_id, m),
                )
            )
        t += round_time
    return Commitment(
        assignments=tuple(assignments),
        gpu_release={m: t for m in gpus},
    )
