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
from itertools import accumulate
from typing import Sequence

import numpy as np

from ..core.errors import GangDoesNotFitError, InfeasibleProblemError
from ..core.job import ProblemInstance
from ..core.schedule import Schedule
from .events import Event, KernelEventType
from .residual import build_residual, replan, to_global
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class PlannedPolicy(Policy):
    """Run an offline planner's schedule through the kernel, verbatim.

    The plan is computed at :meth:`setup` (the planner sees the full
    instance — this wrapper *is* the clairvoyant mode) and kept as
    canonical columns. A job's next round, a slice of them, is committed
    when its ``JOB_ARRIVED`` (round 0) or its predecessor's
    ``ROUND_BARRIER_OPEN`` fires. Since commitments carry the plan's
    absolute start times, the committed schedule equals the plan
    assignment-for-assignment.

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
        #: The current plan's (gpu, start, train, sync) columns in
        #: ``all_tasks()`` order; job ``j``'s rows start at ``_first[j]``,
        #: and ``_tasks`` holds each row's (job, rnd, slot).
        self.canon: list[np.ndarray] = []
        self._tasks: tuple[np.ndarray, ...] = ()
        self._first: list[int] = []
        #: The alive GPUs the current plan was made for.
        self._alive: frozenset[int] = frozenset()
        #: Residual re-plans performed (read by the kernel result).
        self.replans = 0

    def setup(self, state: KernelState) -> None:
        instance = state.instance
        plan = self.planner.schedule(instance)
        rows = plan.canonical_rows()
        self.canon = [
            plan.gpu[rows], plan.start[rows], plan.train[rows],
            plan.sync[rows],
        ]
        self._tasks = (plan.job[rows], plan.rnd[rows], plan.slot[rows])
        self._first = instance.task_offset.tolist()
        self._alive = frozenset(state.alive)
        self.replans = 0

    def _round_commitment(
        self, state: KernelState, job_id: int, round_idx: int
    ) -> list[Commitment]:
        if (
            round_idx >= state.instance.num_rounds[job_id]
            or round_idx != state.rounds_done[job_id]
        ):
            return []
        gpu, start, train, sync = self.canon
        scale = int(state.instance.sync_scale[job_id])
        lo = self._first[job_id] + round_idx * scale
        hi = lo + scale
        return [Commitment(
            job_id, np.full(scale, round_idx), np.arange(scale),
            gpu[lo:hi], start[lo:hi], train[lo:hi], sync[lo:hi],
        )]

    def uncommitted(self, state: KernelState) -> Schedule:
        """The current plan's rows for every round not yet committed:
        what this policy will still commit unless a crash re-plans."""
        job, rnd, slot = self._tasks
        left = rnd >= state.rounds_done[job]
        return Schedule(
            state.instance, job[left], rnd[left], slot[left],
            *(col[left] for col in self.canon),
        )

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
        drain = max([state.now] + state.phi[sorted(state.alive)].tolist())
        job_ids = range(instance.num_jobs)
        usable = state.usable_gpus(job_ids)
        gpu_subset = (
            None if len(usable) == instance.num_gpus else sorted(usable)
        )
        residual, id_map = build_residual(
            instance, job_ids, state.rounds_done,
            np.maximum(state.ready_at, drain),
            gpu_subset=gpu_subset, weight_boost=state.weight_boost or None,
        )
        if residual is None:
            return []
        local = replan(self.planner, residual)
        self.replans += 1
        job, rnd, gpu = to_global(
            local.job, local.rnd, local.gpu, id_map, gpu_subset
        )
        plan = Schedule(
            instance, job, rnd, local.slot, gpu, local.start, local.train,
            local.sync,
        )
        # The residual's tasks take their new rows; the committed ones
        # keep stale rows no commitment reads.
        for col, new in zip(
            self.canon,
            (plan.gpu, plan.start, plan.train, plan.sync),
        ):
            col[plan.canon] = new
        ends = state.committed.round_ends()
        base = state.committed.round_base
        out: list[Commitment] = []
        for job_id, done in id_map:
            if job_id not in state.arrived:
                continue
            if (
                done == 0
                or ends[base[job_id] + done - 1] <= state.now + KERNEL_EPS
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
        instance = state.instance
        check_gang_feasible(instance)
        #: The instance's arrival and sync-scale columns, as lists.
        self.arrival = instance.arrival.tolist()
        self.scale = instance.sync_scale.tolist()

    @abstractmethod
    def select(
        self, state: KernelState, runnable: list[int], free: list[int]
    ) -> tuple[int, list[int]] | None:
        """Pick (job_id, gpus) to start now, or ``None`` to wait.

        Must be a **pure function of its arguments**: no mutation, and a
        ``None`` return must stay ``None`` until the state changes. The
        reference loop re-invokes the policy after every commitment and
        once per event of a batch, until it returns nothing; with a
        stateful ``select`` that fixed point would depend on how many
        events share a timestamp.
        """

    def on_event(
        self, event: Event, state: KernelState
    ) -> list[Commitment]:
        # Arrived jobs with rounds left: without a crash exactly the
        # unstarted ones (a gang commits every round at once); a crash
        # adds the jobs it retracted, which restart as a fresh gang.
        done, rounds = state.rounds_done, state.instance.num_rounds
        left = (done < rounds).nonzero()[0].tolist()
        runnable = [n for n in left if n in state.arrived]
        if not runnable:
            return []
        # A gang wider than the alive GPUs can never (re)start.
        alive = len(state.alive)
        for n in runnable:
            scale = self.scale[n]
            if scale > alive:
                raise GangDoesNotFitError(n, scale, alive)
        free = state.free_gpus()
        decision = self.select(state, runnable, free)
        if decision is None:
            return []
        job_id, gpus = decision
        start = max(state.now, self.arrival[job_id], state.ready_at[job_id])
        return [gang_commitment(state, job_id, gpus, start)]


def check_gang_feasible(instance: ProblemInstance) -> None:
    """Gang schedulers need sync_scale <= number of GPUs for every job."""
    wide = np.flatnonzero(instance.sync_scale > instance.num_gpus)
    if wide.size:
        n = int(wide[0])
        raise InfeasibleProblemError(
            f"job {n} needs {int(instance.sync_scale[n])} simultaneous "
            f"GPUs but the cluster has {instance.num_gpus}"
        )


def gang_commitment(
    state: KernelState, job_id: int, gpus: Sequence[int], start: float
) -> Commitment:
    """The remaining rounds of *job_id* pinned one-task-per-GPU from
    *start* (every round, unless a crash retracted a started gang), each
    at the pace of the gang's slowest GPU, holding every GPU until the
    last round ends."""
    instance = state.instance
    scale = int(instance.sync_scale[job_id])
    if len(gpus) != scale:
        raise InfeasibleProblemError(
            f"job {job_id} with scale {scale} given {len(gpus)} GPUs"
        )
    done = int(state.rounds_done[job_id])
    k = int(instance.num_rounds[job_id]) - done
    gpu = np.asarray(gpus, dtype=np.int64)
    train, sync = instance.times(job_id, gpu)
    round_time = float((train + sync).max())
    # A running sum, not a product: round r starts where r - 1 ended,
    # and the last round's end releases the gang.
    *starts, release = accumulate([float(start)] + [round_time] * k)
    row = np.arange(k * scale)
    slot = row % scale
    return Commitment(
        job_id, done + row // scale, slot, gpu[slot],
        np.repeat(starts, scale), train[slot], sync[slot],
        gpu_release=release,
    )
