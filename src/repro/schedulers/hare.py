"""Hare's task scheduling algorithm (§5.2, Algorithm 1).

Step 1 solves the relaxed problem (see :mod:`repro.schedulers.relaxation`)
to obtain relaxed start times ``x̂_i`` and middle completion times
``H_i = x̂_i + ½·max_m T^c_{i,m}``. Step 2 sorts all tasks by non-descending
``H`` and list-schedules them: each task becomes *available* at its job's
arrival (round 0) or at the previous round's synchronization barrier, and is
placed on the GPU with the earliest available time φ_m (line 12); the GPU is
released after the task's compute — synchronization overlaps the successor
(line 16's note).

This is the **relaxed scale-fixed** synchronization scheme in action: a
round's tasks may land on fewer GPUs than ``sync_scale`` and run
back-to-back; the barrier only requires all of them to finish, not to run
simultaneously.

Two placement rules are provided for line 12:

``earliest_available``
    The pseudocode verbatim: ``m* = argmin φ_m``. On heterogeneous GPUs
    this is blind to the task's speed on the chosen device — when several
    GPUs are idle it happily parks a task on the slowest one, and on the
    paper's own Fig. 1 example it fails to reach the result the figure
    reports.
``earliest_finish`` (default)
    Pick the GPU minimizing the task's completion
    ``max(t_i, φ_m) + T^c_{i,m}``. This reduces to earliest-available when
    the queue is backed up (φ dominates), resolves idle-GPU ties in favour
    of the fast device, and reproduces Fig. 1(c)'s qualitative outcome
    (8.25 s ≤ the paper's 8.5 s on the toy instance). The ablation bench
    compares both; Theorem 4 is audited empirically for the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..core.errors import InfeasibleProblemError, SolverError
from ..core.job import ProblemInstance
from ..core.schedule import Schedule, TaskAssignment
from ..core.types import TaskRef
from ..obs import Category, current as obs_current
from .base import Scheduler
from .registry import register
from .relaxation import (
    ExactRelaxationSolver,
    FluidRelaxationSolver,
    RelaxationResult,
    RelaxationSolver,
)

Placement = Literal["earliest_available", "earliest_finish"]

#: Above this many tasks the "auto" policy switches from the cutting-plane
#: LP to the fluid relaxation.
AUTO_LP_TASK_LIMIT = 600


@register("hare", summary="Algorithm 1: relaxation-ordered list scheduling")
@dataclass(slots=True)
class HareScheduler(Scheduler):
    """Algorithm 1: relaxation-ordered list scheduling.

    Parameters
    ----------
    relaxation:
        ``"exact"`` (cutting-plane LP), ``"fluid"``, ``"auto"`` (exact for
        small instances, fluid beyond :data:`AUTO_LP_TASK_LIMIT` tasks), or
        any object implementing
        :class:`repro.schedulers.relaxation.RelaxationSolver`.
    placement:
        ``"earliest_available"`` is the paper's line 12 (argmin φ_m);
        ``"earliest_finish"`` is the heterogeneity-aware ablation.
    """

    relaxation: str | RelaxationSolver = "auto"
    placement: Placement = "earliest_finish"
    name: str = field(default="Hare", init=False)
    #: Filled by :meth:`schedule` for diagnostics / theory audits.
    last_relaxation: RelaxationResult | None = field(default=None, init=False)

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

    # ------------------------------------------------------------------
    def schedule(self, instance: ProblemInstance) -> Schedule:
        obs = obs_current()
        tracer, metrics = obs.tracer, obs.metrics
        solver = self._solver(instance)
        with tracer.timed(
            Category.SCHED,
            "relaxation_solve",
            solver=type(solver).__name__,
            tasks=instance.num_tasks,
            hist=metrics.histogram("sched.phase.relaxation_solve_s"),
        ):
            relaxation = solver.solve(instance)
        self.last_relaxation = relaxation
        with tracer.timed(
            Category.SCHED,
            "order",
            hist=metrics.histogram("sched.phase.order_s"),
        ):
            order = _precedence_safe_order(instance, relaxation)
        with tracer.timed(
            Category.SCHED,
            "list_schedule",
            placement=self.placement,
            hist=metrics.histogram("sched.phase.list_schedule_s"),
        ):
            return list_schedule(
                instance, order, placement=self.placement
            )


def _precedence_safe_order(
    instance: ProblemInstance, relaxation: RelaxationResult
) -> list[TaskRef]:
    """The sequence π of line 4, guaranteed to respect round precedence.

    Sorting by (H, job, round, slot) already yields precedence-safe orders
    for both solvers (H strictly grows across a job's rounds). As a
    safeguard against degenerate relaxation outputs, each job's tasks are
    re-written into its own π positions in (round, slot) order — a stable
    fix that preserves every job's position multiset.

    One bucketing pass collects each job's π positions *and* its tasks
    (rather than rescanning the full order once per job, quadratic in
    practice); sorting the per-job bucket is stable, so the result is
    identical to the rescan.
    """
    order = relaxation.ordering()
    positions: dict[int, list[int]] = {}
    buckets: dict[int, list[TaskRef]] = {}
    for pos, task in enumerate(order):
        positions.setdefault(task.job_id, []).append(pos)
        buckets.setdefault(task.job_id, []).append(task)
    fixed: list[TaskRef | None] = [None] * len(order)
    for job_id, pos_list in positions.items():
        tasks = sorted(
            buckets[job_id], key=lambda t: (t.round_idx, t.slot)
        )
        for pos, task in zip(pos_list, tasks):
            fixed[pos] = task
    if any(t is None for t in fixed):  # pragma: no cover - defensive
        raise SolverError("ordering fix-up lost tasks")
    return fixed  # type: ignore[return-value]


def strict_gang_schedule(
    instance: ProblemInstance,
    order: list[TaskRef],
    *,
    hold_gpus: bool = False,
) -> Schedule:
    """Ablation: Algorithm 1's ordering with **strict** scale-fixed rounds.

    Rounds are taken in the order their first task appears in π; each round
    waits until ``sync_scale`` GPUs are simultaneously free and runs its
    tasks strictly in parallel (one per GPU, the fastest free ones). This
    isolates the value of Hare's relaxed scale-fixed scheme: identical
    ordering signal, gang placement instead of task-level packing.

    A job whose ``sync_scale`` exceeds the cluster size cannot run a
    strict round at all — the relaxed scheme would serialize its tasks,
    but a gang cannot. Such instances are rejected up front instead of
    silently truncating the round to ``num_gpus`` tasks.
    """
    for job in instance.jobs:
        if job.sync_scale > instance.num_gpus:
            raise InfeasibleProblemError(
                f"strict gang scheduling needs sync_scale <= num_gpus: "
                f"job {job.job_id} has sync_scale {job.sync_scale} on "
                f"{instance.num_gpus} GPUs"
            )
    schedule = Schedule(instance)
    phi = [0.0] * instance.num_gpus
    barrier: dict[tuple[int, int], float] = {}
    seen_rounds: set[tuple[int, int]] = set()
    round_order: list[tuple[int, int]] = []
    for task in order:
        key = (task.job_id, task.round_idx)
        if key not in seen_rounds:
            seen_rounds.add(key)
            round_order.append(key)
    for job_id, r in round_order:
        job = instance.jobs[job_id]
        avail = job.arrival if r == 0 else barrier[(job_id, r - 1)]
        # gang: the sync_scale GPUs that free earliest, preferring fast ones
        ranked = sorted(
            range(instance.num_gpus),
            key=lambda m: (phi[m], instance.tc(job_id, m), m),
        )
        chosen = ranked[: job.sync_scale]
        start = max(avail, max(phi[m] for m in chosen))
        end = 0.0
        for slot, m in enumerate(chosen):
            tc = instance.tc(job_id, m)
            ts = instance.ts(job_id, m)
            schedule.add(
                TaskAssignment(
                    task=TaskRef(job_id, r, slot),
                    gpu=m,
                    start=start,
                    train_time=tc,
                    sync_time=ts,
                )
            )
            phi[m] = start + tc
            end = max(end, start + tc + ts)
        if hold_gpus:
            for m in chosen:
                phi[m] = max(phi[m], end)
        barrier[(job_id, r)] = end
    return schedule


def list_schedule(
    instance: ProblemInstance,
    order: list[TaskRef],
    *,
    placement: Placement = "earliest_available",
    initial_phi: list[float] | None = None,
) -> Schedule:
    """Lines 5-17 of Algorithm 1: greedy placement in π order.

    ``initial_phi`` seeds the per-GPU available times — the online
    re-planning scheduler uses it to account for work already committed to
    each GPU.

    This is the vectorized hot path: φ lives in one numpy array, and each
    placement is a single ``argmin`` over it (``earliest_available``) or
    over ``max(φ, t_avail) + T^c`` (``earliest_finish``). Only the chosen
    GPU's ``T^c``/``T^s`` entries are read back as Python floats, so a
    call costs O(tasks × GPUs) numpy work and O(tasks + GPUs) Python
    objects, never a boxed copy of the J×M matrices. ``np.argmin`` breaks
    ties toward the lowest GPU index, exactly like a heap of φ popped for
    its fresh entry or a strict-``<`` scan; the equivalence suite pins the
    schedules byte-identical to that straightforward implementation.
    """
    schedule = Schedule(instance)
    num_gpus = instance.num_gpus
    if initial_phi is None:
        phi = np.zeros(num_gpus)
    elif len(initial_phi) != num_gpus:
        raise SolverError(
            f"initial_phi has {len(initial_phi)} entries for "
            f"{num_gpus} GPUs"
        )
    else:
        phi = np.array(initial_phi, dtype=float)
    jobs = instance.jobs
    # Per-job T^c rows as numpy views for the vector math; phi_list shadows
    # the numpy φ for the scalar read of the chosen GPU.
    train_time, sync_time = instance.train_time, instance.sync_time
    tc_rows = list(train_time)
    phi_list = phi.tolist()
    finish = np.empty(num_gpus)  # scratch for the earliest-finish rule
    earliest_finish = placement != "earliest_available"
    np_maximum, np_add = np.maximum, np.add
    #: Barrier time of (job, round): max end over its scheduled tasks.
    round_barrier: dict[tuple[int, int], float] = {}
    scheduled_in_round: dict[tuple[int, int], int] = {}
    add = schedule.add

    for task in order:
        job_id = task.job_id
        round_idx = task.round_idx
        if round_idx == 0:
            t_avail = jobs[job_id].arrival
        else:
            key = (job_id, round_idx - 1)
            if scheduled_in_round.get(key, 0) != jobs[job_id].sync_scale:
                raise SolverError(
                    f"π violates precedence: {task} before round "
                    f"{round_idx - 1} completed"
                )
            t_avail = round_barrier[key]

        if earliest_finish:
            # Ablation: minimize this task's finish time.
            np_maximum(phi, t_avail, out=finish)
            np_add(finish, tc_rows[job_id], out=finish)
            m = int(finish.argmin())
        else:
            # Line 12: the GPU with smallest φ_m.
            m = int(phi.argmin())
        avail = phi_list[m]
        start = avail if avail > t_avail else t_avail

        tc = float(train_time[job_id, m])
        ts = float(sync_time[job_id, m])
        add(
            TaskAssignment(
                task=task, gpu=m, start=start,
                train_time=tc, sync_time=ts,
            )
        )
        released = start + tc  # sync overlaps the next task (line 16)
        phi[m] = released
        phi_list[m] = released

        rkey = (job_id, round_idx)
        scheduled_in_round[rkey] = scheduled_in_round.get(rkey, 0) + 1
        end = released + ts
        prev = round_barrier.get(rkey, 0.0)
        round_barrier[rkey] = end if end > prev else prev
    return schedule
