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
from heapq import heappop, heappush
from typing import Iterator, Literal, Sequence, get_args

import numpy as np

from ..core.errors import (
    ConfigurationError,
    InfeasibleProblemError,
    ScheduleValidationError,
    SolverError,
)
from ..core.job import ProblemInstance
from ..core.schedule import Schedule, ScheduleRow, schedule_from_rows
from ..core.types import TaskRef
from ..obs import Category, current as obs_current
from .base import Scheduler
from .registry import register
from .relaxation import (
    ExactRelaxationSolver,
    FluidRelaxationSolver,
    FluidStepper,
    RelaxationResult,
    RelaxationSolver,
)

Placement = Literal["earliest_available", "earliest_finish"]
_PLACEMENTS = get_args(Placement)

#: Above this many tasks the "auto" policy switches from the cutting-plane
#: LP to the fluid relaxation.
AUTO_LP_TASK_LIMIT = 600


def select_solver(
    relaxation: str | RelaxationSolver, instance: ProblemInstance
) -> RelaxationSolver:
    """The solver a ``relaxation`` setting picks for *instance*: a solver
    object as given, ``"exact"``, ``"fluid"``, or ``"auto"`` (exact up to
    :data:`AUTO_LP_TASK_LIMIT` tasks, fluid beyond)."""
    if not isinstance(relaxation, str):
        return relaxation
    if relaxation == "exact" or (
        relaxation == "auto" and instance.num_tasks <= AUTO_LP_TASK_LIMIT
    ):
        return ExactRelaxationSolver()
    if relaxation in ("fluid", "auto"):
        return FluidRelaxationSolver()
    raise SolverError(f"unknown relaxation {relaxation!r}")


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

    # ------------------------------------------------------------------
    def schedule(self, instance: ProblemInstance) -> Schedule:
        obs = obs_current()
        tracer, metrics = obs.tracer, obs.metrics
        solver = select_solver(self.relaxation, instance)
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
) -> np.ndarray:
    """The sequence π of line 4 as canonical task indices, guaranteed to
    respect round precedence.

    π is the tasks by (H, job, round, slot), with each job's tasks
    re-written into that job's π positions in (round, slot) order. The
    sort alone is precedence-safe for both solvers (H strictly grows
    across a job's rounds); the re-write guards against degenerate
    relaxation outputs and keeps every job's position multiset.

    The (round, slot) tie-break cannot change which job holds a position,
    so one ``lexsort`` by (H, job) fixes the job sequence, and the k-th
    position of job ``j`` takes ``j``'s k-th canonical task: a stable
    sort of the job sequence lists each job's positions in order, in
    canonical blocks. Entry ``i`` of the result is the canonical index
    (``instance.all_tasks()`` order) of the ``i``-th task of π. Every
    solver's ``x_hat`` covers all of the instance's tasks; that is
    checked here.
    """
    x_hat, h = relaxation.x_hat, relaxation.h
    n = instance.num_tasks
    if not len(x_hat) == len(h) == n:
        raise SolverError(f"relaxation covers {len(x_hat)} of {n} tasks")
    job = instance.task_columns()[0]
    by_h = np.lexsort((job, h))
    order = np.empty(n, dtype=np.int64)
    order[job[by_h].argsort(kind="stable")] = np.arange(n)
    return order


def _stepped_order(
    instance: ProblemInstance, fluid: FluidStepper
) -> Iterator[int]:
    """π of :func:`_precedence_safe_order` for *fluid*'s relaxation, read
    while the fluid runs: it steps only until the next task is certain.

    π takes the tasks by (H, job), and a job's k-th position in it holds
    the job's k-th canonical task, so π is its rounds by (H, job), each
    giving ``sync_scale`` positions to its job's next tasks (a round's
    tasks share their ``H``). A dated round is next once its ``H`` is
    below :meth:`FluidStepper.bound`, which no undated round can go
    under; the order among dated rounds is a heap's. Until then the
    fluid takes another step. The generator is left where its reader
    stops, with the rest of the fluid never run.
    """
    scale = instance.sync_scale.tolist()
    task = instance.task_offset[:-1].tolist()  # each job's next task
    half_tc = fluid.half_tc.tolist()
    round_job = np.repeat(
        np.arange(instance.num_jobs), instance.num_rounds
    ).tolist()
    starts, dated = fluid.starts, fluid.dated
    heap: list[tuple[float, int]] = []
    seen = 0
    bound = -np.inf
    while True:
        for g in dated[seen:]:
            j = round_job[g]
            heappush(heap, (starts[g] + half_tc[j], j))
        seen = len(dated)
        if heap and heap[0][0] >= bound:
            bound = fluid.bound()
        while heap and heap[0][0] < bound:
            j = heappop(heap)[1]
            k = task[j]
            task[j] = k + scale[j]
            yield from range(k, k + scale[j])
        if not fluid.step():
            if not heap:
                return
            bound = np.inf


def strict_gang_schedule(
    instance: ProblemInstance, order: Sequence[int] | np.ndarray
) -> Schedule:
    """Ablation: Algorithm 1's ordering with **strict** scale-fixed rounds.

    Rounds are taken in the order their first task appears in π (canonical
    task indices, as :func:`_precedence_safe_order` returns); each round
    waits until ``sync_scale`` GPUs are simultaneously free and runs its
    tasks strictly in parallel (one per GPU, the fastest free ones). This
    isolates the value of Hare's relaxed scale-fixed scheme: identical
    ordering signal, gang placement instead of task-level packing.

    A job whose ``sync_scale`` exceeds the cluster size cannot run a
    strict round at all — the relaxed scheme would serialize its tasks,
    but a gang cannot. Such instances are rejected up front instead of
    silently truncating the round to ``num_gpus`` tasks.
    """
    arrival = instance.arrival.tolist()
    scales = instance.sync_scale.tolist()
    for job_id, scale in enumerate(scales):
        if scale > instance.num_gpus:
            raise InfeasibleProblemError(
                f"strict gang scheduling needs sync_scale <= num_gpus: "
                f"job {job_id} has sync_scale {scale} on "
                f"{instance.num_gpus} GPUs"
            )
    rows: list[ScheduleRow] = []
    phi = [0.0] * instance.num_gpus
    barrier: dict[tuple[int, int], float] = {}
    seen_rounds: set[tuple[int, int]] = set()
    round_order: list[tuple[int, int]] = []
    job_col, rnd_col, _ = instance.task_columns()
    ks = np.asarray(order, dtype=np.int64)
    for key in zip(job_col[ks].tolist(), rnd_col[ks].tolist()):
        if key not in seen_rounds:
            seen_rounds.add(key)
            round_order.append(key)
    for job_id, r in round_order:
        avail = arrival[job_id] if r == 0 else barrier[(job_id, r - 1)]
        # gang: the sync_scale GPUs that free earliest, preferring fast ones
        ranked = sorted(
            range(instance.num_gpus),
            key=lambda m: (phi[m], instance.tc(job_id, m), m),
        )
        chosen = ranked[: scales[job_id]]
        start = max(avail, max(phi[m] for m in chosen))
        end = 0.0
        for slot, m in enumerate(chosen):
            tc = instance.tc(job_id, m)
            rows.append((job_id, r, slot, m, start))
            phi[m] = start + tc
            end = max(end, start + tc + instance.ts(job_id, m))
        barrier[(job_id, r)] = end
    return schedule_from_rows(instance, rows)


def list_schedule(
    instance: ProblemInstance,
    order: Sequence[int] | np.ndarray | Iterator[int],
    *,
    placement: Placement = "earliest_available",
    initial_phi: list[float] | None = None,
    horizon: float | None = None,
) -> Schedule:
    """Lines 5-17 of Algorithm 1: greedy placement in π order.

    *order* is π as canonical task indices (``instance.all_tasks()``
    order, as :func:`_precedence_safe_order` returns it), or an iterator
    that yields them (:func:`_stepped_order`), read only as far as the
    schedule places tasks. A task placed
    before its previous round is complete raises :class:`SolverError`; a
    task placed twice raises :class:`ScheduleValidationError` (5).

    ``initial_phi`` seeds the per-GPU available times — the online
    re-planning scheduler uses it to account for work already committed to
    each GPU.

    With a ``horizon`` the schedule holds only the prefix of π that
    :func:`_until_horizon` lets through: every round that has a task
    starting before ``horizon`` is complete, and the tasks left out all
    start at or after it. The placements made are those of the full run.

    This is the vectorized hot path: φ lives in one numpy array, and each
    placement is a single ``argmin`` over it (``earliest_available``) or
    over the finish vector ``max(φ, t_avail) + T^c`` (``earliest_finish``).
    A round's tasks are consecutive in π and share their job and release,
    so the finish vector is built once per round: after a placement only
    the chosen GPU's entry changes, to ``released + T^c`` (its φ is now
    past the release), the float operation numpy would redo. The
    ``T^c`` row over the GPUs is :meth:`ProblemInstance.train_row`,
    expanded from the type table once per distinct per-type row, never
    per job, and looked up once per job. Per-round counts and barriers are flat lists indexed
    by round, placements are appended to column lists, and the result is
    a :class:`~repro.core.schedule.Schedule` built from those columns,
    whose objects are built only if somebody reads them. Only the chosen
    GPU's ``T^c``/``T^s`` entries are read back as Python floats, so a
    call costs at most O(tasks × GPUs) numpy work and O(tasks + GPUs)
    Python objects.
    ``np.argmin`` breaks ties toward the lowest GPU index, exactly like a
    heap of φ popped for its fresh entry or a strict-``<`` scan; the
    equivalence suite pins the schedules byte-identical to that
    straightforward implementation.
    """
    if placement not in _PLACEMENTS:
        raise ConfigurationError(
            f"unknown placement {placement!r}: expected "
            + " or ".join(map(repr, _PLACEMENTS))
        )
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
    job_col, rnd_col, slot_col = instance.task_columns()
    if isinstance(order, Iterator):
        tasks = order
    else:
        ks = np.asarray(order, dtype=np.int64)
        if ks.size and (ks.min() < 0 or ks.max() >= len(job_col)):
            raise SolverError(
                f"π holds a task index outside 0..{len(job_col) - 1}"
            )
        tasks = ks.tolist()
    rounds = _Rounds(instance, job_col, rnd_col)
    task_job, task_prev = rounds.task_job, rounds.task_prev
    need, counts, barrier = rounds.need, rounds.counts, rounds.barrier
    # T^c rows over the GPUs for the vector math; phi_list shadows the
    # numpy φ for the scalar read of the chosen GPU, whose T^c/T^s come
    # from the type tables.
    types = instance.gpu_type.tolist()
    rows_by_job: dict[int, np.ndarray] = {}
    tc_item = instance.train_by_type.item
    ts_item = instance.sync_by_type.item
    earliest_finish = placement == "earliest_finish"
    phi_list = phi.tolist()
    finish = np.empty(num_gpus)  # the earliest-finish rule's vector
    finish_for = -1  # the previous round id (one job's) it was built for
    np_maximum, np_add = np.maximum, np.add
    seen = bytearray(len(job_col))
    placed: list[int] = []
    gpus: list[int] = []
    starts: list[float] = []
    put_task, put_gpu, put_start = placed.append, gpus.append, starts.append
    if horizon is not None:
        tasks = _until_horizon(tasks, rounds, gpus, starts, phi_list, horizon)

    for k in tasks:
        j = task_job[k]
        p = task_prev[k]  # the previous round (a complete one for round 0)
        if counts[p] != need[p]:
            task = TaskRef(j, int(rnd_col[k]), int(slot_col[k]))
            raise SolverError(
                f"π violates precedence: {task} before round "
                f"{task.round_idx - 1} completed"
            )
        if seen[k]:
            task = TaskRef(j, int(rnd_col[k]), int(slot_col[k]))
            raise ScheduleValidationError(5, f"task {task} assigned twice")
        seen[k] = 1
        put_task(k)
        t_avail = barrier[p]

        if earliest_finish:
            # Ablation: minimize this task's finish time.
            if p != finish_for:
                np_maximum(phi, t_avail, out=finish)
                row = rows_by_job.get(j)
                if row is None:
                    row = rows_by_job[j] = instance.train_row(j)
                np_add(finish, row, out=finish)
                finish_for = p
            m = int(finish.argmin())
        else:
            # Line 12: the GPU with smallest φ_m.
            m = int(phi.argmin())
        avail = phi_list[m]
        start = avail if avail > t_avail else t_avail
        put_gpu(m)
        put_start(start)

        k_m = types[m]
        tc = tc_item(j, k_m)
        released = start + tc  # sync overlaps the next task
        phi[m] = released
        phi_list[m] = released
        if earliest_finish:
            finish[m] = released + tc
        r = p + 1
        counts[r] += 1
        end = released + ts_item(j, k_m)
        if end > barrier[r]:
            barrier[r] = end

    rows = np.array(placed, dtype=np.int64)  # the placed prefix of π
    gpu = np.array(gpus, dtype=np.int64)
    job = job_col[rows]
    return Schedule(
        instance, job, rnd_col[rows], slot_col[rows], gpu,
        np.array(starts, dtype=np.float64), *instance.times(job, gpu),
    )


class _Rounds:
    """The list schedule's per-task lookups and per-round state.

    Each job owns ``1 + num_rounds`` consecutive round ids: a complete
    sentinel whose barrier is the job's arrival, then its rounds. A
    task's previous round is then always one id back — the sentinel for
    round 0 — and all state is flat lists: per task its job and previous
    round id, per round id the tasks it needs, the tasks placed so far
    and the barrier (the latest end among them).
    """

    __slots__ = (
        "task_job", "task_prev", "need", "counts", "barrier", "stop",
        "arrival",
    )

    def __init__(self, instance: ProblemInstance, job_col, rnd_col) -> None:
        n = instance.num_jobs
        rounds, scale = instance.num_rounds, instance.sync_scale
        arrival = instance.arrival
        stop = np.cumsum(rounds + 1)
        sentinel = stop - rounds - 1
        counts = np.zeros(int(stop[-1]) if n else 0, dtype=np.int64)
        counts[sentinel] = scale
        barrier = np.zeros(len(counts))
        barrier[sentinel] = arrival
        self.task_job = job_col.tolist()
        self.task_prev = (sentinel[job_col] + rnd_col).tolist()
        self.need = np.repeat(scale, rounds + 1).tolist()
        self.counts = counts.tolist()
        self.barrier = barrier.tolist()
        #: Per job, the round id after its last round.
        self.stop = stop.tolist()
        self.arrival = arrival.tolist()


def _until_horizon(
    order: Iterator[int] | list[int],
    rounds: _Rounds,
    gpus: list[int],
    starts: list[float],
    phi: list[float],
    horizon: float,
) -> Iterator[int]:
    """π, cut where no later task can start before *horizon*.

    :func:`list_schedule` starts a task no earlier than its GPU's φ,
    which only grows, and no earlier than its round's release (the job's
    arrival, or the previous round's barrier). π places each job's rounds
    in order, so every unplaced task of job ``j`` starts at or after
    ``max(min φ, A_j)``, where ``A_j`` releases ``j``'s first round with
    unplaced tasks. Once that bound is at or past *horizon* for every job
    — min φ is, or every ``A_j`` is — and every round with a task
    starting before *horizon* is fully placed, no remaining task can
    start before *horizon* or join a round that does, and π stops.

    The generator resumes after :func:`list_schedule` has placed the
    task it yielded, and reads that placement — the last entry of the
    loop's own *gpus* and *starts* columns — with the loop's *phi* and
    *rounds* state. It tests the stop rule before it reads the next
    task of *order*, so a lazy π is read no further than it is placed.
    """
    task_job, task_prev = rounds.task_job, rounds.task_prev
    need, counts, barrier = rounds.need, rounds.counts, rounds.barrier
    stop = rounds.stop
    #: GPUs whose φ is before *horizon*.
    low_gpus = {m for m, p in enumerate(phi) if p < horizon}
    #: Per job, the release of its first round with unplaced tasks.
    release = list(rounds.arrival)
    #: Jobs with unplaced tasks released before *horizon*.
    low_jobs = sum(1 for a in release if a < horizon)
    #: Rounds with a task starting before *horizon* and tasks unplaced.
    open_rounds: set[int] = set()
    order = iter(order)
    while open_rounds or (low_gpus and low_jobs):
        k = next(order, None)
        if k is None:
            return
        yield k
        m = gpus[-1]
        if phi[m] >= horizon:
            low_gpus.discard(m)
        r = task_prev[k] + 1
        if counts[r] < need[r]:
            if starts[-1] < horizon:
                open_rounds.add(r)
            continue
        # Round complete: the job's next round is released at its barrier.
        open_rounds.discard(r)
        j = task_job[k]
        nxt = barrier[r] if r + 1 < stop[j] else float("inf")
        if release[j] < horizon <= nxt:
            low_jobs -= 1
        release[j] = nxt
