"""Test oracles: the straightforward originals of Algorithm 1's hot paths.

Each function here is the simple, slow implementation that a vectorized
production routine in :mod:`repro.schedulers` replaced. The equivalence
suites (``test_fastpath.py``, ``test_relaxation_internals.py``,
``test_fluid_identity.py``) pin the production code to these, bit for bit
where the arithmetic allows it, and ``benchmarks/bench_kernel.py`` races
``reference_list_schedule`` against ``list_schedule``.

- :func:`reference_fluid_solve` — the per-job Python event loop of
  ``FluidRelaxationSolver.solve``, re-sorting the active set at every
  event (:func:`density_fill`) and inverting curves one target at a time
  (:func:`invert_curve`).
- :func:`invert_curve_batch` — one job's curve inverted at all of its
  targets, the per-job step the one-pass ``_invert_curves`` replaced.
- :func:`reference_list_schedule` — heap-of-φ list scheduling with a
  per-GPU Python scan over ``TaskRef`` objects and a dict of barriers.
- :func:`reference_ordering` — the tasks sorted by (H, job, round, slot).
- :func:`reference_precedence_safe_order` — the order fix-up that rescans
  the full order once per job.

Relaxation results, π and list-schedule inputs are canonical arrays
(``instance.all_tasks()`` order); :func:`task_refs`,
:func:`canonical_order` and :func:`by_task` translate between them and
``TaskRef`` objects, and :func:`column_bytes` compares schedules byte for
byte.
- :func:`reference_solve_fixed_y` — the cut loop that rebuilds its COO
  matrix and cold-starts ``linprog`` every round, without cut dedup.
- :class:`UntruncatedOnlineHarePolicy` — the online re-plan that
  list-schedules the whole residual and then keeps only the rounds that
  start before the next arrival (``test_online_truncation.py``).
- :class:`EagerFluidOnlineHarePolicy` — the online re-plan that solves
  the residual's relaxation in full and list-schedules the eager π up to
  the commit horizon (``test_online_stepped.py``).
- :class:`LoopCostAlloxScheduler` — AlloX with its matching cost matrix
  filled one (job, GPU, position) entry at a time (``test_baselines.py``).
"""

from __future__ import annotations

import heapq
import math
from itertools import permutations, product

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from repro.core.errors import InfeasibleProblemError, SolverError
from repro.core.job import ProblemInstance
from repro.core.schedule import Schedule, TaskAssignment
from repro.core.types import TaskRef
from repro.kernel.residual import to_global
from repro.kernel.state import Commitment
from repro.schedulers.allox import SchedAlloxScheduler
from repro.schedulers.base import check_gang_feasible
from repro.schedulers.hare import (
    _precedence_safe_order,
    list_schedule,
    select_solver,
)
from repro.schedulers.online import OnlineHarePolicy
from repro.schedulers.optimal import MAX_TASKS
from repro.schedulers.relaxation import (
    MAX_CUT_ROUNDS,
    ExactRelaxationSolver,
    FluidRelaxationSolver,
    RelaxationResult,
    _middle_completion,
    _water_fill,
)
from repro.schedulers.timeslice import TimeSliceScheduler
from tests.core.oracles import reference_metrics_from_schedule, schedule_of


# ----------------------------------------------------------------------
# Canonical task indices
# ----------------------------------------------------------------------
def task_refs(instance: ProblemInstance, order) -> list[TaskRef]:
    """The ``TaskRef`` of every canonical index in *order*."""
    tasks = list(instance.all_tasks())
    return [tasks[k] for k in np.asarray(order, dtype=np.int64).tolist()]


def canonical_order(instance: ProblemInstance, tasks) -> np.ndarray:
    """The canonical index of every ``TaskRef`` in *tasks*."""
    index = {t: k for k, t in enumerate(instance.all_tasks())}
    return np.array([index[t] for t in tasks], dtype=np.int64)


def by_task(instance: ProblemInstance, values) -> dict[TaskRef, float]:
    """A canonical per-task array as a ``TaskRef`` → value dict."""
    return dict(zip(instance.all_tasks(), np.asarray(values).tolist()))


def column_bytes(schedule: Schedule) -> tuple[bytes, ...]:
    """A schedule's columns, row by row, as bytes: equal for two
    schedules exactly when they place the same tasks, identically, in the
    same order."""
    return tuple(
        getattr(schedule, name).tobytes()
        for name in ("job", "rnd", "slot", "gpu", "start", "train", "sync")
    )


# ----------------------------------------------------------------------
# Fluid relaxation
# ----------------------------------------------------------------------
def density_fill(
    weights: np.ndarray,
    total_work: np.ndarray,
    caps: np.ndarray,
    capacity: float,
) -> np.ndarray:
    """WSPT-priority rates: densest jobs first, each capped at sync_scale.

    Density is ``w_n / total work`` (static, so a job's priority does not
    drift as it progresses — the classic WSPT rule). Ties break toward the
    lower index for determinism.
    """
    n = len(weights)
    density = weights / np.maximum(total_work, 1e-300)
    order = sorted(range(n), key=lambda i: (-density[i], i))
    rates = np.zeros(n)
    remaining = capacity
    for i in order:
        if remaining <= 1e-15:
            break
        give = min(caps[i], remaining)
        rates[i] = give
        remaining -= give
    return rates


def invert_curve(curve: list[tuple[float, float]], target: float) -> float:
    """Earliest time the piecewise-linear work curve reaches *target*.

    *target* is clamped to the curve's final work value: accumulated float
    drift can make the last round's target overshoot the total work by
    ~1e-12, and falling off the end would date that round at the job's
    completion instant instead of interpolating inside the last segment.
    """
    w_end = curve[-1][1]
    if target > w_end:
        target = w_end
    if target <= 0:
        return curve[0][0]
    for (t0, w0), (t1, w1) in zip(curve, curve[1:]):
        if w1 < w0:
            raise SolverError("work curve is not monotone")
        if w1 >= target - 1e-12:
            if w1 == w0:
                return t1
            frac = (target - w0) / (w1 - w0)
            return t0 + frac * (t1 - t0)
    return curve[-1][0]  # pragma: no cover - unreachable after clamping


def invert_curve_batch(
    times: np.ndarray, works: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Earliest times one piecewise-linear work curve reaches *targets*.

    The curve passes through ``(times[k], works[k])``. Each target is
    clamped to the final work value first; the segment is the first one
    whose end reaches ``target - 1e-12``; a flat segment dates the target
    at its end.
    """
    if (works[1:] < works[:-1]).any():
        raise SolverError("work curve is not monotone")
    clamped = np.minimum(targets, works[-1])
    if len(times) == 1:
        return np.full(len(targets), times[0])
    # First segment end j >= 1 with works[j] >= target - 1e-12.
    j = np.maximum(works.searchsorted(clamped - 1e-12, side="left"), 1)
    w0 = works[j - 1]
    w1 = works[j]
    t0 = times[j - 1]
    t1 = times[j]
    flat = w1 == w0
    frac = (clamped - w0) / np.where(flat, 1.0, w1 - w0)
    starts = np.where(flat, t1, t0 + frac * (t1 - t0))
    return np.where(clamped <= 0, times[0], starts)


def reference_fluid_solve(
    solver: FluidRelaxationSolver, instance: ProblemInstance
) -> RelaxationResult:
    """``solver.solve(instance)`` as a per-job, per-event Python loop."""
    jobs = instance.jobs
    num_jobs = len(jobs)
    if solver.harmonic:
        rep = instance.num_gpus / (
            (1.0 / (instance.train_time + instance.sync_time)).sum(axis=1)
        )
    else:
        rep = (instance.train_time + instance.sync_time).mean(axis=1)

    total_work = np.array(
        [jobs[n].num_rounds * jobs[n].sync_scale * rep[n] for n in range(num_jobs)]
    )
    remaining = total_work.copy()
    weights = np.array([j.weight for j in jobs], dtype=float)
    caps = np.array([float(j.sync_scale) for j in jobs])
    arrivals = np.array([j.arrival for j in jobs])

    breakpoints: list[list[tuple[float, float]]] = [
        [(arrivals[n], 0.0)] for n in range(num_jobs)
    ]
    active = np.zeros(num_jobs, dtype=bool)
    finished = np.zeros(num_jobs, dtype=bool)
    t = 0.0
    capacity = float(instance.num_gpus)
    pending_arrivals = sorted(range(num_jobs), key=lambda n: arrivals[n])
    arr_ptr = 0
    guard = 0
    while not finished.all():
        guard += 1
        if guard > 8 * num_jobs + 64:
            raise SolverError("fluid solver failed to converge")
        while arr_ptr < num_jobs and arrivals[pending_arrivals[arr_ptr]] <= t + 1e-12:
            n = pending_arrivals[arr_ptr]
            if not finished[n]:
                active[n] = True
            arr_ptr += 1
        act = np.where(active)[0]
        if len(act) == 0:
            if arr_ptr >= num_jobs:
                raise SolverError("fluid solver: no active jobs and none arriving")
            t = float(arrivals[pending_arrivals[arr_ptr]])
            continue
        if solver.fair_share:
            rates = _water_fill(weights[act], caps[act], capacity)
        else:
            rates = density_fill(
                weights[act], total_work[act], caps[act], capacity
            )
        with np.errstate(divide="ignore"):
            finish_dt = np.where(rates > 0, remaining[act] / rates, np.inf)
        dt = float(finish_dt.min())
        next_arrival = (
            float(arrivals[pending_arrivals[arr_ptr]])
            if arr_ptr < num_jobs
            else np.inf
        )
        dt = min(dt, next_arrival - t)
        if not np.isfinite(dt) or dt < 0:
            raise SolverError("fluid solver produced a bad step")
        t_next = t + dt
        for idx, n in enumerate(act):
            done_before = total_work[n] - remaining[n]
            remaining[n] = max(0.0, remaining[n] - rates[idx] * dt)
            done_after = total_work[n] - remaining[n]
            if done_after > done_before:
                breakpoints[n].append((t_next, done_after))
            if remaining[n] <= 1e-12:
                finished[n] = True
                active[n] = False
        t = t_next

    starts: list[float] = []
    for n, job in enumerate(jobs):
        round_work = job.sync_scale * rep[n]
        for r in range(job.num_rounds):
            start = float(invert_curve(breakpoints[n], r * round_work))
            starts.extend([start] * job.sync_scale)
    x_hat = np.array(starts, dtype=np.float64)

    objective = float(
        sum(jobs[n].weight * breakpoints[n][-1][0] for n in range(num_jobs))
    )
    return RelaxationResult(
        x_hat=x_hat, h=_middle_completion(instance, x_hat), objective=objective
    )


# ----------------------------------------------------------------------
# Ordering and list scheduling
# ----------------------------------------------------------------------
def reference_ordering(
    instance: ProblemInstance, relaxation: RelaxationResult
) -> list[TaskRef]:
    """Tasks sorted by non-descending H (Algorithm 1, line 4).

    Ties break by (job, round, slot) so the order is deterministic and
    respects round precedence within a job whenever H values tie.
    """
    h = by_task(instance, relaxation.h)
    return sorted(h, key=lambda t: (h[t], t.job_id, t.round_idx, t.slot))


def reference_precedence_safe_order(
    instance: ProblemInstance, relaxation: RelaxationResult
) -> np.ndarray:
    """``_precedence_safe_order`` rescanning the full order once per job,
    as canonical indices."""
    order = reference_ordering(instance, relaxation)
    positions: dict[int, list[int]] = {}
    for pos, task in enumerate(order):
        positions.setdefault(task.job_id, []).append(pos)
    fixed: list[TaskRef | None] = [None] * len(order)
    for job_id, pos_list in positions.items():
        tasks = sorted(
            (t for t in order if t.job_id == job_id),
            key=lambda t: (t.round_idx, t.slot),
        )
        for pos, task in zip(pos_list, tasks):
            fixed[pos] = task
    if any(t is None for t in fixed):
        raise SolverError("ordering fix-up lost tasks")
    return canonical_order(instance, fixed)


def reference_list_schedule(
    instance: ProblemInstance,
    order,
    *,
    placement: str = "earliest_available",
    initial_phi: list[float] | None = None,
) -> Schedule:
    """``list_schedule`` with a heap of φ and a per-GPU Python scan over
    the ``TaskRef`` of each canonical index in *order*."""
    order = task_refs(instance, order)
    schedule: list[TaskAssignment] = []
    if initial_phi is None:
        initial_phi = [0.0] * instance.num_gpus
    elif len(initial_phi) != instance.num_gpus:
        raise SolverError(
            f"initial_phi has {len(initial_phi)} entries for "
            f"{instance.num_gpus} GPUs"
        )
    # φ_m as a heap of (available_time, gpu); lazily rebuilt on updates.
    phi = [(float(t), m) for m, t in enumerate(initial_phi)]
    heapq.heapify(phi)
    phi_flat = [float(t) for t in initial_phi]
    round_barrier: dict[tuple[int, int], float] = {}
    scheduled_in_round: dict[tuple[int, int], int] = {}

    for task in order:
        job = instance.jobs[task.job_id]
        if task.round_idx == 0:
            t_avail = job.arrival
        else:
            key = (task.job_id, task.round_idx - 1)
            if scheduled_in_round.get(key, 0) != job.sync_scale:
                raise SolverError(
                    f"π violates precedence: {task} before round "
                    f"{task.round_idx - 1} completed"
                )
            t_avail = round_barrier[key]

        if placement == "earliest_available":
            while True:
                avail, m = heapq.heappop(phi)
                if avail == phi_flat[m]:
                    break  # fresh entry
            start = max(t_avail, avail)
        else:
            best = None
            for m in range(instance.num_gpus):
                cand = max(t_avail, phi_flat[m]) + instance.tc(task.job_id, m)
                if best is None or cand < best[0]:
                    best = (cand, m)
            assert best is not None
            m = best[1]
            start = max(t_avail, phi_flat[m])

        tc = instance.tc(task.job_id, m)
        ts = instance.ts(task.job_id, m)
        schedule.append(
            TaskAssignment(
                task=task, gpu=m, start=start, train_time=tc, sync_time=ts
            )
        )
        phi_flat[m] = start + tc  # sync overlaps the next task (line 16)
        heapq.heappush(phi, (phi_flat[m], m))

        rkey = (task.job_id, task.round_idx)
        scheduled_in_round[rkey] = scheduled_in_round.get(rkey, 0) + 1
        round_barrier[rkey] = max(
            round_barrier.get(rkey, 0.0), start + tc + ts
        )
    return schedule_of(instance, schedule)


# ----------------------------------------------------------------------
# Exact relaxation: the cold-start cut loop
# ----------------------------------------------------------------------
def reference_solve_fixed_y(
    instance: ProblemInstance, y: dict[TaskRef, int]
) -> RelaxationResult:
    """``ExactRelaxationSolver._solve_fixed_y`` rebuilt from scratch every
    cut round.

    Rebuilds the COO constraint matrix every round, cold-starts
    ``linprog`` each time and never dedupes separated prefixes. The
    incremental warm-started path must match its objective within 1e-9.
    """
    tasks = list(instance.all_tasks())
    t_index = {t: i for i, t in enumerate(tasks)}
    n_x = len(tasks)

    b_index: dict[tuple[int, int], int] = {}
    for job in instance.jobs:
        for r in range(job.num_rounds):
            b_index[(job.job_id, r)] = n_x + len(b_index)
    n_vars = n_x + len(b_index)

    p = np.array([instance.task_time(t.job_id, y[t]) for t in tasks])
    q = np.array([instance.tc(t.job_id, y[t]) for t in tasks])

    c = np.zeros(n_vars)
    for job in instance.jobs:
        c[b_index[(job.job_id, job.num_rounds - 1)]] = job.weight

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs: list[float] = []

    def add_row(entries: list[tuple[int, float]], bound: float) -> None:
        r = len(rhs)
        for col, val in entries:
            rows.append(r)
            cols.append(col)
            vals.append(val)
        rhs.append(bound)

    for i, task in enumerate(tasks):
        add_row(
            [(i, 1.0), (b_index[(task.job_id, task.round_idx)], -1.0)],
            -p[i],
        )
    for i, task in enumerate(tasks):
        if task.round_idx > 0:
            add_row(
                [(b_index[(task.job_id, task.round_idx - 1)], 1.0), (i, -1.0)],
                0.0,
            )

    machine_tasks: dict[int, list[int]] = {}
    for i, task in enumerate(tasks):
        machine_tasks.setdefault(y[task], []).append(i)

    def add_cut(subset: list[int]) -> None:
        qs = q[subset]
        bound = 0.5 * (qs.sum() ** 2 + (qs**2).sum())
        add_row([(i, -float(q[i])) for i in subset], float((qs**2).sum()) - bound)

    for subset in machine_tasks.values():
        add_cut(subset)

    lb = np.zeros(n_vars)
    for i, task in enumerate(tasks):
        lb[i] = instance.jobs[task.job_id].arrival
    bounds = [(float(lb[i]), None) for i in range(n_vars)]

    solver = ExactRelaxationSolver()
    x_sol = np.zeros(n_vars)
    objective = 0.0
    for _ in range(MAX_CUT_ROUNDS):
        a_ub = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(len(rhs), n_vars)
        ).tocsr()
        res = linprog(
            c, A_ub=a_ub, b_ub=np.array(rhs), bounds=bounds, method="highs"
        )
        if not res.success:
            raise SolverError(f"LP failed: {res.message}")
        x_sol = res.x
        objective = float(res.fun)
        new_cuts = solver._separate(machine_tasks, q, x_sol)
        if not new_cuts:
            break
        for subset in new_cuts:
            add_cut(subset)

    x_hat = np.array([float(x_sol[t_index[t]]) for t in tasks])
    return RelaxationResult(
        x_hat=x_hat,
        h=_middle_completion(instance, x_hat),
        objective=objective,
    )


# ----------------------------------------------------------------------
# AlloX
# ----------------------------------------------------------------------
class LoopCostAlloxScheduler(SchedAlloxScheduler):
    """``SchedAlloxScheduler`` whose ``_match`` fills the cost matrix with
    a Python double loop over ``k · rounds·(scale·T^c + T^s) + r_m`` and
    solves it with ``scipy.optimize.linear_sum_assignment``; the serial
    times ``schedule`` passes in are not read."""

    def _match(self, instance, runnable, gpu_free, now, serial):
        num_gpus = len(gpu_free)
        positions = max(1, -(-len(runnable) // num_gpus))
        cols = [(m, k) for m in range(num_gpus) for k in range(1, positions + 1)]
        cost = np.empty((len(runnable), len(cols)))
        for i, job_id in enumerate(runnable):
            job = instance.jobs[job_id]
            w = job.weight if self.weighted else 1.0
            for c, (m, k) in enumerate(cols):
                r_m = max(0.0, gpu_free[m] - now)
                serial = job.num_rounds * (
                    job.sync_scale * instance.tc(job_id, m)
                    + instance.ts(job_id, m)
                )
                cost[i, c] = (k * serial + r_m) / w
        rows, chosen = linear_sum_assignment(cost)
        head: dict[int, tuple[int, int]] = {}  # gpu -> (k, job)
        for i, c in zip(rows, chosen):
            m, k = cols[c]
            if m not in head or k > head[m][0]:
                head[m] = (k, runnable[i])
        return [
            (job_id, m)
            for m, (_, job_id) in head.items()
            if gpu_free[m] <= now + 1e-12
        ]


# ----------------------------------------------------------------------
# Online re-planning
# ----------------------------------------------------------------------
class UntruncatedOnlineHarePolicy(OnlineHarePolicy):
    """``OnlineHarePolicy`` without the horizon stop rule.

    Every re-plan solves the residual's relaxation in full, list-schedules
    the *whole* residual from the eager π, then commits each round that
    starts before the next arrival, reading every task of the plan; the
    relaxation the policy hands in is not read.
    """

    def _plan(self, residual, relaxation, initial_phi, horizon):
        eager = select_solver(self.relaxation, residual).solve(residual)
        order = reference_precedence_safe_order(residual, eager)
        return reference_list_schedule(
            residual, order, placement=self.placement,
            initial_phi=initial_phi,
        )

    def _commitments(self, plan, residual, id_map, gpu_subset, horizon):
        cut = math.inf if horizon is None else horizon
        out: list[Commitment] = []
        for local_job in residual.jobs:
            for r in range(local_job.num_rounds):
                placed = [plan[task] for task in local_job.round_tasks(r)]
                if min(a.start for a in placed) >= cut:
                    break
                job, rnd, gpu = to_global(
                    np.array([a.task.job_id for a in placed]),
                    np.array([a.task.round_idx for a in placed]),
                    np.array([a.gpu for a in placed]),
                    id_map, gpu_subset,
                )
                out.append(
                    Commitment(
                        int(job[0]), rnd,
                        np.array([a.task.slot for a in placed]), gpu,
                        np.array([a.start for a in placed]),
                        np.array([a.train_time for a in placed]),
                        np.array([a.sync_time for a in placed]),
                    )
                )
        return out


class EagerFluidOnlineHarePolicy(OnlineHarePolicy):
    """``OnlineHarePolicy`` with every re-plan's relaxation solved in full.

    Each re-plan runs the residual's relaxation to the end with
    ``solve()``, sorts the whole of π (``_precedence_safe_order``) and
    list-schedules it up to the commit horizon; the relaxation the policy
    hands in is not read.
    """

    def _plan(self, residual, relaxation, initial_phi, horizon):
        eager = select_solver(self.relaxation, residual).solve(residual)
        return list_schedule(
            residual, _precedence_safe_order(residual, eager),
            placement=self.placement, initial_phi=initial_phi,
            horizon=horizon,
        )


# ----------------------------------------------------------------------
# Object-building producers
# ----------------------------------------------------------------------
# The producers as they were when a Schedule could be filled assignment by
# assignment: each builds one TaskAssignment per task, in the order the
# old code called Schedule.add, and the list becomes the schedule.
def reference_strict_gang_schedule(instance: ProblemInstance, order) -> Schedule:
    """``strict_gang_schedule`` building a ``TaskAssignment`` per task."""
    for job in instance.jobs:
        if job.sync_scale > instance.num_gpus:
            raise InfeasibleProblemError(
                f"strict gang scheduling needs sync_scale <= num_gpus: "
                f"job {job.job_id} has sync_scale {job.sync_scale} on "
                f"{instance.num_gpus} GPUs"
            )
    schedule: list[TaskAssignment] = []
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
            schedule.append(
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
        barrier[(job_id, r)] = end
    return schedule_of(instance, schedule)


class ObjectTimeSliceScheduler(TimeSliceScheduler):
    """``TimeSliceScheduler`` building a ``TaskAssignment`` per task."""

    def schedule(self, instance: ProblemInstance) -> Schedule:
        check_gang_feasible(instance)
        schedule: list[TaskAssignment] = []
        rounds_done = {j.job_id: 0 for j in instance.jobs}
        #: per-job weighted service received (for the round-robin priority)
        service = {j.job_id: 0.0 for j in instance.jobs}
        t = 0.0
        guard = 0
        total_rounds = sum(j.num_rounds for j in instance.jobs)
        limit = 100 * total_rounds + 1000
        while any(
            rounds_done[j.job_id] < j.num_rounds for j in instance.jobs
        ):
            guard += 1
            if guard > limit:  # pragma: no cover - defensive
                raise InfeasibleProblemError(
                    "time-slice scheduler failed to progress; "
                    "quantum too small for the workload's round times?"
                )
            boundary = t + self.quantum_s
            active = [
                j for j in instance.jobs
                if j.arrival <= t + 1e-12
                and rounds_done[j.job_id] < j.num_rounds
            ]
            if not active:
                future = [
                    j.arrival for j in instance.jobs
                    if j.arrival > t + 1e-12
                    and rounds_done[j.job_id] < j.num_rounds
                ]
                if not future:  # pragma: no cover - loop guard above
                    break
                t = max(boundary, min(future))
                continue
            # least weighted service first (weighted round-robin fairness)
            active.sort(key=lambda j: (service[j.job_id] / j.weight, j.job_id))
            gpu_free = [t] * instance.num_gpus
            free_set = set(range(instance.num_gpus))
            progressed = False
            for job in active:
                if len(free_set) < job.sync_scale:
                    continue
                # fastest available GPUs for this job
                chosen = sorted(
                    free_set,
                    key=lambda m: (instance.task_time(job.job_id, m), m),
                )[: job.sync_scale]
                round_time = max(
                    instance.task_time(job.job_id, m) for m in chosen
                )
                start = t
                ran = 0
                while (
                    rounds_done[job.job_id] < job.num_rounds
                    and start + round_time <= boundary + 1e-12
                ):
                    r = rounds_done[job.job_id]
                    for slot, m in enumerate(chosen):
                        schedule.append(
                            TaskAssignment(
                                task=TaskRef(job.job_id, r, slot),
                                gpu=m,
                                start=start,
                                train_time=instance.tc(job.job_id, m),
                                sync_time=instance.ts(job.job_id, m),
                            )
                        )
                    rounds_done[job.job_id] += 1
                    service[job.job_id] += job.sync_scale * round_time
                    start += round_time
                    ran += 1
                if ran:
                    progressed = True
                    free_set -= set(chosen)
                    for m in chosen:
                        gpu_free[m] = start
            if not progressed:
                # nothing fits in a quantum: stretch this one to fit the
                # neediest job's single round (prevents livelock when the
                # quantum is shorter than a round)
                job = active[0]
                chosen = sorted(
                    range(instance.num_gpus),
                    key=lambda m: (instance.task_time(job.job_id, m), m),
                )[: job.sync_scale]
                round_time = max(
                    instance.task_time(job.job_id, m) for m in chosen
                )
                r = rounds_done[job.job_id]
                for slot, m in enumerate(chosen):
                    schedule.append(
                        TaskAssignment(
                            task=TaskRef(job.job_id, r, slot),
                            gpu=m,
                            start=t,
                            train_time=instance.tc(job.job_id, m),
                            sync_time=instance.ts(job.job_id, m),
                        )
                    )
                rounds_done[job.job_id] += 1
                service[job.job_id] += job.sync_scale * round_time
                t += round_time
                continue
            t = boundary
        return schedule_of(instance, schedule)


def _reference_build(
    instance: ProblemInstance,
    order: tuple[TaskRef, ...],
    assignment: dict[TaskRef, int],
) -> Schedule | None:
    """Active schedule for (π, y); None if π violates round precedence."""
    schedule: list[TaskAssignment] = []
    phi = [0.0] * instance.num_gpus
    barrier: dict[tuple[int, int], float] = {}
    count: dict[tuple[int, int], int] = {}
    for task in order:
        job = instance.jobs[task.job_id]
        if task.round_idx == 0:
            avail = job.arrival
        else:
            key = (task.job_id, task.round_idx - 1)
            if count.get(key, 0) != job.sync_scale:
                return None
            avail = barrier[key]
        m = assignment[task]
        start = max(avail, phi[m])
        tc = instance.tc(task.job_id, m)
        ts = instance.ts(task.job_id, m)
        schedule.append(
            TaskAssignment(
                task=task, gpu=m, start=start, train_time=tc, sync_time=ts
            )
        )
        phi[m] = start + tc
        rkey = (task.job_id, task.round_idx)
        count[rkey] = count.get(rkey, 0) + 1
        barrier[rkey] = max(barrier.get(rkey, 0.0), start + tc + ts)
    return schedule_of(instance, schedule)


def reference_brute_force_optimal(instance: ProblemInstance) -> Schedule:
    """``brute_force_optimal`` building and scoring every candidate."""
    tasks = list(instance.all_tasks())
    if len(tasks) > MAX_TASKS:
        raise InfeasibleProblemError(
            f"brute force limited to {MAX_TASKS} tasks, got {len(tasks)}"
        )
    best: Schedule | None = None
    best_obj = float("inf")
    gpus = range(instance.num_gpus)
    for order in permutations(tasks):
        for combo in product(gpus, repeat=len(tasks)):
            assignment = dict(zip(order, combo))
            schedule = _reference_build(instance, order, assignment)
            if schedule is None:
                continue
            obj = reference_metrics_from_schedule(
                schedule
            ).total_weighted_completion
            if obj < best_obj - 1e-12:
                best_obj = obj
                best = schedule
    if best is None:  # pragma: no cover - always at least one feasible
        raise InfeasibleProblemError("no feasible schedule found")
    return best
