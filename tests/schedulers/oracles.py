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
- :func:`reference_list_schedule` — heap-of-φ list scheduling with a
  per-GPU Python scan.
- :func:`reference_precedence_safe_order` — the order fix-up that rescans
  the full order once per job.
- :func:`reference_solve_fixed_y` — the cut loop that rebuilds its COO
  matrix and cold-starts ``linprog`` every round, without cut dedup.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.core.errors import SolverError
from repro.core.job import ProblemInstance
from repro.core.schedule import Schedule, TaskAssignment
from repro.core.types import TaskRef
from repro.schedulers.relaxation import (
    ExactRelaxationSolver,
    FluidRelaxationSolver,
    RelaxationResult,
    _middle_completion,
    _water_fill,
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

    x_hat: dict[TaskRef, float] = {}
    for n, job in enumerate(jobs):
        round_work = job.sync_scale * rep[n]
        for r in range(job.num_rounds):
            start = float(invert_curve(breakpoints[n], r * round_work))
            for d in range(job.sync_scale):
                x_hat[TaskRef(n, r, d)] = start

    objective = float(
        sum(jobs[n].weight * breakpoints[n][-1][0] for n in range(num_jobs))
    )
    return RelaxationResult(
        x_hat=x_hat, h=_middle_completion(instance, x_hat), objective=objective
    )


# ----------------------------------------------------------------------
# Ordering and list scheduling
# ----------------------------------------------------------------------
def reference_precedence_safe_order(
    instance: ProblemInstance, relaxation: RelaxationResult
) -> list[TaskRef]:
    """``_precedence_safe_order`` rescanning the full order once per job."""
    order = relaxation.ordering()
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
    return fixed  # type: ignore[return-value]


def reference_list_schedule(
    instance: ProblemInstance,
    order: list[TaskRef],
    *,
    placement: str = "earliest_available",
    initial_phi: list[float] | None = None,
) -> Schedule:
    """``list_schedule`` with a heap of φ and a per-GPU Python scan."""
    schedule = Schedule(instance)
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
        schedule.add(
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
    return schedule


# ----------------------------------------------------------------------
# Exact relaxation: the cold-start cut loop
# ----------------------------------------------------------------------
def reference_solve_fixed_y(
    solver: ExactRelaxationSolver,
    instance: ProblemInstance,
    y: dict[TaskRef, int],
) -> RelaxationResult:
    """``solver._solve_fixed_y`` rebuilt from scratch every cut round.

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

    cuts_added = 0
    x_sol = np.zeros(n_vars)
    objective = 0.0
    iteration = 0
    for iteration in range(1, solver.max_cut_rounds + 1):
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
        cuts_added += len(new_cuts)

    x_hat = {t: float(x_sol[t_index[t]]) for t in tasks}
    return RelaxationResult(
        x_hat=x_hat,
        h=_middle_completion(instance, x_hat),
        objective=objective,
        y_hat=dict(y),
        iterations=iteration,
        cuts_added=cuts_added,
    )
