"""Step 1 of Hare's Algorithm 1: solving the relaxed problem Hare_Sched_RL.

The paper relaxes the non-linear non-preemption constraint (8) into
Queyranne's polyhedral constraint (9) and solves the resulting
mixed-integer quadratic program with CPLEX/Gurobi. Neither solver is
available here, so this module provides two substitutes (documented in
DESIGN.md):

:class:`ExactRelaxationSolver`
    Fixes the GPU assignment ``ŷ`` with a speed-aware greedy (min-increase
    of machine load), then solves the remaining *linear* program over start
    times with **Queyranne cutting planes**: constraint (9) must hold for
    every prefix of tasks on a machine (that is exactly what Lemma 2 uses),
    and the most violated prefix is found by sorting tasks by ``x̂`` —
    the classical separation routine for this polyhedron. Optionally
    re-derives ``ŷ`` from the solved ``x̂`` and iterates.

:class:`FluidRelaxationSolver`
    A fluid approximation for large instances: arrived jobs take the
    cluster's aggregate capacity in WSPT priority order (each capped by its
    sync scale), and ``x̂`` of a round is the fluid time its work starts.
    For J jobs, M GPUs and T tasks it runs at most ~2J arrival/finish
    events, each a fixed handful of numpy operations over at most J jobs.
    With the O(J·M) averaging of task times and the O(T) output dicts the
    cost is O(J·M + J² + T), of which only O(J + T) steps are interpreted
    Python. Produces the same
    *ordering signal* ``H_i`` that Algorithm 1 consumes; tests compare it
    against the exact solver on small instances.

Both return :class:`RelaxationResult` with ``x̂_i`` and the middle
completion times ``H_i = x̂_i + ½·max_m T^c_{i,m}`` that drive the list
scheduling of step 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ..core.errors import SolverError
from ..core.job import ProblemInstance
from ..core.types import TaskRef

try:  # scipy vendors the HiGHS pybind API; no standalone highspy needed.
    from scipy.optimize._highspy import _core as _highs_core
except Exception:  # pragma: no cover - older/newer scipy layouts
    _highs_core = None


@dataclass(frozen=True, slots=True)
class RelaxationResult:
    """Solution of the relaxed scheduling problem."""

    #: Relaxed start time x̂_i per task.
    x_hat: dict[TaskRef, float]
    #: Middle completion time H_i = x̂_i + max_m T^c_{i,m} / 2.
    h: dict[TaskRef, float]
    #: Objective value of the relaxation (Σ w_n Ĉ_n).
    objective: float
    #: Assignment ŷ used by the solver (empty for the fluid solver).
    y_hat: dict[TaskRef, int] = field(default_factory=dict)
    #: Solver diagnostics.
    iterations: int = 0
    cuts_added: int = 0

    def ordering(self) -> list[TaskRef]:
        """Tasks sorted by non-descending H (Algorithm 1, line 4).

        Ties break by (job, round, slot) so the order is deterministic and
        respects round precedence within a job whenever H values tie.
        """
        return sorted(
            self.x_hat,
            key=lambda t: (self.h[t], t.job_id, t.round_idx, t.slot),
        )


class RelaxationSolver(Protocol):
    """Anything that can produce x̂ / H for Algorithm 1."""

    def solve(self, instance: ProblemInstance) -> RelaxationResult: ...


def _middle_completion(
    instance: ProblemInstance, x_hat: dict[TaskRef, float]
) -> dict[TaskRef, float]:
    half_max_tc = instance.train_time.max(axis=1) / 2.0
    return {t: x + float(half_max_tc[t.job_id]) for t, x in x_hat.items()}


def greedy_assignment(instance: ProblemInstance) -> dict[TaskRef, int]:
    """Speed-aware greedy ŷ: each task to the GPU minimizing load + T^c.

    Tasks are visited in (arrival, job, round, slot) order; per-GPU load is
    the accumulated compute time. This is the classical list-scheduling
    assignment for unrelated machines and serves as the fixed ŷ for the
    cutting-plane LP.
    """
    load = np.zeros(instance.num_gpus)
    y: dict[TaskRef, int] = {}
    ordered = sorted(
        instance.all_tasks(),
        key=lambda t: (
            instance.jobs[t.job_id].arrival,
            t.job_id,
            t.round_idx,
            t.slot,
        ),
    )
    for task in ordered:
        tc_row = instance.train_time[task.job_id]
        m = int(np.argmin(load + tc_row))
        y[task] = m
        load[m] += tc_row[m]
    return y


class _LinprogCutLp:
    """Fallback cut-loop backend: re-solve the grown CSR with ``linprog``.

    Rows are appended incrementally (``sparse.vstack`` of CSR blocks, never
    a from-scratch COO rebuild), but each :meth:`solve` is a cold start.
    """

    warm_started = False

    def __init__(
        self,
        c: np.ndarray,
        lb: np.ndarray,
        a_ub: sparse.csr_matrix,
        rhs: list[float],
    ) -> None:
        self._c = c
        self._bounds = [(float(v), None) for v in lb]
        self._a_ub = a_ub
        self._rhs = list(rhs)

    def add_rows(self, block: sparse.csr_matrix, rhs_block: list[float]) -> None:
        self._a_ub = sparse.vstack([self._a_ub, block], format="csr")
        self._rhs.extend(rhs_block)

    def solve(self) -> tuple[np.ndarray, float]:
        res = linprog(
            self._c,
            A_ub=self._a_ub,
            b_ub=np.array(self._rhs),
            bounds=self._bounds,
            method="highs",
        )
        if not res.success:
            raise SolverError(f"LP failed: {res.message}")
        return res.x, float(res.fun)


class _HighsCutLp:
    """Warm-started cut-loop backend on scipy's vendored HiGHS.

    The LP lives inside one persistent ``Highs`` model: separated cuts are
    appended with ``addRows`` and each re-solve starts from the previous
    round's simplex basis, so a cut round typically costs a handful of
    dual-simplex pivots instead of a full solve.
    """

    warm_started = True

    def __init__(
        self,
        c: np.ndarray,
        lb: np.ndarray,
        a_ub: sparse.csr_matrix,
        rhs: list[float],
    ) -> None:
        core = _highs_core
        self._core = core
        n_vars = len(c)
        h = core._Highs()
        h.setOptionValue("output_flag", False)
        lp = core.HighsLp()
        lp.num_col_ = n_vars
        lp.num_row_ = a_ub.shape[0]
        lp.col_cost_ = np.asarray(c, dtype=float)
        lp.col_lower_ = np.asarray(lb, dtype=float)
        lp.col_upper_ = np.full(n_vars, core.kHighsInf)
        lp.row_lower_ = np.full(a_ub.shape[0], -core.kHighsInf)
        lp.row_upper_ = np.asarray(rhs, dtype=float)
        lp.a_matrix_.format_ = core.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = a_ub.indptr
        lp.a_matrix_.index_ = a_ub.indices
        lp.a_matrix_.value_ = a_ub.data
        if h.passModel(lp) != core.HighsStatus.kOk:
            raise SolverError("HiGHS rejected the cut-loop LP model")
        self._h = h

    def add_rows(self, block: sparse.csr_matrix, rhs_block: list[float]) -> None:
        core = self._core
        k = block.shape[0]
        status = self._h.addRows(
            k,
            np.full(k, -core.kHighsInf),
            np.asarray(rhs_block, dtype=float),
            block.nnz,
            block.indptr,
            block.indices,
            block.data,
        )
        if status != core.HighsStatus.kOk:
            raise SolverError("HiGHS rejected appended cut rows")

    def solve(self) -> tuple[np.ndarray, float]:
        core = self._core
        if self._h.run() != core.HighsStatus.kOk:
            raise SolverError("HiGHS run failed in the cut loop")
        model_status = self._h.getModelStatus()
        if model_status != core.HighsModelStatus.kOptimal:
            raise SolverError(f"LP failed: HiGHS status {model_status}")
        x = np.asarray(self._h.getSolution().col_value, dtype=float)
        return x, float(self._h.getInfo().objective_function_value)


@dataclass(slots=True)
class ExactRelaxationSolver:
    """LP over start times with Queyranne prefix cuts (fixed greedy ŷ)."""

    max_cut_rounds: int = 25
    cut_tolerance: float = 1e-6
    #: Re-derive ŷ from the solved x̂ and re-solve this many extra times.
    reassignment_rounds: int = 0
    #: Cut-loop LP backend: "auto" picks the warm-started in-process HiGHS
    #: when scipy exposes it, else the cold-start ``linprog`` fallback.
    lp_backend: str = "auto"

    def solve(self, instance: ProblemInstance) -> RelaxationResult:
        y = greedy_assignment(instance)
        result = self._solve_fixed_y(instance, y)
        for _ in range(self.reassignment_rounds):
            y = self._reassign(instance, result)
            result = self._solve_fixed_y(instance, y)
        return result

    # ------------------------------------------------------------------
    def _reassign(
        self, instance: ProblemInstance, result: RelaxationResult
    ) -> dict[TaskRef, int]:
        """New ŷ: sweep tasks in x̂ order, place on least-loaded GPU."""
        load = np.zeros(instance.num_gpus)
        y: dict[TaskRef, int] = {}
        for task in sorted(result.x_hat, key=lambda t: result.x_hat[t]):
            tc_row = instance.train_time[task.job_id]
            m = int(np.argmin(load + tc_row))
            y[task] = m
            load[m] += tc_row[m]
        return y

    def _make_backend(
        self,
        c: np.ndarray,
        lb: np.ndarray,
        a_ub: sparse.csr_matrix,
        rhs: list[float],
    ) -> _LinprogCutLp | _HighsCutLp:
        backend = self.lp_backend
        if backend == "auto":
            backend = "highs" if _highs_core is not None else "linprog"
        if backend == "highs":
            if _highs_core is None:
                raise SolverError(
                    "lp_backend='highs' needs scipy's vendored highspy "
                    "(scipy.optimize._highspy); use 'auto' or 'linprog'"
                )
            return _HighsCutLp(c, lb, a_ub, rhs)
        if backend == "linprog":
            return _LinprogCutLp(c, lb, a_ub, rhs)
        raise SolverError(
            f"unknown lp_backend {self.lp_backend!r}: "
            "expected 'auto', 'highs', or 'linprog'"
        )

    def _solve_fixed_y(
        self, instance: ProblemInstance, y: dict[TaskRef, int]
    ) -> RelaxationResult:
        tasks = list(instance.all_tasks())
        t_index = {t: i for i, t in enumerate(tasks)}
        n_x = len(tasks)

        # Barrier variables b_{n,r}, one per (job, round).
        b_index: dict[tuple[int, int], int] = {}
        for job in instance.jobs:
            for r in range(job.num_rounds):
                b_index[(job.job_id, r)] = n_x + len(b_index)
        n_vars = n_x + len(b_index)

        # Durations on the assigned GPU.
        p = np.array(
            [instance.task_time(t.job_id, y[t]) for t in tasks]
        )  # T^c + T^s
        q = np.array([instance.tc(t.job_id, y[t]) for t in tasks])  # T^c

        c = np.zeros(n_vars)
        for job in instance.jobs:
            c[b_index[(job.job_id, job.num_rounds - 1)]] = job.weight

        # Base constraint matrix built once as CSR triplets; cut rounds only
        # ever *append* row blocks after this.
        indptr: list[int] = [0]
        indices: list[int] = []
        data: list[float] = []
        rhs: list[float] = []

        def add_row(entries: list[tuple[int, float]], bound: float) -> None:
            for col, val in entries:
                indices.append(col)
                data.append(val)
            indptr.append(len(indices))
            rhs.append(bound)

        # (6)-style: x_i + p_i <= b_{n,r}
        for i, task in enumerate(tasks):
            add_row(
                [(i, 1.0), (b_index[(task.job_id, task.round_idx)], -1.0)],
                -p[i],
            )
        # (7): b_{n,r-1} <= x_j for j in round r
        for i, task in enumerate(tasks):
            if task.round_idx > 0:
                add_row(
                    [(b_index[(task.job_id, task.round_idx - 1)], 1.0), (i, -1.0)],
                    0.0,
                )

        # Machine task lists for cut separation.
        machine_tasks: dict[int, list[int]] = {}
        for i, task in enumerate(tasks):
            machine_tasks.setdefault(y[task], []).append(i)

        # Every cut ever emitted, keyed by its (order-independent) task set,
        # so near-degenerate prefixes are never re-separated across rounds.
        emitted: set[tuple[int, ...]] = set()

        def cut_row(subset: list[int]) -> tuple[list[tuple[int, float]], float]:
            qs = q[subset]
            bound = 0.5 * (qs.sum() ** 2 + (qs**2).sum())
            # sum q_i (x_i + q_i) >= bound  ->  -sum q_i x_i <= q.q - bound
            return (
                [(i, -float(q[i])) for i in subset],
                float((qs**2).sum()) - bound,
            )

        # Initial cuts: the full set on each machine (constraint (9) itself).
        for subset in machine_tasks.values():
            entries, bound = cut_row(subset)
            add_row(entries, bound)
            emitted.add(tuple(sorted(subset)))

        lb = np.zeros(n_vars)
        for i, task in enumerate(tasks):
            lb[i] = instance.jobs[task.job_id].arrival

        a_base = sparse.csr_matrix(
            (data, indices, indptr), shape=(len(rhs), n_vars)
        )
        lp = self._make_backend(c, lb, a_base, rhs)

        cuts_added = 0
        x_sol = np.zeros(n_vars)
        objective = 0.0
        iteration = 0
        for iteration in range(1, self.max_cut_rounds + 1):
            x_sol, objective = lp.solve()
            new_cuts = self._separate(machine_tasks, q, x_sol, emitted)
            if not new_cuts:
                break
            block_indptr: list[int] = [0]
            block_indices: list[int] = []
            block_data: list[float] = []
            block_rhs: list[float] = []
            for subset in new_cuts:
                entries, bound = cut_row(subset)
                for col, val in entries:
                    block_indices.append(col)
                    block_data.append(val)
                block_indptr.append(len(block_indices))
                block_rhs.append(bound)
            block = sparse.csr_matrix(
                (block_data, block_indices, block_indptr),
                shape=(len(new_cuts), n_vars),
            )
            block.sort_indices()
            lp.add_rows(block, block_rhs)
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

    def _separate(
        self,
        machine_tasks: dict[int, list[int]],
        q: np.ndarray,
        x_sol: np.ndarray,
        emitted: set[tuple[int, ...]] | None = None,
    ) -> list[list[int]]:
        """Most-violated prefix constraint per machine (if any).

        With *emitted*, prefixes whose task set was already cut are skipped:
        the relative tolerance can otherwise re-separate the same near-
        degenerate prefix on consecutive rounds, growing the LP with
        duplicate rows until ``max_cut_rounds`` exhausts.
        """
        new_cuts: list[list[int]] = []
        for subset in machine_tasks.values():
            order = sorted(subset, key=lambda i: (x_sol[i], i))
            qs = q[order]
            xs = x_sol[order]
            lhs = np.cumsum(qs * xs)  # Σ q x over prefixes
            csum = np.cumsum(qs)
            csq = np.cumsum(qs**2)
            bound = 0.5 * (csum**2 + csq) - csq  # rhs of -Σqx <= ... inverted
            violation = bound - lhs  # >0 means prefix violated
            k = int(np.argmax(violation))
            if violation[k] > self.cut_tolerance * max(1.0, abs(bound[k])):
                prefix = order[: k + 1]
                if emitted is not None:
                    key = tuple(sorted(prefix))
                    if key in emitted:
                        continue
                    emitted.add(key)
                new_cuts.append(prefix)
        return new_cuts


@dataclass(slots=True)
class FluidRelaxationSolver:
    """Weighted-density fluid approximation of the relaxation.

    The cluster offers ``M`` GPU-equivalents of capacity. The MIQP's
    objective Σ w_n C_n implicitly favours heavy, short jobs, so the fluid
    serves arrived jobs in **weighted-shortest-processing-time order**
    (density ``w_n / total work``, the fluid-optimal single-server policy):
    the densest job receives capacity up to its ``sync_scale`` cap (a round
    cannot use more GPUs than it has tasks), then the next densest, until
    capacity runs out. A job's round is ``sync_scale`` tasks of its
    *cluster-average* task time; a round's ``x̂`` is the fluid time its
    work begins.

    With ``fair_share=True`` capacity is instead split proportionally to
    weights (max-min water-filling) — kept as an ablation of the priority
    rule.

    **Cost.** The WSPT rank is computed once per solve. Every arrival or
    finish event then takes the active jobs in rank order, gets all their
    rates from one ``cumsum`` over their caps, advances them with one
    elementwise update and appends one block of breakpoints, so a solve of
    J jobs is O(J) events of O(J) numpy work each. The fair-share ablation
    instead water-fills per event, up to one pass per capped job.
    """

    #: Use the harmonic mean of per-GPU times instead of the arithmetic
    #: mean as the job's representative task time (harmonic = throughput-
    #: weighted, slightly favours jobs with strong fast-GPU affinity).
    harmonic: bool = False
    #: Egalitarian weighted fair sharing instead of WSPT priority.
    fair_share: bool = False

    def solve(self, instance: ProblemInstance) -> RelaxationResult:
        jobs = instance.jobs
        num_jobs = len(jobs)
        if self.harmonic:
            rep = instance.num_gpus / (
                (1.0 / (instance.train_time + instance.sync_time)).sum(axis=1)
            )
        else:
            rep = (instance.train_time + instance.sync_time).mean(axis=1)

        ids = np.arange(num_jobs)
        total_work = np.array(
            [jobs[n].num_rounds * jobs[n].sync_scale * rep[n] for n in range(num_jobs)]
        )
        remaining = total_work.copy()
        weights = np.array([j.weight for j in jobs], dtype=float)
        # Integer-valued floats: every cumsum of caps below is exact.
        caps = np.array([float(j.sync_scale) for j in jobs])
        arrivals = np.array([j.arrival for j in jobs])
        capacity = float(instance.num_gpus)

        # Jobs are kept in *rank* order: WSPT density (w_n / total work,
        # static, so a job's priority never drifts), ties toward the lower
        # id. Fair sharing keeps id order, which _water_fill's sums expect.
        if self.fair_share:
            rank = ids
        else:
            density = weights / np.maximum(total_work, 1e-300)
            rank = np.lexsort((ids, -density))
        pos = np.empty(num_jobs, dtype=np.intp)
        pos[rank] = ids
        active = np.zeros(num_jobs, dtype=bool)  # indexed by rank position
        pending = np.argsort(arrivals, kind="stable")
        pending_pos = pos[pending]
        pending_t = arrivals[pending]

        # Work-completed breakpoints as columns, one block per event (its
        # jobs, their done work, and the event time with its block size);
        # each job's curve starts at (arrival, 0).
        bp_job: list[np.ndarray] = [ids]
        bp_done: list[np.ndarray] = [np.zeros(num_jobs)]
        event_t: list[float] = []
        event_size: list[int] = []
        t = 0.0
        arr_ptr = 0
        unfinished = num_jobs
        guard = 0
        with np.errstate(divide="ignore"):
            while unfinished:
                guard += 1
                if guard > 8 * num_jobs + 64:  # pragma: no cover - defensive
                    raise SolverError("fluid solver failed to converge")
                arrived = int(pending_t.searchsorted(t + 1e-12, side="right"))
                if arrived > arr_ptr:
                    active[pending_pos[arr_ptr:arrived]] = True
                    arr_ptr = arrived
                act_pos = active.nonzero()[0]
                if len(act_pos) == 0:
                    if arr_ptr >= num_jobs:
                        raise SolverError(
                            "fluid solver: no active jobs and none arriving"
                        )  # pragma: no cover - defensive
                    t = float(pending_t[arr_ptr])
                    continue
                act = rank[act_pos]
                act_caps = caps[act]
                if self.fair_share:
                    rates = _water_fill(weights[act], act_caps, capacity)
                else:
                    # Serve in rank order until capacity runs out: each job
                    # gets min(cap, capacity left by the denser jobs before).
                    used = act_caps.cumsum()
                    if used[-1] <= capacity:
                        rates = act_caps
                    else:
                        rates = np.minimum(
                            act_caps,
                            np.maximum(capacity - (used - act_caps), 0.0),
                        )
                rem = remaining[act]
                # Next event: a job finishing or the next arrival.
                dt = float(np.where(rates > 0, rem / rates, np.inf).min())
                next_arrival = (
                    float(pending_t[arr_ptr]) if arr_ptr < num_jobs else np.inf
                )
                dt = min(dt, next_arrival - t)
                if not np.isfinite(dt) or dt < 0:
                    raise SolverError("fluid solver produced a bad step")
                t_next = t + dt
                work = total_work[act]
                new_rem = np.maximum(0.0, rem - rates * dt)
                remaining[act] = new_rem
                done_after = work - new_rem
                grew = (done_after > work - rem).nonzero()[0]
                if len(grew):
                    bp_job.append(act[grew])
                    bp_done.append(done_after[grew])
                    event_t.append(t_next)
                    event_size.append(len(grew))
                finished = (new_rem <= 1e-12).nonzero()[0]
                if len(finished):
                    active[act_pos[finished]] = False
                    unfinished -= len(finished)
                t = t_next

        # Group the breakpoints by job (stable: each curve stays in time
        # order), then invert every curve with one searchsorted over all of
        # its round targets.
        by_job = np.concatenate(bp_job)
        order = by_job.argsort(kind="stable")
        curve_t = np.concatenate(
            [arrivals, np.repeat(event_t, event_size)]
        )[order]
        curve_done = np.concatenate(bp_done)[order]
        ends = np.bincount(by_job, minlength=num_jobs).cumsum()
        x_hat: dict[TaskRef, float] = {}
        lo = 0
        for n, job in enumerate(jobs):
            hi = int(ends[n])
            round_work = job.sync_scale * rep[n]
            targets = np.arange(job.num_rounds) * round_work
            starts = _invert_curve_batch(
                curve_t[lo:hi], curve_done[lo:hi], targets
            )
            for r, start in enumerate(starts.tolist()):
                for d in range(job.sync_scale):
                    x_hat[TaskRef(n, r, d)] = start
            lo = hi

        h = _middle_completion(instance, x_hat)
        # Completion = each curve's last breakpoint; summed left to right.
        completion = curve_t[ends - 1]
        objective = float(sum((weights * completion).tolist()))
        return RelaxationResult(x_hat=x_hat, h=h, objective=objective)


def _water_fill(
    weights: np.ndarray, caps: np.ndarray, capacity: float
) -> np.ndarray:
    """Weighted max-min fair rates with per-job caps.

    Distributes *capacity* proportionally to *weights*, clamping each job at
    its cap and re-distributing the surplus among unclamped jobs.
    """
    n = len(weights)
    rates = np.zeros(n)
    unclamped = np.ones(n, dtype=bool)
    remaining_cap = capacity
    for _ in range(n):
        idx = np.where(unclamped)[0]
        if len(idx) == 0 or remaining_cap <= 1e-15:
            break
        share = remaining_cap * weights[idx] / weights[idx].sum()
        over = share >= caps[idx] - 1e-15
        if not over.any():
            rates[idx] = share
            break
        hit = idx[over]
        rates[hit] = caps[hit]
        remaining_cap -= float(caps[hit].sum())
        unclamped[hit] = False
    return rates


def _invert_curve_batch(
    times: np.ndarray, works: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Earliest times the piecewise-linear work curve reaches *targets*.

    The curve passes through ``(times[k], works[k])``. Each target is
    clamped to the final work value first: accumulated float drift can
    make the last round's target overshoot the total work by ~1e-12, and
    falling off the end would date that round at the job's completion
    instant instead of interpolating inside the last segment. The segment
    is the first one whose end reaches ``target - 1e-12``; a flat segment
    dates the target at its end.
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
    # Monotone works: every divisor is 1.0 or w1 - w0 > 0.
    frac = (clamped - w0) / np.where(flat, 1.0, w1 - w0)
    starts = np.where(flat, t1, t0 + frac * (t1 - t0))
    return np.where(clamped <= 0, times[0], starts)
