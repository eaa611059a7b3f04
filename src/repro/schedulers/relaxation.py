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
    the classical separation routine for this polyhedron.

:class:`FluidRelaxationSolver`
    A fluid approximation for large instances: arrived jobs take the
    cluster's aggregate capacity in WSPT priority order (each capped by its
    sync scale), and ``x̂`` of a round is the fluid time its work starts.
    For J jobs, M GPUs, R rounds and T tasks it runs at most ~2J
    arrival/finish events (:class:`FluidStepper`, one per step), each a
    fixed handful of numpy operations over at most J jobs, and dates each
    round at the event whose breakpoint reaches it. With the O(J·M)
    averaging of task times the cost is O(J·M + J² + T) numpy work and
    O(J + R) steps of interpreted Python. Online Hare runs only the
    events its list schedule needs. Produces the same *ordering signal*
    ``H_i`` that Algorithm 1 consumes; tests compare it against the exact
    solver on small instances.

Both return :class:`RelaxationResult` with ``x̂_i`` and the middle
completion times ``H_i = x̂_i + ½·max_m T^c_{i,m}`` that drive the list
scheduling of step 2, as float64 arrays in canonical task order: task
``i`` is the ``i``-th of ``instance.all_tasks()`` (jobs by id, then
rounds, then slots — the numbering of
:attr:`repro.core.schedule.Schedule.canon`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Protocol

import numpy as np

from ..core.errors import SolverError
from ..core.job import ProblemInstance
from ..core.types import TaskRef

if TYPE_CHECKING:
    from scipy import sparse

# scipy is imported inside the functions that call it: loading
# ``scipy.optimize`` is more than half of a cold ``import repro``, in time
# and in memory, which runs that never reach the exact LP should not pay.


#: The cut loop stops after this many LP solves, separated cuts or not.
MAX_CUT_ROUNDS = 25
#: A prefix is cut when its violation exceeds this share of its bound.
CUT_TOLERANCE = 1e-6


@cache
def _highs():
    """scipy's vendored HiGHS pybind API, or ``None`` when this scipy
    layout does not expose it (the cut loop then uses ``linprog``)."""
    try:  # scipy vendors the HiGHS pybind API; no standalone highspy needed.
        from scipy.optimize._highspy import _core
    except Exception:  # pragma: no cover - older/newer scipy layouts
        return None
    return _core


@dataclass(frozen=True, slots=True)
class RelaxationResult:
    """Solution of the relaxed scheduling problem.

    ``x_hat`` and ``h`` hold one float64 per task in canonical order
    (``instance.all_tasks()`` order).
    """

    #: Relaxed start time x̂_i per task.
    x_hat: np.ndarray
    #: Middle completion time H_i = x̂_i + max_m T^c_{i,m} / 2.
    h: np.ndarray
    #: Objective value of the relaxation (Σ w_n Ĉ_n).
    objective: float


class RelaxationSolver(Protocol):
    """Anything that can produce x̂ / H for Algorithm 1."""

    def solve(self, instance: ProblemInstance) -> RelaxationResult: ...


def _middle_completion(
    instance: ProblemInstance, x_hat: np.ndarray
) -> np.ndarray:
    half_max_tc = instance.train_by_type.max(axis=1) / 2.0
    return x_hat + half_max_tc[instance.task_columns()[0]]


def greedy_assignment(instance: ProblemInstance) -> dict[TaskRef, int]:
    """Speed-aware greedy ŷ: each task to the GPU minimizing load + T^c.

    Tasks are visited in (arrival, job, round, slot) order; per-GPU load is
    the accumulated compute time. This is the classical list-scheduling
    assignment for unrelated machines and serves as the fixed ŷ for the
    cutting-plane LP.
    """
    load = np.zeros(instance.num_gpus)
    y: dict[TaskRef, int] = {}
    arrival = instance.arrival.tolist()
    # all_tasks() is in (job, round, slot) order, and the sort is stable.
    ordered = sorted(instance.all_tasks(), key=lambda t: arrival[t.job_id])
    for task in ordered:
        tc_row = instance.train_row(task.job_id)
        m = int(np.argmin(load + tc_row))
        y[task] = m
        load[m] += tc_row[m]
    return y


class _LinprogCutLp:
    """Fallback cut-loop backend: re-solve the grown CSR with ``linprog``.

    Rows are appended incrementally (``sparse.vstack`` of CSR blocks, never
    a from-scratch COO rebuild), but each :meth:`solve` is a cold start.
    """

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
        from scipy import sparse

        self._a_ub = sparse.vstack([self._a_ub, block], format="csr")
        self._rhs.extend(rhs_block)

    def solve(self) -> tuple[np.ndarray, float]:
        from scipy.optimize import linprog

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

    def __init__(
        self,
        c: np.ndarray,
        lb: np.ndarray,
        a_ub: sparse.csr_matrix,
        rhs: list[float],
    ) -> None:
        core = _highs()
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
    """LP over start times with Queyranne prefix cuts (fixed greedy ŷ).

    The cut loop runs on the warm-started in-process HiGHS when scipy
    exposes it (:func:`_highs`), else on the cold-start ``linprog``
    fallback.
    """

    def solve(self, instance: ProblemInstance) -> RelaxationResult:
        return self._solve_fixed_y(instance, greedy_assignment(instance))

    def _solve_fixed_y(
        self, instance: ProblemInstance, y: dict[TaskRef, int]
    ) -> RelaxationResult:
        from scipy import sparse

        job, rnd, _ = instance.task_columns()
        n_x = len(job)

        # Barrier variables b_{n,r}, one per (job, round): task i's round
        # is variable b[i].
        rounds = instance.num_rounds
        first = n_x + np.cumsum(rounds) - rounds
        b = (first[job] + rnd).tolist()
        n_vars = n_x + int(rounds.sum())

        # Durations on the assigned GPU.
        gpu = np.array([y[t] for t in instance.all_tasks()], dtype=np.int64)
        q, sync = instance.times(job, gpu)  # T^c, T^s
        p = q + sync  # T^c + T^s

        c = np.zeros(n_vars)
        c[first + rounds - 1] = instance.weight

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
        for i in range(n_x):
            add_row([(i, 1.0), (b[i], -1.0)], -p[i])
        # (7): b_{n,r-1} <= x_j for j in round r
        for i, r in enumerate(rnd.tolist()):
            if r > 0:
                add_row([(b[i] - 1, 1.0), (i, -1.0)], 0.0)

        # Machine task lists for cut separation.
        machine_tasks: dict[int, list[int]] = {}
        for i, m in enumerate(gpu.tolist()):
            machine_tasks.setdefault(m, []).append(i)

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
        lb[:n_x] = instance.arrival[job]

        a_base = sparse.csr_matrix(
            (data, indices, indptr), shape=(len(rhs), n_vars)
        )
        backend = _HighsCutLp if _highs() is not None else _LinprogCutLp
        lp = backend(c, lb, a_base, rhs)

        x_sol = np.zeros(n_vars)
        objective = 0.0
        for _ in range(MAX_CUT_ROUNDS):
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

        # The x columns come first, in all_tasks() order.
        x_hat = np.array(x_sol[:n_x], dtype=np.float64)
        return RelaxationResult(
            x_hat=x_hat,
            h=_middle_completion(instance, x_hat),
            objective=objective,
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
        duplicate rows until :data:`MAX_CUT_ROUNDS` exhausts.
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
            if violation[k] > CUT_TOLERANCE * max(1.0, abs(bound[k])):
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

    The fluid runs as a :class:`FluidStepper`, one arrival or finish
    event per step, and :meth:`solve` drains it. Online Hare steps it only
    as far as the part of π its list schedule reads.
    """

    #: Use the harmonic mean of per-GPU times instead of the arithmetic
    #: mean as the job's representative task time (harmonic = throughput-
    #: weighted, slightly favours jobs with strong fast-GPU affinity).
    harmonic: bool = False
    #: Egalitarian weighted fair sharing instead of WSPT priority.
    fair_share: bool = False

    def stepper(self, instance: ProblemInstance) -> FluidStepper:
        """*instance*'s fluid at its start, before the first event."""
        return FluidStepper(instance, self.harmonic, self.fair_share)

    def solve(self, instance: ProblemInstance) -> RelaxationResult:
        fluid = self.stepper(instance)
        while fluid.step():
            pass
        return fluid.result()


class FluidStepper:
    """One instance's fluid relaxation, run one event at a time.

    Each :meth:`step` runs the fluid to its next arrival or finish. A job
    that gains work there gets a breakpoint on its work-completed curve,
    and every round whose work target the breakpoint reaches
    (``work >= target - 1e-12``, :func:`_invert_curves`' rule) is dated at
    once, on the curve segment that ends there: ``x̂`` interpolates
    between the job's previous breakpoint and this one. :attr:`starts`
    fills in as rounds are dated, :attr:`dated` lists them in that order,
    and a drained stepper's :meth:`result` is the relaxation, the same
    bytes as inverting the finished curves.

    Until the end, :meth:`bound` limits what the undated rounds can still
    get. An undated round of job ``j`` is dated on a later segment, so its
    ``x̂`` is no earlier than ``j``'s last breakpoint ``t_j`` and its
    ``H`` no lower than ``t_j + c_j``, with ``c_j = ½·max_m T^c_{j,m}``.
    The fluid's current time is no such bound: a starved job has no
    breakpoint across its gap, so its next round is dated by
    interpolating over the gap, before the time its work resumes.

    Before its first breakpoint a job's segment starts at its arrival
    ``a_j``, and that segment can run backwards: an arrival up to 1e-12
    after an event joins at the event, so its first breakpoint may come
    before ``a_j``. A round it reaches there needs at most 4/3 of the
    breakpoint's work once its target is 4e-12 or more, so its ``x̂`` is
    at least ``a_j - 2e-12`` (less four ulps of ``a_j``), and that is
    ``t_j`` until the first breakpoint. Rounds of smaller targets give no
    such limit, so a job with ``a_j > 0`` and rounds under 4e-12 bounds
    nothing (``-inf``) until its first round is dated on a breakpoint.

    A round whose target may lie past its job's final work (rounds of
    under ~1e-12 work: a job finishes with up to 1e-12 left, and
    :func:`_invert_curves` clamps such targets to the curve's end) is
    dated when the job finishes, by :func:`_invert_curves` on the job's
    whole curve; until then it bounds ``H`` by the job's arrival plus
    ``c_j`` once the job has joined at or after its arrival, and by
    ``-inf`` before that or for good if it joined early.

    **Cost.** The WSPT rank is computed once, and the state lives in
    rank order. Arrivals are a list pointer. The served jobs and their
    rates are rebuilt only when membership changes: the densest jobs
    take their caps until capacity runs out, so the served jobs are a
    prefix of the active ones (every active job, with no ``cumsum``,
    while their caps fit). A rebuild gathers the served jobs' remaining
    work, total work and next key once; an event is then about a dozen
    numpy calls over them, plus a few scalar operations per round it
    dates. The fair-share ablation water-fills at each rebuild.
    """

    def __init__(
        self, instance: ProblemInstance, harmonic: bool, fair_share: bool
    ) -> None:
        num_jobs = instance.num_jobs
        rep = instance.mean_task_time(harmonic=harmonic)
        ids = np.arange(num_jobs)
        rounds, scales = instance.num_rounds, instance.sync_scale
        total_work = (rounds * scales) * rep
        weights = instance.weight
        arrivals = instance.arrival
        # Jobs are kept in *rank* order: WSPT density (w_n / total work,
        # static, so a job's priority never drifts), ties toward the lower
        # id. Fair sharing keeps id order, which _water_fill's sums expect.
        if fair_share:
            rank = ids
        else:
            density = weights / np.maximum(total_work, 1e-300)
            rank = np.lexsort((ids, -density))
        pos = np.empty(num_jobs, dtype=np.intp)
        pos[rank] = ids
        self.instance = instance
        self._fair_share = fair_share
        self._capacity = float(instance.num_gpus)
        self._pos = pos
        # Per rank position. Integer-valued caps: every cumsum is exact.
        self._caps = scales[rank].astype(np.float64)
        self._weights = weights[rank] if fair_share else None
        self._work = total_work[rank]
        self._rem = self._work.copy()
        self._active = np.zeros(num_jobs, dtype=bool)
        #: Each job's last breakpoint time (its arrival while it has none).
        self._last_t = arrivals[rank]
        #: t_j of :meth:`bound`: the last breakpoint, or before the first
        #: the least x̂ a backwards first segment can date, a_j - 2e-12
        #: less four ulps (a_j·2^-50 is at least that).
        self._bound_t = self._last_t * (1 - 2**-50) - 2e-12
        early = self._last_t > 0
        pending = np.argsort(arrivals, kind="stable")
        self._arrive_pos = pos[pending].tolist()
        self._arrive_t = arrivals[pending].tolist()
        self._next_arrival = 0
        self._s_pos: np.ndarray | None = None
        self._s_list: list[int] = []
        #: Caps of the active jobs, summed (exact: integers).
        self._cap_list = self._caps.tolist()
        self._active_caps = 0.0

        # Per rank position: the first round's id (rounds in canonical
        # order), the work per round, the round count, the first undated
        # round, and the first round dated only at the finish (its target
        # is past the least work the job can end with).
        num_rounds = rounds[rank]
        round_work = (scales * rep)[rank]
        first_round = (np.cumsum(rounds) - rounds)[rank].tolist()
        self._first_round = first_round
        self._round_work = round_work.tolist()
        self._num_rounds = num_rounds.tolist()
        self._late_from = list(self._num_rounds)
        # Round 0 (work target 0) is dated at the arrival; the key
        # (target - 1e-12) of round 1 is then the next to reach.
        self._next_round = [1] * num_jobs
        more = num_rounds > 1
        self._key = np.where(more, round_work - 1e-12, np.inf)
        #: c_j = ½·max_m T^c_{j,m}, by job id.
        self.half_tc = instance.train_by_type.max(axis=1) / 2.0
        #: c_j while job j has a round to date on crossing, else inf;
        #: -inf for rounds too small to bound, until one is dated.
        half_c = self.half_tc[rank]
        self._pending_c = np.where(more, half_c, np.inf)
        unsure = (round_work < 4e-12) & more & early
        self._unsure: dict[int, float] = {}
        if unsure.any():
            self._pending_c[unsure] = -np.inf
            self._unsure = dict(zip(
                unsure.nonzero()[0].tolist(), half_c[unsure].tolist()
            ))
        #: x̂ of every round in canonical order, ``None`` until dated.
        self.starts: list[float | None] = [None] * int(rounds.sum())
        arrival = arrivals[rank].tolist()
        for g, a in zip(first_round, arrival):
            self.starts[g] = a
        #: Round ids in the order they were dated.
        self.dated: list[int] = list(first_round)
        #: Jobs with rounds dated at their finish (rank position -> its
        #: curve so far), and their bound while such a round is undated.
        self._curves: dict[int, list[tuple[float, float]]] = {}
        self._late_bound: dict[int, float] = {}
        #: Late bounds that hold once their job joins on time.
        self._late_on_time: dict[int, float] = {}
        #: Jobs that finish at their first event (total work <= 1e-12).
        self._tiny: set[int] = set()
        # A job finishes with at least final_floor done: the jobs whose
        # last target reaches it have rounds to date at the finish, and
        # include every tiny job.
        final_floor = self._work - 1e-12
        odd = (num_rounds - 1) * round_work >= final_floor
        for p in odd.nonzero()[0].tolist():
            if final_floor[p] <= 0:
                self._tiny.add(p)
            w, late = self._round_work[p], self._num_rounds[p]
            while late > 1 and (late - 1) * w > final_floor[p]:
                late -= 1
            if late == self._num_rounds[p]:
                continue
            self._late_from[p] = late
            self._curves[p] = [(arrival[p], 0.0)]
            self._late_bound[p] = arrival[p] + float(half_c[p])
            if early[p]:
                self._late_on_time[p] = self._late_bound[p]
                self._late_bound[p] = -np.inf
            self._key[p] = self._advance(p, 1)
        self.t = 0.0
        #: Fluid events run so far.
        self.events = 0
        self._max_events = 8 * num_jobs + 64
        self._unfinished = num_jobs
        self._stale = True  # the served jobs need a rebuild

    # ------------------------------------------------------------------
    def bound(self) -> float:
        """The least ``H`` an undated round can still get (``inf`` once
        every round is dated)."""
        lo = self._bound_t + self._pending_c
        lo = float(lo[lo.argmin()]) if len(lo) else np.inf
        if self._late_bound:
            lo = min(lo, *self._late_bound.values())
        return lo

    def step(self) -> bool:
        """Run the fluid to its next event; ``False`` once it is done."""
        if not self._unfinished:
            return False
        if self.events > self._max_events:  # pragma: no cover
            raise SolverError("fluid solver failed to converge")
        t = self.t
        arrive_t = self._arrive_t
        i = self._next_arrival
        while True:
            if i < len(arrive_t) and arrive_t[i] <= t + 1e-12:
                while i < len(arrive_t) and arrive_t[i] <= t + 1e-12:
                    p = self._arrive_pos[i]
                    self._active[p] = True
                    self._active_caps += self._cap_list[p]
                    if p in self._late_on_time and arrive_t[i] <= t:
                        self._late_bound[p] = self._late_on_time.pop(p)
                    i += 1
                self._next_arrival = i
                self._stale = True
            if self._stale:
                self._rebuild()
            if self._s_list:
                break
            if i >= len(arrive_t):  # pragma: no cover - defensive
                raise SolverError(
                    "fluid solver: no active jobs and none arriving"
                )
            t = arrive_t[i]
        s_pos, s_rate, s_rem = self._s_pos, self._s_rate, self._s_rem
        # Next event: a served job finishing or the next arrival.
        dt = s_rem / s_rate
        dt = dt.item(dt.argmin())
        if i < len(arrive_t) and arrive_t[i] - t < dt:
            dt = arrive_t[i] - t
        if not dt < np.inf or dt < 0:
            raise SolverError("fluid solver produced a bad step")
        t_next = t + dt
        new_rem = np.maximum(0.0, s_rem - s_rate * dt)
        self._s_rem = new_rem
        done_before = self._s_done
        done = self._s_done = self._s_work - new_rem
        # Breakpoints: the served jobs whose done work grew.
        grew = done > done_before
        cross = done >= self._s_key
        every = np.count_nonzero(grew) == len(grew)
        if not every:
            cross &= grew
        cross = cross.nonzero()[0]
        if len(cross):
            self._date(cross.tolist(), done_before, done, t_next)
        grown = s_pos if every else s_pos[grew]
        self._last_t[grown] = t_next
        self._bound_t[grown] = t_next
        if self._curves:
            self._extend_curves(grew, done, t_next)
        ended = (new_rem <= 1e-12).nonzero()[0]
        if len(ended) or self._tiny:
            s_list = self._s_list
            ended = [s_list[i] for i in ended.tolist()]
            # Unserved active jobs finish too (their work is <= 1e-12).
            ended += [
                p for p in self._tiny if self._active[p] and p not in ended
            ]
            if ended:
                self._finish(ended)
        self.t = t_next
        self.events += 1
        return True

    def result(self) -> RelaxationResult:
        """The relaxation, once :meth:`step` has drained the fluid."""
        instance = self.instance
        x_hat = np.repeat(
            np.array(self.starts, dtype=np.float64),
            np.repeat(instance.sync_scale, instance.num_rounds),
        )
        # Completion = each curve's last breakpoint; summed left to right.
        completion = self._last_t[self._pos]
        objective = float(sum((instance.weight * completion).tolist()))
        # H as _middle_completion computes it.
        h = x_hat + self.half_tc[instance.task_columns()[0]]
        return RelaxationResult(x_hat=x_hat, h=h, objective=objective)

    # ------------------------------------------------------------------
    def _advance(self, p: int, r: int) -> float:
        """Job *p* (a rank position) has dated its rounds before *r*; the
        key of its next round to date on crossing, or inf."""
        self._next_round[p] = r
        if r < self._late_from[p]:
            return r * self._round_work[p] - 1e-12
        self._pending_c[p] = np.inf
        self._unsure.pop(p, None)
        return np.inf

    def _rebuild(self) -> None:
        """The served jobs and their rates, after membership changed."""
        if self._s_pos is not None:
            self._rem[self._s_pos] = self._s_rem
        act = self._active.nonzero()[0]
        capacity = self._capacity
        if self._fair_share:
            act_caps = self._caps[act]
            rates = _water_fill(self._weights[act], act_caps, capacity)
            served = rates.nonzero()[0]
            s_pos, s_rate = act[served], rates[served]
        elif self._active_caps <= capacity:
            # Every active job takes its cap.
            s_pos, s_rate = act, self._caps[act]
        else:
            # Serve in rank order until capacity runs out: each job gets
            # min(cap, capacity left by the denser jobs before). All are
            # integers, so the partial rate is exact.
            act_caps = self._caps[act]
            used = act_caps.cumsum()
            k = int(used.searchsorted(capacity, side="right"))
            left = capacity - (used.item(k - 1) if k else 0.0)
            n = k + (left > 0)
            s_pos, s_rate = act[:n], act_caps[:n]
            if left > 0:
                s_rate[k] = left
        self._s_pos, self._s_rate = s_pos, s_rate
        self._s_list = s_pos.tolist()
        self._s_rem = self._rem[s_pos]
        self._s_work = self._work[s_pos]
        self._s_done = self._s_work - self._s_rem
        self._s_key = self._key[s_pos]
        self._stale = False

    def _date(
        self,
        cross: list[int],
        done_before: np.ndarray,
        done: np.ndarray,
        t_next: float,
    ) -> None:
        """Date the rounds the served jobs at *cross* reached this event,
        each on its curve's segment from its last breakpoint to
        (t_next, done)."""
        starts, dated = self.starts, self.dated
        next_round, round_work = self._next_round, self._round_work
        first_round, late_from = self._first_round, self._late_from
        s_list, key, s_key = self._s_list, self._key, self._s_key
        last_t, unsure = self._last_t, self._unsure
        for i in cross:
            p = s_list[i]
            if unsure and p in unsure:
                self._pending_c[p] = unsure.pop(p)
            w0, w1, t0 = done_before.item(i), done.item(i), last_t.item(p)
            r, w, g = next_round[p], round_work[p], first_round[p]
            late = late_from[p]
            work, span = w1 - w0, t_next - t0
            while True:
                # _invert_curves' interpolation, at the unclamped target.
                starts[g + r] = t0 + (r * w - w0) / work * span
                dated.append(g + r)
                r += 1
                if r >= late or w1 < r * w - 1e-12:
                    break
            if r < late:
                next_round[p] = r
                key[p] = s_key[i] = r * w - 1e-12
            else:
                key[p] = s_key[i] = self._advance(p, r)

    def _extend_curves(
        self, grew: np.ndarray, done: np.ndarray, t_next: float
    ) -> None:
        """Append this event's breakpoints to the curves kept whole."""
        for i, p in enumerate(self._s_list):
            if p in self._curves and grew[i]:
                self._curves[p].append((t_next, done.item(i)))

    def _finish(self, ended: list[int]) -> None:
        """Retire the jobs at rank positions *ended*; date the rounds
        left for the finish on each one's whole curve."""
        for p in ended:
            self._active[p] = False
            self._active_caps -= self._cap_list[p]
            self._tiny.discard(p)
            curve = self._curves.pop(p, None)
            if curve is None:
                continue
            del self._late_bound[p]
            r, num = self._next_round[p], self._num_rounds[p]
            g = self._first_round[p]
            times, works = (np.array(col) for col in zip(*curve))
            late = _invert_curves(
                times, works, np.array([len(curve)]),
                np.zeros(num - r, dtype=np.intp),
                np.arange(r, num) * self._round_work[p],
            )
            self.starts[g + r:g + num] = late.tolist()
            self.dated.extend(range(g + r, g + num))
            self._next_round[p] = num
        self._unfinished -= len(ended)
        self._stale = True


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


def _invert_curves(
    times: np.ndarray,
    works: np.ndarray,
    ends: np.ndarray,
    curve: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Earliest times piecewise-linear work curves reach *targets*.

    Curve ``n`` passes through ``(times[k], works[k])`` for ``k`` in
    ``ends[n-1]:ends[n]`` (from 0 for the first curve); target ``i`` is
    read on curve ``curve[i]``. Each target is clamped to its curve's
    final work value first: accumulated float drift can make a job's
    last round target overshoot its total work by ~1e-12, and falling off
    the end would date that round at the job's completion instant
    instead of interpolating inside the last segment. The segment is the
    first one whose end reaches ``target - 1e-12``, found by one binary
    search over every target at once (per curve, the index
    ``searchsorted(side="left")`` finds); a flat segment dates the target
    at its end, and a one-point curve dates every target at its point.
    """
    down = works[1:] < works[:-1]
    down[ends[:-1] - 1] = False  # across a curve boundary
    if down.any():
        raise SolverError("work curve is not monotone")
    lo = (ends - np.diff(ends, prepend=0))[curve]
    hi = ends[curve] - 1
    clamped = np.minimum(targets, works[hi])
    key = clamped - 1e-12
    # First k in [lo, hi] with works[k] >= key; works[hi] >= key always.
    k = hi.copy()
    a = lo.copy()
    while (a < k).any():
        mid = (a + k) >> 1
        right = works[mid] < key
        a = np.where(right, mid + 1, a)
        k = np.where(right, k, mid)
    single = hi == lo
    j = np.where(single, lo, np.maximum(k, lo + 1))
    w0 = works[np.where(single, lo, j - 1)]
    w1 = works[j]
    t0 = times[np.where(single, lo, j - 1)]
    t1 = times[j]
    flat = w1 == w0
    # Monotone works: every divisor is 1.0 or w1 - w0 > 0.
    frac = (clamped - w0) / np.where(flat, 1.0, w1 - w0)
    starts = np.where(flat, t1, t0 + frac * (t1 - t0))
    return np.where(clamped <= 0, times[lo], starts)
