"""Array-backed kernel event loop (DESIGN.md §15).

:class:`ArraySchedulingKernel` is the vectorized sibling of the pinned
reference loop in :mod:`repro.kernel.runner`. It runs only the two
policy shapes it has a batch path for — an unmodified
:class:`PlannedPolicy` or :class:`GangPolicy`
(:func:`repro.kernel.runner.batch_path`) — on runs without faults, a
re-plan timer or a heal engine; :func:`repro.kernel.runner.run_policy`
sends every other run to the reference loop. The semantic contract is
**byte-identical observable behavior**: the same event counts, the same
commitment statistics, the same committed schedule (assignment-for-
assignment, in the same insertion order), the same instants/samples/
counters on the obs surface, and the same error messages on the same
inputs. Only wall-clock time differs.

Where the time goes, and how this loop wins it back:

* **Flat commit log instead of dict-of-objects.** Committed assignments
  live in parallel numpy arrays (job/round/slot/gpu as int64,
  start/train/sync as float64). A round commits as one vectorized
  append + ``np.maximum.at`` frontier update instead of ``sync_scale``
  Python object constructions. The result carries the log as a
  :class:`~repro.core.schedule.ScheduleColumns` view — metrics and the
  cell merge read it directly — and the
  :class:`~repro.core.schedule.Schedule` is materialized lazily, only
  when somebody reads ``KernelResult.schedule``.
* **Tuple heap + bulk passive skip.** Events are plain
  ``(time, type, seq, a, b)`` tuples on a :mod:`heapq` heap (same
  ``(time, type, insertion)`` tie-break as
  :class:`repro.sim.events.EventQueue`). When observability is fully
  disabled the loop asks the policy which event types it provably
  ignores (:meth:`repro.kernel.policies.Policy.passive_events`) and
  drains whole stretches of ``GPU_FREE``/``ROUND_BARRIER_OPEN`` wake-ups
  without ever invoking the policy — the dominant cost of the reference
  loop at scale. Skipped events still count toward ``events`` and the
  event budget exactly as if processed one by one.
* **Batch commits.** A planned round is a slice of the plan's columns
  in canonical order (reordered once per run by index arithmetic, no
  per-task lookups); a gang job commits all of its rounds as one tiled
  block.

Equivalence subtleties worth knowing before editing:

* A passive event at the same timestamp as a non-passive one belongs to
  that event's *batch*; the skip loop carries such events forward
  instead of finalizing them (tie-break fidelity — see the property
  tests).
* Every value that escapes the kernel (instant args, ``ready_at``,
  materialized assignments, metrics) is converted back to built-in
  ``float``/``int`` — ``np.float64`` would change JSON output bytes.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ..core.errors import (
    ConfigurationError,
    InfeasibleProblemError,
    SimulationError,
)
from ..core.job import ProblemInstance
from ..core.metrics import metrics_from_columns
from ..core.schedule import Schedule, ScheduleColumns
from ..obs import Category, current as obs_current
from .events import KernelEventType
from .policies import Policy
from .residual import KERNEL_TRACK
from .runner import KernelResult, batch_path, best_round_time
from .state import KERNEL_EPS, KernelState

__all__ = ["ArraySchedulingKernel"]

_BARRIER = int(KernelEventType.ROUND_BARRIER_OPEN)
_ARRIVED = int(KernelEventType.JOB_ARRIVED)
_FREE = int(KernelEventType.GPU_FREE)

_TYPE_NAMES = {int(t): t.name for t in KernelEventType}


class _CommitLog:
    """Append-only committed-assignment columns."""

    __slots__ = ("n", "job", "rnd", "slot", "gpu", "start", "train", "sync")

    def __init__(self, capacity: int) -> None:
        cap = max(capacity, 64)
        self.n = 0
        self.job = np.empty(cap, dtype=np.int64)
        self.rnd = np.empty(cap, dtype=np.int64)
        self.slot = np.empty(cap, dtype=np.int64)
        self.gpu = np.empty(cap, dtype=np.int64)
        self.start = np.empty(cap, dtype=np.float64)
        self.train = np.empty(cap, dtype=np.float64)
        self.sync = np.empty(cap, dtype=np.float64)

    def _grow(self, need: int) -> None:
        cap = len(self.job)
        new = max(2 * cap, self.n + need)
        for name in self.__slots__[1:]:
            old = getattr(self, name)
            arr = np.empty(new, dtype=old.dtype)
            arr[: self.n] = old[: self.n]
            setattr(self, name, arr)

    def append(self, job, rnd, slot, gpu, start, train, sync):
        k = len(gpu)
        if self.n + k > len(self.job):
            self._grow(k)
        lo, hi = self.n, self.n + k
        self.job[lo:hi] = job
        self.rnd[lo:hi] = rnd
        self.slot[lo:hi] = slot
        self.gpu[lo:hi] = gpu
        self.start[lo:hi] = start
        self.train[lo:hi] = train
        self.sync[lo:hi] = sync
        self.n = hi


def _plan_arrays(plan: Schedule):
    """The plan's (gpu, start, train, sync) rows in ``all_tasks()`` order.

    Reorders the plan's column view by canonical index arithmetic; a plan
    missing a task raises :class:`KeyError` for it, as a lookup would.
    """
    cols = plan.columns()
    rows = cols.canonical_rows()
    return cols.gpu[rows], cols.start[rows], cols.train[rows], cols.sync[rows]


class ArraySchedulingKernel:
    """Vectorized event loop for policies with a batch path.

    Same :meth:`run` result as :class:`SchedulingKernel` on the runs
    :func:`~repro.kernel.runner.run_policy` sends here. The only
    intentional difference from the reference loop is that
    ``state.phi`` is a numpy array and ``state.committed`` stays empty —
    the committed schedule lives in the flat log until materialized.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        policy: Policy,
        *,
        max_events: int | None = None,
    ) -> None:
        self._path = batch_path(policy)
        if self._path is None:
            raise ConfigurationError(
                f"the array kernel has no batch path for "
                f"{type(policy).__name__}; it runs unmodified "
                "PlannedPolicy and GangPolicy policies only"
            )
        self.instance = instance
        self.policy = policy
        self.state = KernelState(instance)
        self.state.phi = np.zeros(instance.num_gpus, dtype=np.float64)
        self.processed = 0
        self.commitments = 0
        self._now = 0.0
        self._heap: list[tuple[float, int, int, int, int]] = []
        self._seq = itertools.count()
        self._log = _CommitLog(instance.num_tasks)
        self.max_events = (
            max_events
            if max_events is not None
            else 64 + 16 * (
                instance.num_tasks + instance.num_jobs + instance.num_gpus
            )
        )
        # Seed events in the reference constructor's push order so the
        # insertion-sequence tie-break matches event for event.
        for job in instance.jobs:
            self._wake(job.arrival, _ARRIVED, job.job_id, 0)

    def _wake(self, time: float, type_: int, a: int, b: int) -> None:
        """Push an event, clamped to the current clock."""
        time = float(time)
        heapq.heappush(
            self._heap,
            (time if time > self._now else self._now, type_,
             next(self._seq), a, b),
        )

    @staticmethod
    def _instant_args(type_: int, a: int, b: int) -> dict:
        if type_ == _ARRIVED:
            return {"job": a}
        if type_ == _FREE:
            return {"gpu": a}
        return {"job": a, "round": b}

    # -- commitment application -----------------------------------------
    def _finish_commitment(self, job_id, phi_before, horizon, round_infos):
        """Shared tail: free wake-ups, instants, counters (reference order).

        *round_infos* — built by the commit paths only when the tracer is
        enabled — is a list of ``(round, start, end, gpu, busy)`` tuples,
        rounds ascending, emitted as ``kernel.round`` instants before the
        job's ``kernel.commit`` (the reference loop's emission order).
        """
        state = self.state
        obs = obs_current()
        phi = state.phi
        for m in np.flatnonzero(phi > phi_before + KERNEL_EPS).tolist():
            self._wake(phi[m], _FREE, m, 0)
        if round_infos is not None:
            best = best_round_time(self.instance, job_id)
            for r, rs, re_, g, busy in round_infos:
                obs.tracer.instant(
                    Category.SCHED,
                    "kernel.round",
                    track=KERNEL_TRACK,
                    time=state.now,
                    job=job_id,
                    round=r,
                    start=rs,
                    end=re_,
                    gpu=g,
                    busy=busy,
                    best=best,
                )
        obs.tracer.instant(
            Category.SCHED,
            "kernel.commit",
            track=KERNEL_TRACK,
            time=state.now,
            job=job_id,
            rounds_done=state.rounds_done[job_id],
        )
        self.commitments += 1
        obs.metrics.counter("kernel.commitments").inc()
        obs.metrics.histogram("kernel.commit_horizon_s").observe(
            max(0.0, horizon - state.now)
        )

    # -- planned batch path ---------------------------------------------
    def _prepare_planned(self) -> None:
        instance = self.instance
        plan = self.policy._plan
        assert plan is not None
        self._plan_gpu, self._plan_start, self._plan_train, \
            self._plan_sync = _plan_arrays(plan)
        task_off = [0]
        for job in instance.jobs:
            task_off.append(task_off[-1] + job.num_tasks)
        self._task_off = task_off

    def _planned_commit(self, job_id: int, round_idx: int) -> None:
        """Commit round *round_idx* of *job_id* as a slice of the plan.

        Each round is requested exactly once — round 0 by the job's
        arrival, round ``r + 1`` by round ``r``'s barrier — so no
        emitted-set bookkeeping is needed without fault retraction.
        """
        job = self.instance.jobs[job_id]
        state = self.state
        scale = job.sync_scale
        lo = self._task_off[job_id] + round_idx * scale
        hi = lo + scale
        gpus = self._plan_gpu[lo:hi]
        start = self._plan_start[lo:hi]
        train = self._plan_train[lo:hi]
        sync = self._plan_sync[lo:hi]
        ce = start + train
        end = ce + sync
        self._log.append(
            job_id, round_idx, np.arange(scale, dtype=np.int64),
            gpus, start, train, sync,
        )
        phi = state.phi
        phi_before = phi.copy()
        np.maximum.at(phi, gpus, ce)
        horizon = float(end.max())
        state.rounds_done[job_id] = round_idx + 1
        state.ready_at[job_id] = horizon
        if round_idx + 1 < job.num_rounds:
            self._wake(horizon, _BARRIER, job_id, round_idx)
        round_infos = None
        if obs_current().tracer.enabled:
            # argmax keeps the first max — the reference loop's strict
            # `>` scan over assignment order.
            i = int(np.argmax(end))
            round_infos = [(
                round_idx,
                float(start.min()),
                float(end[i]),
                int(gpus[i]),
                float(train[i] + sync[i]),
            )]
        self._finish_commitment(job_id, phi_before, horizon, round_infos)

    # -- gang batch path ------------------------------------------------
    def _gang_commit(self, job_id: int, gpus, start: float) -> None:
        instance = self.instance
        state = self.state
        job = instance.jobs[job_id]
        scale = job.sync_scale
        if len(gpus) != scale:
            raise InfeasibleProblemError(
                f"job {job_id} with scale {scale} given {len(gpus)} GPUs"
            )
        done = state.rounds_done[job_id]
        num_rounds = job.num_rounds
        if done != 0:
            rounds = list(range(num_rounds))
            raise SimulationError(
                f"job {job_id} commitment rounds {rounds} do not extend "
                f"the committed prefix ({done} done)"
            )
        garr = np.asarray(gpus, dtype=np.int64)
        tc_g = instance.train_time[job_id, garr]
        ts_g = instance.sync_time[job_id, garr]
        round_time = float((tc_g + ts_g).max())
        starts = np.empty(num_rounds + 1, dtype=np.float64)
        t = float(start)
        # Sequential accumulation on purpose: bitwise-equal to the
        # reference gang_commitment's ``t += round_time`` walk.
        for r in range(num_rounds):
            starts[r] = t
            t += round_time
        starts[num_rounds] = t
        start_col = np.repeat(starts[:num_rounds], scale)
        gpu_col = np.tile(garr, num_rounds)
        train_col = np.tile(tc_g, num_rounds)
        sync_col = np.tile(ts_g, num_rounds)
        ce_col = start_col + train_col
        end_col = ce_col + sync_col
        self._log.append(
            np.repeat(np.int64(job_id), num_rounds * scale),
            np.repeat(
                np.arange(num_rounds, dtype=np.int64), scale
            ),
            np.tile(np.arange(scale, dtype=np.int64), num_rounds),
            gpu_col, start_col, train_col, sync_col,
        )
        phi = state.phi
        phi_before = phi.copy()
        np.maximum.at(phi, gpu_col, ce_col)
        # Gang hold: every GPU stays busy until job completion.
        np.maximum.at(phi, garr, np.full(scale, t))
        horizon = float(end_col.max())
        state.rounds_done[job_id] = num_rounds
        state.ready_at[job_id] = float(end_col[-scale:].max())
        round_infos = None
        if obs_current().tracer.enabled:
            round_infos = []
            for r in range(num_rounds):
                lo = r * scale
                hi = lo + scale
                k = lo + int(np.argmax(end_col[lo:hi]))
                round_infos.append((
                    r,
                    float(start_col[lo:hi].min()),
                    float(end_col[k]),
                    int(gpu_col[k]),
                    float(train_col[k] + sync_col[k]),
                ))
        # All rounds committed: no barrier wake-up (matches reference).
        self._finish_commitment(job_id, phi_before, horizon, round_infos)

    # -- bulk passive skip -----------------------------------------------
    def _bulk_skip(self, passive) -> list:
        """Drain leading passive events without invoking the policy.

        Returns the *carry*: popped passive events sharing a timestamp
        with the next non-passive event, which therefore belong to that
        event's batch (same-time tie-break fidelity).
        """
        heap = self._heap
        pop = heapq.heappop
        skipped: list = []
        while heap and heap[0][1] in passive:
            skipped.append(pop(heap))
        carry: list = []
        if skipped and heap and skipped[-1][0] == heap[0][0]:
            t_edge = heap[0][0]
            k = len(skipped)
            while k > 0 and skipped[k - 1][0] == t_edge:
                k -= 1
            carry = skipped[k:]
            skipped = skipped[:k]
        if skipped:
            self.processed += len(skipped)
            if self.processed > self.max_events:
                raise SimulationError(
                    f"kernel event budget {self.max_events} exceeded; "
                    "likely policy livelock"
                )
            last_t = skipped[-1][0]
            if last_t > self._now:
                self._now = last_t
            self.state.now = self._now
        return carry

    # -- the loop --------------------------------------------------------
    def run(self) -> KernelResult:
        obs = obs_current()
        tracer = obs.tracer
        metrics = obs.metrics
        state = self.state
        instance = self.instance
        policy = self.policy
        policy.setup(state)
        planned = self._path == "planned"
        if planned:
            self._prepare_planned()
        invoke_cap = 4 * instance.num_jobs + 16
        heap = self._heap
        pop = heapq.heappop
        # Bulk skipping changes no observable state, but it elides the
        # per-event instants and per-batch samples — only legal when
        # nothing records them.
        may_skip = not obs.enabled
        carry: list = []
        while heap or carry:
            if state.complete():
                break
            if may_skip and not carry:
                passive = policy.passive_events(state)
                if passive:
                    carry = self._bulk_skip(passive)
                    if not heap and not carry:
                        break
            if carry:
                batch = carry
                carry = []
                t = batch[0][0]
            else:
                first = pop(heap)
                batch = [first]
                t = first[0]
            if t > self._now:
                self._now = t
            state.now = self._now
            while heap and heap[0][0] == t:
                batch.append(pop(heap))
            for time_, type_, _seq, a, b in batch:
                self.processed += 1
                if self.processed > self.max_events:
                    raise SimulationError(
                        f"kernel event budget {self.max_events} exceeded; "
                        "likely policy livelock"
                    )
                if tracer.enabled:
                    tracer.instant(
                        Category.SIM,
                        _TYPE_NAMES[type_],
                        track=KERNEL_TRACK,
                        time=time_,
                        **self._instant_args(type_, a, b),
                    )
                # ROUND_BARRIER_OPEN / GPU_FREE are pure wake-ups.
                if type_ == _ARRIVED:
                    state.arrived.add(a)
                    state.pending_arrivals.remove(instance.jobs[a].arrival)
            if planned:
                for _time, type_, _seq, a, b in batch:
                    if type_ == _ARRIVED:
                        self._planned_commit(a, 0)
                    elif type_ == _BARRIER:
                        self._planned_commit(a, b + 1)
            else:
                # One fixed point per batch: the reference loop's extra
                # per-event invocations hit an unchanged state and
                # provably return None (GangPolicy.select contract).
                for _ in range(invoke_cap):
                    runnable = state.unstarted()
                    if not runnable:
                        break
                    decision = policy.select(
                        state, runnable, state.free_gpus()
                    )
                    if decision is None:
                        break
                    job_id, gpus = decision
                    self._gang_commit(
                        job_id,
                        gpus,
                        max(state.now, instance.jobs[job_id].arrival),
                    )
                else:  # pragma: no cover - defensive
                    raise SimulationError(
                        f"policy {policy.name!r} did not reach a "
                        f"fixed point at t={state.now}"
                    )
            metrics.gauge("kernel.queue_depth").set(len(heap))
            metrics.sample("kernel.queue_depth", t)
            metrics.sample("kernel.commitments", t)
        if not state.complete():
            raise InfeasibleProblemError(
                "kernel drained its queue with rounds still uncommitted; "
                "check the policy"
            )
        metrics.counter("kernel.events").inc(self.processed)
        columns = self._columns()
        return KernelResult(
            columns=columns,
            metrics=metrics_from_columns(columns),
            events=self.processed,
            commitments=self.commitments,
            replans=int(getattr(policy, "replans", 0)),
            retracted_rounds=0,
        )

    def _columns(self) -> ScheduleColumns:
        """The committed schedule as a view of the log.

        Row order (append order) reproduces the reference dict's
        insertion order, so a materialized schedule iterates its
        assignments in identical sequence.
        """
        log = self._log
        n = log.n
        return ScheduleColumns(
            self.instance,
            log.job[:n], log.rnd[:n], log.slot[:n], log.gpu[:n],
            log.start[:n], log.train[:n], log.sync[:n],
        )
