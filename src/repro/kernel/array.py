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

* **Planned runs replay the plan as one block.** A clairvoyant plan
  fixes every start time before the first event, so nothing the
  reference loop does per event can change it. The replay has two
  phases. Phase 1 runs a :mod:`heapq` over the *trigger* events only —
  arrivals and one barrier per non-final round, keyed ``(time, type,
  seq)`` — and pops same-time triggers as one batch, exactly like the
  loop; that yields the commit order and each commit's batch key
  ``(time, gen)``, where an event pushed at the current time lands in
  generation ``gen + 1`` of that time. ``GPU_FREE`` events commit
  nothing, and ``seq`` is monotone, so leaving them out changes no
  trigger's order. Phase 2 derives everything else with numpy over the
  commit order: the log (one gather of round slices), the ``GPU_FREE``
  wake-ups (a per-(commit, GPU) ``reduceat`` max of compute ends against
  the GPU's running φ), the event count (every event at or before the
  batch of the last commit), the per-batch ``kernel.queue_depth`` and
  ``kernel.commitments`` samples, and — with the tracer on — the same
  instants in the same order, from the same arrays.
* **Flat commit log instead of dict-of-objects.** Committed assignments
  live in parallel numpy arrays (job/round/slot/gpu as int64,
  start/train/sync as float64). The result carries the log as a
  :class:`~repro.core.schedule.ScheduleColumns` view — metrics and the
  cell merge read it directly — and the
  :class:`~repro.core.schedule.Schedule` is materialized lazily, only
  when somebody reads ``KernelResult.schedule``. A planned run
  materializes it by re-inserting the plan's own assignment objects in
  commit order — the objects the reference loop commits — instead of
  constructing one per row.
* **Gang runs: tuple heap + bulk passive skip.** Events are plain
  ``(time, type, seq, a, b)`` tuples on a :mod:`heapq` heap (same
  ``(time, type, insertion)`` tie-break as
  :class:`repro.sim.events.EventQueue`). When observability is fully
  disabled the loop asks the policy which event types it provably
  ignores (:meth:`repro.kernel.policies.Policy.passive_events`) and
  drains whole stretches of ``GPU_FREE``/``ROUND_BARRIER_OPEN`` wake-ups
  without ever invoking the policy. Skipped events still count toward
  ``events`` and the event budget exactly as if processed one by one. A
  gang job commits all of its rounds as one tiled block.

Equivalence subtleties worth knowing before editing:

* In the block replay, a batch of ``GPU_FREE`` events alone commits and
  pushes nothing, so it can only be the last generation of its time.
  Trigger batches therefore keep the loop's generation numbers, and the
  generations of one time run 0, 1, … without a gap.
* The replay's ``kernel.queue_depth`` sample of a batch is the arrivals
  plus every push so far minus every pop so far; its
  ``kernel.commitments`` sample starts from the counter's value before
  the run, which a caller's registry may already have raised.
* A passive event at the same timestamp as a non-passive one belongs to
  that event's *batch*; the skip loop carries such events forward
  instead of finalizing them (tie-break fidelity — see the property
  tests).
* Every value that escapes the kernel (instant args, ``ready_at``,
  assignments materialized from the gang log, metrics) is converted back
  to built-in ``float``/``int`` — ``np.float64`` would change JSON
  output bytes.
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial

import numpy as np

from ..core.errors import (
    ConfigurationError,
    InfeasibleProblemError,
    SimulationError,
)
from ..core.job import ProblemInstance
from ..core.metrics import metrics_from_columns
from ..core.schedule import Schedule, ScheduleColumns
from ..core.types import TaskRef
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


def _clamp(times: np.ndarray, now: np.ndarray) -> np.ndarray:
    """``_wake``'s clamp, elementwise: *times*, or *now* where earlier."""
    return np.where(times > now, times, now)


def _phi_before(group: np.ndarray, values: np.ndarray) -> np.ndarray:
    """φ just before each row: the max of *values* over the earlier rows
    of the row's group, floored at the initial φ of 0.0.

    Rows must be sorted by *group*. The prefix max runs over integer
    ranks of the values, so it is exact.
    """
    uniq, rank = np.unique(values, return_inverse=True)
    width = len(uniq)
    acc = np.maximum.accumulate(group * width + rank.reshape(-1))
    running = uniq[acc - group * width]
    before = np.zeros_like(values)
    before[1:] = running[:-1]
    before[np.flatnonzero(group[1:] != group[:-1]) + 1] = 0.0
    return np.maximum(before, 0.0)


def _gpu_frees(gpu, commit, compute_end, commit_time):
    """The ``GPU_FREE`` wake-ups of a sequence of commits.

    Log row ``i`` runs on ``gpu[i]`` and belongs to commit ``commit[i]``.
    A commit frees a GPU when its largest compute end there beats the
    GPU's φ from the earlier commits by more than ``KERNEL_EPS`` (the
    loop's ``phi > phi_before + KERNEL_EPS``); the wake-up is at the new
    φ, clamped to the commit's time. Returns the (commit, gpu, time)
    columns of every free.
    """
    order = np.lexsort((commit, gpu))
    g = gpu[order]
    c = commit[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = (g[1:] != g[:-1]) | (c[1:] != c[:-1])
    heads = np.flatnonzero(head)
    peak = np.maximum.reduceat(compute_end[order], heads)
    g = g[heads]
    c = c[heads]
    before = _phi_before(g, peak)
    after = np.maximum(before, peak)
    fire = after > before + KERNEL_EPS
    c = c[fire]
    return c, g[fire], _clamp(after[fire], commit_time[c])


def _reinsert(instance, items, order) -> Schedule:
    """The committed schedule from the plan's own ``(task, assignment)``
    *items*, re-inserted in commit *order* — the objects the reference
    loop commits, with none constructed."""
    return Schedule(instance, dict(map(items.__getitem__, order)))


def _round_spans(start, end, gpu, train, sync, first_row):
    """Each round's ``kernel.round`` values, as lists of built-ins.

    Round ``k`` is rows ``first_row[k]`` up to the next round's first
    row. Returns its earliest start, then the end, GPU and busy time of
    its critical task: the first row with the largest end, as the
    reference loop's strict ``>`` scan picks it.
    """
    n = len(end)
    peak = np.maximum.reduceat(end, first_row)
    size = np.diff(np.append(first_row, n))
    crit = np.minimum.reduceat(
        np.where(end == np.repeat(peak, size), np.arange(n), n), first_row
    )
    return (
        np.minimum.reduceat(start, first_row).tolist(),
        peak.tolist(),
        gpu[crit].tolist(),
        (train[crit] + sync[crit]).tolist(),
    )


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

    def _count_events(self, n: int) -> None:
        self.processed += n
        if self.processed > self.max_events:
            raise SimulationError(
                f"kernel event budget {self.max_events} exceeded; "
                "likely policy livelock"
            )

    @staticmethod
    def _instant_args(type_: int, a: int, b: int) -> dict:
        if type_ == _ARRIVED:
            return {"job": a}
        if type_ == _FREE:
            return {"gpu": a}
        return {"job": a, "round": b}

    def run(self) -> KernelResult:
        self.policy.setup(self.state)
        if self._path == "planned":
            columns, materialize = self._replay_plan()
        else:
            columns, materialize = self._run_gang(), None
        obs_current().metrics.counter("kernel.events").inc(self.processed)
        return KernelResult(
            columns=columns,
            materialize=materialize,
            metrics=metrics_from_columns(columns),
            events=self.processed,
            commitments=self.commitments,
            replans=int(getattr(self.policy, "replans", 0)),
            retracted_rounds=0,
        )

    # -- planned block replay --------------------------------------------
    def _replay_plan(self):
        """Commit the whole plan as one block (module docstring).

        Each round is committed exactly once — round 0 by its job's
        arrival, round ``r + 1`` by round ``r``'s barrier — at the time
        its trigger pops, as a slice of the plan's canonical columns.
        Returns the log and a materializer for the committed schedule.
        """
        instance = self.instance
        jobs = instance.jobs
        num_jobs = len(jobs)
        if not num_jobs:
            return Schedule(instance).columns(), None
        plan = self.policy._plan
        cols = plan.columns()
        rows = cols.canonical_rows()
        gpu = cols.gpu[rows]
        start = cols.start[rows]
        train = cols.train[rows]
        sync = cols.sync[rows]
        num_rounds = np.fromiter(
            (j.num_rounds for j in jobs), np.int64, count=num_jobs
        )
        scale = np.fromiter(
            (j.sync_scale for j in jobs), np.int64, count=num_jobs
        )
        # Per-round columns, rounds in canonical (job, round) order.
        round_base = np.zeros(num_jobs + 1, dtype=np.int64)
        np.cumsum(num_rounds, out=round_base[1:])
        round_job = np.repeat(np.arange(num_jobs), num_rounds)
        round_idx = np.arange(int(round_base[-1])) - round_base[round_job]
        round_lo = np.zeros(len(round_job), dtype=np.int64)
        np.cumsum(scale[round_job][:-1], out=round_lo[1:])
        horizon = np.maximum.reduceat((start + train) + sync, round_lo)

        crid, cbatch, btime, bgen = self._commit_order(
            round_base.tolist(), num_rounds.tolist(), horizon.tolist()
        )
        ctime = btime[cbatch]
        cgen = bgen[cbatch]
        n_commits = len(crid)
        c_job = round_job[crid]
        c_rnd = round_idx[crid]
        c_scale = scale[c_job]
        c_horizon = horizon[crid]

        # The log: one gather of the round slices, in commit order.
        c_first_row = np.zeros(n_commits, dtype=np.int64)
        np.cumsum(c_scale[:-1], out=c_first_row[1:])
        row_commit = np.repeat(np.arange(n_commits), c_scale)
        slot = np.arange(len(row_commit)) - c_first_row[row_commit]
        take = round_lo[crid][row_commit] + slot
        log = ScheduleColumns(
            instance, c_job[row_commit], c_rnd[row_commit], slot,
            gpu[take], start[take], train[take], sync[take],
        )
        bad = np.flatnonzero((log.gpu < 0) | (log.gpu >= instance.num_gpus))
        if bad.size:
            i = int(bad[0])
            task = TaskRef(int(log.job[i]), int(log.rnd[i]), int(log.slot[i]))
            raise SimulationError(
                f"commitment places {task} on dead GPU {int(log.gpu[i])}"
            )
        compute_end = log.start + log.train
        free_commit, free_gpu, free_time = _gpu_frees(
            log.gpu, row_commit, compute_end, ctime
        )

        # Every event: arrivals, then the pushed barriers and frees. A
        # commit pushes its barrier, then its frees in ascending GPU
        # order; seq numbers the pushes in that order after the arrivals.
        arrival = np.fromiter(
            (j.arrival for j in jobs), np.float64, count=num_jobs
        )
        bar_commit = np.flatnonzero(c_rnd + 1 < num_rounds[c_job])
        n_bar, n_free = len(bar_commit), len(free_commit)
        push_commit = np.concatenate((bar_commit, free_commit))
        push_rank = np.empty(n_bar + n_free, dtype=np.int64)
        push_rank[np.lexsort((
            np.concatenate((np.full(n_bar, -1), free_gpu)), push_commit,
        ))] = np.arange(n_bar + n_free)
        push_time = np.concatenate((
            _clamp(c_horizon[bar_commit], ctime[bar_commit]), free_time,
        ))
        ev_time = np.concatenate((_clamp(arrival, np.float64(0.0)), push_time))
        ev_gen = np.concatenate((
            np.zeros(num_jobs, np.int64),
            np.where(push_time == ctime[push_commit],
                     cgen[push_commit] + 1, 0),
        ))
        ev_type = np.repeat(
            [_ARRIVED, _BARRIER, _FREE], [num_jobs, n_bar, n_free]
        )
        ev_seq = np.concatenate((np.arange(num_jobs), num_jobs + push_rank))

        # The loop pops every event up to the batch of the last commit, in
        # heap order; each distinct (time, gen) key is one batch.
        t_last, g_last = btime[-1], bgen[-1]
        popped = np.flatnonzero(
            (ev_time < t_last) | ((ev_time == t_last) & (ev_gen <= g_last))
        )
        self._count_events(len(popped))
        self.commitments = n_commits
        pops = popped[np.lexsort((
            ev_seq[popped], ev_type[popped], ev_gen[popped], ev_time[popped],
        ))]
        kt = ev_time[pops]
        kg = ev_gen[pops]
        new_batch = np.ones(len(pops), dtype=bool)
        new_batch[1:] = (kt[1:] != kt[:-1]) | (kg[1:] != kg[:-1])
        pop_batch = np.cumsum(new_batch) - 1
        b_time = kt[new_batch]
        n_batches = len(b_time)
        # The generations of one time are 0, 1, … with no gap, so a
        # trigger batch is its time's first batch plus its generation.
        commit_bid = (np.searchsorted(b_time, btime) + bgen)[cbatch]
        popped_through = np.cumsum(np.bincount(pop_batch, minlength=n_batches))
        commits_through = np.cumsum(
            np.bincount(commit_bid, minlength=n_batches)
        )
        pushed_through = num_jobs + np.cumsum(
            np.bincount(commit_bid[push_commit], minlength=n_batches)
        )
        depth = (pushed_through - popped_through).astype(np.float64)

        # The obs surface: counters, horizons in commit order, samples.
        obs = obs_current()
        metrics = obs.metrics
        counter = metrics.counter("kernel.commitments")
        prior = counter.value
        counter.inc(n_commits)
        hist = metrics.histogram("kernel.commit_horizon_s")
        for h, now in zip(c_horizon.tolist(), ctime.tolist()):
            hist.observe(max(0.0, h - now))
        metrics.gauge("kernel.queue_depth").set(depth[-1])
        times = b_time.tolist()
        metrics.extend_samples("kernel.queue_depth", times, depth.tolist())
        metrics.extend_samples(
            "kernel.commitments", times, (prior + commits_through).tolist()
        )
        if obs.tracer.enabled:
            ev_a = np.concatenate((
                np.arange(num_jobs), c_job[bar_commit], free_gpu,
            ))
            ev_b = np.concatenate((
                np.zeros(num_jobs, np.int64), c_rnd[bar_commit],
                np.zeros(n_free, np.int64),
            ))
            self._trace_replay(
                [ev_time[pops], ev_type[pops], ev_a[pops], ev_b[pops]],
                np.searchsorted(pop_batch, np.arange(1, n_batches + 1)),
                np.searchsorted(commit_bid, np.arange(1, n_batches + 1)),
                log, c_first_row, ctime,
            )

        # Final state, as the per-event loop would leave it.
        state = self.state
        state.now = self._now
        state.arrived.update(range(num_jobs))
        state.pending_arrivals.clear()
        state.rounds_done.update(enumerate(num_rounds.tolist()))
        state.ready_at.update(enumerate(horizon[round_base[1:] - 1].tolist()))
        np.maximum.at(state.phi, log.gpu, compute_end)
        return log, partial(
            _reinsert, instance, list(plan.assignments.items()),
            rows[take].tolist(),
        )

    def _commit_order(self, first_round, rounds_of, horizons):
        """Phase 1: pop the trigger events as the loop would.

        Triggers are the seeded arrivals and one barrier per non-final
        round; a trigger for job ``j`` commits round ``r`` (an arrival)
        or ``r + 1`` (round ``r``'s barrier) — round id
        ``first_round[j] + r``. Returns numpy arrays: the round id and
        batch number of every commit, in commit order, and every
        batch's ``(time, gen)`` key.
        """
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        seq = self._seq
        commit_rid: list[int] = []
        commit_batch: list[int] = []
        batch_time: list[float] = []
        batch_gen: list[int] = []
        gen = 0
        while heap:
            t = heap[0][0]
            gen = gen + 1 if batch_time and t == batch_time[-1] else 0
            b = len(batch_time)
            batch_time.append(t)
            batch_gen.append(gen)
            if t > self._now:
                self._now = t
            batch = [pop(heap)]
            while heap and heap[0][0] == t:
                batch.append(pop(heap))
            for _time, type_, _seq, j, r in batch:
                if type_ == _BARRIER:
                    r += 1
                rid = first_round[j] + r
                commit_rid.append(rid)
                commit_batch.append(b)
                if r + 1 < rounds_of[j]:
                    h = horizons[rid]  # _wake, inlined: the clock is t
                    push(heap, (h if h > t else t, _BARRIER, next(seq), j, r))
        return (
            np.array(commit_rid, dtype=np.int64),
            np.array(commit_batch, dtype=np.int64),
            np.array(batch_time, dtype=np.float64),
            np.array(batch_gen, dtype=np.int64),
        )

    def _trace_replay(
        self, events, event_stop, commit_stop, log, c_first_row, ctime
    ) -> None:
        """The loop's instants, in its order, from the replay's arrays.

        *events* holds the popped events' (time, type, a, b) columns in
        pop order; batch ``k`` spans events up to ``event_stop[k]`` and
        commits up to ``commit_stop[k]``. Each batch emits its event
        instants, then each of its commits' instants.
        """
        tracer = obs_current().tracer
        spans = list(zip(*_round_spans(
            log.start, log.end, log.gpu, log.train, log.sync, c_first_row
        )))
        c_now = ctime.tolist()
        jobs = log.job[c_first_row].tolist()
        rounds = log.rnd[c_first_row].tolist()
        e_time, e_type, e_a, e_b = (col.tolist() for col in events)
        best: dict[int, float] = {}
        e = c = 0
        for e_stop, c_stop in zip(event_stop.tolist(), commit_stop.tolist()):
            for k in range(e, e_stop):
                type_ = e_type[k]
                tracer.instant(
                    Category.SIM,
                    _TYPE_NAMES[type_],
                    track=KERNEL_TRACK,
                    time=e_time[k],
                    **self._instant_args(type_, e_a[k], e_b[k]),
                )
            for k in range(c, c_stop):
                j = jobs[k]
                if j not in best:
                    best[j] = best_round_time(self.instance, j)
                self._trace_commit(
                    c_now[k], j, rounds[k:k + 1], spans[k:k + 1], best[j]
                )
            e, c = e_stop, c_stop

    def _trace_commit(self, now, job_id, rounds, spans, best) -> None:
        """A commitment's instants, in the reference loop's order: one
        ``kernel.round`` per round of *rounds*, with its ``(start, end,
        gpu, busy)`` from *spans*, then the job's ``kernel.commit``."""
        tracer = obs_current().tracer
        for r, (start, end, gpu, busy) in zip(rounds, spans):
            tracer.instant(
                Category.SCHED,
                "kernel.round",
                track=KERNEL_TRACK,
                time=now,
                job=job_id,
                round=r,
                start=start,
                end=end,
                gpu=gpu,
                busy=busy,
                best=best,
            )
        tracer.instant(
            Category.SCHED,
            "kernel.commit",
            track=KERNEL_TRACK,
            time=now,
            job=job_id,
            rounds_done=rounds[-1] + 1,
        )

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
        for m in np.flatnonzero(phi > phi_before + KERNEL_EPS).tolist():
            self._wake(phi[m], _FREE, m, 0)
        # All rounds committed: no barrier wake-up (matches reference).
        obs = obs_current()
        if obs.tracer.enabled:
            self._trace_commit(
                state.now,
                job_id,
                range(num_rounds),
                zip(*_round_spans(
                    start_col, end_col, gpu_col, train_col, sync_col,
                    np.arange(num_rounds) * scale,
                )),
                best_round_time(instance, job_id),
            )
        self.commitments += 1
        obs.metrics.counter("kernel.commitments").inc()
        obs.metrics.histogram("kernel.commit_horizon_s").observe(
            max(0.0, horizon - state.now)
        )

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
            self._count_events(len(skipped))
            last_t = skipped[-1][0]
            if last_t > self._now:
                self._now = last_t
            self.state.now = self._now
        return carry

    def _run_gang(self) -> ScheduleColumns:
        self._log = _CommitLog(self.instance.num_tasks)
        obs = obs_current()
        tracer = obs.tracer
        metrics = obs.metrics
        state = self.state
        instance = self.instance
        policy = self.policy
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
                self._count_events(1)
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
            # One fixed point per batch: the reference loop's extra
            # per-event invocations hit an unchanged state and provably
            # return None (GangPolicy.select contract).
            for _ in range(invoke_cap):
                runnable = state.unstarted()
                if not runnable:
                    break
                decision = policy.select(state, runnable, state.free_gpus())
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
        log = self._log
        n = log.n
        # Row order (append order) reproduces the reference dict's
        # insertion order, so a materialized schedule iterates its
        # assignments in identical sequence.
        return ScheduleColumns(
            self.instance,
            log.job[:n], log.rnd[:n], log.slot[:n], log.gpu[:n],
            log.start[:n], log.train[:n], log.sync[:n],
        )
