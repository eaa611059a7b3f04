"""Array-backed kernel event loop (DESIGN.md §15).

:class:`ArraySchedulingKernel` is the vectorized sibling of the pinned
reference loop in :mod:`repro.kernel.runner`. It runs only the policy
shape it has a batch path for — an unmodified :class:`PlannedPolicy`
(:func:`repro.kernel.runner.has_batch_path`) — on runs without crashes,
a re-plan timer or a heal engine; :func:`repro.kernel.runner.run_policy`
sends every other run, the gang baselines included, to the reference
loop. The semantic contract is **byte-identical observable behavior**:
the same event counts, the same commitment statistics, the same
committed schedule (assignment-for-assignment, in the same insertion
order), the same instants/samples/counters on the obs surface, and the
same error messages on the same inputs. Only wall-clock time differs.

How this loop wins the time back: **it replays the plan as one block.**
A clairvoyant plan fixes every start time before the first event, so
nothing the reference loop does per event can change it. The replay
has two phases. Phase 1 runs a :mod:`heapq` over the *trigger* events
only — arrivals and one barrier per non-final round, keyed ``(time,
type, seq)`` — and pops same-time triggers as one batch, exactly like
the loop; that yields the commit order and each commit's batch key
``(time, gen)``, where an event pushed at the current time lands in
generation ``gen + 1`` of that time. ``GPU_FREE`` events commit
nothing, and ``seq`` is monotone, so leaving them out changes no
trigger's order. Phase 2 derives everything else with numpy over the
commit order: the commit-log block (one gather of the plan's canonical
round slices, never its objects), the ``GPU_FREE`` wake-ups (a
per-(commit, GPU) ``reduceat`` max of compute ends against the GPU's
running φ), the event count (every event at or before the batch of the
last commit), the per-batch ``kernel.queue_depth`` and
``kernel.commitments`` samples, and — with the tracer on — the same
instants in the same order, from the same arrays.

Both loops share one :class:`~repro.kernel.state.KernelState`: the
commit log (:class:`~repro.kernel.state.CommitLog`) both append to, and
φ, ``rounds_done`` and ``ready_at`` as arrays. The result's
:class:`~repro.core.schedule.Schedule` is the log's columns, whose
per-task objects are built only when somebody reads them.

Equivalence subtleties worth knowing before editing:

* A batch of ``GPU_FREE`` events alone commits and pushes nothing, so
  it can only be the last generation of its time. Trigger batches
  therefore keep the loop's generation numbers, and the generations of
  one time run 0, 1, … without a gap.
* The replay's ``kernel.queue_depth`` sample of a batch is the arrivals
  plus every push so far minus every pop so far; its
  ``kernel.commitments`` sample starts from the counter's value before
  the run, which a caller's registry may already have raised.
* Every value that escapes the kernel (instant args, wake-up times,
  metrics) is converted back to built-in ``float``/``int`` —
  ``np.float64`` would change JSON output bytes.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ..core.errors import ConfigurationError, SimulationError
from ..core.job import ProblemInstance
from ..core.metrics import metrics_from_schedule
from ..core.types import TaskRef
from ..obs import current as obs_current
from .events import KernelEventType
from .policies import Policy
from .runner import (
    KernelResult,
    emit_commit,
    emit_event,
    emit_rounds,
    has_batch_path,
)
from .state import KERNEL_EPS, KernelState

__all__ = ["ArraySchedulingKernel"]

_BARRIER = int(KernelEventType.ROUND_BARRIER_OPEN)
_ARRIVED = int(KernelEventType.JOB_ARRIVED)
_FREE = int(KernelEventType.GPU_FREE)


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


class ArraySchedulingKernel:
    """Block replay for policies with a batch path.

    Same :meth:`run` result, and the same final state, as
    :class:`SchedulingKernel` on the runs
    :func:`~repro.kernel.runner.run_policy` sends here.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        policy: Policy,
        *,
        max_events: int | None = None,
    ) -> None:
        if not has_batch_path(policy):
            raise ConfigurationError(
                f"the array kernel has no batch path for "
                f"{type(policy).__name__}; it runs unmodified "
                "PlannedPolicy policies only"
            )
        self.instance = instance
        self.policy = policy
        self.state = KernelState(instance)
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
        for job_id, arrival in enumerate(instance.arrival.tolist()):
            self._wake(arrival, _ARRIVED, job_id, 0)

    def _wake(self, time: float, type_: int, a: int, b: int) -> None:
        """Push an event, clamped to the current clock."""
        heapq.heappush(
            self._heap,
            (time if time > self._now else self._now, type_,
             next(self._seq), a, b),
        )

    def run(self) -> KernelResult:
        self.policy.setup(self.state)
        self._replay_plan()
        schedule = self.state.committed.columns()
        obs = obs_current()
        obs.metrics.counter("kernel.events").inc(self.processed)
        if obs.tracer.enabled:
            emit_rounds(schedule)
        return KernelResult(
            schedule=schedule,
            metrics=metrics_from_schedule(schedule),
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
        its trigger pops, as a slice of the plan's canonical columns,
        appended to the commit log as one block.
        """
        instance = self.instance
        num_jobs = instance.num_jobs
        if not num_jobs:
            return
        gpu, start, train, sync = self.policy.canon
        num_rounds = instance.num_rounds
        scale = instance.sync_scale
        # Per-round columns, rounds in canonical (job, round) order.
        round_base = self.state.committed.round_base
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
        log_job, log_rnd = c_job[row_commit], c_rnd[row_commit]
        log_gpu = gpu[take]
        bad = np.flatnonzero((log_gpu < 0) | (log_gpu >= instance.num_gpus))
        if bad.size:
            i = int(bad[0])
            task = TaskRef(int(log_job[i]), int(log_rnd[i]), int(slot[i]))
            raise SimulationError(
                f"commitment places {task} on dead GPU {int(log_gpu[i])}"
            )
        compute_end = start[take] + train[take]
        free_commit, free_gpu, free_time = _gpu_frees(
            log_gpu, row_commit, compute_end, ctime
        )

        # Every event: arrivals, then the pushed barriers and frees. A
        # commit pushes its barrier, then its frees in ascending GPU
        # order; seq numbers the pushes in that order after the arrivals.
        arrival = instance.arrival
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
        self.processed = len(popped)
        if self.processed > self.max_events:
            raise SimulationError(
                f"kernel event budget {self.max_events} exceeded; "
                "likely policy livelock"
            )
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
        metrics.histogram("kernel.commit_horizon_s").observe_all(
            [max(0.0, h - now)
             for h, now in zip(c_horizon.tolist(), ctime.tolist())]
        )
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
                ctime, c_job, c_rnd,
            )

        # Final state, as the per-event loop would leave it.
        state = self.state
        state.now = self._now
        state.arrived.update(range(num_jobs))
        state.pending_arrivals.clear()
        state.committed.append(
            log_job, log_rnd, slot, log_gpu, start[take], train[take],
            sync[take],
        )
        state.rounds_done[:] = num_rounds
        state.ready_at[:] = horizon[round_base[1:] - 1]
        np.maximum.at(state.phi, log_gpu, compute_end)

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
        self, events, event_stop, commit_stop, ctime, c_job, c_rnd
    ) -> None:
        """The loop's instants, in its order, from the replay's arrays.

        *events* holds the popped events' (time, type, a, b) columns in
        pop order; batch ``k`` spans events up to ``event_stop[k]`` and
        commits up to ``commit_stop[k]``. Each batch emits its event
        instants, then each of its commits' ``kernel.commit``.
        """
        c_now, jobs, rounds = ctime.tolist(), c_job.tolist(), c_rnd.tolist()
        e_time, e_type, e_a, e_b = (col.tolist() for col in events)
        e = c = 0
        for e_stop, c_stop in zip(event_stop.tolist(), commit_stop.tolist()):
            for k in range(e, e_stop):
                emit_event(e_time[k], e_type[k], e_a[k], e_b[k])
            for k in range(c, c_stop):
                emit_commit(c_now[k], jobs[k], rounds[k] + 1)
            e, c = e_stop, c_stop
