"""The scheduling kernel: one event loop for every scheduler.

:class:`SchedulingKernel` drives a :class:`~repro.kernel.policies.Policy`
over the DES time substrate (:class:`repro.sim.events.EventQueue` — the
same queue, clock and tie-break discipline as the cluster simulator).
Offline plans, the gang baselines, online re-planning and crash recovery
all run on it.

Mechanics per iteration:

1. pop every event sharing the earliest timestamp (a *batch* — policies
   must see all simultaneous arrivals/frees before deciding);
2. apply the state transitions (arrival bookkeeping, crashes and their
   round retractions);
3. invoke the policy once per event, re-invoking after each non-empty
   return until it reaches a fixed point — so e.g. a gang policy can
   start several jobs at one instant;
4. apply the returned commitments (:func:`apply_commitment`): extend the
   commit log, advance φ, and publish the follow-up
   ``ROUND_BARRIER_OPEN`` / ``GPU_FREE`` wake-ups (clamped to *now*:
   re-planning policies may legally commit work dated before the event
   that triggered it).

The run stops when every round of every job is committed and no crash
events remain; :meth:`SchedulingKernel.advance` steps it up to a time,
and :meth:`SchedulingKernel.add_crash` adds a crash mid-run.
Observability: ``kernel.events`` / ``kernel.commitments`` counters, the
``kernel.commit_horizon_s`` histogram (how far past *now* each
commitment reaches), per-event instants on the ``kernel`` track, and,
once the run is over, one ``kernel.round`` instant per committed round
(:func:`emit_rounds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.errors import InfeasibleProblemError, SimulationError
from ..core.metrics import ScheduleMetrics, metrics_from_schedule
from ..core.schedule import Schedule
from ..core.job import ProblemInstance
from ..obs import Category, current as obs_current
from .events import Event, EventQueue, KernelEventType
from .policies import PlannedPolicy, Policy
from .residual import KERNEL_TRACK
from .state import (
    KERNEL_EPS,
    SMALL_BLOCK,
    Commitment,
    KernelCrash,
    KernelState,
    Retraction,
)


@dataclass(slots=True, kw_only=True, eq=False, repr=False)
class KernelResult:
    """Outcome of one kernel run.

    :attr:`schedule` is a snapshot of the commit log, as columns: runs
    pay the per-task :class:`~repro.core.schedule.TaskAssignment`
    construction only when somebody reads its objects, and the cell
    merge, validation and metrics, which read the columns, never do. The
    statistics
    (``events``/``commitments``/``replans``/``retracted_rounds``) are
    plain ints, byte-comparable across backends; :attr:`retractions`
    lists what each crash took from each job, in application order, and
    :attr:`replan_instants` the ``(time, pass_idx)`` of each
    ``kernel.replan`` instant, in emission order.
    """

    schedule: Schedule
    metrics: ScheduleMetrics
    events: int
    commitments: int
    replans: int
    retracted_rounds: int
    retractions: tuple[Retraction, ...] = ()
    replan_instants: tuple[tuple[float, int], ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelResult(events={self.events}, "
            f"commitments={self.commitments}, replans={self.replans}, "
            f"retracted_rounds={self.retracted_rounds})"
        )


_EVENT_NAMES = {int(t): t.name for t in KernelEventType}


def emit_event(time: float, type_: int, a=None, b=None) -> None:
    """The kernel-track instant of one popped event: an arrival names job
    *a*, a barrier job *a*'s round *b*, a free or a crash GPU *a*."""
    if type_ == KernelEventType.ROUND_BARRIER_OPEN:
        args = {"job": a, "round": b}
    elif type_ == KernelEventType.JOB_ARRIVED:
        args = {"job": a}
    elif type_ == KernelEventType.REPLAN_TIMER:
        args = {}
    else:
        args = {"gpu": a}
    obs_current().tracer.instant(
        Category.SIM, _EVENT_NAMES[type_], track=KERNEL_TRACK, time=time,
        **args,
    )


class SchedulingKernel:
    """Event loop binding one policy to one problem instance.

    This is the pinned **reference** backend: every observable behavior
    (batch formation, tie-breaks, instants, samples, counters, error
    messages) is the contract the array backend
    (:class:`repro.kernel.array.ArraySchedulingKernel`) must reproduce
    byte-for-byte. Keep it simple rather than fast.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        policy: Policy,
        *,
        crashes: Sequence[tuple[float, int] | KernelCrash] | None = None,
        replan_interval: float | None = None,
        max_events: int | None = None,
        heal=None,
    ) -> None:
        self.instance = instance
        self.policy = policy
        self.state = KernelState(instance)
        self.queue = EventQueue()
        self.replan_interval = replan_interval
        #: Optional remediation engine (duck-typed: anything with
        #: ``attach_kernel``); kept out of the type signature so the
        #: kernel never imports :mod:`repro.heal`.
        self.heal = heal
        if heal is not None and hasattr(heal, "attach_kernel"):
            heal.attach_kernel(self)
        self.processed = 0
        self.commitments = 0
        self.retracted_rounds = 0
        self.retractions: list[Retraction] = []
        self.replan_instants: list[tuple[float, int]] = []
        self._pending_crashes = 0
        self._auto_budget = max_events is None
        self.max_events = (
            max_events
            if max_events is not None
            else 64 + 16 * (
                instance.num_tasks + instance.num_jobs + instance.num_gpus
            )
        )
        #: The policy's re-plan count, ``None`` until it is set up.
        self._replans_seen: int | None = None
        for job_id, arrival in enumerate(instance.arrival.tolist()):
            self.queue.push(
                Event(arrival, KernelEventType.JOB_ARRIVED, job_id)
            )
        #: Crash specs by (event time, gpu): the event payload stays the
        #: GPU id, as for ``GPU_FREE``.
        self._crashes: dict[tuple[float, int], KernelCrash] = {}
        for crash in crashes or []:
            self.add_crash(crash)
        if replan_interval is not None:
            if replan_interval <= 0:
                raise SimulationError("replan_interval must be positive")
            self.queue.push(
                Event(replan_interval, KernelEventType.REPLAN_TIMER, None)
            )

    def add_crash(self, crash: tuple[float, int] | KernelCrash) -> None:
        """Schedule a permanent GPU failure: its ``GPU_CRASHED`` event
        fires at :attr:`KernelCrash.fires_at`, which must not be before
        the events already processed. The run does not end before it."""
        if not isinstance(crash, KernelCrash):
            crash = KernelCrash(*crash)
        self._crashes[(crash.fires_at, crash.gpu)] = crash
        self.queue.push(
            Event(crash.fires_at, KernelEventType.GPU_CRASHED, crash.gpu)
        )
        self._pending_crashes += 1
        if self._auto_budget:
            self.max_events += 16

    # -- event helpers --------------------------------------------------
    def _wake(self, time: float, type_: KernelEventType, payload) -> None:
        """Push a follow-up event, clamped to the current clock."""
        self.queue.push(Event(max(time, self.queue.now), type_, payload))

    def request_replan(self) -> bool:
        """External re-plan hook (the remediation ``force_replan`` action).

        Injects a one-shot ``REPLAN_TIMER`` wake-up at the current clock.
        Returns False once the run is complete — there is nothing left
        to re-plan.
        """
        if self.state.complete():
            return False
        # The "forced" payload keeps this one-shot out of the periodic
        # timer chain (see _apply_event), so forcing never multiplies
        # the timer cadence.
        self._wake(self.queue.now, KernelEventType.REPLAN_TIMER, "forced")
        return True

    def _apply_event(self, event: Event) -> None:
        state = self.state
        state.now = self.queue.now
        if event.type == KernelEventType.JOB_ARRIVED:
            state.arrived.add(event.payload)
            arrival = float(self.instance.arrival[event.payload])
            state.pending_arrivals.remove(arrival)
        elif event.type == KernelEventType.GPU_CRASHED:
            self._pending_crashes -= 1
            self._apply_crash(event.payload, event.time)
        elif event.type == KernelEventType.REPLAN_TIMER:
            if (
                event.payload is None
                and self.replan_interval is not None
                and not state.complete()
            ):
                self.queue.push(
                    Event(
                        self.queue.now + self.replan_interval,
                        KernelEventType.REPLAN_TIMER,
                        None,
                    )
                )
        # ROUND_BARRIER_OPEN / GPU_FREE are pure wake-ups.

    def _apply_crash(self, gpu: int, t: float) -> None:
        """Kill *gpu* at event time *t*: retract every committed round it
        would still run.

        Retraction is round-granular and suffix-wise per job: the first
        round with a task on the dead GPU still computing past the
        physical crash time (the :class:`KernelCrash` behind the event;
        *t* itself for a plain ``(t, gpu)`` crash) falls, and every later
        round of that job with it (precedence). A rollback
        (``checkpoint_interval``) cuts further back, to the newest
        checkpoint whose barrier opened by *t* (the detection). The job
        is ready again at *t* — plus the restore read when it restores a
        checkpoint — and the policy sees ``GPU_CRASHED`` to re-place it.
        The retracted rows leave the commit log and φ is rebuilt from the
        rest; gang-style ``gpu_release`` holds do not survive a rebuild
        (a released GPU frees at its last ``compute_end``).
        """
        state = self.state
        crash = self._crashes.get((t, gpu)) or KernelCrash(t, gpu)
        log = state.committed
        state.alive.discard(gpu)
        if crash.quarantined is not None:
            state.quarantined = set(crash.quarantined)
        job, rnd, slot, on, start, train, sync = (
            buf[: log.n] for buf in log.buffers
        )
        compute_end = start + train
        round_ends = log.round_ends()
        hit = (on == gpu) & (compute_end > crash.time + KERNEL_EPS)
        uncut = np.iinfo(np.int64).max
        cut_of = np.full(self.instance.num_jobs, uncut)
        np.minimum.at(cut_of, job[hit], rnd[hit])
        drop = np.zeros(log.n, dtype=bool)
        for job_id in np.flatnonzero(cut_of < uncut).tolist():
            cut = int(cut_of[job_id])
            done = int(state.rounds_done[job_id])
            mine = job == job_id
            base = int(log.round_base[job_id])
            ends = round_ends[base:base + done]
            shut = np.flatnonzero(ends[:cut] > t + KERNEL_EPS)
            opened = int(shut[0]) if shut.size else cut
            keep, restore_s = cut, 0.0
            if crash.checkpoint_interval:
                keep = opened - opened % crash.checkpoint_interval
                if keep:
                    restore_s = crash.restore_s.get(job_id, 0.0)
            gone = mine & (rnd >= keep)
            drop |= gone
            # Rounds after the cut never ran (their barrier never opened);
            # the rest ran until the crash or the detection.
            ran = np.flatnonzero(gone & (rnd <= cut))
            ran = ran[np.lexsort((slot[ran], rnd[ran]))]
            lost_work_s = 0.0
            for m, s, tr in zip(
                on[ran].tolist(), start[ran].tolist(), train[ran].tolist()
            ):
                stop = crash.time if m == gpu else t
                lost_work_s += min(tr, max(0.0, stop - s))
            self.retracted_rounds += done - keep
            state.rounds_done[job_id] = keep
            last_barrier = (
                float(ends[keep - 1])
                if keep > 0
                else float(self.instance.arrival[job_id])
            )
            state.ready_at[job_id] = max(t + restore_s, last_barrier)
            retraction = Retraction(
                time=t,
                gpu=gpu,
                job=job_id,
                rounds_done=keep,
                rounds_lost=max(0, opened - keep),
                lost_work_s=lost_work_s,
                restore_s=restore_s,
            )
            self.retractions.append(retraction)
            emit_retract(retraction)
        state.phi.fill(0.0)
        np.maximum.at(state.phi, on[~drop], compute_end[~drop])
        log.keep(~drop)
        obs_current().metrics.counter("kernel.retractions").inc()

    def _push(self, time: float, type_: KernelEventType, a: int, b: int):
        """:func:`apply_commitment`'s wake-up sink for this queue."""
        payload = (a, b) if type_ == KernelEventType.ROUND_BARRIER_OPEN else a
        self._wake(time, type_, payload)

    # -- the loop --------------------------------------------------------
    def advance(self, until: float) -> None:
        """Process every event batch due by *until*, stopping early once
        every round is committed and no crash is pending. Steps with
        :meth:`add_crash` between them make the run :meth:`run` makes
        with the crashes up front, if each comes before its clock."""
        obs = obs_current()
        tracer = obs.tracer
        state = self.state
        if self._replans_seen is None:
            self.policy.setup(state)
            self._replans_seen = int(getattr(self.policy, "replans", 0))
        invoke_cap = 4 * self.instance.num_jobs + 16
        while self.queue and self.queue.peek().time <= until:
            if state.complete() and self._pending_crashes == 0:
                break
            batch = [self.queue.pop()]
            t = batch[0].time
            while self.queue and self.queue.peek().time == t:
                batch.append(self.queue.pop())
            for event in batch:
                self.processed += 1
                if self.processed > self.max_events:
                    raise SimulationError(
                        f"kernel event budget {self.max_events} exceeded; "
                        "likely policy livelock"
                    )
                if tracer.enabled:
                    barrier = event.type == KernelEventType.ROUND_BARRIER_OPEN
                    emit_event(event.time, event.type, *(
                        event.payload if barrier else (event.payload,)
                    ))
                self._apply_event(event)
            for event in batch:
                for _ in range(invoke_cap):
                    commitments = self.policy.on_event(event, state)
                    if not commitments:
                        break
                    for commitment in commitments:
                        apply_commitment(state, commitment, self._push)
                        self.commitments += 1
                else:  # pragma: no cover - defensive
                    raise SimulationError(
                        f"policy {self.policy.name!r} did not reach a "
                        f"fixed point at t={state.now}"
                    )
                replans_now = int(getattr(self.policy, "replans", 0))
                if replans_now > self._replans_seen:
                    emit_replan(state.now, replans_now)
                    self.replan_instants.append((state.now, replans_now))
                    self._replans_seen = replans_now
            # Sample point-in-time curves once per batch (deterministic
            # sim times → byte-stable counter tracks in the export).
            obs.metrics.gauge("kernel.queue_depth").set(len(self.queue))
            obs.metrics.sample("kernel.queue_depth", t)
            obs.metrics.sample("kernel.commitments", t)

    def run(self) -> KernelResult:
        """Advance to the end of the run and return its result."""
        self.advance(math.inf)
        state = self.state
        if not state.complete():
            raise InfeasibleProblemError(
                "kernel drained its queue with rounds still uncommitted; "
                "check the policy"
            )
        obs = obs_current()
        obs.metrics.counter("kernel.events").inc(self.processed)
        schedule = state.committed.columns()
        if obs.tracer.enabled:
            emit_rounds(schedule)
        return KernelResult(
            schedule=schedule,
            metrics=metrics_from_schedule(schedule),
            events=self.processed,
            commitments=self.commitments,
            replans=int(getattr(self.policy, "replans", 0)),
            retracted_rounds=self.retracted_rounds,
            retractions=tuple(self.retractions),
            replan_instants=tuple(self.replan_instants),
        )


def apply_commitment(
    state: KernelState,
    commitment: Commitment,
    wake: Callable[[float, KernelEventType, int, int], None],
) -> None:
    """Check and apply one commitment block: both loops' only commit.

    Appends the block to the commit log, raises φ (and the
    ``gpu_release`` hold) and advances the job's ``rounds_done`` and
    ``ready_at``. The wake-ups go to ``wake(time, type, a, b)``, unclamped:
    the barrier ``(job, round)`` unless the job is done, then
    ``GPU_FREE`` ``(gpu, 0)`` per GPU whose φ rose, ascending. The obs
    writes come last, so events a remediation engine pushes on the
    ``kernel.commit`` instant queue behind these.
    """
    state.check_commitment(commitment)
    c = commitment
    job_id = c.job
    state.committed.append(
        job_id, c.rnd, c.slot, c.gpu, c.start, c.train, c.sync
    )
    scale = int(state.instance.sync_scale[job_id])
    done = int(state.rounds_done[job_id]) + len(c.rnd) // scale
    state.rounds_done[job_id] = done
    raise_phi = _raise_phi_wide if len(c.rnd) > SMALL_BLOCK else _raise_phi
    barrier, horizon, frees = raise_phi(state.phi, c, done - 1)
    state.ready_at[job_id] = barrier
    if done < state.instance.num_rounds[job_id]:
        wake(barrier, KernelEventType.ROUND_BARRIER_OPEN, job_id, done - 1)
    for m, free_at in frees:
        wake(free_at, KernelEventType.GPU_FREE, m, 0)
    emit_commit(state.now, job_id, done)
    metrics = obs_current().metrics
    metrics.counter("kernel.commitments").inc()
    metrics.histogram("kernel.commit_horizon_s").observe(
        max(0.0, horizon - state.now)
    )


def _raise_phi(phi: np.ndarray, c: Commitment, last: int):
    """Raise *phi* by block *c*, row by row; returns the barrier of round
    *last*, the block's latest end and the ``(gpu, time)`` of every GPU
    whose φ rose, ascending. Bit-equal to :func:`_raise_phi_wide`."""
    compute_end = [s + t for s, t in zip(c.start.tolist(), c.train.tolist())]
    end = [e + y for e, y in zip(compute_end, c.sync.tolist())]
    release = -np.inf if c.gpu_release is None else float(c.gpu_release)
    hold: dict[int, float] = {}
    for m, e in zip(c.gpu.tolist(), compute_end):
        hold[m] = max(hold.get(m, release), e)
    frees = []
    for m in sorted(hold):
        before = float(phi[m])
        if hold[m] > before:
            phi[m] = hold[m]
            if hold[m] > before + KERNEL_EPS:
                frees.append((m, hold[m]))
    barrier = max(e for r, e in zip(c.rnd.tolist(), end) if r == last)
    return barrier, max(end), frees


def _raise_phi_wide(phi: np.ndarray, c: Commitment, last: int):
    """:func:`_raise_phi` with numpy, for blocks wider than
    :data:`SMALL_BLOCK` rows."""
    compute_end = c.start + c.train
    end = compute_end + c.sync
    before = phi.copy()
    np.maximum.at(phi, c.gpu, compute_end)
    if c.gpu_release is not None:
        np.maximum.at(phi, c.gpu, c.gpu_release)
    rose = (phi > before + KERNEL_EPS).nonzero()[0]
    return (
        float(end[c.rnd == last].max()),
        float(end.max()),
        list(zip(rose.tolist(), phi[rose].tolist())),
    )


def emit_commit(time: float, job: int, rounds_done: int) -> None:
    """The ``kernel.commit`` instant of one applied commitment."""
    obs_current().tracer.instant(
        Category.SCHED,
        "kernel.commit",
        track=KERNEL_TRACK,
        time=time,
        job=job,
        rounds_done=rounds_done,
    )


def emit_replan(time: float, pass_idx: int) -> None:
    """The ``kernel.replan`` instant of a policy's re-plan pass."""
    obs_current().tracer.instant(
        Category.SCHED,
        "kernel.replan",
        track=KERNEL_TRACK,
        time=time,
        pass_idx=pass_idx,
    )


def emit_retract(retraction: Retraction) -> None:
    """The ``kernel.retract`` instant of one applied retraction."""
    obs_current().tracer.instant(
        Category.SCHED,
        "kernel.retract",
        track=KERNEL_TRACK,
        time=retraction.time,
        job=retraction.job,
        rounds_done=retraction.rounds_done,
        gpu=retraction.gpu,
    )


def emit_rounds(schedule: Schedule) -> None:
    """One ``kernel.round`` instant per committed round of *schedule*.

    The attribution engine's input (:mod:`repro.obs.attrib`): each row of
    :meth:`~repro.core.schedule.Schedule.round_spans`, at its
    round end, with the job's best-profiled round time
    (:meth:`~repro.core.job.ProblemInstance.best_round_time`) as
    ``best``. Every kernel calls this once, after its run, on the
    schedule it committed; rounds a crash retracted are not among them.
    """
    tracer = obs_current().tracer
    instance = schedule.instance
    best: dict[int, float] = {}
    for job, r, start, end, gpu, busy in zip(
        *(col.tolist() for col in schedule.round_spans())
    ):
        if job not in best:
            best[job] = instance.best_round_time(job)
        tracer.instant(
            Category.SCHED,
            "kernel.round",
            track=KERNEL_TRACK,
            time=end,
            job=job,
            round=r,
            start=start,
            end=end,
            gpu=gpu,
            busy=busy,
            best=best[job],
        )


def has_batch_path(policy: Policy) -> bool:
    """Whether the array loop's block replay can run *policy*: an
    unmodified :class:`PlannedPolicy`, recognized by method identity (a
    subclass that overrides how the policy reacts to events has none)."""
    cls = type(policy)
    return (
        isinstance(policy, PlannedPolicy)
        and cls.on_event is PlannedPolicy.on_event
        and cls.setup is PlannedPolicy.setup
        and cls._round_commitment is PlannedPolicy._round_commitment
    )


def run_policy(
    instance: ProblemInstance,
    policy: Policy,
    *,
    crashes: Sequence[tuple[float, int] | KernelCrash] | None = None,
    replan_interval: float | None = None,
    max_events: int | None = None,
    heal=None,
) -> KernelResult:
    """Build a kernel for *policy* and run it.

    *crashes* are permanent GPU failures: ``(time, gpu)`` pairs, or
    :class:`~repro.kernel.state.KernelCrash` values that add a detection
    delay, checkpoint rollback and a quarantine snapshot (the chaos
    control plane's recovery). Every policy reacts to ``GPU_CRASHED``.

    *heal* is an optional :class:`repro.heal.RemediationEngine` (duck-
    typed); it is attached to the kernel so remediation actions reach
    the policy and event queue mid-run.

    The loop is picked from the run itself: a policy with a batch path
    (:func:`has_batch_path`) on a run without crashes, a re-plan timer
    or a heal engine takes the vectorized
    :class:`repro.kernel.array.ArraySchedulingKernel`; every other run,
    the gang baselines included, takes the reference
    :class:`SchedulingKernel`. Both produce byte-identical results.
    """
    if (
        not crashes
        and replan_interval is None
        and heal is None
        and has_batch_path(policy)
    ):
        from .array import ArraySchedulingKernel

        return ArraySchedulingKernel(
            instance, policy, max_events=max_events
        ).run()
    return SchedulingKernel(
        instance,
        policy,
        crashes=crashes,
        replan_interval=replan_interval,
        max_events=max_events,
        heal=heal,
    ).run()
