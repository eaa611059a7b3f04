"""The scheduling kernel: one event loop for every scheduler.

:class:`SchedulingKernel` drives a :class:`~repro.kernel.policies.Policy`
over the DES time substrate (:class:`repro.sim.events.EventQueue` — the
same queue, clock and tie-break discipline as the cluster simulator).
This retired the repo's three other ad-hoc loops: the virtual-time gang
loop that lived in ``schedulers/base.py``, the arrival-replay loop inside
``OnlineHareScheduler.schedule``, and the crash re-plan loop's residual
bookkeeping in ``control/controlplane.py``.

Mechanics per iteration:

1. pop every event sharing the earliest timestamp (a *batch* — policies
   must see all simultaneous arrivals/frees before deciding, exactly like
   the retired loops did);
2. apply the state transitions (arrival bookkeeping, fault transitions
   and their round retractions);
3. invoke the policy once per event, re-invoking after each non-empty
   return until it reaches a fixed point — so e.g. a gang policy can
   start several jobs at one instant;
4. apply the returned commitments: extend the committed schedule, advance
   φ, and publish the follow-up ``ROUND_BARRIER_OPEN`` / ``GPU_FREE``
   wake-ups (clamped to *now*: re-planning policies may legally commit
   work dated before the event that triggered it).

The run stops when every round of every job is committed and no fault
events remain. Observability: ``kernel.events`` / ``kernel.commitments``
counters, the ``kernel.commit_horizon_s`` histogram (how far past *now*
each commitment reaches), and per-event instants on the ``kernel`` track.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.errors import InfeasibleProblemError, SimulationError
from ..core.metrics import ScheduleMetrics, metrics_from_schedule
from ..core.schedule import Schedule, ScheduleColumns
from ..core.job import ProblemInstance
from ..obs import Category, current as obs_current
from .events import Event, EventQueue, KernelEventType
from .policies import GangPolicy, PlannedPolicy, Policy
from .residual import KERNEL_TRACK
from .state import (
    KERNEL_EPS,
    Commitment,
    KernelCrash,
    KernelState,
    Retraction,
)


class KernelResult:
    """Outcome of one kernel run.

    The committed :attr:`schedule` may be materialized lazily: the array
    backend hands over its commit log as a
    :class:`~repro.core.schedule.ScheduleColumns` view, so large runs only
    pay the per-task :class:`~repro.core.schedule.TaskAssignment`
    construction when somebody actually reads the schedule, and readers
    of :meth:`columns` (the cell merge) never do. *materialize*, when
    given, builds that same schedule without constructing objects (the
    planned replay re-inserts the plan's own assignments, as the
    reference loop commits them); it is not pickled. The statistics
    (``events``/``commitments``/``replans``/``retracted_rounds``) are
    plain ints, byte-comparable across backends; :attr:`retractions`
    lists what each crash took from each job, in application order.
    """

    __slots__ = (
        "_schedule",
        "_columns",
        "_materialize",
        "metrics",
        "events",
        "commitments",
        "replans",
        "retracted_rounds",
        "retractions",
    )

    def __init__(
        self,
        *,
        schedule: Schedule | None = None,
        columns: ScheduleColumns | None = None,
        materialize: Callable[[], Schedule] | None = None,
        metrics: ScheduleMetrics,
        events: int,
        commitments: int,
        replans: int,
        retracted_rounds: int,
        retractions: tuple[Retraction, ...] = (),
    ) -> None:
        if schedule is None and columns is None:
            raise ValueError("KernelResult needs a schedule or its columns")
        self._schedule = schedule
        self._columns = columns
        self._materialize = materialize
        self.metrics = metrics
        self.events = events
        self.commitments = commitments
        self.replans = replans
        self.retracted_rounds = retracted_rounds
        self.retractions = retractions

    @property
    def schedule(self) -> Schedule:
        """The committed schedule (materialized on first access)."""
        if self._schedule is None:
            self._schedule = (
                self._materialize or self._columns.to_schedule
            )()
            self._columns = None
            self._materialize = None
        return self._schedule

    def columns(self) -> ScheduleColumns:
        """The committed schedule's column view.

        Straight from the array backend's log while the schedule is
        unmaterialized; derived from :attr:`schedule` otherwise, so it
        always reflects the schedule as it is now.
        """
        if self._schedule is None:
            return self._columns
        return self._schedule.columns()

    def __getstate__(self):
        # An unmaterialized result pickles its columns, not objects.
        return {
            "schedule": self._schedule,
            "columns": self._columns,
            "metrics": self.metrics,
            "events": self.events,
            "commitments": self.commitments,
            "replans": self.replans,
            "retracted_rounds": self.retracted_rounds,
            "retractions": self.retractions,
        }

    def __setstate__(self, state) -> None:
        self._schedule = state["schedule"]
        self._columns = state["columns"]
        self._materialize = None
        self.metrics = state["metrics"]
        self.events = state["events"]
        self.commitments = state["commitments"]
        self.replans = state["replans"]
        self.retracted_rounds = state["retracted_rounds"]
        self.retractions = state["retractions"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelResult(events={self.events}, "
            f"commitments={self.commitments}, replans={self.replans}, "
            f"retracted_rounds={self.retracted_rounds})"
        )


def best_round_time(instance: ProblemInstance, job_id: int) -> float:
    """Fastest profiled single-round time of *job_id* on any GPU.

    ``min_m (t^c_{n,m} + t^s_{n,m})`` over the instance's profile
    matrices — the round time the job would see on its best GPU. This is
    the ``best`` reference emitted with every ``kernel.round`` instant,
    the yardstick the attribution engine (:mod:`repro.obs.attrib`) uses
    to split a round's span into compute vs. heterogeneity penalty. Both
    kernel backends call this one helper so the float is bit-identical.
    """
    return float(
        (instance.train_time[job_id] + instance.sync_time[job_id]).min()
    )


def _event_args(event: Event) -> dict:
    """Structured args for an event's kernel-track instant."""
    if event.type == KernelEventType.JOB_ARRIVED:
        return {"job": event.payload}
    if event.type in (
        KernelEventType.GPU_CRASHED,
        KernelEventType.GPU_RESTORED,
        KernelEventType.GPU_FREE,
    ):
        return {"gpu": event.payload}
    if event.type == KernelEventType.ROUND_BARRIER_OPEN and event.payload:
        job, round_idx = event.payload
        return {"job": job, "round": round_idx}
    return {}


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
        restores: list[tuple[float, int]] | None = None,
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
        self._pending_faults = 0
        total_tasks = instance.num_tasks
        self.max_events = (
            max_events
            if max_events is not None
            else 64 + 16 * (
                total_tasks + instance.num_jobs + instance.num_gpus
                + len(crashes or []) + len(restores or [])
            )
        )
        for job in instance.jobs:
            self.queue.push(
                Event(job.arrival, KernelEventType.JOB_ARRIVED, job.job_id)
            )
        #: Crash specs by (event time, gpu): the event payload stays the
        #: GPU id, as for every other fault event.
        self._crashes: dict[tuple[float, int], KernelCrash] = {}
        for crash in crashes or []:
            if not isinstance(crash, KernelCrash):
                crash = KernelCrash(*crash)
            self._crashes[(crash.fires_at, crash.gpu)] = crash
            self.queue.push(
                Event(crash.fires_at, KernelEventType.GPU_CRASHED, crash.gpu)
            )
            self._pending_faults += 1
        for time, gpu in restores or []:
            self.queue.push(
                Event(time, KernelEventType.GPU_RESTORED, gpu)
            )
            self._pending_faults += 1
        if replan_interval is not None:
            if replan_interval <= 0:
                raise SimulationError("replan_interval must be positive")
            self.queue.push(
                Event(replan_interval, KernelEventType.REPLAN_TIMER, None)
            )

    # -- event helpers --------------------------------------------------
    def _wake(self, time: float, type_: KernelEventType, payload) -> None:
        """Push a follow-up event, clamped to the current clock."""
        self.queue.push(Event(max(time, self.queue.now), type_, payload))

    def request_replan(self, time: float | None = None) -> bool:
        """External re-plan hook (the remediation ``force_replan`` action).

        Injects a one-shot ``REPLAN_TIMER`` wake-up at *time* (clamped
        to the current clock). Returns False once the run is complete —
        there is nothing left to re-plan.
        """
        if self.state.complete():
            return False
        # The "forced" payload keeps this one-shot out of the periodic
        # timer chain (see _apply_event), so forcing never multiplies
        # the timer cadence.
        self._wake(
            self.queue.now if time is None else time,
            KernelEventType.REPLAN_TIMER,
            "forced",
        )
        return True

    def _apply_event(self, event: Event) -> None:
        state = self.state
        state.now = self.queue.now
        if event.type == KernelEventType.JOB_ARRIVED:
            state.arrived.add(event.payload)
            arrival = self.instance.jobs[event.payload].arrival
            state.pending_arrivals.remove(arrival)
        elif event.type == KernelEventType.GPU_CRASHED:
            self._pending_faults -= 1
            self._apply_crash(event.payload, event.time)
        elif event.type == KernelEventType.GPU_RESTORED:
            self._pending_faults -= 1
            state.alive.add(event.payload)
            state.phi[event.payload] = max(
                state.phi[event.payload], state.now
            )
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
        φ is then rebuilt from the surviving assignments; gang-style
        ``gpu_release`` holds do not survive a rebuild (a released GPU
        frees at its last ``compute_end``).
        """
        state = self.state
        crash = self._crashes.get((t, gpu)) or KernelCrash(t, gpu)
        committed = state.committed
        state.alive.discard(gpu)
        if crash.quarantined is not None:
            state.quarantined = set(crash.quarantined)
        for job in self.instance.jobs:
            done = state.rounds_done[job.job_id]
            cut: int | None = None
            for r in range(done):
                for task in job.round_tasks(r):
                    a = committed.assignments.get(task)
                    if (
                        a is not None
                        and a.gpu == gpu
                        and a.compute_end > crash.time + KERNEL_EPS
                    ):
                        cut = r
                        break
                if cut is not None:
                    break
            if cut is None:
                continue
            opened = 0
            while (
                opened < cut
                and committed.round_end(job.job_id, opened)
                <= t + KERNEL_EPS
            ):
                opened += 1
            keep, restore_s = cut, 0.0
            if crash.checkpoint_interval:
                keep = opened - opened % crash.checkpoint_interval
                if keep:
                    restore_s = crash.restore_s.get(job.job_id, 0.0)
            lost_work_s = 0.0
            for r in range(keep, done):
                for task in job.round_tasks(r):
                    a = committed.assignments.pop(task)
                    if r > cut:
                        continue  # its barrier never opened: never ran
                    stop = crash.time if a.gpu == gpu else t
                    lost_work_s += min(
                        a.train_time, max(0.0, stop - a.start)
                    )
            self.retracted_rounds += done - keep
            state.rounds_done[job.job_id] = keep
            last_barrier = (
                committed.round_end(job.job_id, keep - 1)
                if keep > 0
                else job.arrival
            )
            state.ready_at[job.job_id] = max(t + restore_s, last_barrier)
            self.retractions.append(
                Retraction(
                    time=t,
                    gpu=gpu,
                    job=job.job_id,
                    rounds_done=keep,
                    rounds_lost=max(0, opened - keep),
                    lost_work_s=lost_work_s,
                    restore_s=restore_s,
                )
            )
            obs_current().tracer.instant(
                Category.SCHED,
                "kernel.retract",
                track=KERNEL_TRACK,
                time=t,
                job=job.job_id,
                rounds_done=keep,
                gpu=gpu,
            )
        phi = [0.0] * self.instance.num_gpus
        for a in committed.assignments.values():
            phi[a.gpu] = max(phi[a.gpu], a.compute_end)
        state.phi = phi
        obs_current().metrics.counter("kernel.retractions").inc()

    # -- commitments -----------------------------------------------------
    def _apply_commitment(self, commitment: Commitment) -> None:
        state = self.state
        state.check_commitment(commitment)
        obs = obs_current()
        horizon = 0.0
        touched_jobs: set[int] = set()
        phi_before = list(state.phi)
        for a in commitment.assignments:
            if a.gpu not in state.alive:
                raise SimulationError(
                    f"commitment places {a.task} on dead GPU {a.gpu}"
                )
            state.committed.add(a)
            state.phi[a.gpu] = max(state.phi[a.gpu], a.compute_end)
            horizon = max(horizon, a.end)
            touched_jobs.add(a.task.job_id)
        for job_id in touched_jobs:
            job = self.instance.jobs[job_id]
            rounds = sorted(
                {
                    a.task.round_idx
                    for a in commitment.assignments
                    if a.task.job_id == job_id
                }
            )
            state.rounds_done[job_id] += len(rounds)
            barrier = max(
                a.end
                for a in commitment.assignments
                if (a.task.job_id, a.task.round_idx)
                == (job_id, rounds[-1])
            )
            state.ready_at[job_id] = barrier
            if state.rounds_done[job_id] < job.num_rounds:
                self._wake(
                    barrier,
                    KernelEventType.ROUND_BARRIER_OPEN,
                    (job_id, rounds[-1]),
                )
        if commitment.gpu_release is not None:
            for m, release in commitment.gpu_release.items():
                state.phi[m] = max(state.phi[m], release)
        for m, before in enumerate(phi_before):
            if state.phi[m] > before + KERNEL_EPS:
                self._wake(state.phi[m], KernelEventType.GPU_FREE, m)
        for job_id in sorted(touched_jobs):
            if obs.tracer.enabled:
                # One attribution instant per newly committed round:
                # span bounds, the critical (barrier-setting) task's GPU
                # and busy time, and the best-profiled round time. The
                # array backend mirrors these byte-for-byte.
                rounds = sorted(
                    {
                        a.task.round_idx
                        for a in commitment.assignments
                        if a.task.job_id == job_id
                    }
                )
                best = best_round_time(self.instance, job_id)
                for r in rounds:
                    tasks = [
                        a
                        for a in commitment.assignments
                        if a.task.job_id == job_id
                        and a.task.round_idx == r
                    ]
                    crit = tasks[0]
                    for a in tasks[1:]:
                        if a.end > crit.end:
                            crit = a
                    obs.tracer.instant(
                        Category.SCHED,
                        "kernel.round",
                        track=KERNEL_TRACK,
                        time=state.now,
                        job=job_id,
                        round=r,
                        start=float(min(a.start for a in tasks)),
                        end=float(crit.end),
                        gpu=int(crit.gpu),
                        busy=float(crit.train_time + crit.sync_time),
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

    # -- the loop --------------------------------------------------------
    def run(self) -> KernelResult:
        obs = obs_current()
        tracer = obs.tracer
        state = self.state
        self.policy.setup(state)
        invoke_cap = 4 * self.instance.num_jobs + 16
        replans_seen = int(getattr(self.policy, "replans", 0))
        while self.queue:
            if state.complete() and self._pending_faults == 0:
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
                    tracer.instant(
                        Category.SIM,
                        event.type.name,
                        track=KERNEL_TRACK,
                        time=event.time,
                        **_event_args(event),
                    )
                self._apply_event(event)
            for event in batch:
                for _ in range(invoke_cap):
                    commitments = self.policy.on_event(event, state)
                    if not commitments:
                        break
                    for commitment in commitments:
                        self._apply_commitment(commitment)
                else:  # pragma: no cover - defensive
                    raise SimulationError(
                        f"policy {self.policy.name!r} did not reach a "
                        f"fixed point at t={state.now}"
                    )
                replans_now = int(getattr(self.policy, "replans", 0))
                if replans_now > replans_seen:
                    tracer.instant(
                        Category.SCHED,
                        "kernel.replan",
                        track=KERNEL_TRACK,
                        time=state.now,
                        pass_idx=replans_now,
                    )
                    replans_seen = replans_now
            # Sample point-in-time curves once per batch (deterministic
            # sim times → byte-stable counter tracks in the export).
            obs.metrics.gauge("kernel.queue_depth").set(len(self.queue))
            obs.metrics.sample("kernel.queue_depth", t)
            obs.metrics.sample("kernel.commitments", t)
        if not state.complete():
            raise InfeasibleProblemError(
                "kernel drained its queue with rounds still uncommitted; "
                "check the policy"
            )
        obs.metrics.counter("kernel.events").inc(self.processed)
        schedule = state.committed
        return KernelResult(
            schedule=schedule,
            metrics=metrics_from_schedule(schedule),
            events=self.processed,
            commitments=self.commitments,
            replans=int(getattr(self.policy, "replans", 0)),
            retracted_rounds=self.retracted_rounds,
            retractions=tuple(self.retractions),
        )


def batch_path(policy: Policy) -> str | None:
    """The array loop's batch path for *policy*, or ``None``.

    ``"planned"`` for an unmodified :class:`PlannedPolicy`, ``"gang"``
    for a :class:`GangPolicy` whose ``on_event`` is the base one (only
    ``select`` varies). Recognized by method identity: a subclass that
    overrides how the policy reacts to events has no batch path.
    """
    cls = type(policy)
    if (
        isinstance(policy, PlannedPolicy)
        and cls.on_event is PlannedPolicy.on_event
        and cls.setup is PlannedPolicy.setup
        and cls._round_commitment is PlannedPolicy._round_commitment
    ):
        return "planned"
    if isinstance(policy, GangPolicy) and cls.on_event is GangPolicy.on_event:
        return "gang"
    return None


def run_policy(
    instance: ProblemInstance,
    policy: Policy,
    *,
    crashes: Sequence[tuple[float, int] | KernelCrash] | None = None,
    restores: list[tuple[float, int]] | None = None,
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

    The loop is picked from the run itself: a policy with a
    :func:`batch_path` on a run without crashes, restores, a re-plan
    timer or a heal engine takes the vectorized
    :class:`repro.kernel.array.ArraySchedulingKernel`; every other run
    takes the reference :class:`SchedulingKernel`. Both produce
    byte-identical results.
    """
    if (
        not crashes
        and not restores
        and replan_interval is None
        and heal is None
        and batch_path(policy) is not None
    ):
        from .array import ArraySchedulingKernel

        return ArraySchedulingKernel(
            instance, policy, max_events=max_events
        ).run()
    return SchedulingKernel(
        instance,
        policy,
        crashes=crashes,
        restores=restores,
        replan_interval=replan_interval,
        max_events=max_events,
        heal=heal,
    ).run()
