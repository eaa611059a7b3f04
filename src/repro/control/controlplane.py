"""The central control plane: the §6 prototype's scheduler process.

Orchestrates the full Fig. 9 flow over the message substrate:

1. upper layer **submits** jobs (``SubmitJob`` messages);
2. the scheduler **profiles** every (model, GPU type) pair through the
   profiler service, hitting the historical-results database where it can;
3. the scheduling algorithm produces per-GPU **task sequences**, which are
   serialized and shipped to the executors (acked);
4. the plan is **executed** on the discrete-event simulator; every task's
   gradient push and every round's model update become accounted PS
   traffic, and each job checkpoints through the blob store;
5. completion notifications return to the upper layer.

The result bundles the simulation outcome with the control/data-plane
traffic accounting — how many RPCs, gradient bytes, checkpoint bytes the
run generated.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from ..cluster.cluster import Cluster
from ..core.errors import SimulationError
from ..core.job import Job, ProblemInstance
from ..core.metrics import ScheduleMetrics
from ..core.schedule import Schedule, validate_schedule
from ..core.types import SwitchMode, TaskRef
from ..faults.detector import HeartbeatConfig, run_detection
from ..faults.recovery import ChaosTelemetry, RecoveryReport
from ..faults.retry import RetryPolicy
from ..faults.scenario import FaultScenario
from ..kernel.residual import planner_scope
from ..kernel.runner import KernelResult, run_policy
from ..kernel.state import KernelCrash
from ..obs import Category, current as obs_current
from ..obs.context import DISABLED, use as obs_use
from ..schedulers import HareScheduler, Scheduler
from ..sim.simulator import SimResult, simulate_plan
from ..workload.models import spec_or_synthetic
from ..workload.profiler import TaskProfiler, build_instance
from .messages import (
    CheckpointRestored,
    GradientPush,
    JobCompleted,
    ModelUpdate,
    PlannedTask,
    SequenceAck,
    SubmitJob,
    TaskSequence,
    to_wire,
)
from .storage import BlobStore, CheckpointManager
from .transport import SimTransport

UPPER = "upper-layer"
SCHEDULER = "scheduler"
PS = "parameter-server"

#: Trace track carrying control-plane instants.
CTRL_TRACK = "controlplane"


def executor_endpoint(gpu_id: int) -> str:
    return f"executor-{gpu_id}"


def _sequence_message(gpu_id: int, seq) -> TaskSequence:
    """One executor's ordered task list, serialized for the wire."""
    return TaskSequence(
        gpu_id=gpu_id,
        tasks=tuple(
            to_wire(
                PlannedTask(
                    job_id=a.task.job_id,
                    round_idx=a.task.round_idx,
                    slot=a.task.slot,
                    start=a.start,
                    train_time=a.train_time,
                    sync_time=a.sync_time,
                )
            )
            for a in seq
        ),
    )


@dataclass(frozen=True, slots=True)
class ControlPlaneResult:
    """Everything one orchestrated run produced."""

    instance: ProblemInstance
    sim: SimResult
    acks: tuple[SequenceAck, ...]
    completions: tuple[JobCompleted, ...]
    gradient_pushes: int
    model_updates: int
    checkpoint_bytes: float
    control_messages: int
    control_bytes: float
    payload_bytes: float


@dataclass(frozen=True, slots=True)
class ChaosResult:
    """Everything one fault-injected run produced."""

    instance: ProblemInstance
    plan: Schedule
    baseline: SimResult
    realized: Schedule
    metrics: ScheduleMetrics
    completions: dict[int, float]
    report: RecoveryReport
    acks: tuple[SequenceAck, ...]
    job_completions: tuple[JobCompleted, ...]
    checkpoint_bytes: float
    control_messages: int
    control_bytes: float
    payload_bytes: float
    #: The remediation log when the run was healed
    #: (:meth:`ControlPlane.run_chaos` with ``heal=``), else ``None``.
    remediation: object | None = None


@dataclass(slots=True)
class ControlPlane:
    """Central scheduler service wired to executors over the transport."""

    cluster: Cluster
    scheduler: Scheduler = field(default_factory=HareScheduler)
    switch_mode: SwitchMode = SwitchMode.HARE
    transport: SimTransport = field(default_factory=SimTransport)
    store: BlobStore = field(default_factory=BlobStore)
    profiler: TaskProfiler | None = None
    checkpoint_interval: int = 10

    def __post_init__(self) -> None:
        self.transport.register(UPPER)
        self.transport.register(SCHEDULER)
        self.transport.register(PS)
        for device in self.cluster.devices():
            self.transport.register(executor_endpoint(device.gpu_id))
        if self.profiler is None:
            self.profiler = TaskProfiler(self.cluster)

    # ------------------------------------------------------------------
    def submit(self, jobs: list[Job]) -> None:
        """Upper layer submits jobs (as SubmitJob messages)."""
        for job in jobs:
            self.transport.send(
                UPPER,
                SCHEDULER,
                SubmitJob(
                    job_id=job.job_id,
                    model=job.model,
                    arrival=job.arrival,
                    weight=job.weight,
                    num_rounds=job.num_rounds,
                    sync_scale=job.sync_scale,
                    batch_scale=job.batch_scale,
                ),
            )

    def _collect_submissions(self) -> list[Job]:
        jobs = []
        for delivery in self.transport.drain(SCHEDULER):
            msg = delivery.message
            if not isinstance(msg, SubmitJob):
                raise SimulationError(
                    f"unexpected message at scheduler: {msg!r}"
                )
            jobs.append(
                Job(
                    job_id=msg.job_id,
                    model=msg.model,
                    arrival=msg.arrival,
                    weight=msg.weight,
                    num_rounds=msg.num_rounds,
                    sync_scale=msg.sync_scale,
                    batch_scale=msg.batch_scale,
                )
            )
        jobs.sort(key=lambda j: j.job_id)
        return jobs

    def _checkpoints(self, job: Job) -> CheckpointManager:
        return CheckpointManager(
            store=self.store,
            job_id=job.job_id,
            model_bytes=spec_or_synthetic(job.model).model_bytes,
            interval=self.checkpoint_interval,
        )

    def _plan(self, instance: ProblemInstance, *, muted=False) -> Schedule:
        """The scheduler's plan, timed on the control-plane track."""
        obs = obs_current()
        with obs.tracer.timed(
            Category.CTRL,
            "plan",
            track=CTRL_TRACK,
            scheduler=self.scheduler.name,
            hist=obs.metrics.histogram("ctrl.plan_s"),
        ), obs_use(DISABLED if muted else obs):
            return self.scheduler.plan(instance)

    # ------------------------------------------------------------------
    def run(self) -> ControlPlaneResult:
        """Execute the full Fig. 9 pipeline for the submitted jobs."""
        obs = obs_current()
        jobs = self._collect_submissions()
        if not jobs:
            raise SimulationError("no jobs submitted")
        instance = build_instance(jobs, self.cluster, profiler=self.profiler)
        plan = self._plan(instance)

        # Ship sequences to executors; collect acks.
        acks: list[SequenceAck] = []
        for gpu_id, seq in sorted(plan.gpu_sequences().items()):
            message = _sequence_message(gpu_id, seq)
            endpoint = executor_endpoint(gpu_id)
            self.transport.send(SCHEDULER, endpoint, message)
            (delivery,) = self.transport.drain(endpoint)
            ack = SequenceAck(
                gpu_id=gpu_id, num_tasks=len(delivery.message.tasks)
            )
            self.transport.send(endpoint, SCHEDULER, ack)
            acks.append(ack)
        self.transport.drain(SCHEDULER)  # consume acks
        obs.metrics.counter("ctrl.sequence_acks").inc(len(acks))

        # Execute on the DES.
        sim = simulate_plan(
            self.cluster, instance, plan, switch_mode=self.switch_mode
        )

        # Account PS traffic and checkpoints from the realized execution.
        gradient_pushes = 0
        model_updates = 0
        checkpoint_bytes = 0.0
        managers = {job.job_id: self._checkpoints(job) for job in jobs}
        # Build the full PS traffic timeline first (gradient pushes as
        # tasks sync; model updates/checkpoints as round barriers open),
        # then replay it in global time order — the transport clock is
        # monotonic like a real wire.
        rounds_seen: dict[tuple[int, int], float] = {}
        events: list[tuple[float, int, object]] = []  # (time, kind, payload)
        for rec in sim.telemetry.records:
            events.append((rec.sync_end, 0, rec))
            key = (rec.task.job_id, rec.task.round_idx)
            rounds_seen[key] = max(rounds_seen.get(key, 0.0), rec.sync_end)
        for key, barrier in rounds_seen.items():
            events.append((barrier, 1, key))
        events.sort(key=lambda e: (e[0], e[1]))

        completions: list[JobCompleted] = []
        for time, kind, payload in events:
            if kind == 0:
                rec = payload
                spec = spec_or_synthetic(
                    instance.jobs[rec.task.job_id].model
                )
                self.transport.send(
                    executor_endpoint(rec.gpu),
                    PS,
                    GradientPush(
                        job_id=rec.task.job_id,
                        round_idx=rec.task.round_idx,
                        slot=rec.task.slot,
                        gpu_id=rec.gpu,
                        time=time,
                        data_bytes=spec.gradient_bytes,
                    ),
                    at=time,
                )
                gradient_pushes += 1
                continue
            job_id, r = payload
            job = jobs[job_id]
            spec = spec_or_synthetic(job.model)
            self.transport.send(
                PS,
                executor_endpoint(0),
                ModelUpdate(
                    job_id=job_id,
                    round_idx=r,
                    version=r + 1,
                    time=time,
                    data_bytes=spec.model_bytes,
                ),
                at=time,
            )
            model_updates += 1
            meta = managers[job_id].maybe_checkpoint(r, at=time)
            if meta is not None:
                checkpoint_bytes += meta.size_bytes
            if r == job.num_rounds - 1:
                final = managers[job_id].final_checkpoint(at=time)
                checkpoint_bytes += final.size_bytes
                completion = JobCompleted(
                    job_id=job_id,
                    completion_time=sim.pool.completion_time(job_id),
                )
                self.transport.send(SCHEDULER, UPPER, completion)
                completions.append(completion)
                if obs.enabled:
                    obs.tracer.instant(
                        Category.CTRL,
                        f"job {job_id} completed",
                        track=CTRL_TRACK,
                        time=completion.completion_time,
                        job=job_id,
                    )
        completions.sort(key=lambda c: c.job_id)
        obs.metrics.counter("ctrl.completions").inc(len(completions))
        obs.metrics.counter("ctrl.gradient_pushes").inc(gradient_pushes)
        obs.metrics.counter("ctrl.model_updates").inc(model_updates)
        self.transport.drain(PS)
        self.transport.drain(executor_endpoint(0))
        self.transport.drain(UPPER)

        totals = self.transport.total_stats()
        return ControlPlaneResult(
            instance=instance,
            sim=sim,
            acks=tuple(acks),
            completions=tuple(completions),
            gradient_pushes=gradient_pushes,
            model_updates=model_updates,
            checkpoint_bytes=checkpoint_bytes,
            control_messages=totals.messages,
            control_bytes=totals.control_bytes,
            payload_bytes=totals.payload_bytes,
        )

    # ------------------------------------------------------------------
    # Chaos: the fault-injected pipeline
    # ------------------------------------------------------------------
    def _ship(
        self, schedule: Schedule, policy: RetryPolicy, *, at: float
    ) -> list[SequenceAck]:
        """Ship every GPU's tasks starting at or after *at* over the
        (unreliable) wire.

        Each sequence rides :meth:`SimTransport.send_with_retry`; if a whole
        retry cycle times out (e.g. a partition outlasts the backoff span)
        the scheduler starts a fresh cycle, up to a hard cap.
        """
        acks: list[SequenceAck] = []
        for gpu_id, seq in sorted(schedule.gpu_sequences().items()):
            seq = [a for a in seq if a.start >= at]
            if not seq:
                continue
            endpoint = executor_endpoint(gpu_id)
            message = _sequence_message(gpu_id, seq)
            t = max(at, self.transport.now)
            cycles = 8
            for _ in range(cycles):
                outcome = self.transport.send_with_retry(
                    SCHEDULER, endpoint, message, policy, at=t
                )
                if outcome.acked:
                    break
                t = self.transport.now + policy.timeout_s
            else:
                raise SimulationError(
                    f"executor {endpoint!r} unreachable after "
                    f"{cycles * policy.max_attempts} send attempts"
                )
            self.transport.drain(endpoint)  # consume (incl. duplicates)
            acks.append(SequenceAck(gpu_id=gpu_id, num_tasks=len(seq)))
        return acks

    def run_chaos(
        self,
        scenario: FaultScenario,
        *,
        heartbeat: HeartbeatConfig | None = None,
        retry: RetryPolicy | None = None,
        heal=None,
    ) -> ChaosResult:
        """Execute the pipeline under injected faults, recovering as needed.

        The happy path matches :meth:`run`: plan, ship sequences, execute.
        On top of it the scenario may drop RPCs (sequences then ship with
        retry/backoff), slow GPUs down, restart them transiently — and
        crash them permanently. Recovery is three steps (DESIGN.md §9):

        1. **detection**: per crash, in time order, heartbeats from the
           previous detection until the lease expires; the affected jobs'
           restores and the re-planned sequences ship at the detection,
           before the next crash's heartbeats go out. Re-plan *k* comes
           from a muted kernel run with crashes 1..k (the kernel is
           deterministic: it equals the full run up to detection *k + 1*).
           A crash at or after that run's last completion falls outside
           the run: it is detected from a one-lease window of heartbeats
           and never re-planned;
        2. **one kernel run** of the scheduler's own policy, each crash a
           :class:`~repro.kernel.state.KernelCrash`: retraction at the
           physical crash time, applied at the detection, affected jobs
           rolled back to their newest checkpoint and ready after the
           restore read;
        3. **one DES replay** of that run with the scenario's restarts and
           slowdowns, re-planned tasks released no earlier than their
           detection (and restore): the realized schedule, metrics,
           completions and checkpoint writes.

        Per-task PS gradient replay is skipped in chaos mode: recovery
        control traffic (heartbeats, restores, sequences) must stay in
        causal order on the monotonic wire, and the data-plane accounting
        is :meth:`run`'s concern.

        *heal* is an optional :class:`repro.heal.RemediationEngine`
        (duck-typed — this module never imports ``repro.heal``). When
        given, it is attached to the ambient flight recorder so it sees
        every record as it lands, each re-plan honours its quarantine set
        as of that crash's detection (advisory: feasibility wins), and its
        :class:`~repro.heal.actions.RemediationLog` is returned on
        :attr:`ChaosResult.remediation`.
        """
        obs = obs_current()
        heartbeat = heartbeat or HeartbeatConfig()
        retry = retry or RetryPolicy()
        jobs = self._collect_submissions()
        if not jobs:
            raise SimulationError("no jobs submitted")
        scenario.validate(self.cluster.num_gpus)
        instance = build_instance(jobs, self.cluster, profiler=self.profiler)
        if heal is not None:
            if getattr(heal, "instance", None) is None:
                heal.instance = instance
            recorder = getattr(obs, "recorder", None)
            if recorder is not None and heal not in recorder.monitors:
                recorder.attach(heal)
        model_bytes = {
            job.job_id: spec_or_synthetic(job.model).model_bytes
            for job in jobs
        }
        restore_s = {
            j: self.store.read_time(b) for j, b in model_bytes.items()
        }

        def recover(crashes: list[KernelCrash]) -> KernelResult:
            return run_policy(
                instance, self.scheduler.make_policy(instance),
                crashes=crashes,
            )

        # The failure-free plan and its reference run (reliable wire) for
        # degradation metrics. Muted: they are counterfactuals — the
        # recovered kernel run below is the one the recorder sees.
        plan = self._plan(instance, muted=True)
        with obs_use(DISABLED):
            baseline = simulate_plan(
                self.cluster, instance, plan, switch_mode=self.switch_mode
            )

        # Arm the unreliable wire; every send below may drop.
        self.transport.faults = scenario.network()
        telemetry = ChaosTelemetry()
        acks = self._ship(plan, retry, at=0.0)
        crashes: list[KernelCrash] = []
        dead: set[int] = set()
        last_completion, t_dead = plan.makespan(), 0.0
        with planner_scope():
            for crash in scenario.ordered_crashes():
                outside = crash.time >= last_completion
                alive = [g for g in range(instance.num_gpus) if g not in dead]
                detection = run_detection(
                    self.transport, alive, crash, scenario, cfg=heartbeat,
                    start=(
                        max(t_dead, crash.time - heartbeat.lease_s)
                        if outside else t_dead
                    ),
                    endpoint_of=executor_endpoint,
                    scheduler_endpoint=SCHEDULER,
                )
                telemetry.detections.append(detection)
                t_dead = detection.detected_at
                dead.add(crash.gpu_id)
                if outside:
                    continue
                held = None if heal is None else frozenset(heal.quarantined)
                crashes.append(
                    KernelCrash(
                        time=crash.time, gpu=crash.gpu_id, detected_at=t_dead,
                        checkpoint_interval=self.checkpoint_interval,
                        restore_s=restore_s, quarantined=held,
                    )
                )
                survivors = instance.num_gpus - len(dead)
                if obs.enabled:
                    obs.tracer.instant(
                        Category.CTRL,
                        f"replan after gpu {crash.gpu_id} crash",
                        track=CTRL_TRACK,
                        time=t_dead,
                        dead_gpu=crash.gpu_id,
                        survivors=survivors,
                    )
                with obs.tracer.timed(
                    Category.CTRL,
                    "replan",
                    track=CTRL_TRACK,
                    survivors=survivors,
                    hist=obs.metrics.histogram("ctrl.plan_s"),
                ), obs_use(DISABLED):
                    recovered = recover(crashes)
                last_completion = recovered.metrics.makespan
                for r in recovered.retractions:
                    if r.gpu == crash.gpu_id and r.rounds_done:
                        self._announce_restore(r, model_bytes[r.job])
                telemetry.replans += 1
                obs.metrics.counter("ctrl.replans").inc()
                acks.extend(
                    self._ship(recovered.schedule, retry, at=t_dead)
                )

            # The one recovered run the recorder sees, then its replay.
            final = recover(crashes)
        for r in final.retractions:
            telemetry.record_retraction(r, model_bytes[r.job])
        sim = simulate_plan(
            self.cluster,
            instance,
            final.schedule,
            switch_mode=self.switch_mode,
            failures=scenario.restart_failures(),
            slowdowns=scenario.slowdown_windows(),
            releases=_releases(final, [c.detected_at for c in crashes]),
        )
        validate_schedule(sim.realized, check_durations=False)
        completions = {
            job.job_id: sim.pool.completion_time(job.job_id) for job in jobs
        }
        checkpoint_bytes = 0.0
        for job in jobs:
            manager = self._checkpoints(job)
            for r in range(job.num_rounds):
                meta = manager.maybe_checkpoint(
                    r, at=sim.pool.barrier_time(job.job_id, r)
                )
                checkpoint_bytes += meta.size_bytes if meta else 0.0
            checkpoint_bytes += manager.final_checkpoint(
                at=completions[job.job_id]
            ).size_bytes

        # Notify the upper layer, in completion order.
        job_completions: list[JobCompleted] = []
        for g, time in sorted(completions.items(), key=lambda kv: kv[1]):
            message = JobCompleted(job_id=g, completion_time=time)
            self.transport.send(
                SCHEDULER, UPPER, message, at=max(time, self.transport.now)
            )
            job_completions.append(message)
        self.transport.drain(UPPER)
        self.transport.drain(SCHEDULER)

        stats = self.transport.total_stats()
        telemetry.rpc_retries = stats.retries
        telemetry.rpc_timeouts = stats.timeouts
        telemetry.rpc_duplicates = stats.duplicates
        telemetry.messages_dropped = stats.dropped
        report = telemetry.report(
            crashes=tuple(scenario.ordered_crashes()),
            failure_free_weighted_jct=baseline.metrics.total_weighted_completion,
            degraded_weighted_jct=sim.metrics.total_weighted_completion,
            failure_free_makespan=baseline.metrics.makespan,
            degraded_makespan=sim.metrics.makespan,
        )
        self.transport.faults = None  # disarm the wire
        if heal is not None:
            heal.poll_now()
        return ChaosResult(
            instance=instance,
            plan=plan,
            baseline=baseline,
            realized=sim.realized,
            metrics=sim.metrics,
            completions=completions,
            report=report,
            acks=tuple(acks),
            job_completions=tuple(job_completions),
            checkpoint_bytes=checkpoint_bytes,
            control_messages=stats.messages,
            control_bytes=stats.control_bytes,
            payload_bytes=stats.payload_bytes,
            remediation=heal.log if heal is not None else None,
        )

    def _announce_restore(self, retraction, size: float) -> None:
        """The parameter server restores a rolled-back job's newest
        checkpoint at its crash's detection."""
        obs = obs_current()
        t, job = retraction.time, retraction.job
        version = retraction.rounds_done // self.checkpoint_interval
        obs.metrics.counter("ctrl.restores").inc()
        if obs.enabled:
            obs.tracer.instant(
                Category.CTRL, f"restore job {job}", track=CTRL_TRACK,
                time=t, job=job, version=version,
            )
        message = CheckpointRestored(
            job_id=job, version=version, round_idx=retraction.rounds_done - 1,
            time=t, data_bytes=size,
        )
        self.transport.send(
            PS, SCHEDULER, message, at=max(t, self.transport.now)
        )


def _releases(
    run: KernelResult, detections: list[float]
) -> dict[TaskRef, float]:
    """When each task of a recovered run reaches its executor: a task
    planned at or after a detection shipped with that re-plan, and the
    rounds a job re-runs after a rollback also wait for its restore.
    Tasks of the initial plan have no entry (shipped at t=0)."""
    releases: dict[TaskRef, float] = {}
    for a in run.schedule.assignments.values():
        k = bisect_right(detections, a.start)
        if k:
            releases[a.task] = max(
                [detections[k - 1]]
                + [
                    r.time + r.restore_s
                    for r in run.retractions
                    if r.job == a.task.job_id
                    and a.task.round_idx >= r.rounds_done
                ]
            )
    return releases
