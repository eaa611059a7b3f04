"""The central control plane: the §6 prototype's scheduler process.

Orchestrates the Fig. 9 flow over the message substrate:

1. the upper layer **submits** the run's profiled jobs, one
   ``SubmitJob`` message per row of the :class:`ProblemInstance`;
2. the scheduling algorithm produces per-GPU **task sequences**, which are
   serialized and shipped to the executors (acked);
3. the plan is **executed** on the discrete-event simulator under the
   scenario's faults, recovering from crashes, and each job checkpoints
   through the blob store at its realized round barriers;
4. completion notifications return to the upper layer.

:meth:`ControlPlane.run_chaos` is the one entry point. What a fault-free
run of the same flow puts on its wire, gradient pushes and model updates
included, is a reduction over the realized columns: :func:`traffic_bill`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from math import inf, nextafter
from operator import itemgetter

import numpy as np

from ..cluster.cluster import Cluster
from ..core.errors import ConfigurationError, SimulationError
from ..core.job import ProblemInstance
from ..core.metrics import ScheduleMetrics
from ..core.schedule import Schedule
from ..core.types import SwitchMode, TaskRef
from ..faults.detector import HeartbeatConfig, run_detection
from ..faults.recovery import ChaosTelemetry, RecoveryReport
from ..faults.retry import RetryPolicy
from ..faults.scenario import FaultScenario
from ..kernel.policies import PlannedPolicy
from ..kernel.runner import KernelResult, SchedulingKernel
from ..kernel.state import KernelCrash
from ..obs import Category, current as obs_current
from ..obs.context import DISABLED, use as obs_use
from ..schedulers import HareScheduler, Scheduler
from ..sim.simulator import SimResult, simulate_plan
from ..workload.models import spec_or_synthetic
from .messages import (
    CheckpointRestored,
    JobCompleted,
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


#: Column order of a wire row: sorting rows orders them by GPU, then
#: start, then task.
_ROW = ("gpu", "start", "job", "rnd", "slot", "train", "sync")


def _sequences(
    parts: list[Schedule], at: float
) -> list[TaskSequence]:
    """Each GPU's rows of *parts* starting at or after *at*, in start
    then task order: one wire message per GPU, by ascending id."""
    rows = sorted(
        row
        for part in parts
        for row in zip(*(getattr(part, name).tolist() for name in _ROW))
        if row[1] >= at
    )
    return [
        TaskSequence(gpu_id=gpu, tasks=tuple(
            to_wire(PlannedTask(job, rnd, slot, start, train, sync))
            for _, start, job, rnd, slot, train, sync in seq
        ))
        for gpu, seq in groupby(rows, key=itemgetter(0))
    ]


@dataclass(frozen=True, slots=True)
class ChaosResult:
    """Everything one fault-injected run produced."""

    instance: ProblemInstance
    plan: Schedule
    baseline: SimResult
    #: The DES replay of :attr:`kernel` under the scenario's faults.
    sim: SimResult
    #: The one recovered kernel run the replay executes.
    kernel: KernelResult
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

    @property
    def realized(self) -> Schedule:
        return self.sim.realized

    @property
    def metrics(self) -> ScheduleMetrics:
        return self.sim.metrics


@dataclass(slots=True)
class ControlPlane:
    """Central scheduler service wired to executors over the transport."""

    cluster: Cluster
    scheduler: Scheduler = field(default_factory=HareScheduler)
    switch_mode: SwitchMode = SwitchMode.HARE
    transport: SimTransport = field(default_factory=SimTransport)
    store: BlobStore = field(default_factory=BlobStore)
    checkpoint_interval: int = 10

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint interval must be >= 1")
        self.transport.register(UPPER)
        self.transport.register(SCHEDULER)
        self.transport.register(PS)
        for device in self.cluster.devices():
            self.transport.register(executor_endpoint(device.gpu_id))

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
    def _ship(
        self, parts: list[Schedule], policy: RetryPolicy, *, at: float
    ) -> list[SequenceAck]:
        """Ship every GPU's tasks starting at or after *at* over the
        (unreliable) wire.

        Each sequence rides :meth:`SimTransport.send_with_retry`; if a whole
        retry cycle times out (e.g. a partition outlasts the backoff span)
        the scheduler starts a fresh cycle, up to a hard cap.
        """
        acks: list[SequenceAck] = []
        for message in _sequences(parts, at):
            endpoint = executor_endpoint(message.gpu_id)
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
            acks.append(SequenceAck(message.gpu_id, len(message.tasks)))
        return acks

    def run_chaos(
        self,
        instance: ProblemInstance,
        scenario: FaultScenario,
        *,
        heartbeat: HeartbeatConfig | None = None,
        retry: RetryPolicy | None = None,
        heal=None,
    ) -> ChaosResult:
        """Execute the pipeline for *instance* under injected faults,
        recovering as needed.

        The upper layer submits one ``SubmitJob`` per job of *instance*
        (the run's profiled job table: nothing is profiled again), then
        the happy path is plan, ship sequences, execute. On top of it the
        scenario may drop RPCs (sequences then ship with retry/backoff),
        slow GPUs down, restart them transiently — and crash them
        permanently. Recovery is one stepped kernel run and one replay
        (DESIGN.md §9):

        1. **one kernel run** of the scheduler's own policy, the run the
           recorder sees, stepped crash by crash: advanced to the crash,
           heartbeats from the previous detection until the lease
           expires, then the crash as a
           :class:`~repro.kernel.state.KernelCrash` (retraction at the
           crash, applied at the detection, affected jobs rolled back
           to their newest checkpoint and ready after the restore read).
           Restores go out at the detection; the re-planned sequences,
           stamped at it, ship just before the next wire traffic, with
           every committed task from the detection on plus a fixed
           plan's uncommitted rounds. A crash after the run has ended
           falls outside it: detected from a one-lease window of
           heartbeats, never re-planned;
        2. **one DES replay** of that run with the scenario's restarts and
           slowdowns, re-planned tasks released no earlier than their
           detection (and restore): the realized schedule, metrics,
           completions and checkpoint writes.

        The wire carries control traffic only (submissions, sequences,
        heartbeats, restores, completions), in causal order on a
        monotonic clock; the per-task gradient pushes and per-round model
        updates are counted by :func:`traffic_bill`, not sent.

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
        scenario.validate(self.cluster.num_gpus)
        for row in zip(
            range(instance.num_jobs), instance.model,
            instance.arrival.tolist(), instance.weight.tolist(),
            instance.num_rounds.tolist(), instance.sync_scale.tolist(),
            instance.batch_scale,
        ):
            self.transport.send(UPPER, SCHEDULER, SubmitJob(*row))
        self.transport.drain(SCHEDULER)
        if heal is not None:
            if getattr(heal, "instance", None) is None:
                heal.instance = instance
            recorder = getattr(obs, "recorder", None)
            if recorder is not None and heal not in recorder.monitors:
                recorder.attach(heal)
        model_bytes = {
            j: spec_or_synthetic(model).model_bytes
            for j, model in enumerate(instance.model)
        }
        restore_s = {
            j: self.store.read_time(b) for j, b in model_bytes.items()
        }

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
        acks = self._ship([plan], retry, at=0.0)
        kernel = SchedulingKernel(
            instance, self.scheduler.make_policy(instance)
        )
        state = kernel.state
        detections: list[float] = []
        dead: set[int] = set()
        t_dead = 0.0

        def ship_replan() -> None:
            """Ship the last detection's re-plan: what the run decided."""
            parts = [state.committed.columns()]
            if isinstance(kernel.policy, PlannedPolicy):
                parts.append(kernel.policy.uncommitted(state))
            acks.extend(self._ship(parts, retry, at=detections[-1]))

        unshipped = False
        for crash in scenario.ordered_crashes():
            kernel.advance(max(crash.time, t_dead))
            outside = (
                state.complete()
                and state.committed.round_ends().max() <= crash.time
            )
            if unshipped:
                ship_replan()
                unshipped = False
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
            kernel.add_crash(KernelCrash(
                time=crash.time, gpu=crash.gpu_id, detected_at=t_dead,
                checkpoint_interval=self.checkpoint_interval,
                restore_s=restore_s, quarantined=held,
            ))
            # The run up to the detection, so the recorder sees the
            # re-plan instant in time order; then the re-plan at it.
            kernel.advance(nextafter(t_dead, -inf))
            survivors = instance.num_gpus - len(dead)
            if obs.enabled:
                obs.tracer.instant(
                    Category.CTRL, f"replan after gpu {crash.gpu_id} crash",
                    track=CTRL_TRACK, time=t_dead, dead_gpu=crash.gpu_id,
                    survivors=survivors,
                )
            seen = len(kernel.retractions)
            with obs.tracer.timed(
                Category.CTRL, "replan", track=CTRL_TRACK,
                survivors=survivors, hist=obs.metrics.histogram("ctrl.plan_s"),
            ):
                kernel.advance(t_dead)
            for r in kernel.retractions[seen:]:
                if r.gpu == crash.gpu_id and r.rounds_done:
                    self._announce_restore(r, model_bytes[r.job])
            detections.append(t_dead)
            unshipped = True
            telemetry.replans += 1
            obs.metrics.counter("ctrl.replans").inc()

        final = kernel.run()
        if unshipped:
            ship_replan()
        for r in final.retractions:
            telemetry.record_retraction(r, model_bytes[r.job])
        sim = simulate_plan(
            self.cluster,
            instance,
            final.schedule,
            switch_mode=self.switch_mode,
            failures=scenario.restart_failures(),
            slowdowns=scenario.slowdown_windows(),
            releases=_releases(final, detections),
        )
        completions = {j.job_id: j.completion for j in sim.metrics.per_job}
        checkpoint_bytes = _write_checkpoints(
            self.store, instance, sim.realized,
            interval=self.checkpoint_interval,
        )

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
            sim=sim,
            kernel=final,
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


def _write_checkpoints(
    store: BlobStore,
    instance: ProblemInstance,
    realized: Schedule,
    *,
    interval: int,
) -> float:
    """Write each job's checkpoints into *store* at its realized round
    barriers (a round's barrier is its end): one every *interval* rounds
    and a final one at the job's last barrier. Returns the bytes
    written."""
    job_of, rnd_of, _, ends, _, _ = realized.round_spans()
    barriers = dict(zip(zip(job_of.tolist(), rnd_of.tolist()),
                        ends.tolist()))
    written = 0.0
    for job, (model, rounds) in enumerate(
        zip(instance.model, instance.num_rounds.tolist())
    ):
        manager = CheckpointManager(
            store=store, job_id=job,
            model_bytes=spec_or_synthetic(model).model_bytes,
            interval=interval,
        )
        for r in range(rounds):
            meta = manager.maybe_checkpoint(r, at=barriers[job, r])
            written += meta.size_bytes if meta else 0.0
        written += manager.final_checkpoint(
            at=barriers[job, rounds - 1]
        ).size_bytes
    return written


@dataclass(frozen=True, slots=True)
class TrafficBill:
    """What a fault-free run of the Fig. 9 flow puts on its wire: the
    message count of each kind and the bulk and checkpoint bytes."""

    submissions: int
    sequences: int
    acks: int
    #: One per realized task (its gradients to the parameter server).
    gradient_pushes: int
    #: One per round (the aggregated model back to the executors).
    model_updates: int
    completions: int
    #: Gradient bytes over the tasks plus model bytes over the rounds.
    payload_bytes: float
    checkpoint_writes: int
    checkpoint_bytes: float

    @property
    def messages(self) -> int:
        """Every message on the wire."""
        return (
            self.submissions + self.sequences + self.acks
            + self.gradient_pushes + self.model_updates + self.completions
        )


def traffic_bill(
    instance: ProblemInstance,
    realized: Schedule,
    *,
    checkpoint_interval: int,
) -> TrafficBill:
    """The traffic bill of *realized*, a fault-free replay of a plan for
    *instance*: one submission and one completion per job, one sequence
    and one ack per busy GPU, one gradient push per task and one model
    update per round, and the checkpoints :func:`_write_checkpoints`
    writes. Reduced from the columns; no message is built."""
    specs = [spec_or_synthetic(model) for model in instance.model]
    tasks = np.bincount(realized.job, minlength=instance.num_jobs)
    rounds = instance.num_rounds
    store = BlobStore()
    checkpoint_bytes = _write_checkpoints(
        store, instance, realized, interval=checkpoint_interval
    )
    busy = len(np.unique(realized.gpu))
    return TrafficBill(
        submissions=instance.num_jobs,
        sequences=busy,
        acks=busy,
        gradient_pushes=len(realized),
        model_updates=int(rounds.sum()),
        completions=instance.num_jobs,
        payload_bytes=float(
            tasks @ [s.gradient_bytes for s in specs]
            + rounds @ [s.model_bytes for s in specs]
        ),
        checkpoint_writes=store.writes,
        checkpoint_bytes=checkpoint_bytes,
    )


def _releases(
    run: KernelResult, detections: list[float]
) -> dict[TaskRef, float]:
    """When each task of a recovered run reaches its executor: a task
    planned at or after a detection shipped with that re-plan, and the
    rounds a job re-runs after a rollback also wait for its restore.
    Tasks of the initial plan have no entry (shipped at t=0)."""
    releases: dict[TaskRef, float] = {}
    schedule = run.schedule
    for job, rnd, slot, start in zip(
        schedule.job.tolist(), schedule.rnd.tolist(),
        schedule.slot.tolist(), schedule.start.tolist(),
    ):
        k = bisect_right(detections, start)
        if k:
            releases[TaskRef(job, rnd, slot)] = max(
                [detections[k - 1]]
                + [
                    r.time + r.restore_s
                    for r in run.retractions
                    if r.job == job and rnd >= r.rounds_done
                ]
            )
    return releases
