"""Test oracle: the chaos control plane's original k + 2-run recovery loop.

For k crashes it runs the kernel k + 2 times: the failure-free plan, one
muted recovery run per crash (re-plan *k* is the run with crashes
1..k, shipped at detection *k*) and a recorded run that repeats the
last one. :meth:`repro.control.ControlPlane.run_chaos` now steps one
kernel through the crashes instead; ``test_chaos_single_run.py`` pins
the two equal, apart from the acks of re-plans whose run was still
open when they shipped.
"""

from __future__ import annotations

from repro.control.controlplane import (
    CTRL_TRACK,
    SCHEDULER,
    UPPER,
    ChaosResult,
    ControlPlane,
    _releases,
    executor_endpoint,
)
from repro.control.messages import (
    JobCompleted,
    PlannedTask,
    SequenceAck,
    SubmitJob,
    TaskSequence,
    to_wire,
)
from repro.control.storage import CheckpointManager
from repro.core.errors import SimulationError
from repro.core.job import ProblemInstance
from repro.core.schedule import Schedule, validate_schedule
from repro.faults.detector import HeartbeatConfig, run_detection
from repro.faults.recovery import ChaosTelemetry
from repro.faults.retry import RetryPolicy
from repro.faults.scenario import FaultScenario
from repro.kernel.runner import run_policy
from repro.kernel.state import KernelCrash
from repro.obs import Category, current as obs_current
from repro.obs.context import DISABLED, use as obs_use
from repro.sim.simulator import simulate_plan
from repro.workload.models import spec_or_synthetic
from tests.core.oracles import reference_round_end


def _ship_schedule(
    plane: ControlPlane, schedule: Schedule, policy: RetryPolicy, *, at
) -> list[SequenceAck]:
    """Ship every GPU's tasks of *schedule* starting at or after *at*."""
    acks: list[SequenceAck] = []
    for gpu_id, seq in sorted(schedule.gpu_sequences().items()):
        seq = [a for a in seq if a.start >= at]
        if not seq:
            continue
        endpoint = executor_endpoint(gpu_id)
        message = TaskSequence(
            gpu_id=gpu_id,
            tasks=tuple(
                to_wire(PlannedTask(
                    job_id=a.task.job_id, round_idx=a.task.round_idx,
                    slot=a.task.slot, start=a.start,
                    train_time=a.train_time, sync_time=a.sync_time,
                ))
                for a in seq
            ),
        )
        t = max(at, plane.transport.now)
        cycles = 8
        for _ in range(cycles):
            outcome = plane.transport.send_with_retry(
                SCHEDULER, endpoint, message, policy, at=t
            )
            if outcome.acked:
                break
            t = plane.transport.now + policy.timeout_s
        else:
            raise SimulationError(
                f"executor {endpoint!r} unreachable after "
                f"{cycles * policy.max_attempts} send attempts"
            )
        plane.transport.drain(endpoint)
        acks.append(SequenceAck(gpu_id=gpu_id, num_tasks=len(seq)))
    return acks


def reference_run_chaos(
    plane: ControlPlane,
    instance: ProblemInstance,
    scenario: FaultScenario,
    *,
    heartbeat: HeartbeatConfig | None = None,
    retry: RetryPolicy | None = None,
    heal=None,
) -> ChaosResult:
    """:meth:`ControlPlane.run_chaos` as k + 2 kernel runs."""
    obs = obs_current()
    heartbeat = heartbeat or HeartbeatConfig()
    retry = retry or RetryPolicy()
    scenario.validate(plane.cluster.num_gpus)
    jobs = instance.jobs
    for job in jobs:
        plane.transport.send(UPPER, SCHEDULER, SubmitJob(
            job_id=job.job_id, model=job.model, arrival=job.arrival,
            weight=job.weight, num_rounds=job.num_rounds,
            sync_scale=job.sync_scale, batch_scale=job.batch_scale,
        ))
    plane.transport.drain(SCHEDULER)
    if heal is not None:
        if getattr(heal, "instance", None) is None:
            heal.instance = instance
        recorder = getattr(obs, "recorder", None)
        if recorder is not None and heal not in recorder.monitors:
            recorder.attach(heal)
    model_bytes = {
        job.job_id: spec_or_synthetic(job.model).model_bytes for job in jobs
    }
    restore_s = {j: plane.store.read_time(b) for j, b in model_bytes.items()}

    def recover(crashes):
        return run_policy(
            instance, plane.scheduler.make_policy(instance), crashes=crashes
        )

    plan = plane._plan(instance, muted=True)
    with obs_use(DISABLED):
        baseline = simulate_plan(
            plane.cluster, instance, plan, switch_mode=plane.switch_mode
        )
    plane.transport.faults = scenario.network()
    telemetry = ChaosTelemetry()
    acks = _ship_schedule(plane, plan, retry, at=0.0)
    crashes: list[KernelCrash] = []
    dead: set[int] = set()
    last_completion, t_dead = plan.makespan(), 0.0
    for crash in scenario.ordered_crashes():
        outside = crash.time >= last_completion
        alive = [g for g in range(instance.num_gpus) if g not in dead]
        detection = run_detection(
            plane.transport, alive, crash, scenario, cfg=heartbeat,
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
        crashes.append(KernelCrash(
            time=crash.time, gpu=crash.gpu_id, detected_at=t_dead,
            checkpoint_interval=plane.checkpoint_interval,
            restore_s=restore_s, quarantined=held,
        ))
        survivors = instance.num_gpus - len(dead)
        if obs.enabled:
            obs.tracer.instant(
                Category.CTRL, f"replan after gpu {crash.gpu_id} crash",
                track=CTRL_TRACK, time=t_dead, dead_gpu=crash.gpu_id,
                survivors=survivors,
            )
        with obs.tracer.timed(
            Category.CTRL, "replan", track=CTRL_TRACK, survivors=survivors,
            hist=obs.metrics.histogram("ctrl.plan_s"),
        ), obs_use(DISABLED):
            recovered = recover(crashes)
        last_completion = recovered.metrics.makespan
        for r in recovered.retractions:
            if r.gpu == crash.gpu_id and r.rounds_done:
                plane._announce_restore(r, model_bytes[r.job])
        telemetry.replans += 1
        obs.metrics.counter("ctrl.replans").inc()
        acks.extend(
            _ship_schedule(plane, recovered.schedule, retry, at=t_dead)
        )

    final = recover(crashes)
    for r in final.retractions:
        telemetry.record_retraction(r, model_bytes[r.job])
    sim = simulate_plan(
        plane.cluster, instance, final.schedule,
        switch_mode=plane.switch_mode,
        failures=scenario.restart_failures(),
        slowdowns=scenario.slowdown_windows(),
        releases=_releases(final, [c.detected_at for c in crashes]),
    )
    validate_schedule(sim.realized, check_durations=False)
    completions = {j.job_id: j.completion for j in sim.metrics.per_job}
    realized = sim.realized
    checkpoint_bytes = 0.0
    for job in jobs:
        manager = CheckpointManager(
            store=plane.store, job_id=job.job_id,
            model_bytes=model_bytes[job.job_id],
            interval=plane.checkpoint_interval,
        )
        for r in range(job.num_rounds):
            meta = manager.maybe_checkpoint(
                r, at=reference_round_end(realized, job.job_id, r)
            )
            checkpoint_bytes += meta.size_bytes if meta else 0.0
        checkpoint_bytes += manager.final_checkpoint(
            at=completions[job.job_id]
        ).size_bytes
    job_completions: list[JobCompleted] = []
    for g, time in sorted(completions.items(), key=lambda kv: kv[1]):
        message = JobCompleted(job_id=g, completion_time=time)
        plane.transport.send(
            SCHEDULER, UPPER, message, at=max(time, plane.transport.now)
        )
        job_completions.append(message)
    plane.transport.drain(UPPER)
    plane.transport.drain(SCHEDULER)
    stats = plane.transport.total_stats()
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
    plane.transport.faults = None
    if heal is not None:
        heal.poll_now()
    return ChaosResult(
        instance=instance, plan=plan, baseline=baseline,
        sim=sim, kernel=final, completions=completions,
        report=report, acks=tuple(acks),
        job_completions=tuple(job_completions),
        checkpoint_bytes=checkpoint_bytes,
        control_messages=stats.messages, control_bytes=stats.control_bytes,
        payload_bytes=stats.payload_bytes,
        remediation=heal.log if heal is not None else None,
    )
