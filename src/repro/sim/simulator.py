"""The trace-driven cluster simulator (§7.1).

:class:`ClusterSimulator` replays a scheduler's plan on a modeled cluster
with the dynamics the plan ignores: task-switch overhead (per the chosen
:class:`~repro.core.types.SwitchMode`), speculative-memory retention hits,
and parameter-server barrier bookkeeping. The paper validated its simulator
against the physical testbed within 5 %; here the analytic plan and the DES
replay play those two roles, and :class:`SimResult` exposes the deviation.

The replay preserves each GPU's task order (executors follow the shipped
sequence, Fig. 9) but recomputes every start time from actual readiness:
GPU free + job arrived + previous round's barrier open (+ the task's
release time, when the run ships it late).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..cluster.cluster import Cluster
from ..core.errors import ConfigurationError, SimulationError
from ..core.job import ProblemInstance
from ..core.metrics import ScheduleMetrics, metrics_from_completions
from ..core.schedule import Schedule, TaskAssignment
from ..core.types import SwitchMode, TaskRef
from ..obs import Category, gpu_track, job_track
from ..obs import current as obs_current
from ..switching.costmodel import SwitchCostModel
from .engine import Engine
from .events import Event, EventType
from .executor import GpuExecutor, StartedTask, build_executors
from .paramserver import ParameterServerPool
from .telemetry import TaskRecord, Telemetry


@dataclass(frozen=True, slots=True)
class SimResult:
    """Outcome of one simulation run."""

    realized: Schedule
    metrics: ScheduleMetrics
    telemetry: Telemetry
    pool: ParameterServerPool
    events_processed: int

    @property
    def total_weighted_completion(self) -> float:
        return self.metrics.total_weighted_completion

    @property
    def makespan(self) -> float:
        return self.metrics.makespan


@dataclass(slots=True)
class ClusterSimulator:
    """Replays schedules on a cluster model with switching dynamics."""

    cluster: Cluster
    instance: ProblemInstance
    switch_mode: SwitchMode = SwitchMode.HARE
    switch_model: SwitchCostModel | None = None
    #: Override speculative-memory retention (None = per switch mode).
    #: Setting False under HARE ablates speculative memory while keeping
    #: early cleaning — the §4 ablation.
    retention_enabled: bool | None = None
    #: Per-task multiplicative runtime jitter (σ of a clipped normal around
    #: 1.0). Fig. 11 measures a few percent of round-to-round variation;
    #: this injects it at execution time so plans face realistic noise.
    jitter_sigma: float = 0.0
    jitter_seed: int = 0
    #: Injected GPU failures: (time, gpu_id) pairs. At each failure the
    #: GPU crashes: its running task (if any) is lost and re-executed from
    #: the head of the queue, device memory and CUDA context are wiped, and
    #: the executor restarts after ``restart_delay_s``. Rounds never lose
    #: completed work (gradients already synchronized are safe at the PS —
    #: the checkpointing story of §6).
    failures: list[tuple[float, int]] = field(default_factory=list)
    restart_delay_s: float = 1.0
    #: Earliest start per task: a task shipped after t=0 (a crash
    #: recovery's re-planned sequence, a restored job's next round) cannot
    #: start before it arrives, however early its GPU and barrier free up.
    releases: Mapping[TaskRef, float] = field(default_factory=dict)
    #: Transient straggler windows: (start, end, gpu_id, factor). A task
    #: *started* on the GPU inside the window trains ``factor``× slower —
    #: the realized telemetry reflects the inflated duration.
    slowdowns: list[tuple[float, float, int, float]] = field(
        default_factory=list
    )
    #: Model NIC sharing: concurrent gradient syncs from GPUs of the same
    #: node split the machine's NIC, inflating each sync by the number of
    #: transfers in flight on that node when it starts. The analytic plan
    #: ignores this (as the paper's formulation does); enabling it measures
    #: the resulting plan/realized gap.
    nic_contention: bool = False

    def __post_init__(self) -> None:
        if self.cluster.num_gpus != self.instance.num_gpus:
            raise SimulationError(
                f"cluster has {self.cluster.num_gpus} GPUs but the instance "
                f"expects {self.instance.num_gpus}"
            )
        num_gpus = self.cluster.num_gpus
        for time, gpu_id in self.failures:
            if time < 0:
                raise ConfigurationError(
                    f"failure time must be >= 0, got {time} (GPU {gpu_id})"
                )
            if not 0 <= gpu_id < num_gpus:
                raise ConfigurationError(
                    f"failure injected on unknown GPU {gpu_id}; the "
                    f"cluster has GPUs 0..{num_gpus - 1}"
                )
        for start, end, gpu_id, factor in self.slowdowns:
            if start < 0 or end <= start:
                raise ConfigurationError(
                    f"slowdown window ({start}, {end}) must satisfy "
                    f"0 <= start < end"
                )
            if not 0 <= gpu_id < num_gpus:
                raise ConfigurationError(
                    f"slowdown targets unknown GPU {gpu_id}; the cluster "
                    f"has GPUs 0..{num_gpus - 1}"
                )
            if factor < 1.0:
                raise ConfigurationError(
                    f"slowdown factor must be >= 1, got {factor}"
                )

    # ------------------------------------------------------------------
    def _slowdown_factor(self, gpu_id: int, at: float) -> float:
        factor = 1.0
        for start, end, gpu, f in self.slowdowns:
            if gpu == gpu_id and start <= at < end:
                factor = max(factor, f)
        return factor

    # ------------------------------------------------------------------
    def _jitter(
        self, sequences: dict[int, list[TaskAssignment]]
    ) -> dict[int, list[TaskAssignment]]:
        """Perturb each task's train/sync time by a clipped normal factor."""
        import numpy as np

        rng = np.random.default_rng(self.jitter_seed)
        out: dict[int, list[TaskAssignment]] = {}
        for gpu, seq in sorted(sequences.items()):
            jittered = []
            for a in seq:
                f_tc, f_ts = np.clip(
                    rng.normal(1.0, self.jitter_sigma, size=2), 0.5, 1.5
                )
                jittered.append(
                    TaskAssignment(
                        task=a.task,
                        gpu=a.gpu,
                        start=a.start,
                        train_time=a.train_time * float(f_tc),
                        sync_time=a.sync_time * float(f_ts),
                    )
                )
            out[gpu] = jittered
        return out

    # ------------------------------------------------------------------
    def run(self, plan: Schedule) -> SimResult:
        instance = self.instance
        engine = Engine()
        pool = ParameterServerPool(instance)
        telemetry = Telemetry(num_gpus=instance.num_gpus)
        realized = Schedule(instance)
        obs = obs_current()
        tracer = obs.tracer

        def flow_id(task) -> int:
            # Deterministic id per (job, round, slot): one arrow from the
            # previous round's barrier to each task it released.
            return (task.job_id * 10_000 + task.round_idx) * 10_000 + task.slot

        sequences = plan.gpu_sequences()
        if self.jitter_sigma > 0:
            sequences = self._jitter(sequences)
        executors = build_executors(
            instance,
            list(self.cluster.devices()),
            sequences,
            self.switch_mode,
            switch_model=self.switch_model,
            retention_enabled=self.retention_enabled,
        )
        by_gpu: dict[int, GpuExecutor] = {e.gpu_id: e for e in executors}
        planned_start = {a.task: a.start for a in plan.assignments.values()}

        def barrier_open(job_id: int, round_idx: int) -> bool:
            return pool.round_complete(job_id, round_idx)

        #: in-flight attempt per GPU (recorded only if it completes)
        in_flight: dict[int, object] = {}

        releases = self.releases

        def try_start(executor: GpuExecutor, now: float) -> None:
            if not executor.head_ready(now, barrier_open):
                return
            if releases and releases.get(executor.head().task, now) > now:
                return  # not shipped yet: its GPU_CHECK wakes it
            started = executor.start_head(now)
            factor = self._slowdown_factor(executor.gpu_id, started.start)
            if factor > 1.0:
                a = started.assignment
                started = StartedTask(
                    assignment=TaskAssignment(
                        task=a.task,
                        gpu=a.gpu,
                        start=a.start,
                        train_time=a.train_time * factor,
                        sync_time=a.sync_time,
                    ),
                    start=started.start,
                    switch_time=started.switch_time,
                    retained_hit=started.retained_hit,
                )
            in_flight[executor.gpu_id] = started
            # Busy-GPU curve, sampled at deterministic sim times so the
            # exported counter track is byte-stable.
            obs.metrics.gauge("sim.gpus_busy").set(len(in_flight))
            obs.metrics.sample("sim.gpus_busy", started.start)
            task = started.assignment.task
            if tracer.enabled and task.round_idx > 0:
                # Arrow: previous round's barrier released this task.
                tracer.flow(
                    flow_id(task),
                    Category.SYNC,
                    f"j{task.job_id} barrier",
                    src_track=job_track(task.job_id),
                    src_time=pool.barrier_time(task.job_id, task.round_idx - 1),
                    dst_track=gpu_track(executor.gpu_id),
                    dst_time=started.start,
                )
            engine.at(
                started.compute_end,
                EventType.TASK_COMPUTE_DONE,
                (executor.gpu_id, executor.started),
            )

        syncs_in_flight: dict[int, int] = {
            node.node_id: 0 for node in self.cluster.nodes
        }

        def on_gpu_check(event: Event) -> None:
            try_start(by_gpu[event.payload], event.time)

        def on_job_arrival(event: Event) -> None:
            for executor in executors:
                try_start(executor, event.time)

        def on_compute_done(event: Event) -> None:
            gpu_id, serial = event.payload
            executor = by_gpu[gpu_id]
            if executor.running is None or executor.started != serial:
                return  # stale completion of a crashed attempt
            started = in_flight.pop(executor.gpu_id)
            obs.metrics.gauge("sim.gpus_busy").set(len(in_flight))
            obs.metrics.sample("sim.gpus_busy", event.time)
            obs.metrics.counter("sim.tasks_completed").inc()
            obs.metrics.sample("sim.tasks_completed", event.time)
            task = started.assignment.task
            if tracer.enabled:
                track = gpu_track(executor.gpu_id)
                if started.switch_time > 0:
                    tracer.span(
                        Category.SWITCH,
                        f"switch→j{task.job_id}",
                        track=track,
                        start=started.start - started.switch_time,
                        end=started.start,
                        job=task.job_id,
                        retained_hit=started.retained_hit,
                    )
                tracer.span(
                    Category.SIM,
                    f"j{task.job_id} r{task.round_idx}",
                    track=track,
                    start=started.start,
                    end=event.time,
                    job=task.job_id,
                    round=task.round_idx,
                    slot=task.slot,
                    planned_start=planned_start[task],
                )
            telemetry.record_task(
                TaskRecord(
                    task=task,
                    gpu=executor.gpu_id,
                    planned_start=planned_start[task],
                    start=started.start,
                    switch_time=started.switch_time,
                    train_time=started.assignment.train_time,
                    sync_time=started.assignment.sync_time,
                    retained_hit=started.retained_hit,
                )
            )
            realized.add(
                TaskAssignment(
                    task=task,
                    gpu=executor.gpu_id,
                    start=started.start,
                    train_time=started.assignment.train_time,
                    sync_time=started.assignment.sync_time,
                )
            )
            assignment = executor.finish_running()
            sync_time = assignment.sync_time
            node_id = executor.device.node_id
            if self.nic_contention and sync_time > 0:
                syncs_in_flight[node_id] += 1
                sync_time *= syncs_in_flight[node_id]
            if tracer.enabled and sync_time > 0:
                tracer.span(
                    Category.SYNC,
                    f"sync j{task.job_id} r{task.round_idx}",
                    track=job_track(task.job_id),
                    start=event.time,
                    end=event.time + sync_time,
                    job=task.job_id,
                    round=task.round_idx,
                    gpu=executor.gpu_id,
                    slot=task.slot,
                )
            engine.at(
                event.time + sync_time,
                EventType.TASK_SYNC_DONE,
                (assignment.task, node_id, assignment.sync_time > 0),
            )
            # The GPU is free; sync overlaps the successor (§5.2).
            try_start(executor, event.time)

        def on_sync_done(event: Event) -> None:
            task, node_id, counted = event.payload
            if self.nic_contention and counted:
                syncs_in_flight[node_id] -= 1
            if pool.record_sync(task, event.time):
                if tracer.enabled:
                    tracer.instant(
                        Category.SYNC,
                        f"barrier j{task.job_id} r{task.round_idx}",
                        track=job_track(task.job_id),
                        time=event.time,
                        job=task.job_id,
                        round=task.round_idx,
                    )
                # The barrier opened: next-round tasks may be heads.
                for executor in executors:
                    try_start(executor, event.time)

        def on_gpu_failure(event: Event) -> None:
            executor = by_gpu[event.payload]
            if tracer.enabled:
                tracer.instant(
                    Category.FAULT,
                    "gpu failure",
                    track=gpu_track(executor.gpu_id),
                    time=event.time,
                    restart_delay_s=self.restart_delay_s,
                )
            if executor.running is not None:
                started = in_flight.pop(executor.gpu_id)
                obs.metrics.gauge("sim.gpus_busy").set(len(in_flight))
                obs.metrics.sample("sim.gpus_busy", event.time)
                wasted = max(0.0, event.time - started.start)
                telemetry.record_abort(wasted)
                executor.abort_running()
            elif not executor.done:
                # idle crash: device state is still lost
                executor.memory.flush()
                executor.prev_job = None
                executor.prev_model = None
            # Down until the restart check: arrivals and barriers in the
            # window must not start the GPU early.
            restart = event.time + self.restart_delay_s
            executor.down_until = max(executor.down_until, restart)
            engine.at(restart, EventType.GPU_CHECK, executor.gpu_id)

        engine.on(EventType.GPU_CHECK, on_gpu_check)
        engine.on(EventType.JOB_ARRIVAL, on_job_arrival)
        engine.on(EventType.TASK_COMPUTE_DONE, on_compute_done)
        engine.on(EventType.TASK_SYNC_DONE, on_sync_done)
        engine.on(EventType.GPU_FAILURE, on_gpu_failure)

        # Seed events: arrivals + initial checks + injected failures.
        for job in instance.jobs:
            engine.at(job.arrival, EventType.JOB_ARRIVAL, job.job_id)
        for executor in executors:
            engine.at(0.0, EventType.GPU_CHECK, executor.gpu_id)
        for time, gpu_id in self.failures:
            engine.at(time, EventType.GPU_FAILURE, gpu_id)
        for task, time in releases.items():
            engine.at(time, EventType.GPU_CHECK, plan[task].gpu)

        # Exact volume: one arrival per job, one check per GPU, one compute
        # and one sync completion per task; each failure adds at most one
        # stale completion, one re-run completion and one recovery check;
        # each release one check.
        budget = (
            2 * max(1, instance.num_tasks)
            + instance.num_jobs
            + instance.num_gpus
            + 4 * len(self.failures)
            + len(releases)
            + 16
        )
        processed = engine.run(max_events=budget)

        if not pool.all_jobs_complete():
            unfinished = [
                j.job_id
                for j in instance.jobs
                if not pool.job_complete(j.job_id)
            ]
            raise SimulationError(
                f"simulation drained with unfinished jobs {unfinished[:5]}"
            )
        for executor in executors:
            if not executor.done:  # pragma: no cover - defensive
                raise SimulationError(
                    f"GPU {executor.gpu_id} still has queued tasks"
                )

        completions = {
            job.job_id: pool.completion_time(job.job_id)
            for job in instance.jobs
        }
        metrics = metrics_from_completions(
            instance.jobs, completions, makespan=telemetry.makespan
        )
        return SimResult(
            realized=realized,
            metrics=metrics,
            telemetry=telemetry,
            pool=pool,
            events_processed=processed,
        )


def simulate_plan(
    cluster: Cluster,
    instance: ProblemInstance,
    plan: Schedule,
    *,
    switch_mode: SwitchMode = SwitchMode.HARE,
    switch_model: SwitchCostModel | None = None,
    retention_enabled: bool | None = None,
    jitter_sigma: float = 0.0,
    jitter_seed: int = 0,
    nic_contention: bool = False,
    failures: list[tuple[float, int]] | None = None,
    restart_delay_s: float = 1.0,
    slowdowns: list[tuple[float, float, int, float]] | None = None,
    releases: Mapping[TaskRef, float] | None = None,
) -> SimResult:
    """Convenience wrapper: build a simulator and run one plan."""
    sim = ClusterSimulator(
        cluster=cluster,
        instance=instance,
        switch_mode=switch_mode,
        switch_model=switch_model,
        retention_enabled=retention_enabled,
        jitter_sigma=jitter_sigma,
        jitter_seed=jitter_seed,
        nic_contention=nic_contention,
        failures=failures or [],
        restart_delay_s=restart_delay_s,
        slowdowns=slowdowns or [],
        releases=releases or {},
    )
    return sim.run(plan)
