"""Test oracle: the discrete-event replay as an engine of event handlers.

:func:`reference_run` is the straightforward loop that
:meth:`repro.sim.ClusterSimulator.run` replaced: a generic
:class:`Engine` dispatching :class:`~repro.sim.events.Event` objects to one
handler per event type, an object-per-GPU :class:`GpuExecutor` state
machine, and a scan of *every* executor at each job arrival and barrier
opening. The equivalence suite (``test_replay_equivalence.py``) pins the
production loop to it: records, realized schedule, metrics, telemetry,
parameter-server state, event counts, and every tracer and metric call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.node import GPUDevice
from repro.core.errors import SimulationError
from repro.core.job import ProblemInstance
from repro.core.metrics import metrics_from_completions
from repro.core.schedule import Schedule, TaskAssignment
from repro.core.types import SwitchMode
from repro.obs import Category, gpu_track, job_track
from repro.obs import current as obs_current
from repro.sim import ClusterSimulator, SimResult
from repro.sim.events import Event, EventQueue, EventType
from repro.sim.paramserver import ParameterServerPool
from repro.sim.telemetry import TaskRecord, Telemetry
from repro.switching.costmodel import SwitchCostModel
from repro.switching.memory import GpuMemoryManager
from repro.workload.models import spec_or_synthetic

Handler = Callable[[Event], None]

#: Track name engine-level events appear under in exported traces.
ENGINE_TRACK = "engine"


@dataclass(slots=True)
class Engine:
    """Event loop with per-EventType handlers and an event budget."""

    queue: EventQueue = field(default_factory=EventQueue)
    _handlers: dict[EventType, Handler] = field(default_factory=dict)
    processed: int = 0

    @property
    def now(self) -> float:
        return self.queue.now

    def on(self, event_type: EventType, handler: Handler) -> None:
        """Register *handler* for *event_type* (one handler per type)."""
        if event_type in self._handlers:
            raise SimulationError(
                f"handler for {event_type.name} already registered"
            )
        self._handlers[event_type] = handler

    def push(self, event: Event) -> None:
        self.queue.push(event)

    def at(self, time: float, event_type: EventType, payload=None) -> None:
        """Convenience: push an event at an absolute time."""
        self.push(Event(time=time, type=event_type, payload=payload))

    def run(self, *, max_events: int | None = None) -> int:
        """Drain the queue; returns the number of events processed.

        ``max_events`` bounds the run (a livelock guard); exceeding it
        raises :class:`~repro.core.errors.SimulationError`. The budget is
        checked against *newly pushed* work, so handlers that enqueue
        follow-up events are fine as long as total volume stays bounded.

        When an observability context is active, every dispatched event
        lands as a ``sim`` instant on the ``engine`` track and the total
        event volume increments the ``sim.engine_events`` counter.
        """
        obs = obs_current()
        tracer = obs.tracer
        before = self.processed
        while self.queue:
            if max_events is not None and self.processed >= max_events:
                raise SimulationError(
                    f"event budget {max_events} exceeded; likely livelock"
                )
            event = self.queue.pop()
            self.processed += 1
            handler = self._handlers.get(event.type)
            if handler is None:
                raise SimulationError(
                    f"no handler registered for {event.type.name}"
                )
            if tracer.enabled:
                tracer.instant(
                    Category.SIM,
                    event.type.name,
                    track=ENGINE_TRACK,
                    time=event.time,
                )
            handler(event)
        obs.metrics.counter("sim.engine_events").inc(self.processed - before)
        return self.processed


@dataclass(frozen=True, slots=True)
class StartedTask:
    """What happened when an executor started a task."""

    assignment: TaskAssignment
    start: float
    switch_time: float
    retained_hit: bool

    @property
    def compute_end(self) -> float:
        return self.start + self.assignment.train_time


@dataclass(slots=True)
class GpuExecutor:
    """State machine for one GPU."""

    device: GPUDevice
    instance: ProblemInstance
    queue: deque[TaskAssignment]
    switch_model: SwitchCostModel
    memory: GpuMemoryManager
    busy_until: float = 0.0
    running: TaskAssignment | None = None
    prev_job: int | None = None
    prev_model: str | None = None
    started: int = 0
    aborted: int = 0
    #: A transient failure takes the GPU down until its restart check;
    #: nothing starts on it before then.
    down_until: float = 0.0

    @property
    def gpu_id(self) -> int:
        return self.device.gpu_id

    @property
    def idle(self) -> bool:
        return self.running is None

    @property
    def done(self) -> bool:
        return self.running is None and not self.queue

    def head(self) -> TaskAssignment | None:
        return self.queue[0] if self.queue else None

    # ------------------------------------------------------------------
    def head_ready(self, now: float, barrier_open) -> bool:
        """Can the head task start at *now*?

        *barrier_open(job_id, round_idx)* tells whether a round's barrier
        has opened (round -1 is always open).
        """
        head = self.head()
        if head is None or not self.idle or now < self.down_until:
            return False
        job = self.instance.jobs[head.task.job_id]
        if job.arrival > now + 1e-12:
            return False
        return barrier_open(head.task.job_id, head.task.round_idx - 1)

    def start_head(self, now: float) -> StartedTask:
        """Begin the head task; returns realized timings."""
        if not self.idle:
            raise SimulationError(
                f"GPU {self.gpu_id} start_head while busy"
            )
        head = self.queue.popleft()
        job = self.instance.jobs[head.task.job_id]
        same_job = self.prev_job == head.task.job_id
        first_task = self.prev_job is None

        spec = spec_or_synthetic(job.model)
        decision = self.memory.begin_task(
            job.model, spec.training_memory_bytes()
        )
        if same_job or first_task:
            # Same-job successors share context; the very first task of a
            # GPU loads during the idle warm-up (contexts pre-created).
            switch = (
                0.0 if first_task else self.switch_model.same_job_cost_s
            )
            retained = decision.retained_hit
        else:
            retained = (
                decision.retained_hit
                and self.switch_model.mode is SwitchMode.HARE
            )
            switch = self.switch_model.cost(
                job.model,
                self.device.spec,
                same_job=False,
                retained_hit=retained,
            )
        start = now + switch
        self.running = head
        self.busy_until = start + head.train_time
        self.prev_job = head.task.job_id
        self.prev_model = job.model
        self.started += 1
        return StartedTask(
            assignment=head,
            start=start,
            switch_time=switch,
            retained_hit=retained,
        )

    def abort_running(self) -> TaskAssignment:
        """Crash recovery: the running task is lost and must re-run.

        The task returns to the head of the queue; GPU memory is wiped
        (the crash clears the device), so the re-run pays a cold switch.
        Returns the aborted assignment.
        """
        if self.running is None:
            raise SimulationError(f"GPU {self.gpu_id} abort with no task")
        task = self.running
        self.running = None
        self.memory.end_task(retain_bytes=0.0)
        self.memory.flush()
        self.queue.appendleft(task)
        self.prev_job = None  # context lost: next start is a fresh load
        self.prev_model = None
        self.aborted += 1
        return task

    def finish_running(self) -> TaskAssignment:
        """Mark the running task's compute as finished; frees the GPU."""
        if self.running is None:
            raise SimulationError(f"GPU {self.gpu_id} finish with no task")
        task = self.running
        job = self.instance.jobs[task.task.job_id]
        spec = spec_or_synthetic(job.model)
        retain = (
            spec.model_bytes
            if self.switch_model.mode is SwitchMode.HARE
            else 0.0
        )
        self.memory.end_task(retain_bytes=retain)
        self.running = None
        return task


def build_executors(
    instance: ProblemInstance,
    devices: list[GPUDevice],
    sequences: dict[int, list[TaskAssignment]],
    switch_mode: SwitchMode,
    *,
    switch_model: SwitchCostModel | None = None,
    retention_enabled: bool | None = None,
) -> list[GpuExecutor]:
    """One executor per device, loaded with its planned sequence."""
    model = switch_model or SwitchCostModel(mode=switch_mode)
    if model.mode is not switch_mode:
        raise SimulationError(
            f"switch model mode {model.mode} != requested {switch_mode}"
        )
    if retention_enabled is None:
        retention_enabled = switch_mode is SwitchMode.HARE
    executors = []
    for device in devices:
        seq = sequences.get(device.gpu_id, [])
        executors.append(
            GpuExecutor(
                device=device,
                instance=instance,
                queue=deque(seq),
                switch_model=model,
                memory=GpuMemoryManager(
                    capacity_bytes=device.spec.memory_bytes,
                    retention_enabled=retention_enabled,
                ),
            )
        )
    return executors


def _slowdown_factor(sim: ClusterSimulator, gpu_id: int, at: float) -> float:
    factor = 1.0
    for start, end, gpu, f in sim.slowdowns:
        if gpu == gpu_id and start <= at < end:
            factor = max(factor, f)
    return factor


def reference_run(sim: ClusterSimulator, plan: Schedule) -> SimResult:
    """``ClusterSimulator.run`` as one handler per event type on an
    :class:`Engine`."""
    instance = sim.instance
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
    if sim.jitter_sigma > 0:
        sequences = sim._jitter(sequences)
    executors = build_executors(
        instance,
        list(sim.cluster.devices()),
        sequences,
        sim.switch_mode,
        switch_model=sim.switch_model,
        retention_enabled=sim.retention_enabled,
    )
    by_gpu: dict[int, GpuExecutor] = {e.gpu_id: e for e in executors}
    planned_start = {a.task: a.start for a in plan.assignments.values()}

    def barrier_open(job_id: int, round_idx: int) -> bool:
        return pool.round_complete(job_id, round_idx)

    #: in-flight attempt per GPU (recorded only if it completes)
    in_flight: dict[int, object] = {}

    releases = sim.releases
    #: try_start calls, reported as ``SimResult.wakeups``
    attempts = [0]

    def try_start(executor: GpuExecutor, now: float) -> None:
        attempts[0] += 1
        if not executor.head_ready(now, barrier_open):
            return
        if releases and releases.get(executor.head().task, now) > now:
            return  # not shipped yet: its GPU_CHECK wakes it
        started = executor.start_head(now)
        factor = _slowdown_factor(sim, executor.gpu_id, started.start)
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
        node.node_id: 0 for node in sim.cluster.nodes
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
        assignment = executor.finish_running()
        sync_time = assignment.sync_time
        node_id = executor.device.node_id
        if sim.nic_contention and sync_time > 0:
            syncs_in_flight[node_id] += 1
            sync_time *= syncs_in_flight[node_id]
        telemetry.record_task(
            TaskRecord(
                task=task,
                gpu=executor.gpu_id,
                planned_start=planned_start[task],
                start=started.start,
                switch_time=started.switch_time,
                train_time=started.assignment.train_time,
                sync_time=sync_time,
                retained_hit=started.retained_hit,
            )
        )
        realized.add(
            TaskAssignment(
                task=task,
                gpu=executor.gpu_id,
                start=started.start,
                train_time=started.assignment.train_time,
                sync_time=sync_time,
            )
        )
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
        if sim.nic_contention and counted:
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
                restart_delay_s=sim.restart_delay_s,
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
        restart = event.time + sim.restart_delay_s
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
    for time, gpu_id in sim.failures:
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
        + 4 * len(sim.failures)
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
        wakeups=attempts[0],
    )
