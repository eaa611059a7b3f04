"""Per-GPU executor: runs its task sequence with realistic switch costs.

Each executor owns one GPU, the ordered task sequence the scheduler shipped
to it (Fig. 9), a :class:`~repro.switching.memory.GpuMemoryManager` and a
:class:`~repro.switching.costmodel.SwitchCostModel`. The executor starts its
head task as soon as (a) the GPU is idle, (b) the task's job has arrived and
(c) the previous round's barrier has opened — charging the appropriate
switch cost when the incoming task belongs to a different job than the
previous one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..cluster.node import GPUDevice
from ..core.errors import SimulationError
from ..core.job import ProblemInstance
from ..core.schedule import TaskAssignment
from ..core.types import SwitchMode
from ..switching.costmodel import SwitchCostModel
from ..switching.memory import GpuMemoryManager
from ..workload.models import spec_or_synthetic


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
