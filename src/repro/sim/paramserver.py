"""Parameter-server bookkeeping: per-job round barriers (§2.1, §3).

The scheduler instantiates one logical parameter server per job (the
implementation's ``Hare_Parameter_Server``); workers push gradients after
each task and the next round may start only when every task of the current
round has synchronized. This module tracks exactly that: per-(job, round)
completion counts and barrier times.

The state is flat: round ``r`` of job ``j`` is round id
``round_base[j] + r``, and a task is its canonical index
(``instance.all_tasks()`` order). The replay loop updates the lists in
place; :meth:`ParameterServerPool.record_sync` is the same update for one
:class:`~repro.core.types.TaskRef`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import SimulationError
from ..core.job import ProblemInstance
from ..core.types import TaskRef


@dataclass(slots=True)
class ParameterServerPool:
    """Round-synchronization state for every job."""

    instance: ProblemInstance
    total_syncs: int = 0
    #: first round id of each job, then the number of rounds
    round_base: list[int] = field(init=False)
    #: syncs landed per round id
    done: list[int] = field(init=False)
    #: latest sync per round id: the barrier time once the round completes
    barrier: list[float] = field(init=False)
    #: per canonical task: has it synchronized
    synced: bytearray = field(init=False)
    #: first canonical task index of each job
    _task_base: list[int] = field(init=False)

    def __post_init__(self) -> None:
        rounds, tasks = [0], [0]
        for job in self.instance.jobs:
            rounds.append(rounds[-1] + job.num_rounds)
            tasks.append(tasks[-1] + job.num_rounds * job.sync_scale)
        self.round_base, self._task_base = rounds, tasks
        self.done = [0] * rounds[-1]
        self.barrier = [0.0] * rounds[-1]
        self.synced = bytearray(tasks[-1])

    def record_sync(self, task: TaskRef, time: float) -> bool:
        """A task's gradients reached the PS at *time*.

        Returns True when this completes the round (the barrier opens).
        """
        j, r = task.job_id, task.round_idx
        job = self.instance.jobs[j]
        scale = job.sync_scale
        if not (0 <= r < job.num_rounds and 0 <= task.slot < scale):
            raise SimulationError(f"{task} is not a task of job {j}")
        k = self._task_base[j] + r * scale + task.slot
        if self.synced[k]:
            raise SimulationError(f"{task} synchronized twice")
        self.synced[k] = 1
        rid = self.round_base[j] + r
        count = self.done[rid] + 1
        if count > scale:
            raise SimulationError(
                f"round {(j, r)} over-synchronized: {count}/{scale}"
            )
        self.done[rid] = count
        if time > self.barrier[rid]:
            self.barrier[rid] = time
        self.total_syncs += 1
        return count == scale

    def round_complete(self, job_id: int, round_idx: int) -> bool:
        if round_idx < 0:
            return True
        job = self.instance.jobs[job_id]
        if round_idx >= job.num_rounds:
            return False
        rid = self.round_base[job_id] + round_idx
        return self.done[rid] == job.sync_scale

    def barrier_time(self, job_id: int, round_idx: int) -> float:
        """Time the round's last gradient landed (undefined unless complete)."""
        if round_idx < 0:
            return self.instance.jobs[job_id].arrival
        if not self.round_complete(job_id, round_idx):
            raise SimulationError(
                f"barrier_time of incomplete round {(job_id, round_idx)}"
            )
        return self.barrier[self.round_base[job_id] + round_idx]

    def job_complete(self, job_id: int) -> bool:
        job = self.instance.jobs[job_id]
        return self.round_complete(job_id, job.num_rounds - 1)

    def completion_time(self, job_id: int) -> float:
        job = self.instance.jobs[job_id]
        return self.barrier_time(job_id, job.num_rounds - 1)

    def all_jobs_complete(self) -> bool:
        return all(self.job_complete(j.job_id) for j in self.instance.jobs)

    # ------------------------------------------------------------------
    # Keyed views of the flat state, built on read.
    # ------------------------------------------------------------------
    def _rounds_with_syncs(self):
        for job in self.instance.jobs:
            base = self.round_base[job.job_id]
            for r in range(job.num_rounds):
                if self.done[base + r]:
                    yield (job.job_id, r), base + r

    @property
    def _done(self) -> dict[tuple[int, int], int]:
        """Syncs landed per ``(job, round)``, for rounds with any."""
        return {key: self.done[i] for key, i in self._rounds_with_syncs()}

    @property
    def _barrier(self) -> dict[tuple[int, int], float]:
        """Latest sync per ``(job, round)``, for rounds with any."""
        return {key: self.barrier[i] for key, i in self._rounds_with_syncs()}

    @property
    def _synced_tasks(self) -> set[TaskRef]:
        """Every task that has synchronized."""
        return {
            task
            for task, synced in zip(self.instance.all_tasks(), self.synced)
            if synced
        }
