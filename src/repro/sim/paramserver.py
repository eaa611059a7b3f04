"""Parameter-server bookkeeping: per-job round barriers (§2.1, §3).

The scheduler instantiates one logical parameter server per job (the
implementation's ``Hare_Parameter_Server``); workers push gradients after
each task and the next round may start only when every task of the current
round has synchronized. This module tracks exactly that: per-(job, round)
completion counts and barrier times.
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
    _done: dict[tuple[int, int], int] = field(default_factory=dict)
    _barrier: dict[tuple[int, int], float] = field(default_factory=dict)
    _synced_tasks: set[TaskRef] = field(default_factory=set)
    total_syncs: int = 0

    def record_sync(self, task: TaskRef, time: float) -> bool:
        """A task's gradients reached the PS at *time*.

        Returns True when this completes the round (the barrier opens).
        """
        synced = self._synced_tasks
        before = len(synced)
        synced.add(task)
        if len(synced) == before:
            raise SimulationError(f"{task} synchronized twice")
        scale = self.instance.jobs[task.job_id].sync_scale
        key = (task.job_id, task.round_idx)
        count = self._done.get(key, 0) + 1
        if count > scale:
            raise SimulationError(
                f"round {key} over-synchronized: {count}/{scale}"
            )
        self._done[key] = count
        self._barrier[key] = max(self._barrier.get(key, 0.0), time)
        self.total_syncs += 1
        return count == scale

    def round_complete(self, job_id: int, round_idx: int) -> bool:
        if round_idx < 0:
            return True
        job = self.instance.jobs[job_id]
        return self._done.get((job_id, round_idx), 0) == job.sync_scale

    def barrier_time(self, job_id: int, round_idx: int) -> float:
        """Time the round's last gradient landed (undefined unless complete)."""
        if round_idx < 0:
            return self.instance.jobs[job_id].arrival
        key = (job_id, round_idx)
        if not self.round_complete(job_id, round_idx):
            raise SimulationError(f"barrier_time of incomplete round {key}")
        return self._barrier[key]

    def job_complete(self, job_id: int) -> bool:
        job = self.instance.jobs[job_id]
        return self.round_complete(job_id, job.num_rounds - 1)

    def completion_time(self, job_id: int) -> float:
        job = self.instance.jobs[job_id]
        return self.barrier_time(job_id, job.num_rounds - 1)

    def all_jobs_complete(self) -> bool:
        return all(self.job_complete(j.job_id) for j in self.instance.jobs)
