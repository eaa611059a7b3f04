"""Time-sliced scheduling — the Gandiva/Gavel operating mode, as contrast.

§8 notes that Gandiva_fair and Gavel "schedule jobs based on given time
slice length. Such a coarse-grained scheduling manner leaves a large
optimization space for performance improvement. Moreover, they ignore the
task switching cost." This scheduler implements that operating mode so the
claim can be measured:

* time advances in fixed quanta of ``quantum_s`` seconds;
* at each quantum boundary the scheduler re-allocates GPUs to arrived,
  unfinished jobs by weighted round-robin (heterogeneity-aware assignment
  of the fastest free GPUs to the longest-starved jobs);
* within its quantum a job runs rounds gang-style on its allocated GPUs;
  a round that does not fit entirely before the boundary is not started
  (rounds are atomic — this is the quantization loss);
* jobs are preempted at boundaries, which is exactly the frequent
  cross-job switching whose cost these systems ignore (charged by the DES
  replay, not by this planner — as in the original systems' own models).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import InfeasibleProblemError
from ..core.job import ProblemInstance
from ..core.schedule import Schedule, ScheduleRow, schedule_from_rows
from .base import Scheduler, check_gang_feasible
from .registry import register


@register("gavel_ts", summary="Quantum-based weighted round-robin gangs")
@dataclass(slots=True)
class TimeSliceScheduler(Scheduler):
    """Quantum-based weighted round-robin gang scheduler."""

    quantum_s: float = 60.0
    name: str = field(default="Gavel_TS", init=False)

    def __post_init__(self) -> None:
        if self.quantum_s <= 0:
            raise InfeasibleProblemError("quantum_s must be > 0")

    def schedule(self, instance: ProblemInstance) -> Schedule:
        check_gang_feasible(instance)
        rows: list[ScheduleRow] = []
        rounds_done = {j.job_id: 0 for j in instance.jobs}
        #: per-job weighted service received (for the round-robin priority)
        service = {j.job_id: 0.0 for j in instance.jobs}
        t = 0.0
        guard = 0
        total_rounds = sum(j.num_rounds for j in instance.jobs)
        limit = 100 * total_rounds + 1000
        while any(
            rounds_done[j.job_id] < j.num_rounds for j in instance.jobs
        ):
            guard += 1
            if guard > limit:  # pragma: no cover - defensive
                raise InfeasibleProblemError(
                    "time-slice scheduler failed to progress; "
                    "quantum too small for the workload's round times?"
                )
            boundary = t + self.quantum_s
            active = [
                j for j in instance.jobs
                if j.arrival <= t + 1e-12
                and rounds_done[j.job_id] < j.num_rounds
            ]
            if not active:
                future = [
                    j.arrival for j in instance.jobs
                    if j.arrival > t + 1e-12
                    and rounds_done[j.job_id] < j.num_rounds
                ]
                if not future:  # pragma: no cover - loop guard above
                    break
                t = max(boundary, min(future))
                continue
            # least weighted service first (weighted round-robin fairness)
            active.sort(key=lambda j: (service[j.job_id] / j.weight, j.job_id))
            gpu_free = [t] * instance.num_gpus
            free_set = set(range(instance.num_gpus))
            progressed = False
            for job in active:
                if len(free_set) < job.sync_scale:
                    continue
                # fastest available GPUs for this job
                chosen = sorted(
                    free_set,
                    key=lambda m: (instance.task_time(job.job_id, m), m),
                )[: job.sync_scale]
                round_time = max(
                    instance.task_time(job.job_id, m) for m in chosen
                )
                start = t
                ran = 0
                while (
                    rounds_done[job.job_id] < job.num_rounds
                    and start + round_time <= boundary + 1e-12
                ):
                    r = rounds_done[job.job_id]
                    rows.extend(
                        (job.job_id, r, slot, m, start)
                        for slot, m in enumerate(chosen)
                    )
                    rounds_done[job.job_id] += 1
                    service[job.job_id] += job.sync_scale * round_time
                    start += round_time
                    ran += 1
                if ran:
                    progressed = True
                    free_set -= set(chosen)
                    for m in chosen:
                        gpu_free[m] = start
            if not progressed:
                # nothing fits in a quantum: stretch this one to fit the
                # neediest job's single round (prevents livelock when the
                # quantum is shorter than a round)
                job = active[0]
                chosen = sorted(
                    range(instance.num_gpus),
                    key=lambda m: (instance.task_time(job.job_id, m), m),
                )[: job.sync_scale]
                round_time = max(
                    instance.task_time(job.job_id, m) for m in chosen
                )
                r = rounds_done[job.job_id]
                rows.extend(
                    (job.job_id, r, slot, m, t)
                    for slot, m in enumerate(chosen)
                )
                rounds_done[job.job_id] += 1
                service[job.job_id] += job.sync_scale * round_time
                t += round_time
                continue
            t = boundary
        return schedule_from_rows(instance, rows)
