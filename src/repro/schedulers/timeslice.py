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
        arrival, weight = instance.arrival.tolist(), instance.weight.tolist()
        rounds, scale = (
            instance.num_rounds.tolist(), instance.sync_scale.tolist()
        )
        rounds_done = [0] * instance.num_jobs
        #: per-job weighted service received (for the round-robin priority)
        service = [0.0] * instance.num_jobs
        t = 0.0
        guard = 0
        limit = 100 * sum(rounds) + 1000
        while rounds_done != rounds:
            guard += 1
            if guard > limit:  # pragma: no cover - defensive
                raise InfeasibleProblemError(
                    "time-slice scheduler failed to progress; "
                    "quantum too small for the workload's round times?"
                )
            boundary = t + self.quantum_s
            waiting = [
                n for n, done in enumerate(rounds_done) if done < rounds[n]
            ]
            active = [n for n in waiting if arrival[n] <= t + 1e-12]
            if not active:
                future = [a for n in waiting if (a := arrival[n]) > t + 1e-12]
                if not future:  # pragma: no cover - loop guard above
                    break
                t = max(boundary, min(future))
                continue
            # least weighted service first (weighted round-robin fairness)
            active.sort(key=lambda n: (service[n] / weight[n], n))
            gpu_free = [t] * instance.num_gpus
            free_set = set(range(instance.num_gpus))
            progressed = False
            for n in active:
                if len(free_set) < scale[n]:
                    continue
                # fastest available GPUs for this job
                chosen = sorted(
                    free_set, key=lambda m: (instance.task_time(n, m), m),
                )[: scale[n]]
                round_time = max(instance.task_time(n, m) for m in chosen)
                start = t
                ran = 0
                while (
                    rounds_done[n] < rounds[n]
                    and start + round_time <= boundary + 1e-12
                ):
                    r = rounds_done[n]
                    rows.extend(
                        (n, r, slot, m, start) for slot, m in enumerate(chosen)
                    )
                    rounds_done[n] += 1
                    service[n] += scale[n] * round_time
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
                n = active[0]
                chosen = sorted(
                    range(instance.num_gpus),
                    key=lambda m: (instance.task_time(n, m), m),
                )[: scale[n]]
                round_time = max(instance.task_time(n, m) for m in chosen)
                r = rounds_done[n]
                rows.extend((n, r, d, m, t) for d, m in enumerate(chosen))
                rounds_done[n] += 1
                service[n] += scale[n] * round_time
                t += round_time
                continue
            t = boundary
        return schedule_from_rows(instance, rows)
