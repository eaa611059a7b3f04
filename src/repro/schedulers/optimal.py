"""Brute-force optimal scheduling for tiny instances.

Used by the theory audits (Theorem 4) and tests: enumerate every global
priority order and every task→GPU assignment, build the active schedule for
each combination, and keep the best objective. Any optimal schedule of
Hare_Sched is an *active* schedule (no task can start earlier without
reordering), and every active schedule is generated by list-scheduling some
priority permutation with some fixed assignment, so the enumeration is
exhaustive for the instance sizes it accepts.
"""

from __future__ import annotations

from itertools import permutations, product

from ..core.errors import InfeasibleProblemError
from ..core.job import ProblemInstance
from ..core.schedule import Schedule, ScheduleRow, schedule_from_rows
from ..core.types import TaskRef

#: Enumeration explodes as M^T · T!; refuse beyond this many tasks.
MAX_TASKS = 6


def _build(
    instance: ProblemInstance,
    arrival: list[float],
    scales: list[int],
    order: tuple[TaskRef, ...],
    assignment: dict[TaskRef, int],
) -> tuple[list[ScheduleRow], dict[tuple[int, int], float]] | None:
    """Rows and round barriers of the active schedule for (π, y); None if
    π violates round precedence. *arrival* and *scales* are the job
    table's columns as lists."""
    rows: list[ScheduleRow] = []
    phi = [0.0] * instance.num_gpus
    barrier: dict[tuple[int, int], float] = {}
    count: dict[tuple[int, int], int] = {}
    for task in order:
        if task.round_idx == 0:
            avail = arrival[task.job_id]
        else:
            key = (task.job_id, task.round_idx - 1)
            if count.get(key, 0) != scales[task.job_id]:
                return None
            avail = barrier[key]
        m = assignment[task]
        start = max(avail, phi[m])
        tc = instance.tc(task.job_id, m)
        ts = instance.ts(task.job_id, m)
        rows.append((task.job_id, task.round_idx, task.slot, m, start))
        phi[m] = start + tc
        rkey = (task.job_id, task.round_idx)
        count[rkey] = count.get(rkey, 0) + 1
        barrier[rkey] = max(barrier.get(rkey, 0.0), start + tc + ts)
    return rows, barrier


def brute_force_optimal(instance: ProblemInstance) -> Schedule:
    """The minimum total weighted completion time schedule (tiny instances).

    Each candidate is scored from its round barriers — ``Σ_n w_n`` times
    the barrier of job n's last round, the schedule's
    :attr:`~repro.core.metrics.ScheduleMetrics.total_weighted_completion`
    — and only the winner is built into a :class:`Schedule`.
    """
    tasks = list(instance.all_tasks())
    if len(tasks) > MAX_TASKS:
        raise InfeasibleProblemError(
            f"brute force limited to {MAX_TASKS} tasks, got {len(tasks)}"
        )
    best: list[ScheduleRow] | None = None
    best_obj = float("inf")
    gpus = range(instance.num_gpus)
    arrival = instance.arrival.tolist()
    scales = instance.sync_scale.tolist()
    last = [
        (weight, (n, rounds - 1))
        for n, (weight, rounds) in enumerate(
            zip(instance.weight.tolist(), instance.num_rounds.tolist())
        )
    ]
    for order in permutations(tasks):
        for combo in product(gpus, repeat=len(tasks)):
            assignment = dict(zip(order, combo))
            built = _build(instance, arrival, scales, order, assignment)
            if built is None:
                continue
            rows, barrier = built
            obj = sum(w * barrier[key] for w, key in last)
            if obj < best_obj - 1e-12:
                best_obj = obj
                best = rows
    if best is None:  # pragma: no cover - always at least one feasible
        raise InfeasibleProblemError("no feasible schedule found")
    return schedule_from_rows(instance, best)
