"""Intra-job synchronization schemes (§2.2.3, Fig. 4).

Three ways to launch a round of ``sync_scale`` tasks on a cluster whose
GPUs become free at known times:

* **scale-fixed** (Tiresias/Gandiva): wait until ``sync_scale`` GPUs are
  simultaneously free, run all tasks strictly in parallel;
* **scale-adaptive** (Optimus/Gavel/AntMan): run with however many GPUs are
  free right now — flexible, but the number of gradients aggregated per
  round changes, so convergence guarantees are lost;
* **relaxed scale-fixed** (Hare): always exactly ``sync_scale`` tasks, but
  they may stack on fewer GPUs and run back-to-back — the round barrier only
  needs all of them *finished*.

The planners here answer the Fig. 4 question — when does a newly arrived
job's first round complete under each scheme? — given per-GPU free times
and a per-GPU task duration.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from ..core.errors import ConfigurationError
from ..core.types import SyncScheme


@dataclass(frozen=True, slots=True)
class RoundPlan:
    """One planned round: per-task (gpu, start, end) and the barrier."""

    scheme: SyncScheme
    placements: tuple[tuple[int, float, float], ...]
    #: Number of gradients aggregated at the barrier.
    effective_scale: int

    @property
    def start(self) -> float:
        return min(p[1] for p in self.placements)

    @property
    def barrier(self) -> float:
        return max(p[2] for p in self.placements)


def _validate(free_times: Sequence[float], task_time: Sequence[float], scale: int) -> None:
    if len(free_times) != len(task_time):
        raise ConfigurationError("free_times and task_time lengths differ")
    if len(free_times) == 0:
        raise ConfigurationError("need at least one GPU")
    if scale < 1:
        raise ConfigurationError("sync scale must be >= 1")


def plan_scale_fixed(
    free_times: Sequence[float],
    task_time: Sequence[float],
    scale: int,
    *,
    arrival: float = 0.0,
) -> RoundPlan:
    """Strict gang: wait for *scale* simultaneously free GPUs.

    The round starts when the ``scale``-th earliest GPU frees (all chosen
    GPUs sit idle until then — Fig. 4(a)'s wasted space).
    """
    _validate(free_times, task_time, scale)
    if scale > len(free_times):
        raise ConfigurationError(
            f"scale {scale} exceeds {len(free_times)} GPUs"
        )
    order = sorted(range(len(free_times)), key=lambda m: (free_times[m], m))
    chosen = order[:scale]
    start = max(arrival, max(free_times[m] for m in chosen))
    placements = tuple(
        (m, start, start + task_time[m]) for m in chosen
    )
    return RoundPlan(
        scheme=SyncScheme.SCALE_FIXED,
        placements=placements,
        effective_scale=scale,
    )


def plan_relaxed_scale_fixed(
    free_times: Sequence[float],
    task_time: Sequence[float],
    scale: int,
    *,
    arrival: float = 0.0,
) -> RoundPlan:
    """Hare's scheme: *scale* tasks list-scheduled onto whatever frees first.

    Tasks may stack on one GPU; the barrier is the max task end — typically
    earlier than strict gang when GPU free times are skewed (Fig. 4(b)).
    """
    _validate(free_times, task_time, scale)
    heap = [(max(arrival, ft), m) for m, ft in enumerate(free_times)]
    heapq.heapify(heap)
    placements = []
    for _ in range(scale):
        avail, m = heapq.heappop(heap)
        end = avail + task_time[m]
        placements.append((m, avail, end))
        heapq.heappush(heap, (end, m))
    return RoundPlan(
        scheme=SyncScheme.RELAXED_SCALE_FIXED,
        placements=tuple(placements),
        effective_scale=scale,
    )


def plan_scale_adaptive(
    free_times: Sequence[float],
    task_time: Sequence[float],
    scale: int,
    *,
    arrival: float = 0.0,
    now: float | None = None,
) -> RoundPlan:
    """Adaptive: run immediately on the GPUs free at *now*, one task each.

    The effective scale is the number of currently free GPUs clamped to
    [1, scale]; if none is free the round waits for the first.
    """
    _validate(free_times, task_time, scale)
    t = arrival if now is None else max(now, arrival)
    free_now = [m for m, ft in enumerate(free_times) if ft <= t + 1e-12]
    if not free_now:
        first = min(range(len(free_times)), key=lambda m: free_times[m])
        t = free_times[first]
        free_now = [m for m, ft in enumerate(free_times) if ft <= t + 1e-12]
    chosen = sorted(free_now, key=lambda m: (task_time[m], m))[:scale]
    placements = tuple((m, t, t + task_time[m]) for m in chosen)
    return RoundPlan(
        scheme=SyncScheme.SCALE_ADAPTIVE,
        placements=placements,
        effective_scale=len(chosen),
    )

