"""Scheduling metrics: weighted JCT, makespan, CDFs, utilization.

The paper's headline metric is the **total weighted job completion time**
``Σ_n w_n · C_n`` (the Hare_Sched objective); Fig. 13 additionally reports a
CDF over per-job completion times. We expose both absolute completion times
``C_n`` and flow times (``C_n − a_n``, commonly called JCT) because the CDF
figure counts "jobs completing within 25 minutes" of their arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .job import Job, ProblemInstance
from .schedule import Schedule, merge_intervals


@dataclass(frozen=True, slots=True)
class JobMetrics:
    """Per-job outcome."""

    job_id: int
    weight: float
    arrival: float
    completion: float

    @property
    def flow_time(self) -> float:
        """JCT measured from arrival (``C_n − a_n``)."""
        return self.completion - self.arrival


@dataclass(frozen=True, slots=True)
class ScheduleMetrics:
    """Aggregate outcome of one schedule / simulation run."""

    per_job: tuple[JobMetrics, ...]
    makespan: float

    @property
    def total_weighted_completion(self) -> float:
        """The paper's objective ``Σ w_n C_n``."""
        return sum(j.weight * j.completion for j in self.per_job)

    @property
    def total_weighted_flow(self) -> float:
        """``Σ w_n (C_n − a_n)``."""
        return sum(j.weight * j.flow_time for j in self.per_job)

    @property
    def mean_flow(self) -> float:
        if not self.per_job:
            return 0.0
        return float(np.mean([j.flow_time for j in self.per_job]))

    @property
    def num_jobs(self) -> int:
        return len(self.per_job)

    def flow_times(self) -> np.ndarray:
        return np.array([j.flow_time for j in self.per_job], dtype=float)

    def fraction_done_within(self, horizon: float) -> float:
        """Fraction of jobs whose flow time is <= *horizon* seconds."""
        if not self.per_job:
            return 0.0
        return float(np.mean(self.flow_times() <= horizon))

    def flow_percentile(self, q: float) -> float:
        """The q-th percentile of per-job flow times (tail latency).

        ``q`` in [0, 100]. The paper's §3 starvation-free goal is about
        exactly this tail: no job may wait arbitrarily long.
        """
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        flows = self.flow_times()
        if len(flows) == 0:
            return 0.0
        return float(np.percentile(flows, q))

    @property
    def max_flow(self) -> float:
        """Worst per-job flow time (the starvation indicator)."""
        flows = self.flow_times()
        return float(flows.max()) if len(flows) else 0.0


def metrics_from_completions(
    jobs: Sequence[Job] | ProblemInstance,
    completions: Mapping[int, float],
    *,
    makespan: float | None = None,
) -> ScheduleMetrics:
    """Assemble :class:`ScheduleMetrics` from a ``job_id -> C_n`` mapping;
    *jobs* is a sequence of :class:`Job` or an instance's job table."""
    if isinstance(jobs, ProblemInstance):
        rows = zip(range(jobs.num_jobs), jobs.weight.tolist(),
                   jobs.arrival.tolist())
    else:
        rows = ((job.job_id, job.weight, job.arrival) for job in jobs)
    per_job = tuple(
        JobMetrics(
            job_id=job_id,
            weight=weight,
            arrival=arrival,
            completion=float(completions[job_id]),
        )
        for job_id, weight, arrival in rows
    )
    if makespan is None:
        makespan = max((j.completion for j in per_job), default=0.0)
    return ScheduleMetrics(per_job=per_job, makespan=makespan)


def metrics_from_schedule(schedule: Schedule) -> ScheduleMetrics:
    """A schedule's metrics: one ``np.maximum.at`` over its final-round
    rows, bit-equal to the object walk."""
    return metrics_from_completions(
        schedule.instance,
        schedule.completions(),
        makespan=schedule.makespan(),
    )


def jct_cdf(
    metrics: ScheduleMetrics, grid: Sequence[float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of per-job flow times (Fig. 13).

    Returns ``(x, F(x))``. With no *grid*, x is the sorted flow times and F
    the step heights ``k/n``.
    """
    flows = np.sort(metrics.flow_times())
    n = len(flows)
    if n == 0:
        return np.array([]), np.array([])
    if grid is None:
        return flows, np.arange(1, n + 1) / n
    grid_arr = np.asarray(grid, dtype=float)
    frac = np.searchsorted(flows, grid_arr, side="right") / n
    return grid_arr, frac


def gpu_utilization(
    schedule: Schedule,
    *,
    horizon: float | None = None,
) -> dict[int, float]:
    """Busy fraction of each GPU over ``[0, horizon]`` (default: makespan).

    "Busy" counts compute time only; overlapped synchronization does not
    occupy the GPU (§5.2). GPUs with no tasks report 0.0. Intervals
    starting at or past the horizon are excluded; a straddling interval
    contributes its part before the horizon.
    """
    if horizon is None:
        horizon = schedule.makespan()
    out = {m: 0.0 for m in range(schedule.instance.num_gpus)}
    if horizon <= 0:
        return out
    busy: dict[int, list[tuple[float, float]]] = {}
    for gpu, start, end in zip(
        schedule.gpu.tolist(), schedule.start.tolist(),
        (schedule.start + schedule.train).tolist(),
    ):
        busy.setdefault(gpu, []).append((start, end))
    for gpu, intervals in busy.items():
        out[gpu] = sum(
            min(e, horizon) - s
            for s, e in merge_intervals(intervals)
            if s < horizon
        ) / horizon
    return out


def mean_cluster_utilization(schedule: Schedule) -> float:
    """Average GPU busy fraction over the schedule makespan."""
    utils = gpu_utilization(schedule)
    if not utils:
        return 0.0
    return float(np.mean(list(utils.values())))


def utilization_timeline(
    busy_intervals: Sequence[tuple[float, float]],
    *,
    horizon: float,
    bucket: float,
    busy_level: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled utilization trace for one GPU (Figs. 3, 6, 8 style).

    Splits ``[0, horizon]`` into buckets of width *bucket* and reports the
    busy fraction per bucket scaled by *busy_level* (a model may use less
    than 100% of a GPU even while "running", e.g. GraphSAGE on a V100).
    """
    if horizon <= 0 or bucket <= 0:
        return np.array([]), np.array([])
    edges = np.arange(0.0, horizon + bucket, bucket)
    util = np.zeros(len(edges) - 1)
    merged = merge_intervals(busy_intervals)
    for s, e in merged:
        first = int(np.clip(s // bucket, 0, len(util) - 1))
        last = int(np.clip((e - 1e-12) // bucket, 0, len(util) - 1))
        for b in range(first, last + 1):
            lo, hi = edges[b], edges[b + 1]
            util[b] += max(0.0, min(e, hi) - max(s, lo)) / bucket
    return edges[:-1], np.clip(util, 0.0, 1.0) * busy_level


def improvement_percent(baseline: float, ours: float) -> float:
    """Paper-style "reduces X by p%" figure: ``(baseline − ours)/baseline``."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - ours) / baseline
