"""Fairness metrics over scheduling outcomes.

The paper optimizes efficiency (weighted JCT) while its related work (§8)
optimizes fairness — Themis's *finish-time fairness*, Gandiva_fair's
user-level fairness, AlloX's max-min. These metrics let experiments report
where each scheduler lands on that axis:

* **finish-time fairness** ρ_n = (realized flow time) / (the job's ideal
  isolated runtime), Themis's metric: ρ = 1 means the job ran as if alone;
  large ρ means it was starved;
* **Jain's fairness index** over the ρ values: 1 = perfectly equal
  slowdowns, → 1/N as one job absorbs all the queueing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .job import ProblemInstance
from .metrics import ScheduleMetrics


def isolated_flow_time(instance: ProblemInstance, job_id: int) -> float:
    """The job's ideal runtime if it had the whole cluster to itself.

    Each round runs its tasks on the job's fastest GPUs in parallel (up to
    ``min(sync_scale, M)`` at once), rounds back-to-back. A certified lower
    bound on any schedule's flow time for this job.
    """
    scale = int(instance.sync_scale[job_id])
    m = instance.num_gpus
    k = min(scale, m)
    times = np.sort(np.take(
        instance.train_by_type[job_id] + instance.sync_by_type[job_id],
        instance.gpu_type,
    ))
    waves = -(-scale // k)
    per_round = waves * float(times[min(k, len(times)) - 1])
    return int(instance.num_rounds[job_id]) * per_round


@dataclass(frozen=True, slots=True)
class FairnessReport:
    """Finish-time fairness of one scheduling outcome."""

    rho: np.ndarray  # per-job slowdown vs isolated runtime

    @property
    def max_rho(self) -> float:
        """Worst slowdown — the starvation indicator."""
        return float(self.rho.max()) if len(self.rho) else 0.0

    @property
    def mean_rho(self) -> float:
        return float(self.rho.mean()) if len(self.rho) else 0.0

    @property
    def jain_index(self) -> float:
        """Jain's fairness index over the slowdowns (1 = perfectly fair)."""
        if len(self.rho) == 0:
            return 1.0
        s = self.rho.sum()
        sq = (self.rho**2).sum()
        if sq == 0:
            return 1.0
        return float(s * s / (len(self.rho) * sq))


def finish_time_fairness(
    instance: ProblemInstance, metrics: ScheduleMetrics
) -> FairnessReport:
    """Per-job slowdown ρ_n = flow_n / isolated_n (Themis's metric)."""
    rho = np.array(
        [
            jm.flow_time / max(isolated_flow_time(instance, jm.job_id), 1e-12)
            for jm in metrics.per_job
        ]
    )
    return FairnessReport(rho=rho)
