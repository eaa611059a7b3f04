"""Theoretical guarantees (§5.3): α, lower bounds, and the Theorem 4 audit.

Theorem 4 states Algorithm 1 is an ``α(2+α)``-approximation for the total
weighted completion time, where
``α = max_i max(T_i^{c,max}/T_i^{c,min}, T_i^{s,max}/T_i^{s,min})`` is the
cluster's heterogeneity factor. This module:

* computes α (delegating to :meth:`ProblemInstance.alpha`);
* provides a **certified lower bound** on the optimum (independent of any
  solver): per job, the critical path ``a_n + |R_n| · min_m (T^c + T^s)``;
  plus a cluster-capacity bound via the single-machine-equivalent
  Queyranne argument over each job's minimum work;
* audits the theorem empirically: Algorithm 1's objective vs the
  brute-force optimum (tiny instances) or the certified lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.job import ProblemInstance
from ..core.metrics import metrics_from_schedule
from ..schedulers.hare import HareScheduler
from ..schedulers.optimal import MAX_TASKS, brute_force_optimal


def alpha(instance: ProblemInstance) -> float:
    """Heterogeneity factor α of Lemma 3 / Theorem 4."""
    return instance.alpha()


def approximation_factor(instance: ProblemInstance) -> float:
    """The Theorem 4 guarantee α(2 + α)."""
    a = alpha(instance)
    return a * (2.0 + a)


def critical_path_lower_bound(instance: ProblemInstance) -> float:
    """Σ_n w_n · (a_n + |R_n| · min_m (T^c+T^s)) — a certified LB on Σ w C.

    Every job must execute its rounds sequentially (constraint 7), each
    round lasting at least one task's duration on the fastest GPU, so no
    schedule can complete job *n* before this time.
    """
    total = 0.0
    p_min = (instance.train_by_type + instance.sync_by_type).min(axis=1)
    for w, a, r, p in zip(
        instance.weight.tolist(), instance.arrival.tolist(),
        instance.num_rounds.tolist(), p_min.tolist(),
    ):
        total += w * (a + r * p)
    return float(total)


def capacity_lower_bound(instance: ProblemInstance) -> float:
    """Aggregate-capacity LB over each job's minimum work (no arrivals).

    Treat the cluster as ``M`` parallel machines and each job as aggregate
    work ``P_n = |R_n|·|D_r|·min_m T^c_{n,m}``. In *any* schedule, indexing
    jobs by completion order, all work of the first k jobs is processed by
    ``C_(k)``, so ``C_(k) ≥ (Σ_{j≤k} P_j)/M``. Hence
    ``Σ w C ≥ min_σ Σ_k w_σ(k) (Σ_{j≤k} P_σ(j)) / M``, and the minimizing
    order is weighted-SPT by the standard exchange argument. Arrival terms
    must NOT be mixed into this expression — doing so breaks the exchange
    argument and overstates the bound (a bug hypothesis once caught here).
    """
    m = instance.num_gpus
    p_min = instance.train_by_type.min(axis=1)
    work = (instance.num_rounds * instance.sync_scale) * p_min
    weights = instance.weight
    order = sorted(
        range(instance.num_jobs), key=lambda n: work[n] / weights[n]
    )
    total = 0.0
    cum = 0.0
    for n in order:
        cum += work[n]
        total += weights[n] * cum / m
    return float(total)


def parallel_work_lower_bound(instance: ProblemInstance) -> float:
    """Per-job LB: a job cannot beat its own work at max parallelism.

    ``C_n ≥ a_n + P_n / min(sync_scale_n, M)`` — the job's fastest-GPU work
    spread over the most GPUs a round can ever use. Valid per job, so the
    weighted sum is a valid bound.
    """
    m = instance.num_gpus
    p_min = instance.train_by_type.min(axis=1)
    total = 0.0
    for w, a, r, scale, p in zip(
        instance.weight.tolist(), instance.arrival.tolist(),
        instance.num_rounds.tolist(), instance.sync_scale.tolist(),
        p_min.tolist(),
    ):
        total += w * (a + r * scale * p / min(scale, m))
    return float(total)


def lower_bound(instance: ProblemInstance) -> float:
    """Best certified lower bound available without a solver."""
    return max(
        critical_path_lower_bound(instance),
        capacity_lower_bound(instance),
        parallel_work_lower_bound(instance),
    )


@dataclass(frozen=True, slots=True)
class BoundAudit:
    """Empirical check of Theorem 4 on one instance."""

    alpha: float
    guarantee: float
    algorithm_objective: float
    reference_objective: float
    reference_kind: str  # "optimal" (brute force) or "lower_bound"

    @property
    def ratio(self) -> float:
        if self.reference_objective <= 0:
            return float("inf")
        return self.algorithm_objective / self.reference_objective

    @property
    def satisfied(self) -> bool:
        return self.ratio <= self.guarantee + 1e-9


def audit_theorem4(
    instance: ProblemInstance,
    *,
    scheduler: HareScheduler | None = None,
) -> BoundAudit:
    """Run Algorithm 1 and compare against the strongest reference we can.

    Tiny instances (≤ :data:`repro.schedulers.optimal.MAX_TASKS` tasks) use
    the brute-force optimum; larger ones fall back to the certified lower
    bound (a *stricter* test, since LB ≤ OPT).
    """
    scheduler = scheduler or HareScheduler(relaxation="exact")
    schedule = scheduler.plan(instance)
    alg = metrics_from_schedule(schedule).total_weighted_completion
    if instance.num_tasks <= MAX_TASKS:
        ref = metrics_from_schedule(
            brute_force_optimal(instance)
        ).total_weighted_completion
        kind = "optimal"
    else:
        ref = lower_bound(instance)
        kind = "lower_bound"
    return BoundAudit(
        alpha=alpha(instance),
        guarantee=approximation_factor(instance),
        algorithm_objective=alg,
        reference_objective=ref,
        reference_kind=kind,
    )
