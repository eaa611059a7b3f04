"""Tests for §5.3: α, certified lower bounds and the Theorem 4 audit."""

import numpy as np
import pytest

from repro.core import Job, ProblemInstance, metrics_from_schedule
from repro.schedulers import HareScheduler, brute_force_optimal
from repro.theory import (
    alpha,
    approximation_factor,
    audit_theorem4,
    capacity_lower_bound,
    critical_path_lower_bound,
    lower_bound,
)
from tests.conftest import make_random_instance, make_uniform_instance


class TestAlpha:
    def test_homogeneous_alpha_one(self):
        inst = make_uniform_instance(3, 4)
        assert alpha(inst) == pytest.approx(1.0)
        assert approximation_factor(inst) == pytest.approx(3.0)

    def test_factor_formula(self, fig1_instance):
        a = alpha(fig1_instance)
        assert approximation_factor(fig1_instance) == pytest.approx(
            a * (2 + a)
        )


class TestLowerBounds:
    def test_critical_path_single_job(self):
        jobs = [Job(job_id=0, model="m", num_rounds=3, arrival=1.0)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[2.0, 4.0]]),
            sync_time=np.array([[0.5, 0.5]]),
        )
        # a_n + 3 rounds × fastest (2.5)
        assert critical_path_lower_bound(inst) == pytest.approx(8.5)

    def test_capacity_bound_counts_total_work(self):
        # 4 unit jobs on 1 machine: Σ C >= 1+2+3+4 = 10
        inst = make_uniform_instance(4, 1, train_time=1.0)
        assert capacity_lower_bound(inst) == pytest.approx(10.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_lb_below_optimal(self, seed):
        inst = make_random_instance(seed, max_jobs=3, max_gpus=2, max_rounds=2)
        if inst.num_tasks > 5:
            pytest.skip("too large for brute force")
        opt = metrics_from_schedule(
            brute_force_optimal(inst)
        ).total_weighted_completion
        assert lower_bound(inst) <= opt + 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_lb_below_hare(self, seed):
        inst = make_random_instance(seed, max_jobs=5, max_rounds=3)
        sched = HareScheduler(relaxation="fluid").schedule(inst)
        obj = metrics_from_schedule(sched).total_weighted_completion
        assert lower_bound(inst) <= obj + 1e-6


class TestTheorem4:
    @pytest.mark.parametrize("seed", range(12))
    def test_guarantee_holds_on_tiny_instances(self, seed):
        """Algorithm 1's objective ≤ α(2+α) × optimum (Theorem 4)."""
        inst = make_random_instance(
            seed, max_jobs=3, max_gpus=2, max_rounds=2, max_scale=2
        )
        if inst.num_tasks > 5:
            pytest.skip("too large for brute force")
        audit = audit_theorem4(inst)
        assert audit.reference_kind == "optimal"
        assert audit.satisfied, (
            f"ratio {audit.ratio:.3f} > guarantee {audit.guarantee:.3f}"
        )

    def test_audit_large_instance_uses_lb(self):
        inst = make_random_instance(3, max_jobs=6, max_rounds=4, max_scale=3)
        if inst.num_tasks <= 5:
            pytest.skip("instance too small to exercise the LB path")
        audit = audit_theorem4(
            inst, scheduler=HareScheduler(relaxation="fluid")
        )
        assert audit.reference_kind == "lower_bound"
        assert audit.ratio >= 1.0 - 1e-9

    def test_fig1_ratio_modest(self, fig1_instance):
        # Fig. 1 has 9 tasks (> brute-force cap) so the audit compares
        # against the certified lower bound; the ratio stays far inside
        # the α(2+α) guarantee (α=2 → 8).
        audit = audit_theorem4(fig1_instance)
        assert audit.reference_kind == "lower_bound"
        assert audit.satisfied
        assert audit.ratio < 2.0
