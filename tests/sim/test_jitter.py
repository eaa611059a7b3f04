"""Tests for runtime jitter injection in the simulator."""

import pytest

from repro.cluster import make_cluster
from repro.core import validate_schedule
from repro.harness import make_workload
from repro.schedulers import HareScheduler
from repro.sim import simulate_plan
from repro.workload import WorkloadConfig, build_instance


@pytest.fixture(scope="module")
def scenario():
    cluster = make_cluster(["V100", "T4", "K80", "V100"])
    jobs = make_workload(6, seed=17, config=WorkloadConfig(rounds_scale=0.06))
    instance = build_instance(jobs, cluster)
    plan = HareScheduler(relaxation="fluid").schedule(instance)
    return cluster, instance, plan


class TestJitter:
    def test_zero_jitter_matches_plan_exactly(self, scenario):
        cluster, instance, plan = scenario
        result = simulate_plan(cluster, instance, plan, jitter_sigma=0.0)
        for rec in result.telemetry.records:
            assert rec.train_time == pytest.approx(plan[rec.task].train_time)

    def test_jitter_perturbs_durations(self, scenario):
        cluster, instance, plan = scenario
        result = simulate_plan(
            cluster, instance, plan, jitter_sigma=0.05, jitter_seed=3
        )
        diffs = [
            abs(rec.train_time - plan[rec.task].train_time)
            for rec in result.telemetry.records
        ]
        assert max(diffs) > 0

    def test_jitter_deterministic_by_seed(self, scenario):
        cluster, instance, plan = scenario
        a = simulate_plan(
            cluster, instance, plan, jitter_sigma=0.05, jitter_seed=3
        )
        b = simulate_plan(
            cluster, instance, plan, jitter_sigma=0.05, jitter_seed=3
        )
        assert a.total_weighted_completion == pytest.approx(
            b.total_weighted_completion
        )

    def test_different_seeds_differ(self, scenario):
        cluster, instance, plan = scenario
        a = simulate_plan(
            cluster, instance, plan, jitter_sigma=0.05, jitter_seed=3
        )
        b = simulate_plan(
            cluster, instance, plan, jitter_sigma=0.05, jitter_seed=4
        )
        assert a.total_weighted_completion != pytest.approx(
            b.total_weighted_completion
        )

    def test_jittered_run_remains_feasible(self, scenario):
        cluster, instance, plan = scenario
        result = simulate_plan(
            cluster, instance, plan, jitter_sigma=0.10, jitter_seed=9
        )
        validate_schedule(result.realized, check_durations=False)
        assert len(result.realized) == instance.num_tasks

    def test_small_jitter_small_impact(self, scenario):
        """Fig. 11-scale jitter (2%) barely moves the weighted JCT."""
        cluster, instance, plan = scenario
        clean = simulate_plan(cluster, instance, plan)
        noisy = simulate_plan(
            cluster, instance, plan, jitter_sigma=0.02, jitter_seed=1
        )
        rel = abs(
            noisy.total_weighted_completion - clean.total_weighted_completion
        ) / clean.total_weighted_completion
        assert rel < 0.05

    def test_jitter_factors_bounded(self, scenario):
        cluster, instance, plan = scenario
        result = simulate_plan(
            cluster, instance, plan, jitter_sigma=0.5, jitter_seed=2
        )
        for rec in result.telemetry.records:
            ratio = rec.train_time / plan[rec.task].train_time
            assert 0.5 - 1e-9 <= ratio <= 1.5 + 1e-9
