"""Tests for the discrete-event cluster simulator."""

import pytest

from repro.cluster import make_cluster
from repro.core import Job, SwitchMode, validate_schedule
from repro.api import compare
from repro.harness import make_workload
from repro.schedulers import HareScheduler, default_schedulers
from repro.sim import ClusterSimulator, simulate_plan
from repro.switching import SwitchCostModel
from repro.workload import WorkloadConfig, build_instance


@pytest.fixture(scope="module")
def scenario():
    """A small realistic zoo workload on an 8-GPU heterogeneous cluster."""
    cluster = make_cluster(
        ["V100", "V100", "T4", "K80", "M60", "V100", "T4", "V100"]
    )
    jobs = make_workload(8, seed=21, config=WorkloadConfig(rounds_scale=0.08))
    instance = build_instance(jobs, cluster)
    return cluster, instance


class TestReplayBasics:
    def test_all_modes_complete(self, scenario):
        cluster, instance = scenario
        plan = HareScheduler().schedule(instance)
        for mode in SwitchMode:
            result = simulate_plan(
                cluster, instance, plan, switch_mode=mode
            )
            assert result.pool.all_jobs_complete()
            assert len(result.realized) == instance.num_tasks

    def test_realized_schedule_is_feasible(self, scenario):
        cluster, instance = scenario
        plan = HareScheduler().schedule(instance)
        result = simulate_plan(cluster, instance, plan)
        validate_schedule(result.realized, check_durations=False)

    def test_switching_only_delays(self, scenario):
        """Every realized start is at or after the planned start."""
        cluster, instance = scenario
        plan = HareScheduler().schedule(instance)
        result = simulate_plan(
            cluster, instance, plan, switch_mode=SwitchMode.DEFAULT
        )
        for rec in result.telemetry.records:
            assert rec.start >= plan[rec.task].start - 1e-6

    def test_hare_close_to_plan(self, scenario):
        """With Hare switching the realized plan deviates ≪ 5 % (§7.1's
        simulator-accuracy bar)."""
        cluster, instance = scenario
        plan = HareScheduler().schedule(instance)
        result = simulate_plan(
            cluster, instance, plan, switch_mode=SwitchMode.HARE
        )
        assert result.telemetry.plan_deviation() < 0.05

    def test_default_switching_hurts_more_than_hare(self, scenario):
        cluster, instance = scenario
        plan = HareScheduler().schedule(instance)
        res = {
            mode: simulate_plan(cluster, instance, plan, switch_mode=mode)
            for mode in SwitchMode
        }
        assert (
            res[SwitchMode.HARE].total_weighted_completion
            <= res[SwitchMode.PIPESWITCH].total_weighted_completion
            <= res[SwitchMode.DEFAULT].total_weighted_completion
        )

    def test_completions_match_metrics(self, scenario):
        cluster, instance = scenario
        plan = HareScheduler().schedule(instance)
        result = simulate_plan(cluster, instance, plan)
        for jm in result.metrics.per_job:
            assert jm.completion == pytest.approx(
                result.pool.completion_time(jm.job_id)
            )


class TestTelemetry:
    def test_utilization_bounded(self, scenario):
        cluster, instance = scenario
        plan = HareScheduler().schedule(instance)
        result = simulate_plan(cluster, instance, plan)
        for util in result.telemetry.gpu_utilization().values():
            assert 0.0 <= util <= 1.0 + 1e-9

    def test_retention_hits_only_under_hare(self, scenario):
        cluster, instance = scenario
        plan = HareScheduler().schedule(instance)
        hare = simulate_plan(cluster, instance, plan, switch_mode=SwitchMode.HARE)
        pipe = simulate_plan(
            cluster, instance, plan, switch_mode=SwitchMode.PIPESWITCH
        )
        assert pipe.telemetry.retention_hits == 0
        assert hare.telemetry.retention_hits >= 0

    def test_switch_overhead_fraction_small_for_hare(self, scenario):
        cluster, instance = scenario
        plan = HareScheduler().schedule(instance)
        result = simulate_plan(cluster, instance, plan)
        assert result.telemetry.switch_overhead_fraction() < 0.05


class TestConfiguration:
    def test_cluster_instance_size_mismatch(self, scenario):
        _, instance = scenario
        small = make_cluster(["V100"])
        from repro.core import SimulationError

        with pytest.raises(SimulationError):
            ClusterSimulator(cluster=small, instance=instance)

    def test_custom_switch_model_mode_checked(self, scenario):
        cluster, instance = scenario
        from repro.core import SimulationError

        plan = HareScheduler().schedule(instance)
        with pytest.raises(SimulationError):
            simulate_plan(
                cluster,
                instance,
                plan,
                switch_mode=SwitchMode.HARE,
                switch_model=SwitchCostModel(mode=SwitchMode.DEFAULT),
            )


class TestAllSchedulersSimulate:
    @pytest.mark.parametrize("sched", default_schedulers(), ids=lambda s: s.name)
    def test_plan_replays(self, scenario, sched):
        cluster, instance = scenario
        plan = sched.schedule(instance)
        result = simulate_plan(cluster, instance, plan)
        assert result.pool.all_jobs_complete()
        # weighted JCT within 10% of the plan under Hare switching
        assert result.total_weighted_completion <= (
            1.10 * plan.total_weighted_completion() + 1.0
        )


def test_compare_with_simulation(testbed):
    jobs = make_workload(6, seed=3, config=WorkloadConfig(rounds_scale=0.06))
    comparison = compare(
        cluster=testbed, workload=jobs, simulate=True, trace=False
    )
    for r in comparison:
        assert r.sim is not None
        assert r.sim.metrics.num_jobs == 6
