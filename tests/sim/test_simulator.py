"""Tests for the discrete-event cluster simulator."""

from collections import Counter

import pytest

from repro.cluster import make_cluster
from repro.core import (
    SwitchMode,
    TaskRef,
    metrics_from_schedule,
    validate_schedule,
)
from repro.core.errors import ConfigurationError
from repro.core.schedule import TaskAssignment
from repro.api import DEFAULT_SCHEMES, compare
from repro.harness import make_workload
from repro.obs import Obs, use
from repro.schedulers import HareScheduler, create
from repro.sim import ClusterSimulator, simulate_plan
from repro.sim.simulator import _cross_job_switch
from repro.switching import SwitchCostModel
from repro.workload import WorkloadConfig, build_instance
from tests.core.oracles import reference_completions, schedule_of


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
        want = reference_completions(result.realized)
        for jm in result.metrics.per_job:
            assert jm.completion == want[jm.job_id]


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

    def test_plan_task_outside_the_instance_rejected(self, scenario):
        cluster, instance = scenario
        plan = HareScheduler().schedule(instance)
        plan = schedule_of(instance, [
            *plan.assignments.values(),
            TaskAssignment(TaskRef(0, 99, 0), 0, 0.0, 1.0, 0.0),
        ])
        with pytest.raises(ConfigurationError, match=r"J0\.r99\.t0"):
            simulate_plan(cluster, instance, plan)


class TestSwitchCostMemo:
    def test_live_registry_computes_each_switch_cost_once(
        self, testbed, monkeypatch
    ):
        """Cross-job switch costs are memoized process-wide: across two
        replays, one ``breakdown`` per (device model, job model, retained
        hit), and a memo hit still writes its ``switch.*`` instruments."""
        jobs = make_workload(
            12, seed=5, config=WorkloadConfig(rounds_scale=0.1)
        )
        instance = build_instance(jobs, testbed)
        plan = HareScheduler().schedule(instance)
        calls = Counter()
        breakdown = SwitchCostModel.breakdown

        def counting(self, next_model, gpu, **kw):
            calls[gpu, next_model, kw.get("retained_hit", False)] += 1
            return breakdown(self, next_model, gpu, **kw)

        monkeypatch.setattr(SwitchCostModel, "breakdown", counting)
        _cross_job_switch.cache_clear()
        snapshots = []
        for _ in range(2):
            obs = Obs.start(trace=False)
            with use(obs):
                result = simulate_plan(testbed, instance, plan)
            snapshots.append(obs.metrics.snapshot())
        assert result.telemetry.switch_count > len(calls) > 0
        assert max(calls.values()) == 1
        first, second = snapshots
        assert first == second
        # Every switch still counts its modeled transfer.
        assert first["switch.pipelined_transfers"]["value"] > len(calls)


class TestAllSchedulersSimulate:
    @pytest.mark.parametrize(
        "sched", [create(k) for k in DEFAULT_SCHEMES], ids=lambda s: s.name
    )
    def test_plan_replays(self, scenario, sched):
        cluster, instance = scenario
        plan = sched.schedule(instance)
        result = simulate_plan(cluster, instance, plan)
        assert len(result.realized) == instance.num_tasks
        # weighted JCT within 10% of the plan under Hare switching
        assert result.total_weighted_completion <= (
            1.10 * metrics_from_schedule(plan).total_weighted_completion
            + 1.0
        )


def test_compare_with_simulation(testbed):
    jobs = make_workload(6, seed=3, config=WorkloadConfig(rounds_scale=0.06))
    comparison = compare(
        cluster=testbed, workload=jobs, simulate=True, trace=False
    )
    for r in comparison:
        assert r.sim is not None
        assert r.sim.metrics.num_jobs == 6
