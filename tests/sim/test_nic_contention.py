"""Tests for NIC-contention modeling in the DES."""

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.cluster import testbed_cluster as _testbed_cluster
from repro.core import Job, ProblemInstance, TaskRef, schedule_from_mapping
from repro.harness import make_workload
from repro.harness.experiments import make_loaded_workload
from repro.schedulers import HareScheduler
from repro.sim import simulate_plan
from repro.workload import WorkloadConfig, build_instance


def two_task_round_plan(gpus_per_node: int):
    """One 2-task round on a 2-GPU cluster; both syncs start together."""
    cluster = make_cluster(["V100", "V100"], gpus_per_node=gpus_per_node)
    jobs = [Job(job_id=0, model="m", num_rounds=1, sync_scale=2)]
    inst = ProblemInstance(
        jobs=jobs,
        train_time=np.ones((1, 2)),
        sync_time=np.full((1, 2), 0.5),
        gpu_labels=cluster.labels(),
    )
    plan = schedule_from_mapping(
        inst, {TaskRef(0, 0, 0): (0, 0.0), TaskRef(0, 0, 1): (1, 0.0)}
    )
    return cluster, inst, plan


class TestContention:
    def test_same_node_syncs_inflate(self):
        cluster, inst, plan = two_task_round_plan(gpus_per_node=2)
        off = simulate_plan(cluster, inst, plan, nic_contention=False)
        on = simulate_plan(cluster, inst, plan, nic_contention=True)
        # two concurrent syncs on one NIC: the second is charged 2x
        assert off.metrics.per_job[0].completion == pytest.approx(1.5)
        assert on.metrics.per_job[0].completion == pytest.approx(2.0)
        # the realized run records the contended sync
        assert sorted(r.sync_time for r in on.telemetry.records) == [0.5, 1.0]
        assert on.makespan == on.metrics.per_job[0].completion

    def test_separate_nodes_unaffected(self):
        cluster, inst, plan = two_task_round_plan(gpus_per_node=1)
        off = simulate_plan(cluster, inst, plan, nic_contention=False)
        on = simulate_plan(cluster, inst, plan, nic_contention=True)
        assert on.metrics.per_job[0].completion == pytest.approx(
            off.metrics.per_job[0].completion
        )

    def test_zero_sync_not_counted(self):
        cluster = make_cluster(["V100", "V100"], gpus_per_node=2)
        jobs = [Job(job_id=0, model="m", num_rounds=1, sync_scale=2)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((1, 2)),
            sync_time=np.zeros((1, 2)),
            gpu_labels=cluster.labels(),
        )
        plan = schedule_from_mapping(
            inst, {TaskRef(0, 0, 0): (0, 0.0), TaskRef(0, 0, 1): (1, 0.0)}
        )
        res = simulate_plan(cluster, inst, plan, nic_contention=True)
        assert res.metrics.per_job[0].completion == pytest.approx(1.0)

    def test_contention_never_speeds_up(self):
        cluster = make_cluster(
            ["V100", "T4", "K80", "V100"], gpus_per_node=2
        )
        jobs = make_workload(
            6, seed=23, config=WorkloadConfig(rounds_scale=0.06)
        )
        inst = build_instance(jobs, cluster)
        plan = HareScheduler(relaxation="fluid").schedule(inst)
        off = simulate_plan(cluster, inst, plan, nic_contention=False)
        on = simulate_plan(cluster, inst, plan, nic_contention=True)
        assert (
            on.total_weighted_completion
            >= off.total_weighted_completion - 1e-9
        )
        assert len(on.realized) == inst.num_tasks

    def test_makespan_is_the_last_barrier(self):
        """With contention on, the realized makespan ends at the last
        barrier: records and the realized schedule carry the inflated
        sync that the barrier waited for."""
        cluster = _testbed_cluster()
        jobs = make_loaded_workload(
            40, reference_gpus=15, load=1.5, seed=0,
            config=WorkloadConfig(rounds_scale=0.15),
        )
        inst = build_instance(jobs, cluster)
        plan = HareScheduler().schedule(inst)
        res = simulate_plan(cluster, inst, plan, nic_contention=True)
        completions = [j.completion for j in res.metrics.per_job]
        assert res.makespan == max(completions)
        assert res.realized.makespan() == res.makespan
