"""ShardedKernel / run_sharded: merge correctness and the pinned flat path."""

from __future__ import annotations

import pickle

import pytest

from repro.cells import (
    CellPartitioner,
    ShardedKernel,
    ShardedKernelResult,
    run_sharded,
)
from repro.cluster import make_cluster
from repro.cluster import testbed_cluster as _testbed_cluster
from repro.core import ProblemInstance, validate_schedule
from repro.core.errors import ConfigurationError
from repro.core.types import GPUModel
from repro.harness.experiments import make_loaded_workload, make_problem
from repro.kernel import run_policy
from repro.obs import diagnose_schedule
from repro.schedulers import create


@pytest.fixture(scope="module")
def workload():
    cluster = _testbed_cluster()
    jobs = make_loaded_workload(
        10, reference_gpus=cluster.num_gpus, load=1.5, seed=3
    )
    return cluster, make_problem(cluster, jobs)


class TestMergedResult:
    def test_all_tasks_present_and_valid(self, workload):
        cluster, instance = workload
        result = run_sharded(
            instance, "hare", cells=3, cluster=cluster
        )
        assert isinstance(result, ShardedKernelResult)
        assert len(result.schedule) == instance.num_tasks
        validate_schedule(result.schedule)

    def test_stats_sum_over_cells(self, workload):
        cluster, instance = workload
        result = run_sharded(
            instance, "hare", cells=3, cluster=cluster
        )
        assert result.events == sum(
            s["events"] for s in result.cell_stats
        )
        assert result.commitments == sum(
            s["commitments"] for s in result.cell_stats
        )
        assert sum(s["jobs"] for s in result.cell_stats) == (
            instance.num_jobs
        )

    def test_merged_schedule_passes_streaming_monitors(self, workload):
        cluster, instance = workload
        result = run_sharded(
            instance, "hare", cells=3, cluster=cluster
        )
        assert result.schedule.instance is instance
        report = diagnose_schedule(result.schedule)
        assert report.invariant_violations() == []

    def test_result_pickles(self, workload):
        cluster, instance = workload
        result = run_sharded(
            instance, "hare", cells=2, cluster=cluster
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone.events == result.events
        assert clone.partition.num_cells == 2
        assert (
            clone.schedule.assignments == result.schedule.assignments
        )


class TestFlatPath:
    def test_cells1_delegates_to_run_policy(self, workload):
        cluster, instance = workload
        sched = create("hare")
        flat = run_policy(instance, sched.make_policy(instance))
        via_cells = run_sharded(instance, "hare", cells=1)
        assert not isinstance(via_cells, ShardedKernelResult)
        assert (
            via_cells.schedule.assignments == flat.schedule.assignments
        )
        assert (via_cells.events, via_cells.commitments) == (
            flat.events,
            flat.commitments,
        )

    def test_single_cell_partition_also_flat(self, workload):
        cluster, instance = workload
        part = CellPartitioner(cells=1).partition(cluster)
        result = run_sharded(instance, "hare", partition=part)
        assert not isinstance(result, ShardedKernelResult)

    def test_needs_cells_or_partition(self, workload):
        _, instance = workload
        with pytest.raises(ConfigurationError, match="cells=N"):
            run_sharded(instance, "hare")


class TestFaultRouting:
    def test_crash_lands_in_owning_cell(self, workload):
        cluster, instance = workload
        dead = instance.num_gpus - 1  # last GPU → last cell
        result = run_sharded(
            instance,
            "hare_online",
            cells=3,
            cluster=cluster,
            crashes=[(2.0, dead)],
        )
        assert len(result.schedule) == instance.num_tasks
        validate_schedule(result.schedule)
        for a in result.schedule.assignments.values():
            if a.gpu == dead:
                assert a.compute_end <= 2.0 + 1e-9

    def test_partition_gpu_count_mismatch_rejected(self, workload):
        _, instance = workload
        small = ProblemInstance(
            jobs=list(instance.jobs[:1]),
            train_time=instance.train_time[:1, :4],
            sync_time=instance.sync_time[:1, :4],
            gpu_labels=list(instance.gpu_labels[:4]),
        )
        wrong = CellPartitioner(cells=2).partition_instance(small)
        with pytest.raises(ConfigurationError, match="partition covers"):
            ShardedKernel(instance, create("hare"), partition=wrong)


class TestHomogeneousRoundTrip:
    def test_single_gpu_type_cluster_is_lossless(self):
        """Satellite pin: a one-type cluster partitions (gpu_type → one
        cell) and merges back with nothing lost — the merged schedule
        carries every task and exactly reproduces the flat metrics."""
        cluster = make_cluster([GPUModel.V100] * 6)
        jobs = make_loaded_workload(
            6, reference_gpus=cluster.num_gpus, load=1.2, seed=11
        )
        instance = make_problem(cluster, jobs)

        part = CellPartitioner(strategy="gpu_type").partition(cluster)
        assert part.num_cells == 1  # one type → one cell → flat path
        flat = run_sharded(instance, "hare", partition=part)
        baseline = run_policy(
            instance, create("hare").make_policy(instance)
        )
        assert flat.schedule.assignments == baseline.schedule.assignments

        # Force a real multi-cell split of the same homogeneous cluster:
        # partition → admit → run → merge must still be lossless.
        sharded = run_sharded(
            instance, "hare", cells=2, cluster=cluster
        )
        assert len(sharded.schedule) == instance.num_tasks
        validate_schedule(sharded.schedule)
        merged_tasks = set(sharded.schedule.assignments)
        flat_tasks = set(baseline.schedule.assignments)
        assert merged_tasks == flat_tasks
