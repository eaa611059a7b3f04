"""Tests for the task profiler and instance builder."""

import numpy as np
import pytest

from repro.core import GPUModel, Job
from repro.workload import TaskProfiler, build_instance


@pytest.fixture
def profiler(testbed):
    return TaskProfiler(testbed)


class TestProfiler:
    def test_true_times_positive(self, profiler):
        rec = profiler.true_times("ResNet50", GPUModel.V100, 1.0)
        assert rec.train_time > 0 and rec.sync_time > 0

    def test_batch_scale_multiplies_training_only(self, profiler):
        one = profiler.true_times("VGG19", GPUModel.T4, 1.0)
        two = profiler.true_times("VGG19", GPUModel.T4, 2.0)
        assert two.train_time == pytest.approx(2 * one.train_time)
        assert two.sync_time == pytest.approx(one.sync_time)

    def test_database_caches(self, profiler):
        profiler.profile("ResNet50", GPUModel.V100)
        misses = profiler.database.misses
        profiler.profile("ResNet50", GPUModel.V100)
        assert profiler.database.hits == 1
        assert profiler.database.misses == misses

    def test_noise_free_profile_matches_truth(self, profiler):
        rec = profiler.profile("Bert_base", GPUModel.K80)
        truth = profiler.true_times("Bert_base", GPUModel.K80, 1.0)
        assert rec.train_time == pytest.approx(truth.train_time)

    def test_noisy_profile_close_to_truth(self, testbed):
        p = TaskProfiler(testbed, noise_sigma=0.05)
        p.reseed(7)
        rec = p.profile("Transformer", GPUModel.V100)
        truth = p.true_times("Transformer", GPUModel.V100, 1.0)
        assert rec.train_time == pytest.approx(truth.train_time, rel=0.15)
        assert rec.train_time != truth.train_time

    def test_round_trace_stability(self, profiler):
        """Fig. 11: per-round times are stable (small CoV)."""
        tc, ts = profiler.round_trace(
            "ResNet50", GPUModel.V100, 200, jitter_sigma=0.02, seed=0
        )
        assert len(tc) == 200
        assert tc.std() / tc.mean() < 0.05
        assert ts.std() / ts.mean() < 0.05


class TestBuildInstance:
    def test_matrix_shapes(self, testbed):
        jobs = [
            Job(job_id=0, model="ResNet50", num_rounds=2, sync_scale=2),
            Job(job_id=1, model="GraphSAGE", num_rounds=1),
        ]
        inst = build_instance(jobs, testbed)
        assert inst.train_time.shape == (2, 15)
        assert inst.num_gpus == 15

    def test_same_type_gpus_get_same_times(self, testbed):
        jobs = [Job(job_id=0, model="VGG19", num_rounds=1)]
        inst = build_instance(jobs, testbed)
        models = testbed.gpu_models()
        v100s = [m for m, g in enumerate(models) if g is GPUModel.V100]
        times = {inst.tc(0, m) for m in v100s}
        assert len(times) == 1

    def test_hetero_times_differ_across_types(self, testbed):
        jobs = [Job(job_id=0, model="ResNet50", num_rounds=1)]
        inst = build_instance(jobs, testbed)
        assert inst.alpha() > 2.0

    def test_labels_from_cluster(self, testbed):
        jobs = [Job(job_id=0, model="VGG19")]
        inst = build_instance(jobs, testbed)
        assert list(inst.gpu_labels) == testbed.labels()

    def test_database_shared_across_jobs(self, testbed):
        profiler = TaskProfiler(testbed)
        jobs = [
            Job(job_id=n, model="ResNet50", num_rounds=1) for n in range(5)
        ]
        build_instance(jobs, testbed, profiler=profiler)
        # 4 distinct GPU types → only 4 profiling runs despite 5 jobs.
        assert len(profiler.database) == 4
        assert profiler.database.hits >= 4 * 4  # later jobs all hit


def per_column_instance(jobs, cluster, profiler):
    """The straightforward build: profile each (job, GPU type) in order
    of the type's first column, then write its times column by column."""
    models = cluster.gpu_models()
    tc = np.empty((len(jobs), len(models)))
    ts = np.empty((len(jobs), len(models)))
    for n, job in enumerate(jobs):
        for gm in dict.fromkeys(models):
            rec = profiler.profile(
                job.model, gm, job.batch_scale, sync_scale=job.sync_scale
            )
            for m, other in enumerate(models):
                if other is gm:
                    tc[n, m] = rec.train_time
                    ts[n, m] = rec.sync_time
    return tc, ts


@pytest.mark.parametrize("fabric", ["ps", "ring"])
def test_build_instance_matches_per_column_build(fabric):
    from repro.cluster import scaled_cluster
    from repro.harness.experiments import make_loaded_workload
    from repro.workload import WorkloadConfig

    # Every third GPU of a mixed cluster: types interleave in column order.
    cluster = scaled_cluster(40).subcluster(range(1, 40, 3))
    jobs = make_loaded_workload(
        12, reference_gpus=cluster.num_gpus, seed=4,
        config=WorkloadConfig(rounds_scale=0.05),
    )
    profilers = [
        TaskProfiler(cluster, noise_sigma=0.05, sync_fabric=fabric)
        for _ in range(2)
    ]
    for p in profilers:
        p.reseed(7)
    inst = build_instance(jobs, cluster, profiler=profilers[0])
    tc, ts = per_column_instance(jobs, cluster, profilers[1])
    assert len(set(cluster.gpu_models())) > 1
    for got, want in ((inst.train_time, tc), (inst.sync_time, ts)):
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    db, oracle_db = profilers[0].database, profilers[1].database
    assert (db.hits, db.misses) == (oracle_db.hits, oracle_db.misses)
