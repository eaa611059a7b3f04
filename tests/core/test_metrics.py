"""Tests for schedule metrics: weighted JCT, CDF, utilization."""

import numpy as np
import pytest

from repro.core import (
    Job,
    ProblemInstance,
    TaskRef,
    gpu_utilization,
    improvement_percent,
    jct_cdf,
    mean_cluster_utilization,
    metrics_from_completions,
    metrics_from_schedule,
    schedule_from_mapping,
    utilization_timeline,
)
from tests.core.oracles import reference_metrics_from_schedule


@pytest.fixture
def simple_metrics():
    jobs = [
        Job(job_id=0, model="m", weight=2.0, arrival=0.0),
        Job(job_id=1, model="m", weight=1.0, arrival=5.0),
    ]
    return metrics_from_completions(jobs, {0: 10.0, 1: 8.0})


class TestScheduleMetrics:
    def test_weighted_completion(self, simple_metrics):
        assert simple_metrics.total_weighted_completion == pytest.approx(28.0)

    def test_weighted_flow(self, simple_metrics):
        # (10-0)*2 + (8-5)*1
        assert simple_metrics.total_weighted_flow == pytest.approx(23.0)

    def test_mean_flow(self, simple_metrics):
        assert simple_metrics.mean_flow == pytest.approx(6.5)

    def test_makespan_defaults_to_max_completion(self, simple_metrics):
        assert simple_metrics.makespan == pytest.approx(10.0)

    def test_fraction_done_within(self, simple_metrics):
        assert simple_metrics.fraction_done_within(3.0) == pytest.approx(0.5)
        assert simple_metrics.fraction_done_within(10.0) == 1.0
        assert simple_metrics.fraction_done_within(1.0) == 0.0

    def test_empty_metrics(self):
        m = metrics_from_completions([], {})
        assert m.total_weighted_completion == 0.0
        assert m.mean_flow == 0.0
        assert m.fraction_done_within(10) == 0.0


class TestCdf:
    def test_cdf_steps(self, simple_metrics):
        x, f = jct_cdf(simple_metrics)
        assert list(x) == [3.0, 10.0]
        assert list(f) == [0.5, 1.0]

    def test_cdf_on_grid(self, simple_metrics):
        x, f = jct_cdf(simple_metrics, grid=[0, 3, 5, 10, 20])
        assert list(f) == [0.0, 0.5, 0.5, 1.0, 1.0]

    def test_cdf_monotone(self, simple_metrics):
        _, f = jct_cdf(simple_metrics, grid=np.linspace(0, 20, 50))
        assert (np.diff(f) >= 0).all()


class TestUtilization:
    @pytest.fixture
    def sched(self):
        jobs = [Job(job_id=0, model="m", num_rounds=1, sync_scale=2)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0, 2.0]]),
            sync_time=np.zeros((1, 2)),
        )
        return schedule_from_mapping(
            inst, {TaskRef(0, 0, 0): (0, 0.0), TaskRef(0, 0, 1): (1, 0.0)}
        )

    def test_gpu_utilization(self, sched):
        util = gpu_utilization(sched)
        assert util[0] == pytest.approx(0.5)  # busy 1s of 2s makespan
        assert util[1] == pytest.approx(1.0)

    def test_mean_cluster_utilization(self, sched):
        assert mean_cluster_utilization(sched) == pytest.approx(0.75)

    def test_idle_gpu_reports_zero(self, sched):
        util = gpu_utilization(sched, horizon=4.0)
        assert util[0] == pytest.approx(0.25)

    def test_timeline_buckets(self):
        t, u = utilization_timeline(
            [(0.0, 1.0), (2.0, 3.0)], horizon=4.0, bucket=1.0
        )
        assert list(u) == [1.0, 0.0, 1.0, 0.0]

    def test_timeline_busy_level_scales(self):
        _, u = utilization_timeline(
            [(0.0, 2.0)], horizon=2.0, bucket=1.0, busy_level=0.3
        )
        assert list(u) == pytest.approx([0.3, 0.3])

    def test_timeline_empty_horizon(self):
        t, u = utilization_timeline([(0, 1)], horizon=0.0, bucket=1.0)
        assert len(t) == 0 and len(u) == 0


class TestImprovement:
    def test_reduction_percent(self):
        assert improvement_percent(100.0, 25.0) == pytest.approx(75.0)

    def test_zero_baseline(self):
        assert improvement_percent(0.0, 10.0) == 0.0


def test_metrics_from_schedule_consistency(fig1_instance):
    from repro.schedulers import HareScheduler

    sched = HareScheduler(relaxation="fluid").schedule(fig1_instance)
    m = metrics_from_schedule(sched)
    assert m.total_weighted_completion == pytest.approx(
        reference_metrics_from_schedule(sched).total_weighted_completion
    )
    assert m.makespan == pytest.approx(sched.makespan())
