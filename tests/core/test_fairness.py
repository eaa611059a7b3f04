"""Tests for finish-time fairness metrics."""

import numpy as np
import pytest

from repro.core import (
    FairnessReport,
    Job,
    ProblemInstance,
    finish_time_fairness,
    isolated_flow_time,
    metrics_from_schedule,
)
from repro.schedulers import HareScheduler


class TestIsolatedFlowTime:
    def test_single_round_single_task(self):
        jobs = [Job(job_id=0, model="m")]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[2.0, 1.0]]),
            sync_time=np.array([[0.1, 0.5]]),
        )
        # fastest (tc+ts): min(2.1, 1.5) = 1.5
        assert isolated_flow_time(inst, 0) == pytest.approx(1.5)

    def test_parallel_round(self):
        jobs = [Job(job_id=0, model="m", num_rounds=3, sync_scale=2)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0, 2.0, 5.0]]),
            sync_time=np.zeros((1, 3)),
        )
        # 2 tasks on the 2 fastest GPUs: round = 2.0; 3 rounds
        assert isolated_flow_time(inst, 0) == pytest.approx(6.0)

    def test_scale_wider_than_cluster_serializes(self):
        jobs = [Job(job_id=0, model="m", num_rounds=1, sync_scale=4)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0, 1.0]]),
            sync_time=np.zeros((1, 2)),
        )
        # 4 tasks over 2 GPUs: 2 waves of 1.0
        assert isolated_flow_time(inst, 0) == pytest.approx(2.0)

    def test_is_a_lower_bound_on_any_schedule(self, fig1_instance):
        sched = HareScheduler(relaxation="fluid").schedule(fig1_instance)
        m = metrics_from_schedule(sched)
        for jm in m.per_job:
            assert jm.flow_time >= isolated_flow_time(
                fig1_instance, jm.job_id
            ) - 1e-9


class TestFairnessReport:
    def test_equal_slowdowns_jain_one(self):
        r = FairnessReport(rho=np.array([2.0, 2.0, 2.0]))
        assert r.jain_index == pytest.approx(1.0)
        assert r.max_rho == 2.0

    def test_one_starved_job_lowers_jain(self):
        fair = FairnessReport(rho=np.array([1.0, 1.0, 1.0, 1.0]))
        unfair = FairnessReport(rho=np.array([1.0, 1.0, 1.0, 10.0]))
        assert unfair.jain_index < fair.jain_index

    def test_empty(self):
        r = FairnessReport(rho=np.array([]))
        assert r.jain_index == 1.0 and r.max_rho == 0.0

    def test_finish_time_fairness_rho_at_least_one(self, fig1_instance):
        sched = HareScheduler(relaxation="fluid").schedule(fig1_instance)
        report = finish_time_fairness(
            fig1_instance, metrics_from_schedule(sched)
        )
        assert (report.rho >= 1.0 - 1e-9).all()

    def test_isolated_job_has_rho_one(self):
        jobs = [Job(job_id=0, model="m", num_rounds=2, sync_scale=1)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0]]),
            sync_time=np.array([[0.5]]),
        )
        sched = HareScheduler(relaxation="fluid").schedule(inst)
        report = finish_time_fairness(inst, metrics_from_schedule(sched))
        assert report.rho[0] == pytest.approx(1.0)
