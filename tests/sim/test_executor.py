"""Tests for the replay oracle's per-GPU executor state machine."""

from collections import deque

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.core import Job, ProblemInstance, SimulationError, SwitchMode, TaskRef
from repro.core.schedule import TaskAssignment
from repro.switching import SwitchCostModel
from tests.sim.oracles import build_executors


@pytest.fixture
def setup():
    cluster = make_cluster(["V100"])
    jobs = [
        Job(job_id=0, model="ResNet50", num_rounds=2, sync_scale=1),
        Job(job_id=1, model="Bert_base", num_rounds=1, sync_scale=1),
    ]
    inst = ProblemInstance(
        jobs=jobs,
        train_time=np.array([[1.0], [2.0]]),
        sync_time=np.array([[0.1], [0.1]]),
    )
    seq = [
        TaskAssignment(TaskRef(0, 0, 0), 0, 0.0, 1.0, 0.1),
        TaskAssignment(TaskRef(1, 0, 0), 0, 1.0, 2.0, 0.1),
        TaskAssignment(TaskRef(0, 1, 0), 0, 3.0, 1.0, 0.1),
    ]
    return cluster, inst, seq


def barrier_all_open(job_id, round_idx):
    return True


class TestExecutor:
    def test_first_task_free_switch(self, setup):
        cluster, inst, seq = setup
        (ex,) = build_executors(
            inst, list(cluster.devices()), {0: seq}, SwitchMode.HARE
        )
        started = ex.start_head(0.0)
        assert started.switch_time == 0.0
        assert started.start == 0.0

    def test_cross_job_switch_charged(self, setup):
        cluster, inst, seq = setup
        (ex,) = build_executors(
            inst, list(cluster.devices()), {0: seq}, SwitchMode.HARE
        )
        ex.start_head(0.0)
        ex.finish_running()
        started = ex.start_head(1.0)  # Bert after ResNet: different job
        assert started.switch_time > 0.0

    def test_same_job_switch_free(self, setup):
        cluster, inst, _ = setup
        seq = [
            TaskAssignment(TaskRef(0, 0, 0), 0, 0.0, 1.0, 0.1),
            TaskAssignment(TaskRef(0, 1, 0), 0, 1.0, 1.0, 0.1),
        ]
        (ex,) = build_executors(
            inst, list(cluster.devices()), {0: seq}, SwitchMode.HARE
        )
        ex.start_head(0.0)
        ex.finish_running()
        started = ex.start_head(1.0)
        assert started.switch_time == 0.0

    def test_retention_hit_on_model_rerun(self, setup):
        cluster, inst, _ = setup
        # ResNet → Bert → ResNet: third task re-finds ResNet weights.
        seq = [
            TaskAssignment(TaskRef(0, 0, 0), 0, 0.0, 1.0, 0.1),
            TaskAssignment(TaskRef(1, 0, 0), 0, 1.0, 2.0, 0.1),
            TaskAssignment(TaskRef(0, 1, 0), 0, 3.0, 1.0, 0.1),
        ]
        (ex,) = build_executors(
            inst, list(cluster.devices()), {0: seq}, SwitchMode.HARE
        )
        ex.start_head(0.0); ex.finish_running()
        ex.start_head(1.0); ex.finish_running()
        started = ex.start_head(3.0)
        assert started.retained_hit
        assert started.switch_time < 1e-3

    def test_no_retention_under_pipeswitch(self, setup):
        cluster, inst, seq = setup
        (ex,) = build_executors(
            inst, list(cluster.devices()), {0: seq}, SwitchMode.PIPESWITCH
        )
        ex.start_head(0.0); ex.finish_running()
        ex.start_head(1.0); ex.finish_running()
        started = ex.start_head(3.0)
        assert not started.retained_hit

    def test_head_ready_respects_arrival(self, setup):
        cluster, inst, _ = setup
        jobs2 = [Job(job_id=0, model="ResNet50", arrival=5.0)]
        inst2 = ProblemInstance(
            jobs=jobs2,
            train_time=np.array([[1.0]]),
            sync_time=np.array([[0.1]]),
        )
        seq = [TaskAssignment(TaskRef(0, 0, 0), 0, 5.0, 1.0, 0.1)]
        (ex,) = build_executors(
            inst2, list(cluster.devices()), {0: seq}, SwitchMode.HARE
        )
        assert not ex.head_ready(0.0, barrier_all_open)
        assert ex.head_ready(5.0, barrier_all_open)

    def test_head_ready_respects_barrier(self, setup):
        cluster, inst, seq = setup
        (ex,) = build_executors(
            inst, list(cluster.devices()), {0: seq[2:]}, SwitchMode.HARE
        )
        closed = lambda j, r: r < 0
        assert not ex.head_ready(10.0, closed)
        assert ex.head_ready(10.0, barrier_all_open)

    def test_start_while_busy_rejected(self, setup):
        cluster, inst, seq = setup
        (ex,) = build_executors(
            inst, list(cluster.devices()), {0: seq}, SwitchMode.HARE
        )
        ex.start_head(0.0)
        with pytest.raises(SimulationError):
            ex.start_head(0.5)

    def test_finish_without_running_rejected(self, setup):
        cluster, inst, seq = setup
        (ex,) = build_executors(
            inst, list(cluster.devices()), {0: seq}, SwitchMode.HARE
        )
        with pytest.raises(SimulationError):
            ex.finish_running()

    def test_done_flag(self, setup):
        cluster, inst, _ = setup
        seq = [TaskAssignment(TaskRef(0, 0, 0), 0, 0.0, 1.0, 0.1)]
        (ex,) = build_executors(
            inst, list(cluster.devices()), {0: seq}, SwitchMode.HARE
        )
        assert not ex.done
        ex.start_head(0.0)
        ex.finish_running()
        assert ex.done
