"""Tests for GPU failure injection and crash recovery."""

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.cluster import testbed_cluster as _testbed_cluster
from repro.core import Job, ProblemInstance, TaskRef, schedule_from_mapping, validate_schedule
from repro.core.errors import ConfigurationError
from repro.harness import make_workload
from repro.schedulers import HareScheduler
from repro.sim import simulate_plan
from repro.workload import WorkloadConfig, build_instance


def single_gpu_plan(num_rounds=3):
    cluster = make_cluster(["V100"])
    jobs = [Job(job_id=0, model="m", num_rounds=num_rounds, sync_scale=1)]
    inst = ProblemInstance(
        jobs=jobs,
        train_time=np.full((1, 1), 2.0),
        sync_time=np.zeros((1, 1)),
    )
    plan = schedule_from_mapping(
        inst, {TaskRef(0, r, 0): (0, 2.0 * r) for r in range(num_rounds)}
    )
    return cluster, inst, plan


class TestFailureRecovery:
    def test_aborted_task_reruns(self):
        cluster, inst, plan = single_gpu_plan()
        # crash mid first task (t=1.0); restart after 1s; task re-runs
        res = simulate_plan(
            cluster, inst, plan, failures=[(1.0, 0)], restart_delay_s=1.0
        )
        assert res.pool.all_jobs_complete()
        # completion = 1 (crash) + 1 (restart) + 3 full tasks of 2s
        assert res.pool.completion_time(0) == pytest.approx(8.0)
        assert res.telemetry.aborted_attempts == 1
        assert res.telemetry.wasted_compute_s == pytest.approx(1.0)

    def test_all_tasks_complete_exactly_once(self):
        cluster, inst, plan = single_gpu_plan()
        res = simulate_plan(cluster, inst, plan, failures=[(1.0, 0)])
        assert len(res.realized) == inst.num_tasks
        validate_schedule(res.realized, check_durations=False)

    def test_idle_crash_costs_only_context(self):
        cluster, inst, plan = single_gpu_plan(num_rounds=1)
        # crash long after the job finished: nothing aborts
        res = simulate_plan(cluster, inst, plan, failures=[(100.0, 0)])
        assert res.telemetry.aborted_attempts == 0
        assert res.pool.completion_time(0) == pytest.approx(2.0)

    def test_completed_rounds_survive_failures(self):
        """Gradients already at the PS are never lost (§6's checkpoints)."""
        cluster, inst, plan = single_gpu_plan()
        res = simulate_plan(
            cluster, inst, plan, failures=[(3.0, 0)], restart_delay_s=0.5
        )
        # round 0 completed at t=2 < crash at t=3: only round 1 re-runs
        assert res.telemetry.aborted_attempts == 1
        assert res.pool.completion_time(0) == pytest.approx(
            3.0 + 0.5 + 2 * 2.0
        )

    def test_multiple_failures(self):
        cluster, inst, plan = single_gpu_plan()
        res = simulate_plan(
            cluster, inst, plan,
            failures=[(1.0, 0), (4.0, 0)], restart_delay_s=0.5,
        )
        assert res.pool.all_jobs_complete()
        assert res.telemetry.aborted_attempts >= 1

    def test_unknown_gpu_rejected(self):
        cluster, inst, plan = single_gpu_plan()
        with pytest.raises(ConfigurationError, match="unknown GPU 7"):
            simulate_plan(cluster, inst, plan, failures=[(1.0, 7)])

    def test_negative_time_rejected(self):
        cluster, inst, plan = single_gpu_plan()
        with pytest.raises(ConfigurationError, match="time must be >= 0"):
            simulate_plan(cluster, inst, plan, failures=[(-0.5, 0)])

    def test_slowdown_windows_validated(self):
        cluster, inst, plan = single_gpu_plan()
        with pytest.raises(ConfigurationError, match="unknown GPU"):
            simulate_plan(cluster, inst, plan, slowdowns=[(0.0, 5.0, 9, 2.0)])
        with pytest.raises(ConfigurationError, match="start < end"):
            simulate_plan(cluster, inst, plan, slowdowns=[(5.0, 5.0, 0, 2.0)])
        with pytest.raises(ConfigurationError, match="factor must be >= 1"):
            simulate_plan(cluster, inst, plan, slowdowns=[(0.0, 5.0, 0, 0.5)])

    def test_release_holds_a_task_until_it_is_shipped(self):
        """A task released late waits for its release, then runs; the
        rest of the GPU's sequence follows it."""
        cluster, inst, plan = single_gpu_plan()
        res = simulate_plan(
            cluster, inst, plan, releases={TaskRef(0, 1, 0): 7.0}
        )
        starts = {
            a.task.round_idx: a.start
            for a in res.realized.assignments.values()
        }
        assert starts[1] == pytest.approx(7.0)
        assert starts[2] >= 9.0 - 1e-9
        assert res.pool.completion_time(0) == pytest.approx(11.0)

    def test_slowdown_inflates_started_tasks(self):
        cluster, inst, plan = single_gpu_plan()
        slow = simulate_plan(
            cluster, inst, plan, slowdowns=[(0.0, 100.0, 0, 2.0)]
        )
        clean = simulate_plan(cluster, inst, plan)
        assert slow.pool.completion_time(0) == pytest.approx(
            2.0 * clean.pool.completion_time(0)
        )
        validate_schedule(slow.realized, check_durations=False)

    def test_arrival_inside_restart_window_waits(self):
        """A running abort: job 1 arrives while GPU 0 is down, and the
        arrival must not restart GPU 0 before its restart check."""
        cluster = make_cluster(["V100", "V100"])
        jobs = [
            Job(job_id=0, model="m", num_rounds=2, sync_scale=1),
            Job(job_id=1, model="m", arrival=1.5, num_rounds=1,
                sync_scale=1),
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.full((2, 2), 2.0),
            sync_time=np.zeros((2, 2)),
        )
        plan = schedule_from_mapping(inst, {
            TaskRef(0, 0, 0): (0, 0.0),
            TaskRef(0, 1, 0): (0, 2.0),
            TaskRef(1, 0, 0): (1, 1.5),
        })
        res = simulate_plan(
            cluster, inst, plan, failures=[(1.0, 0)], restart_delay_s=2.0
        )
        # down 1.0 → 3.0, then both rounds back to back
        assert res.realized[TaskRef(0, 0, 0)].start == pytest.approx(3.0)
        assert res.pool.completion_time(0) == pytest.approx(7.0)

    def test_barrier_inside_restart_window_waits(self):
        """An idle crash: GPU 1 waits on round 0's barrier when it fails,
        and the barrier opening inside its down window must not start
        it before the restart check."""
        cluster = make_cluster(["V100", "V100"])
        jobs = [Job(job_id=0, model="m", num_rounds=2, sync_scale=2)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[4.0, 2.0]]),
            sync_time=np.zeros((1, 2)),
        )
        plan = schedule_from_mapping(inst, {
            TaskRef(0, r, s): (s, 4.0 * r) for r in range(2) for s in range(2)
        })
        res = simulate_plan(
            cluster, inst, plan, failures=[(3.0, 1)], restart_delay_s=5.0
        )
        # barrier at 4.0, GPU 1 down 3.0 → 8.0
        assert res.realized[TaskRef(0, 1, 1)].start == pytest.approx(8.0)
        assert res.pool.completion_time(0) == pytest.approx(10.0)

    def test_no_start_inside_restart_window_on_testbed(self):
        """Hare plans on the testbed, one failure per run on every GPU at
        five times: the failed GPU starts nothing until it restarts."""
        cluster = _testbed_cluster()
        jobs = make_workload(
            12, seed=3, config=WorkloadConfig(rounds_scale=0.1)
        )
        inst = build_instance(jobs, cluster)
        plan = HareScheduler(relaxation="fluid").schedule(inst)
        makespan = simulate_plan(cluster, inst, plan).makespan
        delay = 50.0
        for gpu in range(inst.num_gpus):
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                t = makespan * frac
                res = simulate_plan(
                    cluster, inst, plan, failures=[(t, gpu)],
                    restart_delay_s=delay,
                )
                early = [
                    a.task for a in res.realized.assignments.values()
                    if a.gpu == gpu and t < a.start < t + delay
                ]
                assert early == [], (gpu, frac)

    def test_failures_on_realistic_workload(self):
        cluster = make_cluster(["V100", "T4", "K80", "V100"])
        jobs = make_workload(
            6, seed=71, config=WorkloadConfig(rounds_scale=0.06)
        )
        inst = build_instance(jobs, cluster)
        plan = HareScheduler(relaxation="fluid").schedule(inst)
        clean = simulate_plan(cluster, inst, plan)
        failed = simulate_plan(
            cluster,
            inst,
            plan,
            failures=[(clean.makespan * 0.3, g) for g in range(4)],
            restart_delay_s=2.0,
        )
        assert failed.pool.all_jobs_complete()
        validate_schedule(failed.realized, check_durations=False)
        # failures only delay
        assert (
            failed.total_weighted_completion
            >= clean.total_weighted_completion - 1e-9
        )
