"""Tests for GPU failure injection and crash recovery."""

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.cluster import testbed_cluster as _testbed_cluster
from repro.core import Job, ProblemInstance, TaskRef, schedule_from_mapping, validate_schedule
from repro.core.errors import ConfigurationError
from repro.harness import make_workload
from repro.schedulers import HareScheduler
from repro.sim import ClusterSimulator, simulate_plan
from repro.switching import SwitchCostModel
from repro.workload import WorkloadConfig, build_instance
from tests.sim.oracles import reference_run


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
            cluster, inst, plan, failures=[(1.0, 0, 1.0)]
        )
        assert len(res.realized) == inst.num_tasks
        # completion = 1 (crash) + 1 (restart) + 3 full tasks of 2s
        assert res.metrics.per_job[0].completion == pytest.approx(8.0)
        assert res.telemetry.aborted_attempts == 1
        assert res.telemetry.wasted_compute_s == pytest.approx(1.0)

    def test_all_tasks_complete_exactly_once(self):
        cluster, inst, plan = single_gpu_plan()
        res = simulate_plan(cluster, inst, plan, failures=[(1.0, 0, 1.0)])
        assert len(res.realized) == inst.num_tasks
        validate_schedule(res.realized, check_durations=False)

    def test_idle_crash_costs_only_context(self):
        cluster, inst, plan = single_gpu_plan(num_rounds=1)
        # crash long after the job finished: nothing aborts
        res = simulate_plan(cluster, inst, plan, failures=[(100.0, 0, 1.0)])
        assert res.telemetry.aborted_attempts == 0
        assert res.metrics.per_job[0].completion == pytest.approx(2.0)

    def test_completed_rounds_survive_failures(self):
        """Gradients already at the PS are never lost (§6's checkpoints)."""
        cluster, inst, plan = single_gpu_plan()
        res = simulate_plan(
            cluster, inst, plan, failures=[(3.0, 0, 0.5)]
        )
        # round 0 completed at t=2 < crash at t=3: only round 1 re-runs
        assert res.telemetry.aborted_attempts == 1
        assert res.metrics.per_job[0].completion == pytest.approx(
            3.0 + 0.5 + 2 * 2.0
        )

    def test_multiple_failures(self):
        cluster, inst, plan = single_gpu_plan()
        res = simulate_plan(
            cluster, inst, plan,
            failures=[(1.0, 0, 0.5), (4.0, 0, 0.5)],
        )
        assert len(res.realized) == inst.num_tasks
        assert res.telemetry.aborted_attempts >= 1

    def test_unknown_gpu_rejected(self):
        cluster, inst, plan = single_gpu_plan()
        with pytest.raises(ConfigurationError, match="unknown GPU 7"):
            simulate_plan(cluster, inst, plan, failures=[(1.0, 7, 1.0)])

    def test_negative_time_rejected(self):
        cluster, inst, plan = single_gpu_plan()
        with pytest.raises(ConfigurationError, match="time must be >= 0"):
            simulate_plan(cluster, inst, plan, failures=[(-0.5, 0, 1.0)])
        with pytest.raises(ConfigurationError, match="delay must be >= 0"):
            simulate_plan(cluster, inst, plan, failures=[(1.0, 0, -1.0)])

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
        assert res.metrics.per_job[0].completion == pytest.approx(11.0)

    def test_release_for_task_not_in_plan_rejected(self):
        cluster, inst, plan = single_gpu_plan()
        with pytest.raises(ConfigurationError, match=r"J0\.r5\.t0"):
            simulate_plan(
                cluster, inst, plan, releases={TaskRef(0, 5, 0): 1.0}
            )

    def test_nan_release_rejected(self):
        cluster, inst, plan = single_gpu_plan()
        with pytest.raises(ConfigurationError, match=r"J0\.r1\.t0.*nan"):
            simulate_plan(
                cluster, inst, plan, releases={TaskRef(0, 1, 0): float("nan")}
            )

    def test_negative_release_rejected(self):
        cluster, inst, plan = single_gpu_plan()
        with pytest.raises(ConfigurationError, match=r"J0\.r1\.t0.*-5\.0"):
            simulate_plan(
                cluster, inst, plan, releases={TaskRef(0, 1, 0): -5.0}
            )

    def test_slowdown_inflates_started_tasks(self):
        cluster, inst, plan = single_gpu_plan()
        slow = simulate_plan(
            cluster, inst, plan, slowdowns=[(0.0, 100.0, 0, 2.0)]
        )
        clean = simulate_plan(cluster, inst, plan)
        assert slow.metrics.per_job[0].completion == pytest.approx(
            2.0 * clean.metrics.per_job[0].completion
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
            cluster, inst, plan, failures=[(1.0, 0, 2.0)]
        )
        # down 1.0 → 3.0, then both rounds back to back
        assert res.realized[TaskRef(0, 0, 0)].start == pytest.approx(3.0)
        assert res.metrics.per_job[0].completion == pytest.approx(7.0)

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
            cluster, inst, plan, failures=[(3.0, 1, 5.0)]
        )
        # barrier at 4.0, GPU 1 down 3.0 → 8.0
        assert res.realized[TaskRef(0, 1, 1)].start == pytest.approx(8.0)
        assert res.metrics.per_job[0].completion == pytest.approx(10.0)

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
                    cluster, inst, plan, failures=[(t, gpu, delay)],
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
            failures=[(clean.makespan * 0.3, g, 2.0) for g in range(4)],
        )
        assert len(failed.realized) == inst.num_tasks
        validate_schedule(failed.realized, check_durations=False)
        # failures only delay
        assert (
            failed.total_weighted_completion
            >= clean.total_weighted_completion - 1e-9
        )


class TestCrashWipesRetention:
    """A crash re-derives the GPU's retention hits from its queue head.

    One V100 alternates VGG19 job 0 and ResNet50 job 1, three 2 s rounds
    each. Clean, every task after the first two is a retention hit with
    the 0.6 ms warm start. GPU 0 crashes before job 0's round 1 — a hit
    to be — once idle (the round is released at t=10) and once while
    the round runs. After the restart that round is a miss loaded with
    the restart (no switch, as a GPU's first task), job 1's round 1
    misses and pays ResNet50's cold switch, and both rounds 2 hit again.
    """

    def run(self, **kw):
        cluster = make_cluster(["V100"])
        jobs = [
            Job(job_id=0, model="VGG19", num_rounds=3, sync_scale=1),
            Job(job_id=1, model="ResNet50", num_rounds=3, sync_scale=1),
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.full((2, 1), 2.0),
            sync_time=np.zeros((2, 1)),
        )
        plan = schedule_from_mapping(inst, {
            TaskRef(j, r, 0): (0, 2.0 * (2 * r + j))
            for j in range(2) for r in range(3)
        })
        sim = ClusterSimulator(cluster=cluster, instance=inst, **kw)
        res = sim.run(plan)
        oracle, _ = reference_run(sim, plan)
        assert res.telemetry.records == oracle.telemetry.records
        assert res.realized.assignments == oracle.realized.assignments
        records = sorted(res.telemetry.records, key=lambda r: r.start)
        return res.telemetry, [
            (r.task.job_id, r.task.round_idx, r.switch_time, r.retained_hit)
            for r in records
        ]

    @staticmethod
    def costs():
        model = SwitchCostModel()
        (v100,) = (d.spec for d in make_cluster(["V100"]).devices())
        cold = model.cost("ResNet50", v100)
        warm = model.cost("VGG19", v100, retained_hit=True)
        assert warm == model.cost("ResNet50", v100, retained_hit=True)
        return cold, warm

    def test_clean_run_hits_after_the_first_switch(self):
        cold, warm = self.costs()
        telemetry, tasks = self.run(releases={TaskRef(0, 1, 0): 10.0})
        assert tasks == [
            (0, 0, 0.0, False), (1, 0, cold, False), (0, 1, warm, True),
            (1, 1, warm, True), (0, 2, warm, True), (1, 2, warm, True),
        ]
        assert telemetry.retention_hits == 4

    @pytest.mark.parametrize("crash", ["idle", "mid-task"])
    def test_restart_misses_then_hits_again(self, crash):
        cold, warm = self.costs()
        if crash == "idle":
            # idle from ~4 s until the release at 10 s; down 6 → 7 s
            telemetry, tasks = self.run(
                releases={TaskRef(0, 1, 0): 10.0},
                failures=[(6.0, 0, 1.0)],
            )
            assert telemetry.aborted_attempts == 0
        else:
            # round 1 starts at ~4.003 s; down 5 → 6 s, then re-runs
            telemetry, tasks = self.run(failures=[(5.0, 0, 1.0)])
            assert telemetry.aborted_attempts == 1
            assert telemetry.wasted_compute_s == pytest.approx(
                5.0 - (4.0 + cold + warm)
            )
        assert tasks == [
            (0, 0, 0.0, False), (1, 0, cold, False), (0, 1, 0.0, False),
            (1, 1, cold, False), (0, 2, warm, True), (1, 2, warm, True),
        ]
        assert telemetry.retention_hits == 2
        assert telemetry.switch_count == 4
        assert telemetry.total_switch_time == pytest.approx(
            2 * cold + 2 * warm
        )
