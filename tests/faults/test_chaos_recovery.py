"""End-to-end chaos tests: the full detect → restore → re-plan pipeline."""

import pytest

from repro.api import run_experiment
from repro.cluster import scaled_cluster
from repro.control import ControlPlane
from repro.core import validate_schedule
from repro.faults import (
    FaultScenario,
    GpuCrash,
    GpuRestart,
    GpuSlowdown,
    HeartbeatConfig,
    RpcFlakiness,
)
from repro.harness.experiments import make_loaded_workload, make_problem
from repro.sim import simulate_plan
from repro.workload import WorkloadConfig
from tests.core.oracles import reference_round_end


def chaos_plane(num_jobs=6, gpus=6, seed=3, interval=2):
    cluster = scaled_cluster(gpus)
    jobs = make_loaded_workload(
        num_jobs,
        reference_gpus=gpus,
        load=1.0,
        seed=seed,
        config=WorkloadConfig(rounds_scale=0.4),
    )
    plane = ControlPlane(cluster=cluster, checkpoint_interval=interval)
    return plane, jobs


class TestChaosRecovery:
    def test_crash_straggler_and_flaky_rpcs(self):
        """The acceptance scenario: one permanent crash, one straggler
        window, 5% RPC drop — detected, restored, re-planned, completed."""
        plane, jobs = chaos_plane()
        heartbeat = HeartbeatConfig(
            interval_s=1.0, suspect_misses=2, lease_s=5.0
        )
        scenario = FaultScenario(
            crashes=(GpuCrash(time=10.0, gpu_id=1),),
            slowdowns=(GpuSlowdown(gpu_id=2, start=5.0, duration=30.0,
                                   factor=1.5),),
            flakiness=RpcFlakiness(drop_rate=0.05, seed=7),
        )
        result = plane.run_chaos(
            make_problem(plane.cluster, jobs), scenario, heartbeat=heartbeat
        )
        report = result.report

        # every job completes despite the faults
        assert sorted(result.completions) == [j.job_id for j in jobs]
        # the crash is detected within the lease window
        (latency,) = report.detection_latencies
        assert 0.0 < latency <= heartbeat.lease_s + heartbeat.interval_s
        # affected jobs restored from checkpoints, residual re-planned
        assert report.restore_reads >= 1
        assert report.checkpoint_bytes_restored > 0
        assert report.replans == 1
        # the stitched schedule is a feasible global execution
        validate_schedule(result.realized, check_durations=False)
        assert len(result.realized) == result.instance.num_tasks
        # degradation is real but bounded
        assert 1.0 <= report.jct_degradation < 3.0
        assert report.degraded_makespan >= report.failure_free_makespan

    def test_flaky_wire_only_still_completes(self):
        """Pure RPC flakiness: retries deliver everything, nothing re-plans."""
        plane, jobs = chaos_plane(num_jobs=4)
        scenario = FaultScenario(flakiness=RpcFlakiness(drop_rate=0.2, seed=1))
        result = plane.run_chaos(make_problem(plane.cluster, jobs), scenario)
        assert sorted(result.completions) == [j.job_id for j in jobs]
        validate_schedule(result.realized, check_durations=False)
        assert result.report.replans == 0
        assert result.report.rpc_retries > 0
        assert result.report.jct_degradation == pytest.approx(1.0)

    def test_rollback_without_checkpoint_restarts_from_zero(self):
        """A crash before the first checkpoint loses the early rounds."""
        plane, jobs = chaos_plane(num_jobs=4, interval=10_000)
        scenario = FaultScenario(crashes=(GpuCrash(time=8.0, gpu_id=0),))
        result = plane.run_chaos(
            make_problem(plane.cluster, jobs),
            scenario,
            heartbeat=HeartbeatConfig(interval_s=1.0, lease_s=5.0),
        )
        assert sorted(result.completions) == [j.job_id for j in jobs]
        validate_schedule(result.realized, check_durations=False)
        assert result.report.restore_reads == 0
        assert result.report.total_lost_rounds >= 0

    def test_two_crashes_recover_twice(self):
        plane, jobs = chaos_plane()
        scenario = FaultScenario(
            crashes=(GpuCrash(time=15.0, gpu_id=1),
                     GpuCrash(time=30.0, gpu_id=4)),
            flakiness=RpcFlakiness(drop_rate=0.03, seed=11),
        )
        result = plane.run_chaos(
            make_problem(plane.cluster, jobs),
            scenario,
            heartbeat=HeartbeatConfig(interval_s=1.0, lease_s=5.0),
        )
        report = result.report
        assert sorted(result.completions) == [j.job_id for j in jobs]
        assert report.replans == 2
        assert len(report.detections) == 2
        assert report.restore_reads >= 1
        validate_schedule(result.realized, check_durations=False)

    def test_crash_after_completion_changes_nothing(self):
        plane, jobs = chaos_plane(num_jobs=3)
        scenario = FaultScenario(crashes=(GpuCrash(time=1e6, gpu_id=0),))
        result = plane.run_chaos(make_problem(plane.cluster, jobs), scenario)
        assert sorted(result.completions) == [j.job_id for j in jobs]
        validate_schedule(result.realized, check_durations=False)
        assert result.report.total_lost_rounds == 0
        assert result.report.degraded_makespan == pytest.approx(
            result.report.failure_free_makespan
        )

    def test_scenario_validated_against_cluster(self):
        from repro.core.errors import ConfigurationError

        plane, jobs = chaos_plane(num_jobs=2)
        with pytest.raises(ConfigurationError, match="GPU 99"):
            plane.run_chaos(
                make_problem(plane.cluster, jobs),
                FaultScenario(crashes=(GpuCrash(time=1.0, gpu_id=99),))
            )

    def test_legacy_restart_scenario(self):
        """A transient restart recovers without a re-plan."""
        plane, jobs = chaos_plane(num_jobs=3)
        scenario = FaultScenario(
            restarts=(GpuRestart(time=2.0, gpu_id=0, restart_delay_s=1.0),)
        )
        result = plane.run_chaos(make_problem(plane.cluster, jobs), scenario)
        assert sorted(result.completions) == [j.job_id for j in jobs]
        validate_schedule(result.realized, check_durations=False)
        assert result.report.replans == 0
        assert result.report.degraded_makespan >= (
            result.report.failure_free_makespan - 1e-9
        )

    def test_checkpoints_land_at_the_realized_barriers(self):
        """Every checkpoint is written when its round's barrier opened in
        the replay, the realized round end; the final one at the job's
        completion."""
        plane, jobs = chaos_plane(num_jobs=3, interval=2)
        result = plane.run_chaos(
            make_problem(plane.cluster, jobs),
            FaultScenario(crashes=(GpuCrash(time=5.0, gpu_id=1),))
        )
        store, realized = plane.store, result.realized
        validate_schedule(realized, check_durations=False)
        for job in result.instance.jobs:
            path = f"checkpoints/job{job.job_id}/model.pt"
            written = [
                store.get(path, v).written_at
                for v in range(1, store.latest_version(path) + 1)
            ]
            last = job.num_rounds - 1
            assert written == [
                reference_round_end(realized, job.job_id, r)
                for r in range(job.num_rounds) if (r + 1) % 2 == 0
            ] + [result.metrics.per_job[job.job_id].completion]
            assert written[-1] == reference_round_end(
                realized, job.job_id, last
            )

    def test_restart_replays_its_own_delay(self):
        """A restart's delay reaches the replay: the 5 s restart costs
        what ``simulate_plan`` of the same plan with a 5 s restart does,
        not the 1 s default's weighted JCT (222.53)."""
        restart = GpuRestart(time=2.0, gpu_id=0, restart_delay_s=5.0)
        result = run_experiment(
            gpus=15, jobs=10, seed=1, trace=False,
            faults=FaultScenario(restarts=(restart,)),
        )
        direct = simulate_plan(
            result.cluster, result.instance, result.plan,
            failures=[(2.0, 0, 5.0)],
        )
        assert result.weighted_jct == direct.total_weighted_completion
        assert result.weighted_jct == pytest.approx(302.53, abs=0.01)
