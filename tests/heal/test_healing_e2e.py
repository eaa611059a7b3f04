"""End-to-end healing: the storm acceptance pin, the chaos quarantine
path, and the deterministic golden remediation log."""

import pytest

from repro.cluster import testbed_cluster as make_testbed
from repro.control import ControlPlane
from repro.core import validate_schedule
from repro.core.metrics import metrics_from_schedule
from repro.faults import FaultScenario, GpuCrash, GpuSlowdown
from repro.harness import make_problem, make_workload
from repro.heal import RemediationEngine
from repro.kernel import run_policy
from repro.obs import Obs, use
from repro.schedulers.online import OnlineHarePolicy
from repro.workload import WorkloadConfig, build_instance


def storm_arm(*, heal: bool, jobs=16, seed=7):
    """One replan-storm run (aggressive 0.25s timer), healing on or off."""
    cluster = make_testbed()
    workload = make_workload(
        jobs, seed=seed, config=WorkloadConfig(rounds_scale=0.1)
    )
    instance = build_instance(workload, cluster)
    engine = RemediationEngine(instance) if heal else None
    obs = Obs.start(
        trace=False, record=True, monitors=[engine] if engine else None
    )
    with use(obs):
        result = run_policy(
            instance, OnlineHarePolicy(), replan_interval=0.25, heal=engine
        )
    metrics = metrics_from_schedule(result.schedule)
    return result, metrics, engine


class TestStormAcceptance:
    """The PR's acceptance pin: a seeded replan storm healed online ends
    with strictly fewer re-plans and no worse weighted JCT."""

    def test_healing_cuts_replans_without_hurting_jct(self):
        base, base_m, _ = storm_arm(heal=False)
        healed, healed_m, engine = storm_arm(heal=True)
        assert healed.replans < base.replans
        assert (
            healed_m.total_weighted_completion
            <= base_m.total_weighted_completion + 1e-9
        )
        assert engine.log.ok
        assert engine.log.counts().get("throttle_replans", 0) >= 1

    def test_golden_storm_log_seed7(self):
        """Deterministic pin for seed 7 / 16 jobs: exact re-plan counts
        and the exact remediation log."""
        base, base_m, _ = storm_arm(heal=False)
        healed, healed_m, engine = storm_arm(heal=True)
        assert base.replans == 62
        assert healed.replans == 27
        assert healed_m.total_weighted_completion == pytest.approx(
            base_m.total_weighted_completion
        )
        log = engine.log
        assert [r.action.kind for r in log.records] == ["throttle_replans"]
        assert [r.action.monitor for r in log.records] == ["replan_storm"]
        assert [r.applied for r in log.records] == [True]
        assert log.records[0].action.time == pytest.approx(2.75)
        assert log.records[0].action.params["min_gap_s"] == pytest.approx(
            1.25
        )
        assert log.unremediated == []

    def test_completed_schedule_is_identical_work(self):
        base, _, _ = storm_arm(heal=False, jobs=8, seed=5)
        healed, _, _ = storm_arm(heal=True, jobs=8, seed=5)
        assert len(healed.schedule) == len(base.schedule)


class TestChaosHealing:
    """run_chaos(heal=...): quarantine from detector suspicion."""

    def scenario_plane(self):
        cluster = make_testbed()
        jobs = make_workload(
            8, seed=3, config=WorkloadConfig(rounds_scale=0.1)
        )
        plane = ControlPlane(cluster=cluster)
        scenario = FaultScenario(
            crashes=(GpuCrash(time=3.0, gpu_id=2),),
            slowdowns=(
                GpuSlowdown(gpu_id=4, start=1.0, duration=6.0, factor=3.0),
            ),
        )
        return plane, jobs, scenario

    def test_suspects_are_quarantined_and_logged(self):
        plane, jobs, scenario = self.scenario_plane()
        engine = RemediationEngine()
        obs = Obs.start(trace=False, record=True, monitors=[engine])
        with use(obs):
            result = plane.run_chaos(
                make_problem(plane.cluster, jobs), scenario, heal=engine
            )
        assert sorted(result.completions) == [j.job_id for j in jobs]
        validate_schedule(result.realized, check_durations=False)
        log = result.remediation
        assert log is engine.log
        assert log.ok
        # the straggler (gpu 4) and the crashed gpu (2) both go SUSPECT
        quarantines = [
            r for r in log.records if r.action.kind == "quarantine_gpu"
        ]
        assert {r.action.params["gpu"] for r in quarantines} == {2, 4}
        assert all(r.applied for r in quarantines)
        # recovery (alive) and lease expiry (dead) both lift quarantine
        assert engine.quarantined == set()

    def test_unhealed_run_has_no_remediation(self):
        plane, jobs, scenario = self.scenario_plane()
        result = plane.run_chaos(make_problem(plane.cluster, jobs), scenario)
        assert result.remediation is None
        assert sorted(result.completions) == [j.job_id for j in jobs]
        validate_schedule(result.realized, check_durations=False)


class TestApiSurface:
    def test_run_experiment_heal_runs_under_planned_arrivals(self):
        from repro import api

        result = api.run_experiment(
            gpus=4, jobs=4, rounds_scale=0.05, simulate=False, trace=False,
            heal=True,
        )
        assert result.config["arrivals"] == "planned"
        assert result.remediation is not None
        with pytest.raises(ValueError, match="cells=1"):
            api.run_experiment(jobs=4, heal=True, cells=2)

    def test_run_experiment_heal_fills_remediation(self):
        from repro import api

        result = api.run_experiment(
            gpus=8,
            jobs=6,
            scheduler="hare_online",
            seed=5,
            rounds_scale=0.1,
            simulate=False,
            trace=False,
            arrivals="streaming",
            heal=True,
            replan_interval=0.25,
        )
        assert result.remediation is not None
        assert result.diagnosis is not None
        block = result.manifest()["results"]["remediation"]
        assert block["ok"] == result.remediation.ok
        assert block["actions"] == len(result.remediation.records)
        assert set(block) == {
            "ok", "actions", "applied", "by_kind", "unremediated",
        }


class TestWallRecords:
    """Wall-domain records time the tooling, not the run: a remediation
    decision must not depend on how many of them were emitted."""

    @staticmethod
    def replay(instance, stream):
        from repro.obs import DISABLED

        engine = RemediationEngine(instance)
        with use(DISABLED):
            for record in stream:
                engine.observe(record)
        return engine.log.to_json()

    def test_interleaved_wall_records_leave_the_log_unchanged(self):
        from repro import api
        from repro.harness.experiments import make_loaded_workload
        from repro.obs.recorder import Record

        # The online_chaos shape: streaming hare_online, crash at 5 s, a
        # 2 s re-plan timer, heal on; seed 4 boosts starving jobs.
        jobs = make_loaded_workload(
            40, reference_gpus=15, load=1.5, seed=4,
            config=WorkloadConfig(rounds_scale=0.15),
        )
        result = api.run_experiment(
            scheduler="hare_online", cluster=make_testbed(),
            workload=tuple(jobs), arrivals="streaming", trace=False,
            replan_interval=2.0, crashes=((5.0, 1),), heal=True,
        )
        recorded = result.obs.recorder.records()
        sim_time = [r for r in recorded if r.kind != "wall"]
        assert len(sim_time) < len(recorded)
        padded = []
        for i, record in enumerate(sim_time):
            padded.append(record)
            padded.append(Record(
                seq=0, kind="wall", category="sched",
                name="residual_solve", track="kernel",
                time=1e6 + i, duration=1e-3,
            ))
        log = self.replay(result.instance, sim_time)
        assert log["counts"].get("boost_weight", 0) >= 1
        assert self.replay(result.instance, recorded) == log
        assert self.replay(result.instance, padded) == log
