"""Unit tests for the remediation engine, policy table and action log."""

import json

import pytest

from repro.heal import (
    ActionSpec,
    DEFAULT_POLICY,
    REMEDIATION_SCHEMA,
    RemediationEngine,
    RemediationLog,
)
from repro.kernel.policies import Policy
from repro.obs.monitors import DiagnosisContext, Finding, Severity


def finding(monitor, severity=Severity.WARNING, time=1.0, **details):
    return Finding(
        severity=severity,
        monitor=monitor,
        message=f"synthetic {monitor}",
        time=time,
        details=details,
    )


class TestPolicyTable:
    def test_default_covers_the_catalogue(self):
        assert set(DEFAULT_POLICY) == {
            "replan_storm", "job_starvation", "utilization_collapse",
            "gpu_suspect", "rpc_budget_exhausted",
        }

    def test_unknown_action_kind_raises(self):
        with pytest.raises(ValueError):
            ActionSpec("reboot_datacenter")


class TestDispatch:
    def test_unmapped_finding_lands_in_unremediated(self):
        engine = RemediationEngine()
        bad = finding(
            "sim_invariants", severity=Severity.ERROR
        )
        engine._dispatch(bad)
        assert engine.log.records == []
        assert engine.log.unremediated == [bad]
        assert not engine.log.ok
        assert engine.log.unremediated_errors() == [bad]

    def test_throttle_without_kernel_is_logged_unapplied(self):
        engine = RemediationEngine()
        engine._dispatch(finding("replan_storm", replans=10, window_s=5.0))
        (rec,) = engine.log.records
        assert rec.action.kind == "throttle_replans"
        assert not rec.applied
        assert engine.log.ok  # declined is not an unremediated ERROR
        assert engine.log.counts() == {}

    def test_throttle_declined_by_planned_policy(self):
        class Declines(Policy):
            def on_event(self, event, state):
                return []

        class FakeKernel:
            policy = Declines()

        engine = RemediationEngine()
        engine._kernel = FakeKernel()
        engine._dispatch(finding("replan_storm", replans=10, window_s=5.0))
        (rec,) = engine.log.records
        assert not rec.applied
        assert "declined" in rec.detail

    def test_boost_is_capped_and_decays(self):
        engine = RemediationEngine()
        for _ in range(10):
            engine._dispatch(finding("job_starvation", job=3))
        cap = DEFAULT_POLICY["job_starvation"].params["cap"]
        assert engine.boosts[3] == cap
        assert engine.max_boost_seen == cap
        # once the job stops being flagged the boost relaxes away
        for _ in range(40):
            engine._decay_boosts()
        assert 3 not in engine.boosts

    def test_quarantine_and_release_via_health_instants(self):
        from repro.obs.recorder import Record

        engine = RemediationEngine()
        suspect = Record(0, "instant", "fault", "gpu 2 suspect",
                         "fault", 4.0, args={"gpu": 2, "state": "suspect"})
        engine.observe(suspect)
        assert engine.quarantined == {2}
        (rec,) = engine.log.records
        assert rec.action.kind == "quarantine_gpu" and rec.applied
        alive = Record(1, "instant", "fault", "gpu 2 alive",
                       "fault", 5.0, args={"gpu": 2, "state": "alive"})
        engine.observe(alive)
        assert engine.quarantined == set()

    def test_finish_merges_monitor_and_own_findings(self):
        engine = RemediationEngine()
        engine._dispatch(finding("job_starvation", job=1))
        engine.finish(DiagnosisContext(instance=None, metrics=None))
        assert any(f.monitor == "remediation_engine" for f in engine.findings)



class TestPollCadence:
    def test_polls_once_per_poll_every_sim_records(self, monkeypatch):
        from repro.heal import engine as engine_module
        from repro.obs.monitors import Monitor
        from repro.obs.recorder import Record

        class CountsPolls(Monitor):
            name = "counts_polls"
            polls = 0

            def poll(self, ctx):
                self.polls += 1

        counter = CountsPolls()
        monkeypatch.setattr(
            engine_module, "default_monitors", lambda instance: [counter]
        )
        engine = RemediationEngine()
        every = engine_module.POLL_EVERY

        def sim(seq):
            return Record(seq, "span", "kernel", "task", "gpu0", float(seq))

        for seq in range(2 * every - 1):
            engine.observe(sim(seq))
            # Wall-domain records never count towards the cadence.
            engine.observe(Record(seq, "wall", "api", "phase", "wall", 0.0))
        assert counter.polls == 1
        engine.observe(sim(2 * every - 1))
        assert counter.polls == 2

class TestLogSerialization:
    def test_schema_and_roundtrip(self, tmp_path):
        engine = RemediationEngine()
        engine._dispatch(finding("job_starvation", job=2))
        engine._dispatch(finding("sim_invariants", severity=Severity.ERROR))
        log: RemediationLog = engine.log
        doc = log.to_json()
        assert doc["schema"] == REMEDIATION_SCHEMA
        assert doc["ok"] is False
        assert doc["counts"] == {"boost_weight": 1}
        path = log.write(tmp_path / "remediation.json")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(doc))
