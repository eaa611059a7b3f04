"""The time-attribution engine: per-job JCT decomposition, critical
path, diffs, and the sum-to-JCT invariant.

Acceptance pins (ISSUE 9): for every job in a streaming run — all
registered schedulers, with and without crashes, ``cells ∈ {1, 4}`` —
the attribution components are non-negative and sum to that job's JCT
within 1e-9; diffs reproduce the metric delta from component deltas.
"""

import json
import math

import pytest

from repro import api
from repro.obs import MetricsRegistry
from repro.obs.attrib import (
    ATTRIB_SCHEMA,
    COMPONENTS,
    SUM_TOLERANCE,
    attribute_records,
    attribute_schedule,
    load_attribution,
    write_attribution,
)
from repro.schedulers.registry import available

SMALL = dict(gpus=8, jobs=6, seed=11, rounds_scale=0.1, trace=False,
             simulate=False)
CELLED = dict(gpus=16, jobs=8, seed=11, rounds_scale=0.1, trace=False,
              simulate=False)


def _streaming(scheduler, *, crashes=None, cells=1):
    base = CELLED if cells > 1 else SMALL
    return api.run_experiment(
        scheduler=scheduler, arrivals="streaming", record=True,
        crashes=crashes, cells=cells, **base,
    )


def _assert_sound(report, *, jobs):
    assert report.schema == ATTRIB_SCHEMA
    assert len(report.jobs) == jobs
    assert report.check(SUM_TOLERANCE) == []
    for job in report.jobs:
        for c in COMPONENTS:
            assert job.components[c] >= 0.0
        assert (
            abs(math.fsum(job.components.values()) - job.jct)
            <= SUM_TOLERANCE
        )


class TestAcceptanceSweep:
    """All registered schedulers × crashes × cells: invariant holds.

    Every policy recovers from a permanent GPU crash on the kernel (a
    fixed plan re-plans its residual, a gang restarts), so both legs
    must complete for every scheduler.
    """

    @pytest.mark.parametrize("name", sorted(available()))
    def test_flat_streaming_clean_and_crashed(self, name):
        for crashes in (None, ((5.0, 1),)):
            r = _streaming(name, crashes=crashes)
            report = r.attribution()
            _assert_sound(report, jobs=SMALL["jobs"])

    @pytest.mark.parametrize("name", sorted(available()))
    def test_sharded_streaming_clean_and_crashed(self, name):
        for crashes in (None, ((5.0, 1),)):
            r = _streaming(name, crashes=crashes, cells=4)
            report = r.attribution()
            _assert_sound(report, jobs=CELLED["jobs"])
            # every job landed on a cell, residency covers them all
            cells_seen = {j.cell for j in report.jobs}
            assert cells_seen <= {0, 1, 2, 3} and None not in cells_seen
            assert abs(
                math.fsum(report.cell_residency.values())
                - report.total_jct_s
            ) < 1e-6


class TestScheduleMatchesRecords:
    """``attribute_schedule`` on the committed plan reproduces the
    recorded report byte for byte, given the kernel's retractions and
    re-plan count: both read the same round spans."""

    @pytest.mark.parametrize("name", sorted(available()))
    def test_flat_clean_and_crashed(self, name):
        for crashes in (None, ((5.0, 1),)):
            r = _streaming(name, crashes=crashes)
            from_schedule = attribute_schedule(
                r.plan,
                retracts=[(x.time, x.job) for x in r.kernel.retractions],
                replans=r.kernel.replans,
            )
            assert json.dumps(
                from_schedule.to_json(), sort_keys=True
            ) == json.dumps(r.attribution().to_json(), sort_keys=True), (
                name, crashes,
            )


class TestShardedCrash:
    """A sharded run carries its cells' crashes and re-plans into the
    merged result and the record stream, on global job and GPU ids."""

    @pytest.mark.parametrize("crashes", [None, ((5.0, 1),)])
    def test_replans_reach_the_report(self, crashes):
        r = api.run_experiment(
            gpus=8, jobs=16, seed=7, rounds_scale=0.1,
            scheduler="hare_online", crashes=crashes,
            replan_interval=2, cells=2, record=True, trace=False,
            simulate=False,
        )
        kernel = r.kernel
        assert r.attribution().replans == kernel.replans > 0
        marks = [
            (rec.time, rec.args["pass_idx"])
            for rec in r.obs.recorder.records()
            if rec.name == "kernel.replan"
        ]
        assert marks == list(kernel.replan_instants)
        assert [i for _, i in marks] == list(range(1, kernel.replans + 1))
        assert [t for t, _ in marks] == sorted(t for t, _ in marks)

    def test_retractions_reach_the_report(self):
        r = api.run_experiment(
            gpus=8, jobs=16, seed=7, rounds_scale=0.1,
            scheduler="hare_online", crashes=((5.0, 1),),
            replan_interval=2, cells=2, record=True, trace=False,
            simulate=False,
        )
        kernel = r.kernel
        assert kernel.retractions
        assert len(kernel.retractions) == sum(
            1 for rec in r.obs.recorder.records()
            if rec.name == "kernel.retract"
        )
        cell = kernel.partition.cell_of(1)
        for x in kernel.retractions:
            assert x.gpu == 1
            assert kernel.admission_plan.assignment[x.job] == cell
        report = r.attribution()
        _assert_sound(report, jobs=16)
        assert report.retractions == len(kernel.retractions)
        assert report.totals["fault_recovery"] > 0.0


class TestChaosAttribution:
    """A recorded chaos run is attributable: its one kernel run carries
    ``kernel.round`` and ``kernel.retract`` to the recorder."""

    def test_rolled_back_job_shows_fault_recovery(self):
        from repro.cluster import scaled_cluster
        from repro.control import ControlPlane
        from repro.faults import FaultScenario, GpuCrash, HeartbeatConfig
        from repro.harness.experiments import (
            make_loaded_workload,
            make_problem,
        )
        from repro.obs import Obs, use
        from repro.workload import WorkloadConfig

        jobs = make_loaded_workload(
            6, reference_gpus=6, load=1.0, seed=3,
            config=WorkloadConfig(rounds_scale=0.4),
        )
        plane = ControlPlane(cluster=scaled_cluster(6), checkpoint_interval=2)
        obs = Obs.start(trace=False, record=True)
        with use(obs):
            result = plane.run_chaos(
                make_problem(plane.cluster, jobs),
                FaultScenario(crashes=(GpuCrash(time=10.0, gpu_id=1),)),
                heartbeat=HeartbeatConfig(interval_s=1.0, lease_s=5.0),
            )
        report = attribute_records(list(obs.recorder.records()))
        _assert_sound(report, jobs=len(jobs))
        rolled_back = result.report.lost_rounds
        assert rolled_back
        by_job = {j.job_id: j for j in report.jobs}
        for job in rolled_back:
            assert by_job[job].components["fault_recovery"] > 0.0


class TestDecomposition:
    @pytest.fixture(scope="class")
    def crashed_run(self):
        return _streaming(
            "hare_online", crashes=((5.0, 1),)
        )

    def test_jct_matches_schedule(self, crashed_run):
        """Per-job completion/arrival agree with the committed plan."""
        report = crashed_run.attribution()
        plan = crashed_run.plan
        ends = {}
        for task, a in plan.assignments.items():
            ends[task.job_id] = max(ends.get(task.job_id, 0.0), a.end)
        for job in report.jobs:
            assert job.completion == pytest.approx(ends[job.job_id])
            assert job.arrival == pytest.approx(
                crashed_run.instance.jobs[job.job_id].arrival
            )

    def test_crash_surfaces_fault_recovery(self, crashed_run):
        report = crashed_run.attribution()
        assert report.retractions > 0
        assert report.totals["fault_recovery"] > 0.0

    def test_totals_are_job_sums(self, crashed_run):
        report = crashed_run.attribution()
        for c in COMPONENTS:
            assert report.totals[c] == pytest.approx(
                math.fsum(j.components[c] for j in report.jobs)
            )
        assert report.total_jct_s == pytest.approx(
            math.fsum(j.jct for j in report.jobs)
        )

    def test_critical_path_blame_covers_span(self, crashed_run):
        cp = crashed_run.attribution().critical_path
        assert cp["segments"], "critical path must not be empty"
        assert cp["makespan"] > cp["origin"]
        assert math.fsum(cp["blame"].values()) == pytest.approx(
            cp["makespan"] - cp["origin"], abs=1e-6
        )
        # segments are time-ordered and end at the makespan
        ends = [s["end"] for s in cp["segments"]]
        assert ends == sorted(ends)
        assert ends[-1] == pytest.approx(cp["makespan"])

    def test_schedule_path_agrees_with_records_path(self):
        """A clean streaming run attributes identically from the record
        stream and from the committed schedule."""
        r = _streaming("hare")
        from_records = r.attribution()
        from_schedule = attribute_schedule(r.plan, instance=r.instance)
        for a, b in zip(from_records.jobs, from_schedule.jobs):
            assert a.job_id == b.job_id
            assert a.jct == pytest.approx(b.jct)
            for c in COMPONENTS:
                assert a.components[c] == pytest.approx(
                    b.components[c], abs=1e-9
                )

    def test_planned_run_attributes_via_schedule(self):
        r = api.run_experiment(scheduler="hare", **SMALL)
        report = r.attribution()
        _assert_sound(report, jobs=SMALL["jobs"])
        assert report is r.attribution()  # cached


class TestDiff:
    def test_component_deltas_reproduce_metric_delta(self):
        base = _streaming("srtf").attribution()
        cand = _streaming("hare").attribution()
        delta = cand.diff(base)
        assert delta["schema"] == "repro.attrib-diff/1"
        assert delta["total_jct_delta_s"] == pytest.approx(
            math.fsum(delta["component_delta_s"].values()), abs=1e-6
        )
        assert delta["total_jct_delta_s"] == pytest.approx(
            cand.total_jct_s - base.total_jct_s
        )

    def test_self_diff_is_zero(self):
        report = _streaming("hare").attribution()
        delta = report.diff(report)
        assert delta["total_jct_delta_s"] == 0.0
        assert all(v == 0.0 for v in delta["component_delta_s"].values())


class TestRoundTripAndPublish:
    def test_json_round_trip_is_byte_stable(self, tmp_path):
        report = _streaming("hare_online", crashes=((5.0, 1),)).attribution()
        path = write_attribution(report, tmp_path / "attrib.json")
        loaded = load_attribution(path)
        assert json.dumps(
            loaded.to_json(), sort_keys=True
        ) == json.dumps(report.to_json(), sort_keys=True)

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.baseline/1"}))
        with pytest.raises(ValueError, match="repro.attrib/1"):
            load_attribution(bad)

    def test_publish_emits_monotone_blame_tracks(self):
        report = _streaming("hare").attribution()
        metrics = MetricsRegistry()
        report.publish(metrics)
        timeline = metrics.timeline()
        tracked = [
            n for n in timeline if n.startswith("attrib.blame.")
        ]
        assert tracked, "blame counter tracks must be published"
        for name in tracked:
            values = [v for _, v in timeline[name]]
            assert values == sorted(values)  # cumulative, non-decreasing
        # the final cumulative values equal the report totals
        for c in COMPONENTS:
            series = timeline.get(f"attrib.blame.{c}")
            if series:
                assert series[-1][1] == pytest.approx(report.totals[c])

    def test_run_publishes_blame_into_run_metrics(self):
        r = _streaming("hare")
        timeline = r.obs.metrics.timeline()
        assert any(n.startswith("attrib.blame.") for n in timeline)


class TestStreamRobustness:
    def test_flight_log_round_trip(self, tmp_path):
        from repro.obs import load_flight_log

        r = _streaming("hare_online", crashes=((5.0, 1),))
        log = r.write_flight_log(tmp_path / "flight.jsonl")
        offline = attribute_records(
            load_flight_log(log), instance=r.instance
        )
        live = r.attribution()
        assert json.dumps(
            offline.to_json(), sort_keys=True
        ) == json.dumps(live.to_json(), sort_keys=True)

    def test_empty_stream_gives_empty_report(self):
        report = attribute_records([])
        assert report.jobs == ()
        assert report.total_jct_s == 0.0
        assert report.check() == []
        assert report.critical_path["segments"] == []

    def test_engine_is_silent_in_diagnosis(self):
        r = api.run_experiment(
            scheduler="hare_online", arrivals="streaming",
            monitors=True, **SMALL,
        )
        assert r.diagnosis is not None
        assert "attribution" not in r.diagnosis.monitors
        _assert_sound(r.attribution(), jobs=SMALL["jobs"])
