"""Tests for the stable ``repro.api`` facade and its exported artifacts."""

import pytest

import repro
from repro.api import CompareResult, RunResult, compare, run_experiment
from repro.api import simulate as api_simulate
from repro.cli import main
from repro.obs import NullTracer, read_manifest, validate_chrome_trace
from repro.schedulers import HareScheduler, available

SMALL = dict(gpus=4, jobs=3, seed=3, rounds_scale=0.05)


@pytest.fixture(scope="module")
def hare_run():
    return run_experiment(scheduler="hare", **SMALL)


class TestRunExperiment:
    def test_returns_typed_result(self, hare_run):
        assert isinstance(hare_run, RunResult)
        assert hare_run.scheduler == "Hare"
        assert hare_run.cluster.num_gpus == 4
        assert hare_run.instance.num_jobs == 3
        assert len(hare_run.plan) > 0
        assert hare_run.sim is not None
        assert hare_run.weighted_jct > 0
        assert hare_run.makespan > 0

    def test_metrics_prefer_simulation(self, hare_run):
        assert hare_run.metrics is hare_run.sim.metrics
        assert hare_run.telemetry is hare_run.sim.telemetry

    def test_tracer_captured_events(self, hare_run):
        tracer = hare_run.obs.tracer
        assert tracer.spans and tracer.instants and tracer.flows
        # Hare's three profiled phases land in the wall domain.
        assert {w.name for w in tracer.wall_spans} >= {
            "relaxation_solve", "order", "list_schedule"
        }

    def test_metrics_snapshot_merges_domains(self, hare_run):
        snapshot = hare_run.metrics_snapshot()
        assert "sched.phase.relaxation_solve_s" in snapshot
        assert "sim.tasks" in snapshot

    def test_simulate_false_falls_back_to_plan_metrics(self):
        result = run_experiment(scheduler="srtf", simulate=False, **SMALL)
        assert result.sim is None
        assert result.telemetry is None
        assert result.metrics is result.plan_metrics
        assert result.weighted_jct > 0

    def test_trace_false_uses_null_tracer_but_keeps_metrics(self):
        result = run_experiment(scheduler="hare", trace=False, **SMALL)
        assert isinstance(result.obs.tracer, NullTracer)
        assert result.obs.tracer.num_events == 0
        assert "sched.phase.relaxation_solve_s" in result.metrics_snapshot()

    def test_scheduler_spec_forms(self):
        by_mapping = run_experiment(
            scheduler={"name": "sched_allox", "weighted": True},
            simulate=False, **SMALL,
        )
        assert by_mapping.scheduler == "Sched_Allox"
        by_instance = run_experiment(
            scheduler=HareScheduler(), simulate=False, **SMALL
        )
        assert by_instance.scheduler == "Hare"

    def test_ambient_context_restored_after_run(self, hare_run):
        from repro.obs import DISABLED, current

        assert current() is DISABLED

    def test_reexported_from_package_root(self):
        assert repro.run_experiment is run_experiment
        assert repro.compare is compare


class TestArtifacts:
    def test_trace_validates(self, hare_run):
        assert validate_chrome_trace(hare_run.trace()) > 0

    def test_write_trace_and_manifest_round_trip(self, hare_run, tmp_path):
        trace_path = hare_run.write_trace(tmp_path / "trace.json")
        manifest_path = hare_run.write_manifest(
            tmp_path / "run.json", trace_path=str(trace_path)
        )
        manifest = read_manifest(manifest_path)
        assert manifest["results"]["scheduler"] == "Hare"
        assert manifest["results"]["simulated"] is True
        assert manifest["results"]["weighted_jct"] == pytest.approx(
            hare_run.weighted_jct
        )
        assert manifest["config"]["seed"] == SMALL["seed"]
        assert manifest["trace"] == str(trace_path)
        assert "sim.tasks" in manifest["metrics"]


class TestSimulateFacade:
    def test_replays_existing_plan(self, hare_run):
        replay = api_simulate(
            hare_run.cluster, hare_run.instance, hare_run.plan,
            scheduler="replay",
        )
        assert replay.scheduler == "replay"
        assert replay.sim is not None
        assert replay.makespan == pytest.approx(hare_run.makespan)
        assert replay.obs.tracer.spans


class TestCompare:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare(simulate=True, **SMALL)

    def test_defaults_to_paper_schemes_hare_last(self, comparison):
        assert isinstance(comparison, CompareResult)
        assert comparison.names == [
            "Gavel_FIFO", "SRTF", "Sched_Homo", "Sched_Allox", "Hare"
        ]
        assert len(comparison) == 5

    def test_results_share_the_workload(self, comparison):
        instances = {id(r.instance) for r in comparison}
        assert len(instances) == 1

    def test_getitem_and_summary(self, comparison):
        assert comparison["Hare"].scheduler == "Hare"
        summary = comparison.summary()
        assert set(summary) == set(comparison.names)
        assert all(m.makespan > 0 for m in summary.values())

    def test_merged_trace_one_process_per_scheduler(self, comparison):
        trace = comparison.trace()
        process_names = {
            e["args"]["name"]: e["pid"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert set(process_names) == set(comparison.names)
        assert sorted(process_names.values()) == [1, 2, 3, 4, 5]
        assert validate_chrome_trace(trace) > 0

    def test_manifest_keys_results_by_scheduler(self, comparison):
        manifest = comparison.manifest()
        assert set(manifest["results"]) == set(comparison.names)
        assert set(manifest["metrics"]) == set(comparison.names)


class TestGoldenTrace:
    """The fixed-seed CLI trace export is byte-stable and schema-valid."""

    ARGS = ["compare", "--gpus", "15", "--jobs", "8",
            "--rounds-scale", "0.05"]

    def test_compare_trace_export_is_byte_stable(self, tmp_path, capsys):
        paths = []
        for run in ("a", "b"):
            trace = tmp_path / f"trace-{run}.json"
            manifest = tmp_path / f"run-{run}.json"
            rc = main(self.ARGS + ["--trace-out", str(trace),
                                   "--manifest-out", str(manifest)])
            assert rc == 0
            paths.append((trace, manifest))
        capsys.readouterr()

        (trace_a, manifest_a), (trace_b, manifest_b) = paths
        assert trace_a.read_bytes() == trace_b.read_bytes()

        import json

        assert validate_chrome_trace(json.loads(trace_a.read_text())) > 0
        loaded = read_manifest(manifest_a)
        assert loaded["config"]["gpus"] == 15
        assert loaded["config"]["jobs"] == 8
        # Manifests differ only in their wall-clock fields.
        other = read_manifest(manifest_b)
        for volatile in ("created_at", "metrics", "trace"):
            loaded.pop(volatile), other.pop(volatile)
        assert loaded == other


class TestStreamingArrivals:
    """Every run drives schemes through repro.kernel; ``arrivals`` is
    a recorded label."""

    def test_kernel_result_populated(self):
        result = run_experiment(
            scheduler="hare", arrivals="streaming", **SMALL
        )
        assert result.kernel is not None
        assert result.kernel.events > 0
        assert result.kernel.commitments > 0
        assert result.config["arrivals"] == "streaming"

    def test_planned_mode_runs_on_the_kernel(self, hare_run):
        assert hare_run.kernel is not None
        assert hare_run.kernel.commitments > 0
        assert hare_run.config["arrivals"] == "planned"

    def test_streaming_metrics_match_planned_for_offline_scheme(self):
        """``arrivals`` only labels a run: for every registered scheme
        both values commit the same schedule, replay to the same DES
        metrics and attribute cleanly."""
        for name in available():
            planned, streamed = (
                run_experiment(
                    scheduler=name, arrivals=arrivals, trace=False,
                    record=True, **SMALL,
                )
                for arrivals in ("planned", "streaming")
            )
            assert planned.plan_metrics == streamed.plan_metrics, name
            assert planned.sim.metrics == streamed.sim.metrics, name
            assert set(planned.plan.assignments.values()) == set(
                streamed.plan.assignments.values()
            ), name
            for run in (planned, streamed):
                assert run.attribution().check() == [], name

    def test_online_hare_streams_natively(self):
        result = run_experiment(
            scheduler="hare_online", arrivals="streaming", **SMALL
        )
        assert result.kernel is not None
        assert result.kernel.replans >= 1

    def test_compare_streaming(self):
        comparison = compare(
            schedulers=["gavel_fifo", "hare"],
            arrivals="streaming",
            **SMALL,
        )
        for r in comparison:
            assert r.kernel is not None
        assert comparison.config["arrivals"] == "streaming"

    def test_invalid_mode_rejected(self):
        with pytest.raises(Exception, match="arrivals"):
            run_experiment(scheduler="hare", arrivals="later", **SMALL)


class TestFixedPlanCrash:
    """A crash that retracts a fixed plan's committed round re-plans the
    residual with the same planner, and the recovered run attributes."""

    @pytest.mark.parametrize("arrivals", ["planned", "streaming"])
    def test_retraction_recovers(self, hare_run, arrivals):
        from repro.core import validate_schedule

        # Halfway through a task of Hare's last round: that round is
        # committed by then and must be re-placed off the dead GPU.
        task = max(
            hare_run.plan.assignments.values(), key=lambda a: a.start
        )
        crash_t = (task.start + task.compute_end) / 2
        result = run_experiment(
            scheduler="hare", arrivals=arrivals, trace=False, record=True,
            crashes=[(crash_t, task.gpu)], **SMALL,
        )
        assert result.kernel.retracted_rounds > 0
        assert result.kernel.replans == 1
        assert result.attribution().check() == []
        validate_schedule(result.plan)
        assert all(
            a.compute_end <= crash_t
            for a in result.plan.assignments.values()
            if a.gpu == task.gpu
        )
        assert result.sim is not None


class TestDiagnosisAndRecorder:
    """``record=``/``monitors=`` wire the analysis stack into the facade."""

    @pytest.fixture(scope="class")
    def monitored_run(self):
        return run_experiment(
            scheduler="hare_online", arrivals="streaming",
            trace=False, monitors=True, **SMALL,
        )

    def test_monitors_attach_a_diagnosis(self, monitored_run):
        diagnosis = monitored_run.diagnosis
        assert diagnosis is not None
        assert diagnosis.records_seen > 0
        assert len(diagnosis.monitors) == 9
        assert "rpc_budget_exhausted" in diagnosis.monitors
        assert diagnosis.invariant_violations() == []

    def test_plain_run_has_no_diagnosis(self, hare_run):
        assert hare_run.diagnosis is None
        assert hare_run.obs.recorder is None

    def test_record_without_monitors_keeps_recorder(self):
        result = run_experiment(
            scheduler="hare", trace=False, record=True, **SMALL
        )
        assert result.obs.recorder is not None
        assert result.obs.recorder.seen > 0
        assert result.diagnosis is None

    def test_write_flight_log_round_trips(self, monitored_run, tmp_path):
        from repro.obs import load_flight_log

        path = monitored_run.write_flight_log(tmp_path / "flight.jsonl")
        records = load_flight_log(path)
        assert len(records) == monitored_run.diagnosis.records_seen

    def test_write_flight_log_requires_recorder(self, hare_run, tmp_path):
        with pytest.raises(ValueError, match="record"):
            hare_run.write_flight_log(tmp_path / "flight.jsonl")

    def test_manifest_carries_kernel_stats_and_diagnosis(
        self, monitored_run, tmp_path
    ):
        manifest_path = monitored_run.write_manifest(tmp_path / "run.json")
        manifest = read_manifest(manifest_path)
        kernel = manifest["results"]["kernel"]
        assert kernel["events"] == monitored_run.kernel.events
        assert kernel["commitments"] == monitored_run.kernel.commitments
        assert kernel["replans"] == monitored_run.kernel.replans
        diagnosis = manifest["results"]["diagnosis"]
        assert diagnosis["ok"] is True
        assert diagnosis["findings"] == 0

    def test_write_baseline_round_trips(self, monitored_run, tmp_path):
        from repro.obs import read_baseline
        from repro.obs.baseline import flatten_metrics

        path = monitored_run.write_baseline(tmp_path / "base.json")
        doc = read_baseline(path)
        assert doc["config"]["scheduler"] == "hare_online"
        flat = flatten_metrics(monitored_run.metrics_snapshot())
        assert doc["metrics"] == pytest.approx(flat)


class TestExperimentSpec:
    def test_spec_and_kwargs_paths_agree(self):
        from repro.api import ExperimentSpec

        spec = ExperimentSpec(scheduler="hare", simulate=False,
                              trace=False, **SMALL)
        via_spec = run_experiment(spec)
        via_kwargs = run_experiment(
            scheduler="hare", simulate=False, trace=False, **SMALL
        )
        assert via_spec.config == via_kwargs.config
        assert via_spec.weighted_jct == via_kwargs.weighted_jct
        assert via_spec.plan.assignments == via_kwargs.plan.assignments

    def test_spec_is_frozen_and_hashable(self):
        from dataclasses import FrozenInstanceError

        from repro.api import ExperimentSpec

        spec = ExperimentSpec()
        assert isinstance(hash(spec), int)
        with pytest.raises(FrozenInstanceError):
            spec.gpus = 99

    def test_mutable_inputs_normalized_to_tuples(self):
        from repro.api import ExperimentSpec
        from repro.harness.experiments import make_loaded_workload

        jobs = make_loaded_workload(3, reference_gpus=4, load=1.0, seed=0)
        spec = ExperimentSpec(
            workload=jobs, arrivals="streaming", crashes=[(1.0, 0)]
        )
        assert isinstance(spec.workload, tuple)
        assert spec.crashes == ((1.0, 0),)

    def test_validation_happens_at_construction(self):
        from repro.api import ExperimentSpec

        with pytest.raises(ValueError, match="arrivals"):
            ExperimentSpec(arrivals="nope")
        with pytest.raises(ValueError, match="cells=1"):
            ExperimentSpec(heal=True, cells=2)

    @pytest.mark.parametrize(
        "extra", [{"cells": 2}, {"heal": True}], ids=["cells2", "heal"]
    )
    def test_planned_runs_take_kernel_options(self, extra):
        result = run_experiment(
            scheduler="hare", arrivals="planned", simulate=False,
            trace=False, **extra, **SMALL,
        )
        assert result.kernel is not None
        assert result.config["arrivals"] == "planned"
        assert len(result.plan) == result.instance.num_tasks

    def test_compare_takes_a_spec(self):
        from repro.api import ExperimentSpec

        spec = ExperimentSpec(simulate=False, trace=False, **SMALL)
        via_spec = compare(spec, schedulers=("srtf", "hare"))
        via_kwargs = compare(
            schedulers=("srtf", "hare"), trace=False, **SMALL
        )
        assert via_spec.config == via_kwargs.config
        assert via_spec.names == via_kwargs.names == ["SRTF", "Hare"]
        for name in via_spec.names:
            assert via_spec[name].kernel is not None
            assert via_spec[name].weighted_jct == via_kwargs[name].weighted_jct
        with pytest.raises(TypeError, match="not both"):
            compare(spec, gpus=4)

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            run_experiment(bogus=1)

    def test_spec_plus_kwargs_rejected(self):
        from repro.api import ExperimentSpec

        with pytest.raises(TypeError, match="not both"):
            run_experiment(ExperimentSpec(), gpus=4)

    def test_non_spec_positional_rejected(self):
        with pytest.raises(TypeError, match="ExperimentSpec"):
            run_experiment({"gpus": 4})

    def test_to_dict_matches_manifest_config(self):
        from repro.api import ExperimentSpec

        spec = ExperimentSpec(scheduler="hare", simulate=False,
                              trace=False, **SMALL)
        result = run_experiment(spec)
        assert result.config == spec.to_dict()
        # default-valued optional knobs stay out of the config block
        assert "kernel_backend" not in result.config
        assert "heal" not in result.config
        assert "replan_interval" not in result.config

    def test_backends_agree_through_the_api(self):
        """A re-plan timer sends a run to the reference loop; the planned
        policy ignores the timer, so both loops commit the same plan."""
        array, reference = (
            run_experiment(
                scheduler="hare", arrivals="streaming", simulate=False,
                trace=False, **extra, **SMALL,
            )
            for extra in ({}, {"replan_interval": 1.0})
        )
        assert array.kernel.commitments == reference.kernel.commitments
        assert array.weighted_jct == reference.weighted_jct
        assert array.plan.assignments == reference.plan.assignments

    def test_compare_rejects_kernel_backend(self):
        with pytest.raises(TypeError, match="kernel_backend"):
            compare(schedulers=("srtf",), trace=False,
                    kernel_backend="array", **SMALL)

    @pytest.mark.parametrize(
        "kwargs,expected",
        [
            ({}, {
                "gpus": 15, "jobs": 20, "seed": 0, "load": 1.5,
                "rounds_scale": 0.15, "simulate": False,
                "switch_mode": "hare", "arrivals": "planned",
            }),
            ({"arrivals": "streaming", "cells": 2}, {
                "gpus": 15, "jobs": 20, "seed": 0, "load": 1.5,
                "rounds_scale": 0.15, "simulate": False,
                "switch_mode": "hare", "arrivals": "streaming",
                "cells": 2, "cell_strategy": "balanced",
                "admission": "throughput",
            }),
        ],
        ids=["default", "cells2_streaming"],
    )
    def test_compare_config_is_the_spec_config(self, kwargs, expected):
        comparison = compare(schedulers=("srtf",), trace=False, **kwargs)
        assert list(comparison.config.items()) == list(expected.items())
        assert comparison["SRTF"].config == expected

    def test_from_dict_round_trips_to_dict(self):
        from repro.api import ExperimentSpec

        spec = ExperimentSpec(
            scheduler="hare_online", arrivals="streaming", heal=True,
            replan_interval=2.0, crashes=((3.0, 1),), **SMALL,
        )
        config = {**spec.to_dict(), "kernel_backend": "array"}
        assert ExperimentSpec.from_dict(config).to_dict() == spec.to_dict()

    def test_reexported_from_package_root(self):
        assert repro.ExperimentSpec is repro.api.ExperimentSpec
