"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.gpus == 15 and args.jobs == 20


class TestCommands:
    def test_compare_runs(self, capsys):
        rc = main(
            ["compare", "--jobs", "6", "--gpus", "8",
             "--rounds-scale", "0.05"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Hare" in out and "Gavel_FIFO" in out

    def test_schedule_runs(self, capsys):
        rc = main(
            ["schedule", "--scheduler", "hare", "--jobs", "4",
             "--gpus", "6", "--rounds-scale", "0.05"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "weighted JCT" in out

    def test_schedule_with_simulation(self, capsys):
        rc = main(
            ["schedule", "--scheduler", "sched_allox", "--jobs", "4",
             "--gpus", "6", "--rounds-scale", "0.05", "--simulate"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "retention hits" in out

    def test_unknown_scheduler(self, capsys):
        rc = main(
            ["schedule", "--scheduler", "mystery", "--jobs", "2",
             "--gpus", "4"]
        )
        assert rc == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_chaos_runs(self, capsys):
        rc = main(
            ["chaos", "--jobs", "4", "--gpus", "6", "--rounds-scale", "0.3",
             "--seed", "3", "--crash", "8:1", "--slowdown", "2:4:20:1.5",
             "--drop-rate", "0.05", "--heartbeat-interval", "1",
             "--lease", "5", "--checkpoint-interval", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "jobs completed" in out and "re-plans" in out
        assert "mean detection latency" in out

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--crash", "1:99"], "GpuCrash targets GPU 99"),
            (["--drop-rate", "1.5"], "drop_rate must be in [0, 1)"),
            (["--heartbeat-interval", "0"], "interval_s must be > 0"),
            (["--checkpoint-interval", "0"],
             "checkpoint interval must be >= 1"),
            (["--drop-rate", "-0.5"],
             "drop_rate must be in [0, 1), got -0.5"),
            (["--drop-seed", "-4", "--drop-rate", "0.1"],
             "RpcFlakiness seed must be >= 0, got -4"),
            (["--jobs", "0"], "a run needs jobs >= 1, got 0"),
            (["--jobs", "-1"], "a run needs jobs >= 1, got -1"),
            (["--gpus", "0"], "a run needs gpus >= 1, got 0"),
        ],
        ids=["crash-gpu", "drop-rate", "heartbeat-interval",
             "checkpoint-interval", "negative-drop-rate",
             "negative-drop-seed", "zero-jobs", "negative-jobs",
             "zero-gpus"],
    )
    def test_chaos_rejects_bad_input_in_one_line(self, flags, message,
                                                 capsys):
        rc = main(["chaos", "--jobs", "2", "--gpus", "4",
                   "--rounds-scale", "0.05", "--crash", "1:1", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert message in err

    def test_chaos_manifest_config_reruns_the_run(self, tmp_path, capsys):
        """A chaos manifest's config is the spec of the run it records."""
        from repro.api import ExperimentSpec, run_experiment
        from repro.obs import read_manifest

        manifest = tmp_path / "run.json"
        rc = main(["chaos", "--scheduler", "hare", "--crash", "3:2",
                   "--jobs", "8", "--seed", "5", "--rounds-scale", "0.1",
                   "--manifest-out", str(manifest)])
        assert rc == 0
        capsys.readouterr()
        doc = read_manifest(manifest)
        rerun = run_experiment(
            ExperimentSpec.from_dict(doc["config"], trace=False)
        )
        assert rerun.weighted_jct == doc["results"]["degraded_weighted_jct"]
        assert rerun.weighted_jct == doc["results"]["weighted_jct"]

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "GraphSAGE" in out and "hare" in out

    def test_table3_other_gpu(self, capsys):
        assert main(["table3", "--gpu", "T4"]) == 0
        assert "T4" in capsys.readouterr().out

    def test_speedups(self, capsys):
        assert main(["speedups"]) == 0
        assert "V100" in capsys.readouterr().out


class TestAnalysisCommands:
    """``repro record`` / ``repro replay`` / ``repro check``."""

    WORKLOAD = ["--jobs", "4", "--gpus", "4", "--seed", "3",
                "--rounds-scale", "0.1"]

    def test_record_writes_flight_log(self, tmp_path, capsys):
        out = tmp_path / "flight.jsonl"
        rc = main(["record", *self.WORKLOAD, "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert out.exists()
        assert "diagnosis OK" in text

    def test_record_passes_cell_options(self, tmp_path, capsys):
        from repro.obs import load_flight_log

        out = tmp_path / "flight.jsonl"
        rc = main(
            ["record", "--jobs", "4", "--gpus", "8", "--seed", "3",
             "--rounds-scale", "0.1", "--cells", "2", "--out", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        admits = [
            r for r in load_flight_log(out) if r.name == "cells.admit"
        ]
        assert len(admits) == 4

    def test_replay_filters_and_monitors(self, tmp_path, capsys):
        log = tmp_path / "flight.jsonl"
        main(["record", *self.WORKLOAD, "--out", str(log)])
        capsys.readouterr()
        rc = main(
            ["replay", str(log), "--track", "gpu/*", "--limit", "3",
             "--monitors"]
        )
        text = capsys.readouterr().out
        assert rc == 0
        assert "gpu/" in text
        assert "diagnosis OK" in text

    def test_replay_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["replay", str(tmp_path / "nope.jsonl")])
        assert rc == 2

    def test_check_reruns_baseline_config_clean(self, tmp_path, capsys):
        from repro.api import run_experiment

        base = tmp_path / "base.json"
        result = run_experiment(
            gpus=4, jobs=4, scheduler="hare", seed=3, rounds_scale=0.1,
            trace=False,
        )
        result.write_baseline(base)
        rc = main(["check", "--baseline", str(base)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "diagnosis OK" in text

    @pytest.mark.parametrize(
        "extra", [{}, {"cells": 4}], ids=["flat", "cells4"]
    )
    def test_check_reruns_every_recorded_config_key(
        self, tmp_path, capsys, extra
    ):
        """The re-run honors crashes, replan_interval and the cell keys
        the baseline recorded, instead of silently running flat and
        fault-free."""
        from repro.api import run_experiment

        base = tmp_path / "base.json"
        run_experiment(
            gpus=16, jobs=12, scheduler="hare_online", seed=3,
            arrivals="streaming", crashes=((3.0, 1),), replan_interval=2.0,
            simulate=False, trace=False, **extra,
        ).write_baseline(base)
        rc = main(["check", "--baseline", str(base)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "ERROR" not in text
        assert "missing from candidate" not in text

    def test_check_regressed_candidate_exits_1(self, tmp_path, capsys):
        """Acceptance pin: a synthetic p99 regression makes the CLI exit
        non-zero and name the drifted metric."""
        import json

        from repro.api import run_experiment
        from repro.obs.baseline import flatten_metrics

        base = tmp_path / "base.json"
        result = run_experiment(
            gpus=4, jobs=4, scheduler="hare", seed=3, rounds_scale=0.1,
            trace=False,
        )
        result.write_baseline(base)
        flat = dict(flatten_metrics(result.metrics_snapshot()))
        key = "sched.phase.list_schedule_s.p99"
        assert key in flat
        flat[key] *= 100
        candidate = tmp_path / "candidate.json"
        doc = json.loads(base.read_text())
        doc["metrics"] = flat
        candidate.write_text(json.dumps(doc))
        report_path = tmp_path / "report.json"
        rc = main(
            ["check", "--baseline", str(base),
             "--candidate", str(candidate),
             "--report", str(report_path)]
        )
        text = capsys.readouterr().out
        assert rc == 1
        assert "regression" in text and "p99" in text
        report = json.loads(report_path.read_text())
        assert report["ok"] is False

    def test_check_bench_kind_needs_candidate(self, capsys):
        rc = main(
            ["check", "--baseline", "benchmarks/out/BENCH_kernel.json"]
        )
        assert rc == 2

    def test_check_committed_bench_against_itself(self, capsys):
        rc = main(
            ["check", "--baseline", "benchmarks/out/BENCH_kernel.json",
             "--candidate", "benchmarks/out/BENCH_kernel.json"]
        )
        assert rc == 0

    @pytest.mark.parametrize("key, factor", [
        ("online_fleet/gpus125/wall_ratio", 1.3),
        ("online_fleet/gpus125/wall_ratio", 0.7),
        ("sim_replay/gpus125/repeats", 2),
        ("sim_replay/gpus125/jobs", 2),
    ])
    def test_check_bench_gates_like_compare_bench_reports(
        self, tmp_path, capsys, key, factor
    ):
        """``repro check`` on bench reports is ``compare_bench_reports``:
        the same findings, so the same band for every key."""
        import json

        from repro.obs.baseline import compare_bench_reports

        committed = "benchmarks/out/BENCH_kernel.json"
        base = json.load(open(committed))
        cand = json.loads(json.dumps(base))
        *parents, leaf = key.split("/")
        node = cand
        for part in parents:
            node = node[part]
        node[leaf] *= factor
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(cand))
        report_path = tmp_path / "report.json"
        rc = main(["check", "--baseline", committed,
                   "--candidate", str(candidate),
                   "--report", str(report_path)])
        assert rc == 1
        expected = compare_bench_reports(base, cand).to_json()
        assert json.loads(report_path.read_text()) == json.loads(
            json.dumps(expected)
        )

    def test_chaos_with_monitors_is_clean(self, capsys):
        rc = main(
            ["chaos", "--jobs", "4", "--gpus", "6", "--rounds-scale", "0.3",
             "--seed", "3", "--crash", "8:1", "--checkpoint-interval", "2",
             "--monitors"]
        )
        text = capsys.readouterr().out
        assert rc == 0
        assert "diagnosis OK" in text

    def test_replay_monitors_gate_corrupted_log_exits_1(
        self, tmp_path, capsys
    ):
        """``replay --monitors`` is a CI gate — a flight log with an
        invariant violation (here, a duplicated compute span: its task
        runs twice) must exit non-zero."""
        import json

        log = tmp_path / "flight.jsonl"
        assert main(["record", *self.WORKLOAD, "--out", str(log)]) == 0
        capsys.readouterr()
        # clone a real gpu compute span, shift it to overlap the original
        lines = log.read_text().splitlines()
        spans = [
            json.loads(line)
            for line in lines[1:]
            if '"kind": "span"' in line and '"track": "gpu/' in line
        ]
        victim = next(s for s in spans if s.get("dur", 0.0) > 0)
        victim["seq"] = 10**6
        victim["t"] += victim["dur"] / 2  # lands inside itself
        with log.open("a") as fh:
            fh.write(json.dumps(victim, sort_keys=True) + "\n")
        rc = main(["replay", str(log), "--monitors", "--limit", "0"])
        text = capsys.readouterr().out
        assert rc == 1
        task = "J{job}.r{round}.t{slot}".format(**victim["args"])
        assert (
            f"constraint (5): 1 tasks assigned more than once, e.g. {task}"
        ) in text

    def test_replay_monitors_refuses_a_truncated_log(self, tmp_path, capsys):
        """A log whose recorder dropped its oldest records misses their
        spans, so ``replay --monitors`` refuses it (exit 2) and names the
        count; plain filtering still reads it."""
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(capacity=2)
        for k in range(5):
            recorder.record("instant", "sched", "kernel.replan", "kernel",
                            float(k))
        log = recorder.dump(tmp_path / "flight.jsonl")
        assert main(["replay", str(log), "--monitors"]) == 2
        captured = capsys.readouterr()
        assert "dropped the 3 oldest records" in captured.err
        assert captured.out == ""
        assert main(["replay", str(log)]) == 0
        assert "2/2 records match" in capsys.readouterr().out


class TestExplainCommand:
    """``repro explain``: run / --flight-log / --diff modes."""

    WORKLOAD = ["--jobs", "4", "--gpus", "4", "--seed", "3",
                "--rounds-scale", "0.1"]

    def test_explain_run_prints_decomposition(self, tmp_path, capsys):
        out = tmp_path / "attrib.json"
        rc = main(["explain", *self.WORKLOAD, "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "where the JCT went" in text
        assert "critical path" in text
        assert "dominant" in text
        import json

        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.attrib/1"
        assert len(doc["jobs"]) == 4

    def test_explain_crash_run_shows_fault_recovery(self, capsys):
        rc = main(
            ["explain", *self.WORKLOAD, "--scheduler", "hare_online",
             "--crash", "1:1", "--replan-interval", "2"]
        )
        text = capsys.readouterr().out
        assert rc == 0
        assert "retraction" in text

    def test_explain_flight_log_mode(self, tmp_path, capsys):
        log = tmp_path / "flight.jsonl"
        assert main(
            ["record", *self.WORKLOAD, "--arrivals", "streaming",
             "--out", str(log)]
        ) == 0
        capsys.readouterr()
        rc = main(["explain", "--flight-log", str(log)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "where the JCT went" in text
        # a streaming log carries kernel.round instants, so the
        # decomposition is populated, not a vacuous empty report
        assert "4 of 4 jobs" in text
        assert "compute" in text

    def test_explain_planned_flight_log_mode(self, tmp_path, capsys):
        # planned arrivals run on the kernel too, so the default
        # ``repro record`` log carries kernel.round instants
        log = tmp_path / "flight.jsonl"
        assert main(["record", *self.WORKLOAD, "--out", str(log)]) == 0
        capsys.readouterr()
        rc = main(["explain", "--flight-log", str(log)])
        assert rc == 0
        assert "4 of 4 jobs" in capsys.readouterr().out

    def test_explain_log_without_kernel_rounds_exits_2_with_hint(
        self, tmp_path, capsys
    ):
        # a DES-only replay records no kernel.round instants; the CLI
        # must refuse loudly instead of printing an empty report
        from repro.api import run_experiment, simulate

        run = run_experiment(
            gpus=4, jobs=4, seed=3, rounds_scale=0.1, simulate=False,
            trace=False,
        )
        replay = simulate(
            run.cluster, run.instance, run.plan, trace=False, record=True
        )
        log = replay.write_flight_log(tmp_path / "flight.jsonl")
        rc = main(["explain", "--flight-log", str(log)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "kernel.round" in err
        assert "repro record" in err
        assert "--arrivals streaming" not in err

    def test_explain_diff_reproduces_delta(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        assert main(
            ["explain", *self.WORKLOAD, "--out", str(base)]
        ) == 0
        assert main(
            ["explain", "--jobs", "4", "--gpus", "4", "--seed", "4",
             "--rounds-scale", "0.1", "--scheduler", "srtf",
             "--out", str(cand)]
        ) == 0
        capsys.readouterr()
        diff_out = tmp_path / "diff.json"
        rc = main(
            ["explain", "--diff", str(base), str(cand),
             "--out", str(diff_out)]
        )
        text = capsys.readouterr().out
        assert rc == 0
        assert "attribution diff" in text and "total JCT" in text
        import json
        import math

        doc = json.loads(diff_out.read_text())
        assert doc["schema"] == "repro.attrib-diff/1"
        # exit 0 pins it, but assert the algebra explicitly too
        assert abs(
            doc["total_jct_delta_s"]
            - math.fsum(doc["component_delta_s"].values())
        ) <= 1e-6

    def test_explain_missing_flight_log_exits_2(self, tmp_path, capsys):
        rc = main(
            ["explain", "--flight-log", str(tmp_path / "nope.jsonl")]
        )
        assert rc == 2

    def test_explain_diff_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(
            ["explain", "--diff", str(tmp_path / "a.json"),
             str(tmp_path / "b.json")]
        )
        assert rc == 2

    def test_explain_unknown_scheduler_exits_2(self, capsys):
        rc = main(["explain", *self.WORKLOAD, "--scheduler", "mystery"])
        assert rc == 2


class _Captured(Exception):
    """Raised by the patched run entry points once they hold the spec."""


def _capture_specs(monkeypatch):
    """Patch ``api.run_experiment``/``api.compare`` to record the spec a
    verb builds and stop before running it."""
    from repro import api

    specs = []

    def capture(spec=None, /, *, schedulers=None, **kwargs):
        specs.append(spec or api.ExperimentSpec(**kwargs))
        raise _Captured

    monkeypatch.setattr(api, "run_experiment", capture)
    monkeypatch.setattr(api, "compare", capture)
    return specs


#: Every run flag, a non-default value, and the spec field it must set.
RUN_FLAGS = {
    "--gpus": (["--gpus", "6"], lambda s: s.cluster.num_gpus, 6),
    "--jobs": (["--jobs", "3"], lambda s: len(s.workload), 3),
    "--seed": (["--seed", "5"], lambda s: s.seed, 5),
    "--load": (["--load", "2.5"], lambda s: s.load, 2.5),
    "--rounds-scale": (["--rounds-scale", "0.07"],
                       lambda s: s.rounds_scale, 0.07),
    "--simulate": (["--simulate"], lambda s: s.simulate, True),
    "--arrivals": (["--arrivals", "streaming"],
                   lambda s: s.arrivals, "streaming"),
    "--cells": (["--cells", "2"], lambda s: s.cells, 2),
    "--cell-strategy": (["--cell-strategy", "gpu_type"],
                        lambda s: s.cell_strategy, "gpu_type"),
    "--admission": (["--admission", "least_loaded"],
                    lambda s: s.admission, "least_loaded"),
    "--replan-interval": (["--replan-interval", "3"],
                          lambda s: s.replan_interval, 3.0),
    "--crash": (["--crash", "1:2"], lambda s: s.crashes, ((1.0, 2),)),
    "--scheduler": (["--scheduler", "srtf"],
                    lambda s: s.scheduler.name, "SRTF"),
}

WORKLOAD_FLAGS = ("--gpus", "--jobs", "--seed", "--load", "--rounds-scale")
CELL_FLAGS = ("--arrivals", "--cells", "--cell-strategy", "--admission")

#: Each run verb, the run flags it offers, and the settings it fixes.
RUN_VERBS = {
    "compare": (
        (*WORKLOAD_FLAGS, "--simulate", *CELL_FLAGS), {"trace": False},
    ),
    "schedule": (
        (*WORKLOAD_FLAGS, "--simulate", *CELL_FLAGS, "--scheduler"),
        {"trace": False},
    ),
    "trace": (
        (*WORKLOAD_FLAGS, *CELL_FLAGS, "--scheduler"),
        {"simulate": True, "trace": True},
    ),
    "record": (
        (*WORKLOAD_FLAGS, *CELL_FLAGS, "--scheduler"),
        {"simulate": True, "record": True, "monitors": True,
         "trace": False},
    ),
    "explain": (
        (*WORKLOAD_FLAGS, *CELL_FLAGS, "--scheduler", "--replan-interval",
         "--crash"),
        {"simulate": False, "record": True, "trace": False},
    ),
    "heal": (
        (*WORKLOAD_FLAGS, "--scheduler", "--replan-interval", "--crash"),
        {"simulate": False, "arrivals": "streaming", "trace": False},
    ),
    # chaos's --crash lands in the fault scenario, not in crashes.
    "chaos": (
        (*WORKLOAD_FLAGS, "--scheduler"),
        {"simulate": True, "trace": False, "crashes": None},
    ),
}


class TestSpecBuilder:
    """Every run verb turns each run flag it offers into the spec."""

    @pytest.mark.parametrize("verb", sorted(RUN_VERBS))
    def test_every_offered_flag_reaches_the_spec(
        self, verb, monkeypatch, tmp_path
    ):
        specs = _capture_specs(monkeypatch)
        offered, fixed = RUN_VERBS[verb]
        argv = [verb]
        for flag in offered:
            argv += RUN_FLAGS[flag][0]
        if verb == "trace":
            argv += ["--out", str(tmp_path / "t.json"),
                     "--manifest", str(tmp_path / "run.json")]
        with pytest.raises(_Captured):
            main(argv)
        (spec,) = specs
        for flag in offered:
            _, read, want = RUN_FLAGS[flag]
            assert read(spec) == want, flag
        for field, want in fixed.items():
            assert getattr(spec, field) == want, field

    def test_chaos_fault_flags_reach_the_spec(self, monkeypatch):
        from repro.faults import (
            FaultScenario,
            GpuCrash,
            GpuSlowdown,
            HeartbeatConfig,
            NetworkPartition,
            RpcFlakiness,
        )

        specs = _capture_specs(monkeypatch)
        with pytest.raises(_Captured):
            main(["chaos", "--jobs", "2", "--gpus", "4", "--crash", "1:2",
                  "--slowdown", "0:1:2:1.5", "--partition", "3:1",
                  "--drop-rate", "0.1", "--drop-seed", "4",
                  "--heartbeat-interval", "1", "--lease", "5",
                  "--checkpoint-interval", "3", "--monitors", "--heal"])
        (spec,) = specs
        assert spec.faults == FaultScenario(
            crashes=(GpuCrash(1.0, 2),),
            slowdowns=(GpuSlowdown(0, 1.0, 2.0, factor=1.5),),
            flakiness=RpcFlakiness(0.1, seed=4),
            partitions=(NetworkPartition(3.0, 1.0),),
        )
        assert spec.heartbeat == HeartbeatConfig(interval_s=1.0, lease_s=5.0)
        assert (spec.checkpoint_interval, spec.monitors, spec.heal) == (
            3, True, True
        )

    def test_trace_all_compares_with_the_run_flags(
        self, monkeypatch, tmp_path
    ):
        specs = _capture_specs(monkeypatch)
        with pytest.raises(_Captured):
            main(["trace", "--scheduler", "all", "--jobs", "3",
                  "--cells", "2", "--arrivals", "streaming",
                  "--out", str(tmp_path / "t.json")])
        (spec,) = specs
        assert (spec.cells, spec.arrivals, spec.simulate, spec.trace) == (
            2, "streaming", True, True
        )

    def test_trace_manifest_records_its_run_flags(self, tmp_path, capsys):
        from repro.obs import read_manifest

        manifest = tmp_path / "run.json"
        rc = main(
            ["trace", "--gpus", "8", "--jobs", "6", "--rounds-scale",
             "0.05", "--cells", "2", "--arrivals", "streaming",
             "--out", str(tmp_path / "t.json"),
             "--manifest", str(manifest)]
        )
        capsys.readouterr()
        assert rc == 0
        config = read_manifest(manifest)["config"]
        assert config["cells"] == 2
        assert config["arrivals"] == "streaming"

    @pytest.mark.parametrize(
        "verb, flag",
        [
            pytest.param(verb, flag, id=f"{verb}{flag[0]}")
            for verb, flag in (
                ("trace", ["--simulate"]),
                ("explain", ["--simulate"]),
                ("record", ["--simulate"]),
                *(
                    (verb, flag)
                    for verb in ("heal", "chaos")
                    for flag in (
                        ["--simulate"], ["--arrivals", "streaming"],
                        ["--cells", "2"], ["--cell-strategy", "gpu_type"],
                        ["--admission", "least_loaded"],
                    )
                ),
            )
        ],
    )
    def test_flags_a_verb_ignores_are_usage_errors(self, verb, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--jobs", "2", "--gpus", "4", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["chaos", "heal", "explain"])
    @pytest.mark.parametrize("crash", ["5", "5:x", "a:1", "1:2:3"])
    def test_malformed_crash_is_a_usage_error(self, verb, crash, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--jobs", "2", "--gpus", "4", "--crash", crash])
        assert exc.value.code == 2
        assert "expected TIME:GPU" in capsys.readouterr().err

    @pytest.mark.parametrize("crash", ["5:99", "-1:1"])
    def test_crash_outside_the_cluster_exits_2(self, crash, capsys):
        rc = main(["explain", "--jobs", "2", "--gpus", "4",
                   "--rounds-scale", "0.05", f"--crash={crash}"])
        assert rc == 2
        assert "4-GPU cluster" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb", [["compare"], ["schedule", "--scheduler", "gavel_fifo"]]
    )
    def test_infeasible_cluster_exits_2_without_traceback(self, verb, capsys):
        rc = main([*verb, "--jobs", "4", "--gpus", "2", "--seed", "1",
                   "--rounds-scale", "0.05"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "needs 4 simultaneous GPUs but the cluster has 2" in err
