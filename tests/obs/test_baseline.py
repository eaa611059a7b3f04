"""Regression engine: tolerance bands, direction awareness, hard limits,
baseline round-trips, and the bench-report comparison CI gates on."""

import json

import pytest

from repro import api
from repro.obs import (
    Severity,
    Tolerance,
    compare_bench_reports,
    compare_snapshots,
    read_baseline,
    snapshot_baseline,
    write_baseline,
)
from repro.obs.baseline import (
    BENCH_TOLERANCES,
    EXACT,
    TIMING_UP,
    bench_snapshot,
    flatten_metrics,
    flatten_scalars,
    load_snapshot,
    resolve_tolerance,
)


class TestTolerance:
    def test_band_combines_abs_and_rel(self):
        tol = Tolerance(rel=0.1, abs_tol=0.5)
        assert tol.band(10.0) == pytest.approx(1.5)

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            Tolerance(rel=0.1, direction="sideways")

    def test_resolve_prefers_exact_then_longest_pattern(self):
        tols = {
            "a.b": Tolerance(rel=1.0),
            "a.*": Tolerance(rel=2.0),
            "*": Tolerance(rel=3.0),
        }
        assert resolve_tolerance("a.b", tols).rel == 1.0
        assert resolve_tolerance("a.c", tols).rel == 2.0
        assert resolve_tolerance("z", tols).rel == 3.0

    def test_resolve_supports_suffix_patterns(self):
        tols = {"*.p99_s": TIMING_UP, "*.events": EXACT}
        assert resolve_tolerance("online.residual_solve.p99_s", tols) is TIMING_UP
        assert resolve_tolerance("online.events", tols) is EXACT
        assert resolve_tolerance("online.other", tols).rel != TIMING_UP.rel


class TestCompare:
    def test_p99_regression_is_error(self):
        """Acceptance pin: a synthetically regressed p99 produces an
        ERROR finding (→ non-zero CLI exit)."""
        base = {"sched.phase.solve.p99": 0.010}
        cand = {"sched.phase.solve.p99": 0.100}
        report = compare_snapshots(
            base, cand, tolerances={"*.p99": TIMING_UP},
        )
        assert not report.ok
        assert report.errors()[0].severity is Severity.ERROR
        assert "p99" in report.errors()[0].message

    def test_direction_up_ignores_improvements(self):
        tol = Tolerance(rel=0.1, abs_tol=0.0, direction="up")
        base = {"lat.p99": 0.010}
        report = compare_snapshots(
            base, {"lat.p99": 0.001}, tolerances={"*.p99": tol},
        )
        assert report.ok
        infos = [f for f in report.findings if f.severity is Severity.INFO]
        assert infos  # improvement noted, not flagged

    def test_direction_down_flags_throughput_drop(self):
        tol = Tolerance(rel=0.1, direction="down")
        base = {"events_per_sec": 1000.0}
        assert compare_snapshots(
            base, {"events_per_sec": 2000.0}, tolerances={"events_per_sec": tol}
        ).ok
        assert not compare_snapshots(
            base, {"events_per_sec": 500.0}, tolerances={"events_per_sec": tol}
        ).ok

    def test_hard_limit_caps_candidate_regardless_of_base(self):
        tol = Tolerance(rel=0.0, abs_tol=0.10, direction="up", limit=0.15)
        base = {"overhead_frac": 0.09}
        # Inside the band but over the absolute cap.
        report = compare_snapshots(
            base, {"overhead_frac": 0.16}, tolerances={"overhead_frac": tol}
        )
        assert not report.ok
        assert "limit" in report.errors()[0].message

    def test_missing_metric_warns_new_metric_informs(self):
        base = {"a": 1.0}
        report = compare_snapshots(base, {"b": 1.0})
        severities = {f.severity for f in report.findings}
        assert Severity.WARNING in severities
        assert Severity.ERROR not in severities


class TestSnapshots:
    def test_flatten_metrics_expands_histograms(self):
        snap = {
            "sim.tasks": {"type": "counter", "value": 5.0},
            "sim.train_time_s": {
                "type": "histogram", "count": 3, "mean": 2.0,
                "p50": 1.5, "p99": 4.0, "total": 6.0,
            },
        }
        flat = flatten_metrics(snap)
        assert flat["sim.tasks"] == 5.0
        assert flat["sim.train_time_s.count"] == 3
        assert flat["sim.train_time_s.p99"] == 4.0

    def test_flatten_scalars_dotted_keys_numbers_only(self):
        doc = {
            "a": {"b": 1.5, "name": "skipme", "flag": True},
            "c": 2,
        }
        flat = flatten_scalars(doc)
        assert flat == {"a.b": 1.5, "c": 2.0}

    def test_baseline_write_read_round_trip(self, tmp_path):
        r = api.run_experiment(
            gpus=4, jobs=4, scheduler="hare", seed=2, rounds_scale=0.2,
            trace=False,
        )
        path = r.write_baseline(tmp_path / "base.json")
        doc = read_baseline(path)
        assert doc["schema"] == "repro.baseline/1"
        assert doc["config"]["scheduler"] == "hare"
        flat = flatten_metrics(r.metrics_snapshot())
        assert doc["metrics"] == pytest.approx(flat)

    def test_read_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope/9", "metrics": {}}))
        with pytest.raises(ValueError, match="schema"):
            read_baseline(bad)

    def test_load_snapshot_detects_kind(self, tmp_path):
        base = tmp_path / "base.json"
        write_baseline(
            snapshot_baseline({"a": {"type": "counter", "value": 1.0}},
                              config={}, command="test"),
            base,
        )
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(
            {"benchmark": "kernel", "online_hare": {"events": 3}}
        ))
        assert load_snapshot(base)[2] == "baseline"
        assert load_snapshot(bench)[2] == "bench"


class TestBenchGate:
    BASE = {
        "benchmark": "kernel",
        "config": {"gpus": 15, "jobs": 24, "seed": 7},
        "online_hare": {
            "events": 378, "commitments": 236, "replans": 24,
            "events_per_sec": 14000.0, "wall_s": 0.027,
            "makespan": 100.17, "weighted_completion": 3359.72,
            "residual_solve": {"count": 24, "p50_s": 4e-4, "p99_s": 8e-4,
                               "mean_s": 4.5e-4, "max_s": 8e-4},
        },
        "recorder_overhead": {
            "events_per_sec_off": 14000.0, "events_per_sec_on": 12700.0,
            "overhead_frac": 0.093, "overhead_frac_q1": -0.02,
            "overhead_frac_q3": 0.15, "records": 644,
        },
        "env": {"python": "3.11.7", "nproc": 2, "git_sha": "abc"},
    }

    def candidate(self, **edits):
        cand = json.loads(json.dumps(self.BASE))
        for dotted, value in edits.items():
            node = cand
            *parents, leaf = dotted.split("/")
            for key in parents:
                node = node[key]
            node[leaf] = value
        return cand

    def test_identical_reports_pass(self):
        assert compare_bench_reports(self.BASE, self.candidate()).ok

    def test_cross_machine_timing_noise_tolerated(self):
        cand = self.candidate(**{
            "online_hare/wall_s": 0.080,            # 3x slower machine
            "online_hare/events_per_sec": 5000.0,   # proportional drop
            "online_hare/residual_solve/p99_s": 2.4e-3,
        })
        assert compare_bench_reports(self.BASE, cand).ok

    def test_determinism_break_is_error(self):
        cand = self.candidate(**{"online_hare/events": 379})
        report = compare_bench_reports(self.BASE, cand)
        assert not report.ok
        assert "events" in report.errors()[0].message

    def test_order_of_magnitude_latency_regression_is_error(self):
        cand = self.candidate(**{"online_hare/residual_solve/p99_s": 4e-2})
        assert not compare_bench_reports(self.BASE, cand).ok

    def test_recorder_overhead_over_hard_limit_is_error(self):
        """Acceptance pin: overhead_frac above 0.15 fails even though it
        sits inside the ±0.10 band of a 0.093 baseline."""
        cand = self.candidate(**{"recorder_overhead/overhead_frac": 0.155})
        report = compare_bench_reports(self.BASE, cand)
        assert not report.ok
        assert any(
            "overhead_frac" in f.message for f in report.errors()
        )

    def test_recorder_overhead_within_limit_passes(self):
        cand = self.candidate(**{"recorder_overhead/overhead_frac": 0.14})
        assert compare_bench_reports(self.BASE, cand).ok

    def test_committed_bench_json_is_self_consistent(self):
        """The checked-in BENCH_kernel.json must pass against itself."""
        from pathlib import Path

        path = Path(__file__).parents[2] / "benchmarks/out/BENCH_kernel.json"
        doc = json.loads(path.read_text())
        assert doc["recorder_overhead"]["overhead_frac"] <= 0.15
        assert compare_bench_reports(doc, doc).ok

    def test_every_committed_bench_key_has_a_pattern(self):
        """No key of the checked-in report falls through to a default
        band: each resolves to an explicit ``BENCH_TOLERANCES`` entry."""
        from pathlib import Path

        path = Path(__file__).parents[2] / "benchmarks/out/BENCH_kernel.json"
        unmatched = object()
        flat = bench_snapshot(json.loads(path.read_text()))
        assert [
            key for key in flat
            if resolve_tolerance(key, BENCH_TOLERANCES, unmatched)
            is unmatched
        ] == []
        assert resolve_tolerance(
            "online_fleet.gpus125.wall_ratio", BENCH_TOLERANCES
        ) == Tolerance(rel=0.25, abs_tol=1e-9, direction="both")

    def test_bench_tolerances_cover_the_overhead_gate(self):
        tol = resolve_tolerance(
            "recorder_overhead.overhead_frac", BENCH_TOLERANCES
        )
        assert tol.limit == pytest.approx(0.15)
        assert tol.direction == "up"

    def test_env_and_overhead_quartiles_are_not_gated(self):
        """Environment facts and noise quartiles drift as INFO only."""
        cand = self.candidate(**{
            "env/nproc": 64,
            "recorder_overhead/overhead_frac_q1": -0.5,
            "recorder_overhead/overhead_frac_q3": 0.9,
        })
        report = compare_bench_reports(self.BASE, cand)
        assert report.ok
        drift = [f.message for f in report.findings if "drift" in f.message]
        assert len(drift) == 3

    def test_negative_overhead_is_kept_and_passes(self):
        """A recorder-on side that ran faster reads negative, unclamped."""
        cand = self.candidate(**{"recorder_overhead/overhead_frac": -0.05})
        assert compare_bench_reports(self.BASE, cand).ok
