#!/usr/bin/env python
"""Observability tour: traces, metrics, and the run manifest.

Every run of the stable :mod:`repro.api` facade can record structured
events (spans on GPU/job tracks, barrier flow arrows, fault instants) and
metrics (counters and exact-quantile histograms, including the scheduler's
own phase timings). This example runs Hare on the DES with tracing on,
prints what was captured, and exports the two artifacts:

* ``hare.trace.json`` — open at https://ui.perfetto.dev to see one track
  per GPU, one per job, and flow arrows from each round's sync barrier to
  the next round's first task;
* ``run.json`` — the machine-readable manifest (config, seed, headline
  results, full metrics snapshot).

It then tours the analysis stack on top of the raw events:

* the **flight recorder** — a bounded ring of normalized records you can
  query and dump to JSONL (``repro record`` / ``repro replay``);
* the **streaming monitors** — online invariant checkers that watch the
  event stream and grade findings — and the schedule check beside them
  (a deliberately corrupted schedule fails the paper's constraints);
* the **baseline engine** — direction-aware tolerance bands over the
  metrics snapshot (``repro check --baseline``), which CI uses to gate
  on kernel-bench drift;
* the **time-attribution engine** — per-job JCT decomposition into
  named causes and a cluster critical path (``repro explain``), here on
  a crash-injected run so fault recovery shows up in the
  blame.

Run:  python examples/observability_tour.py
"""

import tempfile
from pathlib import Path

from repro.api import run_experiment
from repro.core import Schedule
from repro.harness import render_table
from repro.obs import diagnose_schedule, read_baseline
from repro.obs.baseline import compare_snapshots, flatten_metrics


def main() -> None:
    result = run_experiment(
        gpus=8, jobs=10, scheduler="hare", seed=7, rounds_scale=0.1
    )
    tracer = result.obs.tracer

    print(
        f"Ran {result.scheduler} on {result.cluster.num_gpus} GPUs: "
        f"weighted JCT {result.weighted_jct:.1f} s, "
        f"makespan {result.makespan:.1f} s\n"
    )

    print("== What the tracer captured ==")
    rows = [
        ["spans (compute / switch / sync)", len(tracer.spans)],
        ["instants (barriers, engine events)", len(tracer.instants)],
        ["flow arrows (barrier -> next round)", len(tracer.flows)],
        ["wall-clock phase spans", len(tracer.wall_spans)],
        ["tracks", len(tracer.tracks())],
    ]
    print(render_table(["events", "count"], rows))

    print("\n== Scheduler phase timings (wall clock) ==")
    snapshot = result.metrics_snapshot()
    rows = []
    for key, value in sorted(snapshot.items()):
        if key.startswith("sched.phase.") and isinstance(value, dict):
            rows.append(
                [key.removeprefix("sched.phase."),
                 f"{value['mean'] * 1e3:.2f} ms",
                 f"{value['p95'] * 1e3:.2f} ms"]
            )
    print(render_table(["phase", "mean", "p95"], rows))

    print("\n== Simulation metrics (sim-time) ==")
    rows = []
    for key in ("sim.tasks", "sim.switch_count", "sim.retention_hits"):
        entry = snapshot.get(key)
        rows.append([key, int(entry["value"]) if entry else 0])
    for key in ("sim.train_time_s", "sim.switch_time_s"):
        hist = snapshot.get(key)
        if isinstance(hist, dict):
            rows.append([f"{key} (total)", f"{hist['total']:.1f} s"])
    print(render_table(["metric", "value"], rows))

    out = Path(tempfile.mkdtemp(prefix="repro-obs-"))
    trace_path = result.write_trace(out / "hare.trace.json")
    manifest_path = result.write_manifest(
        out / "run.json", trace_path=str(trace_path)
    )
    print(f"\nTrace written to    {trace_path}")
    print("  -> drag it into https://ui.perfetto.dev")
    print(f"Manifest written to {manifest_path}")

    # ------------------------------------------------------------------
    # Flight recorder: the same run with a bounded ring of normalized
    # records attached, plus the streaming invariant monitors.
    # ------------------------------------------------------------------
    print("\n== Flight recorder + streaming monitors ==")
    recorded = run_experiment(
        gpus=8, jobs=10, scheduler="hare", seed=7, rounds_scale=0.1,
        trace=False, record=True, monitors=True,
    )
    recorder = recorded.obs.recorder
    print(f"recorded {recorder.seen} events ({recorder.dropped} dropped)")
    stats = recorder.span_stats(category="sim", track="gpu/*")
    print(
        f"compute spans: {stats['count']} totalling {stats['total_s']:.1f} s "
        f"(mean {stats['mean_s'] * 1e3:.1f} ms)"
    )
    barriers = recorder.query(kind="instant", name="barrier*", limit=3)
    for rec in barriers:
        print(f"  {rec.track} t={rec.time:.3f} {rec.name}")
    print(recorded.diagnosis.summary())
    log_path = recorded.write_flight_log(out / "flight.jsonl")
    print(f"flight log written to {log_path}")
    print("  -> inspect with: repro replay", log_path.name, "--monitors")

    # ------------------------------------------------------------------
    # The schedule check on a *broken* schedule: clone one task
    # assignment onto another task's GPU and start time, then ask for a
    # diagnosis. The moved task now overlaps the other on its GPU (8)
    # and ends after its job's next round starts (7); the ERROR finding
    # names the first failing constraint in validate_schedule's order.
    # ------------------------------------------------------------------
    print("\n== Triggered finding: corrupted schedule ==")
    # A schedule never changes, so the corrupted one is a copy of the
    # plan's columns with the victim's row moved.
    plan = recorded.plan
    victim, donor = plan.rows_of(sorted(plan.assignments)[:2])
    gpu, start = plan.gpu.copy(), plan.start.copy()
    gpu[victim], start[victim] = gpu[donor], start[donor]
    schedule = Schedule(
        plan.instance, plan.job, plan.rnd, plan.slot, gpu, start,
        plan.train, plan.sync,
    )
    report = diagnose_schedule(schedule)
    print(report.summary())
    for finding in report.invariant_violations()[:2]:
        print(f"  [{finding.severity.name}] {finding.monitor}: {finding.message}")

    # ------------------------------------------------------------------
    # Baseline engine: snapshot this run, then compare a pretend re-run
    # whose sync-time p99 regressed 10x. Direction-aware bands flag it.
    # ------------------------------------------------------------------
    print("\n== Baseline check: synthetic p99 regression ==")
    baseline_path = recorded.write_baseline(out / "baseline.json")
    base = read_baseline(baseline_path)
    candidate = dict(flatten_metrics(recorded.metrics_snapshot()))
    candidate["sim.sync_time_s.p99"] = candidate["sim.sync_time_s.p99"] * 10
    drift = compare_snapshots(base["metrics"], candidate)
    print(drift.summary())
    for finding in drift.errors()[:2]:
        print(f"  [{finding.severity.name}] {finding.message}")
    print(f"baseline written to {baseline_path}")
    print("  -> gate a re-run with: repro check --baseline", baseline_path.name)

    # ------------------------------------------------------------------
    # Time attribution: where did each job's completion time go? A
    # recorded run with a GPU crash injected, decomposed per job and
    # along the cluster critical path.
    # ------------------------------------------------------------------
    print("\n== Time attribution: why is my job slow? ==")
    crashed = run_experiment(
        gpus=8, jobs=10, scheduler="hare_online", seed=7,
        rounds_scale=0.1, record=True,
        crashes=[(2.0, 1)], replan_interval=2.0, trace=False,
    )
    report = crashed.attribution()
    assert report.check() == []  # components sum to JCT within 1e-9
    print(
        f"{len(report.jobs)} jobs, total JCT {report.total_jct_s:.1f} s, "
        f"{report.retractions} retraction(s)"
    )
    rows = []
    for frac_name, frac in sorted(
        report.fractions().items(), key=lambda kv: -kv[1]
    ):
        if frac > 0:
            rows.append([frac_name, f"{report.totals[frac_name]:.2f} s",
                         f"{frac * 100:.1f}%"])
    print(render_table(["component", "seconds", "share"], rows))
    worst = max(report.jobs, key=lambda j: j.jct)
    dominant = max(worst.components, key=lambda c: worst.components[c])
    print(
        f"slowest job {worst.job_id}: JCT {worst.jct:.2f} s, "
        f"dominated by {dominant} "
        f"({worst.components[dominant]:.2f} s)"
    )
    cp = report.critical_path
    print(
        f"critical path: makespan {cp['makespan']:.2f} s across "
        f"{len(cp['segments'])} segment(s); blame "
        + ", ".join(
            f"{k}={v:.2f}s" for k, v in sorted(cp["blame"].items()) if v > 0
        )
    )
    attrib_path = crashed.write_attribution(out / "attribution.json")
    print(f"attribution written to {attrib_path}")
    print("  -> diff two runs with: repro explain --diff base.json cand.json")


if __name__ == "__main__":
    main()
