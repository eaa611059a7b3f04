"""Command-line interface: run Hare experiments without writing code.

Usage (``python -m repro ...``)::

    python -m repro compare  --gpus 40 --jobs 60 --load 2.0 --seed 7
    python -m repro schedule --gpus 15 --jobs 20 --scheduler hare --simulate
    python -m repro sweep    --seeds 8 --workers 4 --schedulers hare,srtf
    python -m repro trace    --gpus 15 --jobs 8 --out trace.json
    python -m repro record   --gpus 15 --jobs 8 --out flight.jsonl
    python -m repro replay   flight.jsonl --category sim --monitors
    python -m repro heal     --jobs 16 --seed 7 --replan-interval 0.25 \
                             --out remediation.json
    python -m repro explain  --jobs 16 --seed 7 --crash 5:2 \
                             --out attribution.json
    python -m repro explain  --flight-log flight.jsonl
    python -m repro explain  --diff base_attrib.json cand_attrib.json
    python -m repro check    --baseline benchmarks/out/BENCH_kernel.json \
                             --candidate artifacts/BENCH_kernel.json
    python -m repro table3
    python -m repro speedups

``compare`` runs all five schemes and prints the weighted-JCT table;
``schedule`` runs one scheme (optionally replaying it on the DES with
switching costs); ``trace`` exports a Chrome/Perfetto trace plus a
``run.json`` manifest; ``table3`` and ``speedups`` print the calibration
grids (paper Table 3 / Fig. 2). ``compare``/``schedule``/``chaos`` accept
``--trace-out``/``--manifest-out`` to leave the same artifacts behind
(``--trace-out`` implies the DES replay — the trace's events come from it).

The continuous-observability commands: ``record`` runs one scheduler with
the flight recorder and streaming monitors attached and dumps the
schema-versioned JSONL flight log; ``replay`` filters/summarizes a flight
log and can re-run the monitors over it post-hoc; ``check`` compares a
metrics baseline (or a ``BENCH_kernel.json`` bench report) against a
candidate under per-metric tolerance bands and exits non-zero on
regression — the CI drift gate. ``chaos --monitors`` attaches the
monitors to a fault-injection run and fails on invariant violations.

``heal`` closes the loop: it runs a streaming experiment twice — healing
off, then on — and reports what the :mod:`repro.heal` remediation engine
changed (re-plans throttled, weights boosted, GPUs quarantined), writing
the ``repro.remediation/1`` log with ``--out`` and exiting non-zero when
ERROR findings were left unremediated. ``chaos --heal`` attaches the same
engine to a fault-injection run.

``explain`` answers *why*: it attributes every job's JCT to queue wait /
compute / heterogeneity penalty / sync stall / switching / replan churn /
fault recovery (:mod:`repro.obs.attrib`), extracts the cluster critical
path with per-category blame, and — with ``--diff BASE CAND`` — shows
which component a regression came from. Works on a fresh run, on a
recorded flight log (``--flight-log``), or on two saved
``repro.attrib/1`` reports; exits non-zero if the components fail the
sum-to-JCT invariant.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import api
from .cells import ADMISSION_POLICIES, CELL_STRATEGIES
from .cluster import gpu_spec, scaled_cluster, testbed_cluster
from .core import improvement_percent
from .core.types import ModelName, SwitchMode
from .harness import render_table
from .harness.experiments import make_loaded_workload
from .schedulers import create as create_scheduler
from .switching import switch_time_table
from .workload import WorkloadConfig, batch_time, speedup_table


def _cluster(args: argparse.Namespace):
    if args.gpus == 15:
        return testbed_cluster()
    return scaled_cluster(args.gpus)


def _workload(args: argparse.Namespace):
    if getattr(args, "trace", None):
        from .workload import load_jobs_csv

        return load_jobs_csv(args.trace)
    jobs = make_loaded_workload(
        args.jobs,
        reference_gpus=args.gpus,
        load=args.load,
        seed=args.seed,
        config=WorkloadConfig(rounds_scale=args.rounds_scale),
    )
    if getattr(args, "save_trace", None):
        from .workload import save_jobs_csv

        save_jobs_csv(jobs, args.save_trace)
    return jobs


def _wants_artifacts(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "trace_out", None)
        or getattr(args, "manifest_out", None)
    )


def _write_artifacts(args: argparse.Namespace, result) -> None:
    """Export ``--trace-out`` / ``--manifest-out`` for an api result."""
    trace_path = None
    if getattr(args, "trace_out", None):
        trace_path = result.write_trace(args.trace_out)
        print(f"trace written to {trace_path}", file=sys.stderr)
    if getattr(args, "manifest_out", None):
        manifest = result.write_manifest(
            args.manifest_out,
            trace_path=str(trace_path) if trace_path else None,
        )
        print(f"manifest written to {manifest}", file=sys.stderr)


def cmd_compare(args: argparse.Namespace) -> int:
    cluster = _cluster(args)
    jobs = _workload(args)
    # The trace's events come from the DES, so --trace-out implies replay.
    simulate = args.simulate or bool(getattr(args, "trace_out", None))
    comparison = api.compare(
        cluster=cluster,
        workload=jobs,
        seed=args.seed,
        load=args.load,
        rounds_scale=args.rounds_scale,
        simulate=simulate,
        trace=_wants_artifacts(args),
        arrivals=getattr(args, "arrivals", "planned"),
        cells=getattr(args, "cells", 1),
        cell_strategy=getattr(args, "cell_strategy", "balanced"),
        admission=getattr(args, "admission", "throughput"),
    )
    results = comparison.results
    hare = results["Hare"].metrics.total_weighted_flow
    rows = []
    for name, r in results.items():
        m = r.metrics
        rows.append(
            [
                name,
                m.total_weighted_flow,
                m.makespan,
                improvement_percent(m.total_weighted_flow, hare),
            ]
        )
    print(
        render_table(
            ["scheduler", "weighted JCT (s)", "makespan (s)",
             "Hare reduction %"],
            rows,
            title=(
                f"{args.jobs} jobs on {cluster.num_gpus} GPUs "
                f"(load {args.load}, seed {args.seed}"
                f"{', DES replay' if simulate else ''})"
            ),
            float_fmt="{:.1f}",
        )
    )
    _write_artifacts(args, comparison)
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    cluster = _cluster(args)
    jobs = _workload(args)
    try:
        scheduler = create_scheduler(args.scheduler)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    simulate = args.simulate or bool(getattr(args, "trace_out", None))
    r = api.run_experiment(
        cluster=cluster,
        workload=jobs,
        scheduler=scheduler,
        seed=args.seed,
        load=args.load,
        rounds_scale=args.rounds_scale,
        simulate=simulate,
        trace=_wants_artifacts(args),
        arrivals=getattr(args, "arrivals", "planned"),
        cells=getattr(args, "cells", 1),
        cell_strategy=getattr(args, "cell_strategy", "balanced"),
        admission=getattr(args, "admission", "throughput"),
    )
    m = r.metrics
    rows = [
        ["weighted JCT (Σ w·(C−a))", m.total_weighted_flow],
        ["weighted completion (Σ w·C)", m.total_weighted_completion],
        ["makespan", m.makespan],
        ["mean flow time", m.mean_flow],
    ]
    if r.sim is not None:
        rows += [
            ["switch overhead (frac of compute)",
             r.sim.telemetry.switch_overhead_fraction()],
            ["retention hits", r.sim.telemetry.retention_hits],
            ["mean GPU utilization", r.sim.telemetry.mean_utilization],
        ]
    print(
        render_table(
            ["metric", "value"],
            rows,
            title=f"{scheduler.name} on {cluster.num_gpus} GPUs, "
            f"{args.jobs} jobs",
            float_fmt="{:.3f}",
        )
    )
    _write_artifacts(args, r)
    return 0


def _parse_crash(spec: str):
    from .faults import GpuCrash

    time, gpu = spec.split(":")
    return GpuCrash(time=float(time), gpu_id=int(gpu))


def _parse_slowdown(spec: str):
    from .faults import GpuSlowdown

    gpu, start, duration, factor = spec.split(":")
    return GpuSlowdown(
        gpu_id=int(gpu),
        start=float(start),
        duration=float(duration),
        factor=float(factor),
    )


def _parse_partition(spec: str):
    from .faults import NetworkPartition

    start, duration = spec.split(":")
    return NetworkPartition(start=float(start), duration=float(duration))


def cmd_chaos(args: argparse.Namespace) -> int:
    from .control import ControlPlane
    from .faults import FaultScenario, HeartbeatConfig, RpcFlakiness
    from .obs import Obs, use

    cluster = _cluster(args)
    jobs = _workload(args)
    try:
        scheduler = create_scheduler(args.scheduler)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        scenario = FaultScenario(
            crashes=tuple(_parse_crash(s) for s in args.crash),
            slowdowns=tuple(_parse_slowdown(s) for s in args.slowdown),
            flakiness=(
                RpcFlakiness(drop_rate=args.drop_rate, seed=args.drop_seed)
                if args.drop_rate > 0
                else None
            ),
            partitions=tuple(_parse_partition(s) for s in args.partition),
        )
    except ValueError as exc:
        print(f"bad fault spec: {exc}", file=sys.stderr)
        return 2
    scenario = scenario.validate(cluster.num_gpus)
    plane = ControlPlane(
        cluster=cluster,
        scheduler=scheduler,
        checkpoint_interval=args.checkpoint_interval,
    )
    plane.submit(jobs)
    from contextlib import nullcontext

    monitors_on = bool(getattr(args, "monitors", False))
    heal_on = bool(getattr(args, "heal", False))
    engine = None
    obs = None
    if heal_on:
        from .heal import RemediationEngine

        # The engine wraps the default monitors itself; its findings
        # reach the diagnosis through the recorder.
        engine = RemediationEngine()
        obs = Obs.start(
            trace=_wants_artifacts(args), record=True, monitors=[engine]
        )
    elif monitors_on:
        from .obs import default_monitors

        obs = Obs.start(
            trace=_wants_artifacts(args),
            record=True,
            monitors=default_monitors(),
        )
    elif _wants_artifacts(args):
        obs = Obs.start(trace=True)
    with use(obs) if obs is not None else nullcontext():
        result = plane.run_chaos(
            scenario,
            heartbeat=HeartbeatConfig(
                interval_s=args.heartbeat_interval, lease_s=args.lease
            ),
            heal=engine,
        )
    diagnosis = None
    if monitors_on or heal_on:
        diagnosis = obs.recorder.diagnose(metrics=obs.metrics.snapshot())
    report = result.report
    rows = [
        ["jobs completed", len(result.completions)],
        ["permanent crashes", len(report.crashes)],
        # One re-plan per crash inside the run; a crash at or after the
        # last completion is detected but recovers nothing.
        ["  after the last completion", len(report.crashes) - report.replans],
        ["re-plans", report.replans],
        ["mean detection latency (s)",
         (sum(report.detection_latencies) / len(report.detection_latencies))
         if report.detection_latencies else 0.0],
        ["heartbeats sent / delivered",
         f"{report.heartbeats_sent} / {report.heartbeats_delivered}"],
        ["lost rounds", report.total_lost_rounds],
        ["lost work (s)", report.lost_work_s],
        ["checkpoint restores", report.restore_reads],
        ["checkpoint bytes restored", report.checkpoint_bytes_restored],
        ["RPC retries / timeouts", f"{report.rpc_retries} / {report.rpc_timeouts}"],
        ["messages dropped", report.messages_dropped],
        ["failure-free weighted JCT (s)", report.failure_free_weighted_jct],
        ["degraded weighted JCT (s)", report.degraded_weighted_jct],
        ["JCT degradation", report.jct_degradation],
        ["makespan (s)",
         f"{report.failure_free_makespan:.1f} -> "
         f"{report.degraded_makespan:.1f}"],
    ]
    print(
        render_table(
            ["metric", "value"],
            rows,
            title=(
                f"chaos: {len(jobs)} jobs on {cluster.num_gpus} GPUs, "
                f"{len(report.crashes)} crash(es), "
                f"drop rate {args.drop_rate}"
            ),
            float_fmt="{:.3f}",
        )
    )
    if heal_on and result.remediation is not None:
        print(result.remediation.summary())
    if obs is not None:
        from .obs import build_manifest, write_manifest, write_trace

        trace_path = None
        if args.trace_out:
            trace_path = write_trace(obs.tracer, args.trace_out)
            print(f"trace written to {trace_path}", file=sys.stderr)
        if args.manifest_out:
            manifest = build_manifest(
                command="chaos",
                config={
                    "gpus": cluster.num_gpus,
                    "jobs": len(jobs),
                    "scheduler": args.scheduler,
                    "seed": args.seed,
                    "crashes": args.crash,
                    "drop_rate": args.drop_rate,
                },
                seed=args.seed,
                results={
                    "jobs_completed": len(result.completions),
                    "replans": report.replans,
                    "lost_rounds": report.total_lost_rounds,
                    "degraded_weighted_jct": report.degraded_weighted_jct,
                },
                metrics=obs.metrics,
                trace_path=str(trace_path) if trace_path else None,
            )
            path = write_manifest(manifest, args.manifest_out)
            print(f"manifest written to {path}", file=sys.stderr)
    if diagnosis is not None:
        _print_report(diagnosis)
        if not diagnosis.ok:
            return 1
    return 0


def _print_report(report, *, limit: int = 20) -> None:
    print(report.summary())
    for finding in report.findings[:limit]:
        where = f" @t={finding.time:.3f}" if finding.time is not None else ""
        print(f"  [{finding.severity.name}] {finding.monitor}{where}: "
              f"{finding.message}")
    if len(report.findings) > limit:
        print(f"  ... and {len(report.findings) - limit} more")


def cmd_heal(args: argparse.Namespace) -> int:
    """Run a streaming experiment twice — healing off, then on — and
    show what the remediation engine changed."""
    cluster = _cluster(args)
    jobs = _workload(args)
    try:
        scheduler = create_scheduler(args.scheduler)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    crashes = None
    if args.crash:
        crashes = []
        for spec in args.crash:
            time, gpu = spec.split(":")
            crashes.append((float(time), int(gpu)))
    common = dict(
        cluster=cluster,
        workload=jobs,
        scheduler=scheduler,
        seed=args.seed,
        load=args.load,
        rounds_scale=args.rounds_scale,
        simulate=False,
        trace=False,
        arrivals="streaming",
        replan_interval=args.replan_interval,
        crashes=crashes,
    )
    base = api.run_experiment(**common)
    healed = api.run_experiment(**common, heal=True)
    log = healed.remediation
    assert log is not None and base.kernel is not None
    assert healed.kernel is not None
    rows = [
        ["re-plans", f"{base.kernel.replans} -> {healed.kernel.replans}"],
        ["weighted JCT (s)",
         f"{base.metrics.total_weighted_completion:.3f} -> "
         f"{healed.metrics.total_weighted_completion:.3f}"],
        ["makespan (s)",
         f"{base.makespan:.3f} -> {healed.makespan:.3f}"],
        ["remediation actions", len(log.records)],
        ["applied", sum(1 for r in log.records if r.applied)],
        ["unremediated findings", len(log.unremediated)],
    ]
    for kind, n in sorted(log.counts().items()):
        rows.append([f"  {kind}", n])
    print(
        render_table(
            ["metric", "no heal -> heal"],
            rows,
            title=(
                f"heal: {scheduler.name}, {len(jobs)} jobs on "
                f"{cluster.num_gpus} GPUs, replan interval "
                f"{args.replan_interval}s"
            ),
        )
    )
    print(log.summary())
    if args.out:
        path = log.write(args.out)
        print(f"remediation log written to {path}", file=sys.stderr)
    if log.unremediated_errors():
        for finding in log.unremediated_errors():
            print(
                f"  [ERROR unremediated] {finding.monitor}: "
                f"{finding.message}"
            )
        return 1
    return 0


def _print_attribution(report, *, top: int = 10) -> None:
    from .obs.attrib import COMPONENTS

    rows = []
    slowest = sorted(report.jobs, key=lambda j: (-j.jct, j.job_id))[:top]
    for j in slowest:
        comp = j.components
        other = (
            comp["switch_overhead"]
            + comp["replan_overhead"]
            + comp["fault_recovery"]
        )
        dominant = max(COMPONENTS, key=lambda c: (comp[c], c))
        rows.append(
            [
                j.job_id,
                "-" if j.cell is None else j.cell,
                j.rounds,
                j.jct,
                comp["queue_wait"],
                comp["compute"],
                comp["hetero_penalty"],
                comp["sync_stall"],
                other,
                dominant,
            ]
        )
    print(
        render_table(
            ["job", "cell", "rounds", "JCT (s)", "queue", "compute",
             "hetero", "stall", "other", "dominant"],
            rows,
            title=(
                f"slowest {len(rows)} of {len(report.jobs)} jobs "
                f"(total JCT {report.total_jct_s:.1f}s, "
                f"{report.replans} replans, "
                f"{report.retractions} retractions)"
            ),
            float_fmt="{:.2f}",
        )
    )
    fractions = report.fractions()
    print("where the JCT went:")
    for c in COMPONENTS:
        if report.totals[c] > 0.0:
            print(
                f"  {c:<16} {report.totals[c]:10.2f}s  "
                f"{100 * fractions[c]:5.1f}%"
            )
    cp = report.critical_path
    print(
        f"critical path: makespan {cp['makespan']:.2f}s from "
        f"t={cp['origin']:.2f} across {len(cp['segments'])} segment(s)"
    )
    for c, v in sorted(cp["blame"].items(), key=lambda kv: -kv[1]):
        if v > 0.0:
            print(f"  blame {c:<16} {v:10.2f}s")
    if report.cell_residency:
        residency = ", ".join(
            f"cell {c}: {report.cell_residency[c]:.1f}s"
            for c in sorted(report.cell_residency)
        )
        print(f"per-cell resident JCT: {residency}")


def cmd_explain(args: argparse.Namespace) -> int:
    """Attribute where a run's time went (or diff two attributions)."""
    import math

    from .obs.attrib import (
        COMPONENTS,
        attribute_records,
        load_attribution,
        write_attribution,
    )

    if args.diff:
        try:
            base = load_attribution(args.diff[0])
            cand = load_attribution(args.diff[1])
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load attribution report: {exc}", file=sys.stderr)
            return 2
        delta = cand.diff(base)
        rows = [
            [c, base.totals[c], cand.totals[c],
             delta["component_delta_s"][c]]
            for c in COMPONENTS
            if base.totals[c] or cand.totals[c]
        ]
        rows.append(
            ["total JCT", base.total_jct_s, cand.total_jct_s,
             delta["total_jct_delta_s"]]
        )
        print(
            render_table(
                ["component", "baseline (s)", "candidate (s)", "delta (s)"],
                rows,
                title=(
                    f"attribution diff: {args.diff[1]} vs {args.diff[0]} "
                    f"(makespan delta "
                    f"{delta['makespan_delta_s']:+.2f}s)"
                ),
                float_fmt="{:.2f}",
            )
        )
        drift = abs(
            delta["total_jct_delta_s"]
            - math.fsum(delta["component_delta_s"].values())
        )
        if args.out:
            import json as _json
            from pathlib import Path

            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(
                _json.dumps(delta, indent=2, sort_keys=True) + "\n"
            )
            print(f"attribution diff written to {out}", file=sys.stderr)
        if drift > 1e-6:
            print(
                f"component deltas drift from the JCT delta by {drift!r}",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.flight_log:
        from .obs import load_flight_log

        try:
            records = load_flight_log(args.flight_log)
            report = attribute_records(records)
        except (OSError, ValueError) as exc:
            print(f"cannot load flight log: {exc}", file=sys.stderr)
            return 2
        if records and not report.jobs:
            print(
                f"{args.flight_log}: {len(records)} records but no "
                "kernel.round instants — attribution needs a kernel "
                "run's log (repro record or a recorded repro chaos "
                "run), not an api.simulate replay's",
                file=sys.stderr,
            )
            return 2
    else:
        cluster = _cluster(args)
        jobs = _workload(args)
        try:
            scheduler = create_scheduler(args.scheduler)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        crashes = None
        if args.crash:
            crashes = []
            for spec in args.crash:
                time, gpu = spec.split(":")
                crashes.append((float(time), int(gpu)))
        try:
            r = api.run_experiment(
                cluster=cluster,
                workload=jobs,
                scheduler=scheduler,
                seed=args.seed,
                load=args.load,
                rounds_scale=args.rounds_scale,
                simulate=False,
                trace=False,
                arrivals=args.arrivals,
                record=True,
                crashes=crashes,
                replan_interval=args.replan_interval,
                cells=getattr(args, "cells", 1),
                cell_strategy=getattr(args, "cell_strategy", "balanced"),
                admission=getattr(args, "admission", "throughput"),
            )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        report = r.attribution()
    problems = report.check()
    _print_attribution(report, top=args.top)
    if args.out:
        path = write_attribution(report, args.out)
        print(f"attribution written to {path}", file=sys.stderr)
    if problems:
        for problem in problems[:10]:
            print(f"  [ERROR] {problem}", file=sys.stderr)
        return 1
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    """Run one scheduler with the flight recorder + monitors attached."""
    cluster = _cluster(args)
    jobs = _workload(args)
    try:
        scheduler = create_scheduler(args.scheduler)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    r = api.run_experiment(
        cluster=cluster,
        workload=jobs,
        scheduler=scheduler,
        seed=args.seed,
        load=args.load,
        rounds_scale=args.rounds_scale,
        simulate=True,
        trace=False,
        arrivals=getattr(args, "arrivals", "planned"),
        record=True,
        monitors=not args.no_monitors,
    )
    recorder = r.obs.recorder
    path = r.write_flight_log(args.out)
    compute = recorder.span_stats(category="sim")
    print(
        f"recorded {recorder.seen} events "
        f"({recorder.dropped} dropped) from {r.scheduler} on "
        f"{cluster.num_gpus} GPUs, {len(jobs)} jobs"
    )
    print(
        f"compute spans: {compute['count']} "
        f"(total {compute['total_s']:.1f}s, mean {compute['mean_s']:.3f}s)"
    )
    print(f"flight log written to {path}")
    if r.diagnosis is not None:
        _print_report(r.diagnosis)
        if not r.diagnosis.ok:
            return 1
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Filter/summarize a flight log; optionally re-run the monitors."""
    from .obs import load_flight_log, replay_monitors

    try:
        records = load_flight_log(args.log)
    except (OSError, ValueError) as exc:
        print(f"cannot load flight log: {exc}", file=sys.stderr)
        return 2
    matched = records
    if args.category:
        matched = [r for r in matched if r.category == args.category]
    if args.track:
        pat = args.track
        matched = [
            r for r in matched
            if (r.track.startswith(pat[:-1]) if pat.endswith("*")
                else r.track == pat)
        ]
    if args.name:
        pat = args.name
        matched = [
            r for r in matched
            if (r.name.startswith(pat[:-1]) if pat.endswith("*")
                else r.name == pat)
        ]
    if args.since is not None:
        matched = [r for r in matched if r.time >= args.since]
    if args.until is not None:
        matched = [r for r in matched if r.time < args.until]
    by_kind: dict[str, int] = {}
    for rec in matched:
        by_kind[rec.kind] = by_kind.get(rec.kind, 0) + 1
    print(
        f"{len(matched)}/{len(records)} records match "
        f"({', '.join(f'{k}: {n}' for k, n in sorted(by_kind.items()))})"
    )
    for rec in matched[: args.limit]:
        extent = f" dur={rec.duration:.4f}s" if rec.duration else ""
        print(
            f"  #{rec.seq} t={rec.time:.4f} [{rec.category}] "
            f"{rec.kind} {rec.name!r} on {rec.track}{extent}"
        )
    if len(matched) > args.limit:
        print(f"  ... and {len(matched) - args.limit} more")
    if args.monitors:
        report = replay_monitors(records)
        _print_report(report)
        if not report.ok:
            return 1
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Compare a baseline against a candidate run; exit 1 on regression."""
    import json as _json

    from .obs.baseline import (
        BASELINE_TOLERANCES,
        BENCH_TOLERANCES,
        compare_snapshots,
        load_snapshot,
    )

    try:
        base_doc, base_flat, base_kind = load_snapshot(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"cannot load baseline: {exc}", file=sys.stderr)
        return 2

    if args.candidate:
        try:
            cand_doc, cand_flat, cand_kind = load_snapshot(args.candidate)
        except (OSError, ValueError) as exc:
            print(f"cannot load candidate: {exc}", file=sys.stderr)
            return 2
        if cand_kind != base_kind:
            print(
                f"baseline is a {base_kind} document but candidate is a "
                f"{cand_kind} document",
                file=sys.stderr,
            )
            return 2
    elif base_kind == "baseline":
        # Re-run the experiment the baseline records and compare fresh.
        from .obs.baseline import flatten_metrics

        result = api.run_experiment(
            api.ExperimentSpec.from_dict(
                base_doc.get("config", {}), trace=False
            )
        )
        cand_flat = flatten_metrics(result.metrics_snapshot())
    else:
        print(
            "a bench-report baseline needs --candidate (fresh bench "
            "output to compare)",
            file=sys.stderr,
        )
        return 2

    tolerances = (
        BENCH_TOLERANCES if base_kind == "bench" else BASELINE_TOLERANCES
    )
    report = compare_snapshots(
        base_flat,
        cand_flat,
        tolerances=tolerances,
        source=f"{base_kind}-check",
    )
    _print_report(report)
    if args.report:
        from pathlib import Path

        out = Path(args.report)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            _json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        )
        print(f"diagnosis report written to {out}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a seeds × schedulers × scales grid across worker processes."""
    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    scales = [int(s) for s in args.scales.split(",") if s.strip()]
    result = api.sweep(
        seeds=args.seeds,
        schedulers=schedulers,
        scales=scales,
        jobs=args.jobs,
        load=args.load,
        rounds_scale=args.rounds_scale,
        simulate=not args.no_simulate,
        workers=args.workers,
        arrivals=args.arrivals,
    )
    rows = [
        [p.scheduler, p.seed, p.gpus, p.weighted_jct, p.makespan]
        for p in result.points
    ]
    print(
        render_table(
            ["scheduler", "seed", "gpus", "weighted JCT (s)", "makespan (s)"],
            rows,
            title=(
                f"sweep: {len(result.points)} cells "
                f"({args.seeds} seeds x {len(schedulers)} scheduler(s) x "
                f"{len(scales)} scale(s)), {args.workers} worker(s)"
            ),
            float_fmt="{:.1f}",
        )
    )
    for name, points in sorted(result.by_scheduler().items()):
        mean_jct = sum(p.weighted_jct for p in points) / len(points)
        print(f"  {name}: mean weighted JCT {mean_jct:.1f}s "
              f"over {len(points)} cells")
    if args.manifest_out:
        path = result.write_manifest(args.manifest_out)
        print(f"manifest written to {path}", file=sys.stderr)
    if args.baseline_out:
        path = result.write_baseline(args.baseline_out)
        print(f"baseline written to {path}", file=sys.stderr)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Export a Perfetto trace + run manifest for one run (or a compare)."""
    cluster = _cluster(args)
    jobs = _workload(args)
    if args.scheduler == "all":
        result = api.compare(
            cluster=cluster,
            workload=jobs,
            seed=args.seed,
            load=args.load,
            rounds_scale=args.rounds_scale,
            simulate=True,
            trace=True,
        )
        label = ", ".join(result.names)
    else:
        try:
            scheduler = create_scheduler(args.scheduler)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        result = api.run_experiment(
            cluster=cluster,
            workload=jobs,
            scheduler=scheduler,
            seed=args.seed,
            load=args.load,
            rounds_scale=args.rounds_scale,
            simulate=True,
            trace=True,
        )
        label = result.scheduler
    trace_path = result.write_trace(args.out)
    manifest_path = result.write_manifest(
        args.manifest, trace_path=str(trace_path)
    )
    print(f"traced {label}: {len(jobs)} jobs on {cluster.num_gpus} GPUs")
    print(f"trace:    {trace_path}  (open in ui.perfetto.dev)")
    print(f"manifest: {manifest_path}")
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    gpu = gpu_spec(args.gpu)
    table = switch_time_table(gpu)
    rows = []
    for model in ModelName:
        row = table[model]
        rows.append(
            [
                model.value,
                row[SwitchMode.DEFAULT] * 1e3,
                row[SwitchMode.PIPESWITCH] * 1e3,
                row[SwitchMode.HARE] * 1e3,
                100 * row[SwitchMode.HARE] / batch_time(model, args.gpu),
            ]
        )
    print(
        render_table(
            ["model", "default (ms)", "pipeswitch (ms)", "hare (ms)",
             "hare % of task"],
            rows,
            title=f"Task switching time on a {args.gpu}",
            float_fmt="{:.2f}",
        )
    )
    return 0


def cmd_speedups(args: argparse.Namespace) -> int:
    table = speedup_table()
    gpus = list(next(iter(table.values())))
    rows = [
        [name.value, *(table[name][g] for g in gpus)] for name in ModelName
    ]
    print(
        render_table(
            ["model", *(g.value for g in gpus)],
            rows,
            title="Training speedup over K80 (Fig. 2)",
            float_fmt="{:.2f}",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Hare (HPDC 2022) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--gpus", type=int, default=15,
                       help="cluster size (15 = the paper's testbed mix)")
        p.add_argument("--jobs", type=int, default=20)
        p.add_argument("--load", type=float, default=1.5,
                       help="target cluster load factor")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rounds-scale", type=float, default=0.15,
                       help="multiplier on per-job round counts")
        p.add_argument("--simulate", action="store_true",
                       help="replay the plan on the DES with switch costs")
        p.add_argument("--arrivals", choices=("planned", "streaming"),
                       default="planned",
                       help="arrival setting recorded in the run's "
                            "config; every run feeds arrivals as events "
                            "through the scheduling kernel")
        p.add_argument("--cells", type=int, default=1,
                       help="cell count for hierarchical sharded "
                            "scheduling; 1 = flat")
        p.add_argument("--cell-strategy", choices=CELL_STRATEGIES,
                       default="balanced", dest="cell_strategy",
                       help="how the cluster is split into cells")
        p.add_argument("--admission", choices=ADMISSION_POLICIES,
                       default="throughput",
                       help="global job-to-cell admission policy")
        p.add_argument("--trace", metavar="CSV",
                       help="load the workload from a trace CSV instead of "
                            "generating one")
        p.add_argument("--save-trace", metavar="CSV",
                       help="write the generated workload to a trace CSV")

    def add_artifact_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace-out", metavar="JSON",
                       help="write a Chrome/Perfetto trace of the run "
                            "(implies --simulate)")
        p.add_argument("--manifest-out", metavar="JSON",
                       help="write a run.json manifest of the run")

    p_compare = sub.add_parser("compare", help="run all five schedulers")
    add_workload_args(p_compare)
    add_artifact_args(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_sched = sub.add_parser("schedule", help="run one scheduler")
    add_workload_args(p_sched)
    add_artifact_args(p_sched)
    p_sched.add_argument("--scheduler", default="hare",
                         help="hare | gavel_fifo | srtf | sched_homo | sched_allox")
    p_sched.set_defaults(func=cmd_schedule)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a seeds x schedulers x scales grid across worker "
             "processes and aggregate one manifest",
    )
    p_sweep.add_argument("--seeds", type=int, default=8,
                         help="number of seeds (grid uses 0..N-1)")
    p_sweep.add_argument("--schedulers", default="hare",
                         help="comma-separated registry keys")
    p_sweep.add_argument("--scales", default="15",
                         help="comma-separated cluster sizes "
                              "(15 = the paper's testbed mix)")
    p_sweep.add_argument("--jobs", type=int, default=20)
    p_sweep.add_argument("--load", type=float, default=1.5)
    p_sweep.add_argument("--rounds-scale", type=float, default=0.15)
    p_sweep.add_argument("--workers", type=int, default=4,
                         help="worker processes (1 = serial in-process)")
    p_sweep.add_argument("--no-simulate", action="store_true",
                         help="skip the DES replay, use analytic metrics")
    p_sweep.add_argument("--arrivals", choices=("planned", "streaming"),
                         default="planned")
    p_sweep.add_argument("--manifest-out", metavar="JSON",
                         help="write the aggregated sweep manifest here")
    p_sweep.add_argument("--baseline-out", metavar="JSON",
                         help="write the sweep.* baseline snapshot here")
    p_sweep.set_defaults(func=cmd_sweep)

    p_trace = sub.add_parser(
        "trace",
        help="run on the DES and export a Perfetto trace + run manifest",
    )
    add_workload_args(p_trace)
    p_trace.add_argument("--scheduler", default="hare",
                         help="a registry key, or 'all' for the full "
                              "five-scheme comparison")
    p_trace.add_argument("--out", default="trace.json", metavar="JSON",
                         help="trace output path (default: trace.json)")
    p_trace.add_argument("--manifest", default="run.json", metavar="JSON",
                         help="manifest output path (default: run.json)")
    p_trace.set_defaults(func=cmd_trace)

    p_chaos = sub.add_parser(
        "chaos",
        help="run the control plane under injected faults and recover",
    )
    add_workload_args(p_chaos)
    add_artifact_args(p_chaos)
    p_chaos.add_argument("--scheduler", default="hare")
    p_chaos.add_argument("--crash", action="append", default=[],
                         metavar="TIME:GPU",
                         help="permanent GPU crash (repeatable)")
    p_chaos.add_argument("--slowdown", action="append", default=[],
                         metavar="GPU:START:DURATION:FACTOR",
                         help="transient straggler window (repeatable)")
    p_chaos.add_argument("--partition", action="append", default=[],
                         metavar="START:DURATION",
                         help="network partition window (repeatable)")
    p_chaos.add_argument("--drop-rate", type=float, default=0.0,
                         help="i.i.d. per-message RPC drop probability")
    p_chaos.add_argument("--drop-seed", type=int, default=0)
    p_chaos.add_argument("--heartbeat-interval", type=float, default=2.0)
    p_chaos.add_argument("--lease", type=float, default=10.0,
                         help="failure-detector lease (s)")
    p_chaos.add_argument("--checkpoint-interval", type=int, default=10,
                         help="checkpoint every N rounds")
    p_chaos.add_argument("--monitors", action="store_true",
                         help="attach the streaming invariant monitors and "
                              "fail on invariant violations")
    p_chaos.add_argument("--heal", action="store_true",
                         help="attach the remediation engine: monitor "
                              "findings trigger corrective actions "
                              "(quarantine, weight boosts) during recovery")
    p_chaos.set_defaults(func=cmd_chaos)

    p_heal = sub.add_parser(
        "heal",
        help="run streaming twice (healing off/on) and report what the "
             "remediation engine changed",
    )
    add_workload_args(p_heal)
    p_heal.add_argument("--scheduler", default="hare_online",
                        help="registry key of a streaming-capable scheme "
                             "(default: hare_online)")
    p_heal.add_argument("--replan-interval", type=float, default=0.5,
                        help="periodic REPLAN_TIMER period (s); small "
                             "values provoke a replan storm for the "
                             "engine to throttle")
    p_heal.add_argument("--crash", action="append", default=[],
                        metavar="TIME:GPU",
                        help="permanent GPU crash fed to the kernel "
                             "(repeatable)")
    p_heal.add_argument("--out", metavar="JSON",
                        help="write the repro.remediation/1 log here")
    p_heal.set_defaults(func=cmd_heal)

    p_explain = sub.add_parser(
        "explain",
        help="attribute where a run's time went: per-job JCT "
             "decomposition, cluster critical path, and diffs between "
             "two saved attributions",
    )
    add_workload_args(p_explain)
    p_explain.add_argument("--scheduler", default="hare_online",
                           help="registry key (default: hare_online)")
    p_explain.add_argument("--crash", action="append", default=[],
                           metavar="TIME:GPU",
                           help="permanent GPU crash fed to the kernel "
                                "(repeatable)")
    p_explain.add_argument("--replan-interval", type=float, default=None,
                           help="periodic REPLAN_TIMER period (s)")
    p_explain.add_argument("--flight-log", metavar="JSONL",
                           dest="flight_log",
                           help="attribute a recorded flight log instead "
                                "of running an experiment")
    p_explain.add_argument("--diff", nargs=2, metavar=("BASE", "CAND"),
                           help="diff two saved repro.attrib/1 reports "
                                "(deltas are CAND - BASE)")
    p_explain.add_argument("--out", metavar="JSON",
                           help="write the repro.attrib/1 report (or the "
                                "repro.attrib-diff/1 document) here")
    p_explain.add_argument("--top", type=int, default=10,
                           help="slowest jobs to print (default: 10)")
    p_explain.set_defaults(func=cmd_explain)

    p_record = sub.add_parser(
        "record",
        help="run one scheduler with the flight recorder + monitors "
             "and dump the JSONL flight log",
    )
    add_workload_args(p_record)
    p_record.add_argument("--scheduler", default="hare")
    p_record.add_argument("--out", default="flight.jsonl", metavar="JSONL",
                          help="flight-log output path")
    p_record.add_argument("--no-monitors", action="store_true",
                          help="record only; skip the streaming monitors")
    p_record.set_defaults(func=cmd_record)

    p_replay = sub.add_parser(
        "replay",
        help="filter/summarize a recorded flight log "
             "(optionally re-run the monitors)",
    )
    p_replay.add_argument("log", metavar="JSONL",
                          help="flight log written by 'repro record'")
    p_replay.add_argument("--category",
                          help="keep records of one category "
                               "(sched|sim|switch|sync|fault|ctrl)")
    p_replay.add_argument("--track",
                          help="track filter; trailing * matches a prefix")
    p_replay.add_argument("--name",
                          help="name filter; trailing * matches a prefix")
    p_replay.add_argument("--since", type=float, default=None,
                          help="keep records at/after this sim time")
    p_replay.add_argument("--until", type=float, default=None,
                          help="keep records before this sim time")
    p_replay.add_argument("--limit", type=int, default=20,
                          help="max records to print (default: 20)")
    p_replay.add_argument("--monitors", action="store_true",
                          help="re-run the streaming monitors over the "
                               "full log and fail on ERROR findings")
    p_replay.set_defaults(func=cmd_replay)

    p_check = sub.add_parser(
        "check",
        help="compare a metrics baseline or bench report against a "
             "candidate; exit 1 on regression",
    )
    p_check.add_argument("--baseline", required=True, metavar="JSON",
                         help="baseline document (repro.baseline/1 or "
                              "BENCH_kernel.json)")
    p_check.add_argument("--candidate", metavar="JSON",
                         help="candidate document of the same kind; for a "
                              "metrics baseline, omit to re-run the "
                              "recorded experiment fresh")
    p_check.add_argument("--report", metavar="JSON",
                         help="write the DiagnosisReport JSON here")
    p_check.set_defaults(func=cmd_check)

    p_t3 = sub.add_parser("table3", help="print the switching-cost grid")
    p_t3.add_argument("--gpu", default="V100")
    p_t3.set_defaults(func=cmd_table3)

    p_sp = sub.add_parser("speedups", help="print the Fig. 2 speedup table")
    p_sp.set_defaults(func=cmd_speedups)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
