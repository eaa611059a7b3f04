"""Cross-run regression engine: baselines, tolerance bands, drift checks.

A **baseline** is a schema-versioned JSON snapshot of a run's
:class:`~repro.obs.metrics.MetricsRegistry` — counters and gauges become
flat scalars, histograms become ``name.count`` / ``name.mean`` /
``name.p50`` / ``name.p99`` — plus the config that produced it.
:func:`compare_snapshots` then diffs two flat snapshots under per-metric
:class:`Tolerance` bands and reports drift as severity-graded
:class:`~repro.obs.monitors.Finding`\\s in the same
:class:`~repro.obs.monitors.DiagnosisReport` shape the streaming monitors
use, so one artifact (and one CI gate: severity ≥ ERROR) covers both
correctness and performance trajectory.

Tolerances are **direction-aware**: for a throughput metric only a *drop*
is a regression (``direction="down"``), for a latency quantile only a
*rise* is (``direction="up"``); movement the other way is reported as an
INFO improvement. A band allows ``abs_tol + rel * |baseline|`` of drift,
and an optional ``limit`` additionally caps the candidate's absolute value
(used to pin the flight-recorder overhead under 15% regardless of what
the baseline happened to measure).

The same machinery checks ``benchmarks/out/BENCH_kernel.json``:
:func:`flatten_scalars` turns the nested bench report into a flat
snapshot and :func:`bench_tolerances` assigns bands by key shape —
deterministic fields (event/commitment/replan counts, makespan, weighted
completion) are near-exact, wall-clock fields are loose but directed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Number
from pathlib import Path
from typing import Mapping

from .monitors import DiagnosisReport, Finding, Severity

#: Baseline-file schema identifier, bumped on breaking layout changes.
BASELINE_SCHEMA = "repro.baseline/1"

_DIRECTIONS = ("up", "down", "both", "none")


@dataclass(frozen=True, slots=True)
class Tolerance:
    """Allowed drift band for one metric.

    ``direction`` names which way drift counts as a regression: ``"up"``
    (an increase — latencies), ``"down"`` (a decrease — throughput) or
    ``"both"``, or ``"none"`` for a recorded-but-ungated metric. Drift
    within ``abs_tol + rel * |baseline|`` passes; drift beyond it in the
    regression direction is an ERROR, in the improvement direction (or
    any direction, for ``"none"``) an INFO. ``limit`` (optional) caps the
    candidate's absolute value for ``direction="up"`` metrics no matter
    what the baseline was.
    """

    rel: float = 0.25
    abs_tol: float = 1e-9
    direction: str = "both"
    limit: float | None = None

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"tolerance direction must be one of {_DIRECTIONS}, "
                f"got {self.direction!r}"
            )

    def band(self, base: float) -> float:
        return self.abs_tol + self.rel * abs(base)


#: Applied when neither the tolerance map nor the suffix rules match.
DEFAULT_TOLERANCE = Tolerance(rel=0.25, abs_tol=1e-9, direction="both")

#: Deterministic quantities: simulated results must reproduce exactly
#: (up to float noise) for the same config and seed.
EXACT = Tolerance(rel=1e-9, abs_tol=1e-6, direction="both")

#: Wall-clock quantities: loose, directed bands sized for cross-machine
#: comparison (a CI runner can legitimately be several times slower than
#: the box that wrote the baseline, and sub-millisecond quantiles swing
#: tens of percent between back-to-back runs on the *same* box). The
#: absolute floor keeps microsecond-scale latencies from ever tripping
#: on scheduler noise; real regressions are order-of-magnitude events.
TIMING_UP = Tolerance(rel=3.0, abs_tol=5e-3, direction="up")
THROUGHPUT_DOWN = Tolerance(rel=0.75, abs_tol=1e-6, direction="down")

#: Recorded, never gated (environment facts, noise descriptors): any
#: change is reported as INFO drift.
UNGATED = Tolerance(rel=0.0, abs_tol=0.0, direction="none")


def resolve_tolerance(
    name: str,
    tolerances: Mapping[str, Tolerance] | None = None,
    default: Tolerance = DEFAULT_TOLERANCE,
) -> Tolerance:
    """Pick the band for *name*: exact key first, then the longest
    matching wildcard pattern (trailing ``*`` = prefix match, leading
    ``*`` = suffix match), then *default*."""
    if tolerances:
        if name in tolerances:
            return tolerances[name]
        best: tuple[int, Tolerance] | None = None
        for pattern, tol in tolerances.items():
            if pattern.endswith("*"):
                matched = name.startswith(pattern[:-1])
            elif pattern.startswith("*"):
                matched = name.endswith(pattern[1:])
            else:
                continue
            if matched and (best is None or len(pattern) > best[0]):
                best = (len(pattern), tol)
        if best is not None:
            return best[1]
    return default


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def flatten_metrics(snapshot: Mapping[str, Mapping]) -> dict[str, float]:
    """Flatten a ``MetricsRegistry.snapshot()`` into scalar metrics.

    Counters and gauges keep their name; a histogram ``h`` becomes
    ``h.count``, ``h.mean``, ``h.p50`` and ``h.p99``.
    """
    flat: dict[str, float] = {}
    for name, entry in sorted(snapshot.items()):
        kind = entry.get("type")
        if kind in ("counter", "gauge"):
            flat[name] = float(entry["value"])
        elif kind == "histogram":
            for stat in ("count", "mean", "p50", "p99"):
                flat[f"{name}.{stat}"] = float(entry[stat])
    return flat


def flatten_scalars(
    doc: Mapping, *, prefix: str = "", skip: tuple[str, ...] = ()
) -> dict[str, float]:
    """Flatten any nested JSON-ish mapping into dotted numeric leaves.

    Non-numeric leaves (strings, bools, lists) are dropped; *skip* prunes
    top-level keys (``schema``, free-text fields). This is how a bench
    report becomes a comparable snapshot.
    """
    flat: dict[str, float] = {}
    for key, value in doc.items():
        if not prefix and key in skip:
            continue
        dotted = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten_scalars(value, prefix=f"{dotted}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, Number):
            flat[dotted] = float(value)
    return flat


def snapshot_baseline(
    metrics, *, config: Mapping | None = None, command: str = ""
) -> dict:
    """Build a baseline document from a registry (or its snapshot)."""
    snapshot = metrics.snapshot() if hasattr(metrics, "snapshot") else metrics
    return {
        "schema": BASELINE_SCHEMA,
        "command": command,
        "config": dict(config or {}),
        "metrics": flatten_metrics(snapshot),
    }


def write_baseline(doc: Mapping, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def read_baseline(path: str | Path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path} is not a {BASELINE_SCHEMA} baseline "
            f"(schema={doc.get('schema')!r})"
        )
    return doc


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def compare_snapshots(
    base: Mapping[str, float],
    candidate: Mapping[str, float],
    *,
    tolerances: Mapping[str, Tolerance] | None = None,
    default: Tolerance = DEFAULT_TOLERANCE,
    source: str = "baseline",
) -> DiagnosisReport:
    """Diff two flat snapshots under tolerance bands.

    Regressions are ERROR, improvements and new metrics INFO, metrics the
    candidate lost WARNING. The report's ``ok`` is the CI gate.
    """
    findings: list[Finding] = []

    def emit(severity: Severity, message: str, **details) -> None:
        findings.append(
            Finding(
                severity=severity,
                monitor=source,
                message=message,
                details=details,
            )
        )

    for name in sorted(base):
        if name not in candidate:
            emit(
                Severity.WARNING,
                f"metric {name} present in baseline but missing from "
                f"candidate",
                metric=name, base=base[name],
            )
            continue
        b, c = base[name], candidate[name]
        tol = resolve_tolerance(name, tolerances, default)
        delta = c - b
        drifted = abs(delta) > tol.band(b)
        regressed = drifted and (
            tol.direction == "both"
            or (tol.direction == "up" and delta > 0)
            or (tol.direction == "down" and delta < 0)
        )
        over_limit = (
            tol.limit is not None and c > tol.limit
        )
        if regressed or over_limit:
            reason = (
                f"exceeds hard limit {tol.limit:g}" if over_limit and not
                regressed else f"outside ±{tol.band(b):g} band"
            )
            emit(
                Severity.ERROR,
                f"regression: {name} went {b:g} -> {c:g} "
                f"({delta:+g}, {reason})",
                metric=name, base=b, candidate=c, delta=delta,
                band=tol.band(b), direction=tol.direction,
                **({"limit": tol.limit} if tol.limit is not None else {}),
            )
        elif drifted:
            kind = "drift" if tol.direction == "none" else "improvement"
            emit(
                Severity.INFO,
                f"{kind}: {name} went {b:g} -> {c:g} ({delta:+g})",
                metric=name, base=b, candidate=c, delta=delta,
            )
    for name in sorted(set(candidate) - set(base)):
        emit(
            Severity.INFO,
            f"new metric {name} = {candidate[name]:g} "
            f"(absent from baseline)",
            metric=name, candidate=candidate[name],
        )

    findings.sort(key=lambda f: (-int(f.severity), f.message))
    return DiagnosisReport(
        findings=tuple(findings),
        monitors=(source,),
        records_seen=len(base),
    )


#: Tolerance patterns for flattened *run-metric* snapshots (the
#: ``repro.baseline/1`` kind). Sim-domain metrics are deterministic for a
#: fixed config + seed, so the symmetric default band catches drift; the
#: wall-clock histograms (scheduler phases, control-plane planning,
#: kernel residual latencies) vary run-to-run and machine-to-machine, so
#: they get the loose directed timing band — except their ``.count``,
#: which is deterministic.
BASELINE_TOLERANCES: dict[str, Tolerance] = {
    "sched.phase.*": TIMING_UP,
    "ctrl.plan_s.*": TIMING_UP,
    "kernel.residual_build_s.*": TIMING_UP,
    "kernel.residual_solve_s.*": TIMING_UP,
    "*.count": EXACT,
}


# ----------------------------------------------------------------------
# Bench-report support (BENCH_kernel.json)
# ----------------------------------------------------------------------
#: Tolerance patterns for flattened kernel-bench reports. Order does not
#: matter — :func:`resolve_tolerance` picks the longest matching pattern.
BENCH_TOLERANCES: dict[str, Tolerance] = {
    # Deterministic simulated results: exact for a fixed config+seed.
    "config.*": EXACT,
    # Where the numbers came from (versions, CPU count): never gated.
    "env.*": UNGATED,
    "*.events": EXACT,
    "*.commitments": EXACT,
    "*.replans": EXACT,
    "*.makespan": EXACT,
    "*.weighted_completion": EXACT,
    "*.counters.kernel.events": EXACT,
    "*.counters.kernel.commitments": EXACT,
    "*.counters.kernel.replans": EXACT,
    "*.counters.kernel.residual_cache_misses": EXACT,
    "*.residual_build.count": EXACT,
    "*.residual_solve.count": EXACT,
    # Wall-clock: loose, directed.
    "*.events_per_sec": THROUGHPUT_DOWN,
    "*.wall_s": TIMING_UP,
    "*.mean_s": TIMING_UP,
    "*.max_s": TIMING_UP,
    "*.p50_s": TIMING_UP,
    "*.p99_s": TIMING_UP,
    # Flight-recorder overhead: the median of interleaved per-pair
    # ratios, directed AND hard-capped at 15%; its quartiles describe
    # the noise and are not gated.
    "recorder_overhead.overhead_frac": Tolerance(
        rel=0.0, abs_tol=0.10, direction="up", limit=0.15
    ),
    "recorder_overhead.overhead_frac_q*": UNGATED,
    "recorder_overhead.*": THROUGHPUT_DOWN,
    "recorder_overhead.records": EXACT,
    "recorder_overhead.pairs": EXACT,
    # Time attribution (the attrib_fractions arm): the run itself is
    # deterministic, so counts and totals are exact; the per-category
    # JCT shares get a loose directed band — only silent *growth* of a
    # blame category flags, small re-balancing between categories does
    # not — and the sum-to-JCT residual is hard-capped at the 1e-9
    # invariant regardless of the baseline.
    "attrib_fractions.jobs": EXACT,
    "attrib_fractions.retractions": EXACT,
    "attrib_fractions.replans": EXACT,
    "attrib_fractions.total_jct_s": EXACT,
    "attrib_fractions.critical_path_makespan_s": EXACT,
    "attrib_fractions.frac.*": Tolerance(
        rel=0.5, abs_tol=0.05, direction="up"
    ),
    "attrib_fractions.sum_residual_max": Tolerance(
        rel=0.0, abs_tol=1e-9, direction="up", limit=1e-9
    ),
    # Scheduler hot-path throughput (the sched_throughput arms): the
    # instance shapes are deterministic; rates and the vectorized-vs-
    # reference speedup only regress by dropping.
    "*.tasks": EXACT,
    "*.gpus": EXACT,
    "*.count": EXACT,
    "*_tasks_per_sec": THROUGHPUT_DOWN,
    "*.list_speedup_x": THROUGHPUT_DOWN,
    "*.validate_speedup_x": THROUGHPUT_DOWN,
    # Array-kernel backend race (the array_kernel arms): event counts and
    # committed results are deterministic (and asserted equal across
    # backends inside the bench); the two rates and their ratio are
    # wall-clock, so they only regress by dropping. The hard ≥10x floor
    # on the gang_online arm lives in CI's bench-smoke gate.
    "*.events_per_sec_reference": THROUGHPUT_DOWN,
    "*.events_per_sec_array": THROUGHPUT_DOWN,
    "*.kernel_speedup_x": THROUGHPUT_DOWN,
    # The self-healing arm is wall-clock-free: both runs and the engine's
    # action counts are deterministic for a fixed config+seed.
    "heal.*": EXACT,
    # Cell-sharded scheduling (the sharded arm): instance shapes,
    # admission placement and merged-schedule quality are deterministic
    # for a fixed config+seed; wall times (medians of interleaved
    # repeats) are loose and the sharded-vs-flat speedup only regresses
    # by dropping. The hard floor — sharded no slower than flat,
    # speedup_x ≥ 1, with jct_ratio in [0.5, 2] — lives in CI's
    # shard-smoke gate.
    "sharded.cells": EXACT,
    "sharded.jobs": EXACT,
    "sharded.repeats": EXACT,
    "*.weighted_jct": EXACT,
    "sharded.jct_ratio": EXACT,
    "*.speedup_x": THROUGHPUT_DOWN,
    # DES replay race (the sim_replay arms): the replays are
    # deterministic, so shapes, results and start attempts are exact;
    # the loop-vs-oracle speedup only regresses by dropping. The hard
    # floors (>= 3x at 500 GPUs, start attempts per task flat in the
    # cluster size) live in CI's bench-smoke gate.
    "*.wakeups": EXACT,
    "*.wakeups_per_task": EXACT,
    "*.oracle_wakeups_per_task": EXACT,
    "*.sim_speedup_x": THROUGHPUT_DOWN,
}


def is_bench_report(doc: Mapping) -> bool:
    return "benchmark" in doc and "schema" not in doc


def bench_snapshot(doc: Mapping) -> dict[str, float]:
    """Flatten a ``BENCH_kernel.json`` report for comparison."""
    return flatten_scalars(doc, skip=("benchmark",))


def compare_bench_reports(
    base: Mapping, candidate: Mapping
) -> DiagnosisReport:
    """Compare two kernel-bench reports under :data:`BENCH_TOLERANCES`."""
    return compare_snapshots(
        bench_snapshot(base),
        bench_snapshot(candidate),
        tolerances=BENCH_TOLERANCES,
        default=TIMING_UP,
        source="bench-baseline",
    )


def load_snapshot(path: str | Path) -> tuple[dict, dict[str, float], str]:
    """Load either document kind; return (doc, flat snapshot, kind).

    ``kind`` is ``"baseline"`` for :data:`BASELINE_SCHEMA` documents and
    ``"bench"`` for kernel-bench reports.
    """
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") == BASELINE_SCHEMA:
        return doc, dict(doc.get("metrics", {})), "baseline"
    if is_bench_report(doc):
        return doc, bench_snapshot(doc), "bench"
    raise ValueError(
        f"{path} is neither a {BASELINE_SCHEMA} baseline nor a bench "
        f"report"
    )
