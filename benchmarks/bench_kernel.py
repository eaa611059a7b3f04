"""Kernel micro-benchmark: event throughput and re-plan latency.

Runs a fixed-seed streaming workload (Google-like arrivals on the paper's
15-GPU testbed) through the scheduling kernel twice — offline Hare behind
:class:`PlannedPolicy`, and the natively re-planning online Hare — and
writes ``BENCH_kernel.json`` with events/sec plus residual-build and
residual-solve latency quantiles pulled from the ``kernel.*`` obs
histograms. The ``sched_throughput`` arm additionally measures Algorithm
1's hot path in isolation (order + list-schedule tasks/sec at 600-, 2k-
and 10k-task scales, vectorized vs the test-oracle implementations, plus
``sched.phase.*`` quantiles) and the columnar ``validate_schedule``
against its object-walk oracle at 2k and 10k tasks. The ``array_kernel`` arm races the
vectorized array event loop against the pinned reference loop on its two
batch paths and reports ``kernel_speedup_x`` (CI gates the
``gang_online`` arm at ≥10x and ``planned_frozen`` at ≥4x). The
``sharded`` arm races cell-sharded scheduling (:mod:`repro.cells`)
against flat Hare end to end at the 10k-GPU / 5k-job tier, each side the
median of repeated runs, and reports ``speedup_x`` plus the weighted-JCT
band (CI's ``shard-smoke`` holds the sharded side no slower than flat).
The ``attrib_fractions`` arm runs the time-attribution engine on a
crash-injected streaming run and drift-gates the per-category JCT
shares. The report's ``env`` block records the python, numpy and scipy
versions, the CPU count and the git revision. CI's ``bench-smoke`` job
runs this and uploads the artifact; it is a smoke + trend probe, not a
rigorous perf harness.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py \
        [--jobs 24] [--seed 7] [--arms sharded,heal,...] \
        [--out benchmarks/out/BENCH_kernel.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.cluster import scaled_cluster, testbed_cluster
from repro.core.job import Job
from repro.core.schedule import validate_schedule
from repro.core.types import ModelName
from repro.harness import make_workload
from repro.kernel import (
    ArraySchedulingKernel,
    PlannedPolicy,
    SchedulingKernel,
    run_policy,
)
from repro.obs import Obs, use
from repro.schedulers import HareScheduler, OnlineHarePolicy
from repro.schedulers.hare import _precedence_safe_order, list_schedule
from repro.schedulers.relaxation import FluidRelaxationSolver
from repro.workload import WorkloadConfig, build_instance

# The reference arms' list scheduler and validator are test oracles
# under tests/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.core.oracles import reference_validate_schedule  # noqa: E402
from tests.schedulers.oracles import reference_list_schedule  # noqa: E402


def _quantiles(snapshot: dict, name: str, hist) -> dict:
    if hist is None or hist.count == 0:
        return {"count": 0}
    return {
        "count": hist.count,
        "p50_s": hist.quantile(0.50),
        "p99_s": hist.quantile(0.99),
        "mean_s": hist.mean,
        "max_s": hist.max,
    }


def bench_one(instance, policy_factory) -> dict:
    with use(Obs.start(trace=False)) as obs:
        t0 = time.perf_counter()
        result = run_policy(instance, policy_factory())
        wall_s = time.perf_counter() - t0
        snap = obs.metrics.snapshot()
        build_hist = (
            obs.metrics.histogram("kernel.residual_build_s")
            if "kernel.residual_build_s" in obs.metrics
            else None
        )
        solve_hist = (
            obs.metrics.histogram("kernel.residual_solve_s")
            if "kernel.residual_solve_s" in obs.metrics
            else None
        )
    return {
        "wall_s": wall_s,
        "events": result.events,
        "events_per_sec": result.events / wall_s if wall_s > 0 else 0.0,
        "commitments": result.commitments,
        "replans": result.replans,
        "weighted_completion": result.metrics.total_weighted_completion,
        "makespan": result.metrics.makespan,
        "residual_build": _quantiles(snap, "kernel.residual_build_s", build_hist),
        "residual_solve": _quantiles(snap, "kernel.residual_solve_s", solve_hist),
        "counters": {
            k: v["value"]
            for k, v in snap.items()
            if v.get("type") == "counter" and k.startswith("kernel.")
        },
    }


def bench_recorder_overhead(instance, policy_factory, *, pairs: int = 9) -> dict:
    """Flight-recorder tax on kernel event throughput.

    Runs the same workload with tracing off and the recorder off/on in
    *pairs* interleaved pairs, alternating which side goes first so host
    drift hits both alike. Each pair gives one overhead ratio, the
    relative events/sec drop with the recorder enabled; ``overhead_frac``
    is their median — never clamped, so a recorder-on side that ran
    faster reads negative — with ``overhead_frac_q1``/``_q3`` and a
    ``status`` of ``unresolved`` when 0 lies between the quartiles (the
    tax is below the host's noise). The recorder arm carries a live
    attribution engine (the way ``run_experiment(record=True)`` wires
    it), so the measured tax includes the per-record attribution
    filtering. ``repro check`` holds the median under a hard 15 % limit.
    """
    from repro.obs.attrib import AttributionEngine

    def run(record: bool) -> tuple[float, int]:
        monitors = [AttributionEngine(instance)] if record else None
        with use(
            Obs.start(trace=False, record=record, monitors=monitors)
        ) as obs:
            t0 = time.perf_counter()
            result = run_policy(instance, policy_factory())
            wall_s = time.perf_counter() - t0
        records = obs.recorder.seen if obs.recorder is not None else 0
        return result.events / wall_s, records

    # Warm-up pass absorbs first-call JIT/cache effects of either arm.
    run(False)
    run(True)
    eps: dict[bool, list[float]] = {False: [], True: []}
    fracs: list[float] = []
    records = 0
    for i in range(pairs):
        for record in (False, True) if i % 2 == 0 else (True, False):
            rate, seen = run(record)
            eps[record].append(rate)
            records = seen or records
        fracs.append(1.0 - eps[True][-1] / eps[False][-1])
    q1, _, q3 = statistics.quantiles(fracs, n=4)
    return {
        "events_per_sec_off": statistics.median(eps[False]),
        "events_per_sec_on": statistics.median(eps[True]),
        "overhead_frac": statistics.median(fracs),
        "overhead_frac_q1": q1,
        "overhead_frac_q3": q3,
        "status": "unresolved" if q1 <= 0.0 <= q3 else "resolved",
        "pairs": pairs,
        "records": records,
    }


def bench_attrib(instance) -> dict:
    """Attribution fractions on a crash-injected streaming run.

    Runs online Hare with the recorder and a live attribution engine, a
    GPU crash at t=5 and a periodic re-plan timer, and reports the
    per-category share of total JCT plus the worst per-job residual of
    the sum-to-JCT invariant. The run is deterministic for a fixed
    config+seed; the fractions sit under loose directed bands in
    ``BENCH_TOLERANCES`` so a change that silently shifts blame between
    categories (e.g. re-plan displacement read as queue wait) flags in
    the drift gate.
    """
    import math

    from repro.obs.attrib import COMPONENTS, AttributionEngine

    engine = AttributionEngine(instance)
    with use(Obs.start(trace=False, record=True, monitors=[engine])):
        result = run_policy(
            instance,
            OnlineHarePolicy(relaxation="fluid"),
            crashes=[(5.0, 1)],
            replan_interval=2.0,
        )
    report = engine.report()
    if report.check():
        raise AssertionError(
            f"attribution invariant violated: {report.check()}"
        )
    residual_max = max(
        abs(math.fsum(j.components.values()) - j.jct) for j in report.jobs
    )
    return {
        "jobs": len(report.jobs),
        "events": result.events,
        "retractions": report.retractions,
        "replans": report.replans,
        "total_jct_s": report.total_jct_s,
        "sum_residual_max": residual_max,
        "frac": {c: report.fractions()[c] for c in COMPONENTS},
        "critical_path_makespan_s": report.critical_path["makespan"],
    }


def bench_heal(instance, *, replan_interval: float = 0.25) -> dict:
    """The self-healing arm: a deterministic replan storm, healed.

    Runs online Hare under an aggressive periodic re-plan timer twice —
    remediation off, then on — and records both arms' deterministic
    results plus the applied action counts. The acceptance property
    (strictly fewer re-plans, no worse weighted JCT) is pinned by
    ``tests/heal/test_healing_e2e.py``; this arm keeps the same
    comparison in the drift-gated bench report.
    """
    from repro.heal import RemediationEngine

    def arm(engine) -> dict:
        with use(Obs.start(
            trace=False,
            record=engine is not None,
            monitors=[engine] if engine is not None else None,
        )):
            result = run_policy(
                instance,
                OnlineHarePolicy(relaxation="fluid"),
                replan_interval=replan_interval,
                heal=engine,
            )
        return {
            "events": result.events,
            "replans": result.replans,
            "weighted_completion": result.metrics.total_weighted_completion,
            "makespan": result.metrics.makespan,
        }

    base = arm(None)
    engine = RemediationEngine(instance)
    healed = arm(engine)
    return {
        "replan_interval_s": replan_interval,
        "base": base,
        "healed": healed,
        "replans_saved": base["replans"] - healed["replans"],
        "actions": dict(sorted(engine.log.counts().items())),
        "unremediated": len(engine.log.unremediated),
    }


#: The sched_throughput arms: label -> (jobs, rounds, sync_scale, gpus).
#: Task count = jobs * rounds * sync_scale.
SCHED_SCALES: dict[str, tuple[int, int, int, int]] = {
    "tasks600": (25, 6, 4, 15),
    "tasks2k": (50, 8, 5, 40),
    "tasks10k": (125, 16, 5, 48),
}

#: The sched_throughput arms that also time schedule validation.
VALIDATE_SCALES = ("tasks2k", "tasks10k")


class _FrozenPlanner:
    """Planner stub replaying a precomputed plan: isolates the kernel
    event loop from the Hare solve, which would otherwise dominate the
    planned arm's wall time (the loop is what the two kernels differ in)."""

    name = "Hare_Frozen"

    def __init__(self, plan):
        self._plan = plan

    def schedule(self, instance):
        return self._plan


def _wide_gang_instance(seed: int, *, n_jobs=24, gpus=160, scale=64,
                        rounds=25):
    """Large-gang streaming workload (38 400 tasks): the ONLINE shape the
    array loop's batched drain is built for."""
    rng = np.random.default_rng(seed)
    models = list(ModelName)
    jobs = [
        Job(
            job_id=i,
            model=models[i % len(models)].value,
            arrival=float(rng.uniform(0.0, 50.0)),
            weight=float(rng.uniform(0.5, 2.0)),
            num_rounds=rounds,
            sync_scale=scale,
        )
        for i in range(n_jobs)
    ]
    return build_instance(jobs, scaled_cluster(gpus))


def bench_array_kernel(seed: int, *, repeats: int = 3) -> dict:
    """Array vs reference event-loop throughput on the two batch paths.

    Each arm runs the identical policy through both kernel classes
    directly (best wall time of *repeats* after a warm-up pass), asserts
    the two loops produced byte-identical results — the bench would
    otherwise gate on a broken comparison — and reports both events/sec
    rates plus ``kernel_speedup_x``. CI's bench-smoke holds the
    ``gang_online`` arm's speedup at ≥10x (mirroring the
    ``list_speedup_x >= 3`` gate) and ``planned_frozen``, the planned
    block replay of a frozen plan, at ≥4x.
    """
    from repro.schedulers import SrtfScheduler

    def best_run(instance, policy_factory, kernel_cls):
        with use(Obs.start(trace=False)):
            kernel_cls(instance, policy_factory()).run()
        best_wall, best_result = float("inf"), None
        for _ in range(repeats):
            with use(Obs.start(trace=False)):
                t0 = time.perf_counter()
                result = kernel_cls(instance, policy_factory()).run()
                wall_s = time.perf_counter() - t0
            if wall_s < best_wall:
                best_wall, best_result = wall_s, result
        return best_wall, best_result

    def arm(instance, policy_factory) -> dict:
        ref_wall, ref = best_run(instance, policy_factory, SchedulingKernel)
        arr_wall, arr = best_run(
            instance, policy_factory, ArraySchedulingKernel
        )
        if (arr.events, arr.commitments, arr.replans) != (
            ref.events, ref.commitments, ref.replans
        ) or arr.metrics.total_weighted_completion != (
            ref.metrics.total_weighted_completion
        ):
            raise AssertionError(
                "array loop diverged from the reference loop"
            )
        eps_ref = ref.events / ref_wall if ref_wall > 0 else 0.0
        eps_arr = arr.events / arr_wall if arr_wall > 0 else 0.0
        return {
            "tasks": instance.num_tasks,
            "gpus": instance.num_gpus,
            "events": ref.events,
            "commitments": ref.commitments,
            "replans": ref.replans,
            "events_per_sec_reference": eps_ref,
            "events_per_sec_array": eps_arr,
            "kernel_speedup_x": eps_arr / eps_ref if eps_ref > 0 else 0.0,
        }

    gang_instance = _wide_gang_instance(seed)
    planned_instance = _sched_instance(125, 16, 5, 48, seed)
    frozen = _FrozenPlanner(
        HareScheduler(relaxation="fluid").schedule(planned_instance)
    )
    return {
        "gang_online": arm(
            gang_instance, lambda: SrtfScheduler().make_policy(
                gang_instance
            )
        ),
        "planned_frozen": arm(
            planned_instance, lambda: PlannedPolicy(frozen)
        ),
    }


#: The sharded arm's shape: (jobs, rounds, sync_scale, gpus, cells).
#: ≥10k GPUs / ≥5k jobs — the tier the cell architecture targets.
SHARDED_SHAPE: tuple[int, int, int, int, int] = (5000, 1, 2, 10000, 16)


def bench_sharded(seed: int, *, repeats: int = 5) -> dict:
    """Cell-sharded vs flat Hare, end to end, at the 10k-GPU tier.

    Both arms run :func:`repro.cells.run_sharded` on the identical
    instance — ``cells=1`` takes the pinned flat ``run_policy`` path,
    ``cells=C`` partitions, admits and runs per-cell kernels — and the
    arm reports each side's end-to-end plan latency (instance in hand →
    merged, simulated schedule out) plus the weighted-JCT band the
    sharding costs. Each side runs *repeats* times, interleaved and
    alternating which goes first so host drift hits both alike;
    ``wall_s`` is the median and ``wall_s_runs`` every run, sorted (the
    spread). Flat Hare plans 10k tasks in about 1.2 s, so sharding buys
    only ~1.7x here: CI's shard-smoke holds ``speedup_x`` at ≥1 (the
    sharded side is no slower than flat) and ``jct_ratio`` in [0.5, 2];
    ``weighted_jct`` and ``jct_ratio`` are deterministic and drift-gated
    EXACT.
    """
    from repro.cells import run_sharded

    n_jobs, rounds, scale, gpus, cells = SHARDED_SHAPE
    instance = _sched_instance(n_jobs, rounds, scale, gpus, seed)

    walls: dict[int, list[float]] = {1: [], cells: []}
    results: dict[int, object] = {}
    for i in range(repeats):
        for num_cells in (1, cells) if i % 2 == 0 else (cells, 1):
            with use(Obs.start(trace=False)):
                t0 = time.perf_counter()
                results[num_cells] = run_sharded(
                    instance, "hare", cells=num_cells
                )
                walls[num_cells].append(time.perf_counter() - t0)

    def side(num_cells: int) -> dict:
        result = results[num_cells]
        return {
            "wall_s": statistics.median(walls[num_cells]),
            "wall_s_runs": sorted(walls[num_cells]),
            "events": result.events,
            "commitments": result.commitments,
            "weighted_jct": result.metrics.total_weighted_completion,
            "makespan": result.metrics.makespan,
        }

    flat = side(1)
    sharded = side(cells)
    return {
        "gpus": instance.num_gpus,
        "jobs": instance.num_jobs,
        "tasks": instance.num_tasks,
        "cells": cells,
        "repeats": repeats,
        "flat": flat,
        "sharded": sharded,
        "speedup_x": (
            flat["wall_s"] / sharded["wall_s"]
            if sharded["wall_s"] > 0
            else 0.0
        ),
        "jct_ratio": (
            sharded["weighted_jct"] / flat["weighted_jct"]
            if flat["weighted_jct"] > 0
            else 0.0
        ),
    }


def _sched_instance(n_jobs: int, rounds: int, scale: int, gpus: int, seed: int):
    """Deterministic dense instance of exactly n_jobs*rounds*scale tasks."""
    rng = np.random.default_rng(seed)
    models = list(ModelName)
    jobs = [
        Job(
            job_id=i,
            model=models[i % len(models)].value,
            arrival=float(rng.uniform(0.0, 50.0)),
            weight=float(rng.uniform(0.5, 2.0)),
            num_rounds=rounds,
            sync_scale=scale,
        )
        for i in range(n_jobs)
    ]
    return build_instance(jobs, scaled_cluster(gpus))


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_sched_throughput(seed: int, *, repeats: int = 5) -> dict:
    """Algorithm 1 hot-path throughput: order + list-schedule tasks/sec.

    Each scale times the vectorized ``list_schedule`` against the test
    oracle ``reference_list_schedule`` on the identical relaxation ordering
    (schedules are byte-identical — pinned by the fastpath test suite; a
    cheap equality assert here double-checks the bench itself), and pulls
    ``sched.phase.*`` quantiles from one full ``HareScheduler`` run. At
    the :data:`VALIDATE_SCALES` it also times ``validate_schedule``
    against the object-walk oracle ``reference_validate_schedule`` on the
    plan (``validate_tasks_per_sec``, ``validate_speedup_x``; CI holds
    the speedup at ≥5x at 10k tasks).
    """
    arms: dict[str, dict] = {}
    for label, (n_jobs, rounds, scale, gpus) in SCHED_SCALES.items():
        instance = _sched_instance(n_jobs, rounds, scale, gpus, seed)
        tasks = instance.num_tasks
        relaxation = FluidRelaxationSolver().solve(instance)
        order_s = _best_of(
            lambda: _precedence_safe_order(instance, relaxation), repeats
        )
        order = _precedence_safe_order(instance, relaxation)
        list_s = _best_of(
            lambda: list_schedule(
                instance, order, placement="earliest_finish"
            ),
            repeats,
        )
        ref_s = _best_of(
            lambda: reference_list_schedule(
                instance, order, placement="earliest_finish"
            ),
            repeats,
        )
        vec_plan = list_schedule(instance, order, placement="earliest_finish")
        ref_plan = reference_list_schedule(
            instance, order, placement="earliest_finish"
        )
        if vec_plan.assignments != ref_plan.assignments:
            raise AssertionError(
                f"vectorized list_schedule diverged from reference on "
                f"{label}"
            )
        validation: dict[str, float] = {}
        if label in VALIDATE_SCALES:
            # Both checkers must accept the plan before either is timed.
            validate_schedule(vec_plan)
            reference_validate_schedule(vec_plan)
            validate_s = _best_of(lambda: validate_schedule(vec_plan), repeats)
            ref_validate_s = _best_of(
                lambda: reference_validate_schedule(vec_plan), repeats
            )
            validation = {
                "validate_tasks_per_sec": tasks / validate_s,
                "validate_speedup_x": ref_validate_s / validate_s,
            }
        with use(Obs.start(trace=False)) as obs:
            HareScheduler(relaxation="fluid").schedule(instance)
            phases = {
                phase: _quantiles(
                    None, name, obs.metrics.histogram(name)
                )
                for phase in ("relaxation_solve", "order", "list_schedule")
                for name in (f"sched.phase.{phase}_s",)
            }
        arms[label] = {
            "tasks": tasks,
            "gpus": gpus,
            "order_tasks_per_sec": tasks / order_s,
            "list_tasks_per_sec": tasks / list_s,
            "reference_list_tasks_per_sec": tasks / ref_s,
            "list_speedup_x": ref_s / list_s,
            "phases": phases,
            **validation,
        }
    return arms


def bench_env() -> dict:
    """Where the numbers came from. Recorded, never gated: the
    ``env.*`` entry of ``BENCH_TOLERANCES`` is ungated."""
    import os
    import platform
    import subprocess

    import scipy

    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
    }


#: Every bench arm, in report order.
ALL_ARMS: tuple[str, ...] = (
    "planned_hare",
    "online_hare",
    "recorder_overhead",
    "attrib_fractions",
    "heal",
    "sched_throughput",
    "array_kernel",
    "sharded",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=24)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--arms",
        default=",".join(ALL_ARMS),
        help="comma-separated arm subset to run (default: all); "
        f"known arms: {', '.join(ALL_ARMS)}",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "out" / "BENCH_kernel.json",
    )
    args = parser.parse_args(argv)
    arms = [a.strip() for a in args.arms.split(",") if a.strip()]
    unknown = sorted(set(arms) - set(ALL_ARMS))
    if unknown:
        parser.error(f"unknown arms: {', '.join(unknown)}")

    cluster = testbed_cluster()
    jobs = make_workload(
        args.jobs, seed=args.seed, config=WorkloadConfig(rounds_scale=0.1)
    )
    instance = build_instance(jobs, cluster)

    runners = {
        "planned_hare": lambda: bench_one(
            instance,
            lambda: PlannedPolicy(HareScheduler(relaxation="fluid")),
        ),
        "online_hare": lambda: bench_one(
            instance, lambda: OnlineHarePolicy(relaxation="fluid")
        ),
        "recorder_overhead": lambda: bench_recorder_overhead(
            instance, lambda: OnlineHarePolicy(relaxation="fluid")
        ),
        "attrib_fractions": lambda: bench_attrib(instance),
        "heal": lambda: bench_heal(instance),
        "sched_throughput": lambda: bench_sched_throughput(args.seed),
        "array_kernel": lambda: bench_array_kernel(args.seed),
        "sharded": lambda: bench_sharded(args.seed),
    }
    report = {
        "benchmark": "kernel",
        "config": {
            "gpus": instance.num_gpus,
            "jobs": instance.num_jobs,
            "tasks": instance.num_tasks,
            "seed": args.seed,
        },
        "env": bench_env(),
    }
    for name in ALL_ARMS:
        if name in arms:
            report[name] = runners[name]()

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
