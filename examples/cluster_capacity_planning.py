#!/usr/bin/env python
"""Capacity planning: how many (and which) GPUs does a workload need?

A cloud operator runs a 60-job mixed DML workload and wants to know (a) how
weighted JCT scales with cluster size under each scheduler, and (b) whether
buying a heterogeneous mix is worse than a homogeneous fleet of the same
size. This exercises the large-scale simulation path: scaled clusters,
heterogeneity presets, the discrete-event replay, and utilization
telemetry.

Run:  python examples/cluster_capacity_planning.py
"""

import numpy as np

from repro.api import compare
from repro.cluster import heterogeneity_preset, scaled_cluster
from repro.harness import (
    make_loaded_workload,
    make_problem,
    render_series,
    render_table,
)
from repro.schedulers import create
from repro.sim import simulate_plan
from repro.workload import WorkloadConfig


def sweep_cluster_size(jobs) -> None:
    print("== Weighted JCT vs cluster size ==")
    sizes = (16, 32, 64)
    series: dict[str, list[float]] = {}
    for m in sizes:
        results = compare(
            cluster=scaled_cluster(m), workload=jobs, trace=False
        ).results
        for name, r in results.items():
            series.setdefault(name, []).append(
                r.plan_metrics.total_weighted_flow
            )
    print(render_series("#GPUs", list(sizes), series, float_fmt="{:.0f}"))
    hare = series["Hare"]
    print(
        f"\nDoubling 16 -> 32 GPUs buys Hare "
        f"{100 * (1 - hare[1] / hare[0]):.0f}% lower weighted JCT; "
        f"32 -> 64 buys another {100 * (1 - hare[2] / hare[1]):.0f}%.\n"
    )


def compare_fleet_mixes(jobs) -> None:
    print("== Same budgeted size, different fleet mixes (32 GPUs) ==")
    rows = []
    for level, label in (
        ("low", "homogeneous V100"),
        ("mid", "V100 x K80"),
        ("high", "V100 x T4 x K80 x M60"),
    ):
        cluster = heterogeneity_preset(level, 32)
        results = compare(cluster=cluster, workload=jobs, trace=False).results
        flows = {
            k: v.plan_metrics.total_weighted_flow for k, v in results.items()
        }
        rows.append(
            [label, flows["Hare"], flows["Sched_Homo"],
             flows["Sched_Homo"] / flows["Hare"]]
        )
    print(
        render_table(
            ["fleet", "Hare wJCT", "Sched_Homo wJCT", "Homo/Hare"],
            rows,
            float_fmt="{:.1f}",
        )
    )
    print(
        "\nThe more heterogeneous the fleet, the more a heterogeneity-aware"
        "\nscheduler is worth — Hare keeps mixed fleets competitive.\n"
    )


def utilization_report(jobs) -> None:
    print("== DES replay: per-type utilization under Hare (32 GPUs) ==")
    cluster = scaled_cluster(32)
    instance = make_problem(cluster, jobs)
    plan = create("hare").schedule(instance)
    result = simulate_plan(cluster, instance, plan)
    utils = result.telemetry.gpu_utilization()
    by_type: dict[str, list[float]] = {}
    for device in cluster.devices():
        by_type.setdefault(device.model.value, []).append(utils[device.gpu_id])
    rows = [
        [t, float(np.mean(v)), float(np.max(v)), len(v)]
        for t, v in sorted(by_type.items())
    ]
    print(
        render_table(
            ["GPU type", "mean util", "max util", "count"],
            rows,
            float_fmt="{:.2f}",
        )
    )
    print(
        f"\nTotal switch overhead: "
        f"{result.telemetry.switch_overhead_fraction() * 100:.2f}% of compute"
        f" ({result.telemetry.retention_hits} speculative-memory hits)."
    )


def main() -> None:
    jobs = make_loaded_workload(
        60,
        reference_gpus=64,
        load=2.0,
        seed=11,
        config=WorkloadConfig(rounds_scale=0.2),
    )
    sweep_cluster_size(jobs)
    compare_fleet_mixes(jobs)
    utilization_report(jobs)


if __name__ == "__main__":
    main()
