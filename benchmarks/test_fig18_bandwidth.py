"""Fig. 18 — influence of the interconnect bandwidth.

Paper: raising the network speed from 10 to 25 Gbps accelerates training,
but sub-linearly — Hare's weighted JCT falls by only ~31 % because compute
becomes the bottleneck as synchronization shrinks.
"""

from benchmarks.conftest import run_once
from repro.api import compare
from repro.cluster import NetworkConfig, scaled_cluster
from repro.core import improvement_percent
from repro.harness import render_series
from repro.harness.experiments import make_loaded_workload
from repro.workload import WorkloadConfig

GBPS_SWEEP = (10, 15, 20, 25)
NUM_GPUS = 32


def test_fig18_bandwidth(benchmark, report):
    jobs = make_loaded_workload(
        60,
        reference_gpus=NUM_GPUS,
        load=2.0,
        seed=18,
        config=WorkloadConfig(rounds_scale=0.2),
    )

    def run():
        series: dict[str, list[float]] = {}
        for gbps in GBPS_SWEEP:
            # fewer PS shards than default so sync is a visible fraction
            net = NetworkConfig(ps_shards=1).with_bandwidth_gbps(gbps)
            cluster = scaled_cluster(NUM_GPUS, network=net)
            results = compare(
                cluster=cluster, workload=jobs, trace=False
            ).results
            for name, r in results.items():
                series.setdefault(name, []).append(
                    r.plan_metrics.total_weighted_flow
                )
        return series

    series = run_once(benchmark, run)
    report(
        render_series(
            "Gbps",
            list(GBPS_SWEEP),
            series,
            title="Fig. 18 — weighted JCT vs network bandwidth (32 GPUs)",
            float_fmt="{:.0f}",
        )
    )

    # faster networks help every scheme, monotonically (within noise)
    for name, vals in series.items():
        assert vals[0] > vals[-1] * 0.98, name
    # Hare best at every bandwidth
    for i in range(len(GBPS_SWEEP)):
        col = {name: vals[i] for name, vals in series.items()}
        assert col["Hare"] == min(col.values())
    # sub-linear: 2.5x the bandwidth buys far less than 2.5x the speed
    hare_red = improvement_percent(series["Hare"][0], series["Hare"][-1])
    assert 3.0 <= hare_red <= 60.0  # paper: 31.2%
