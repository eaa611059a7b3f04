"""Fig. 16 — influence of the cluster's heterogeneity level.

Paper: with GPUs fixed at 160 and 200 jobs, the gap between Hare and the
baselines grows with the heterogeneity level (low = pure V100, mid =
V100xK80, high = V100xT4xK80xM60); Sched_Allox is only mildly affected but
still trails Hare ~2x; Hare ≈ Sched_Homo at the low level where intra-job
parallelism is the only differentiator.
"""

from benchmarks.conftest import run_once
from repro.api import compare
from repro.cluster import heterogeneity_preset
from repro.harness import render_series
from repro.harness.experiments import make_loaded_workload
from repro.workload import WorkloadConfig

LEVELS = ("low", "mid", "high")
NUM_GPUS = 32


def test_fig16_heterogeneity(benchmark, report):
    jobs = make_loaded_workload(
        80,
        reference_gpus=NUM_GPUS,
        load=2.0,
        seed=16,
        config=WorkloadConfig(rounds_scale=0.2),
    )

    def run():
        series: dict[str, list[float]] = {}
        for level in LEVELS:
            cluster = heterogeneity_preset(level, NUM_GPUS)
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
            "level",
            list(LEVELS),
            series,
            title="Fig. 16 — weighted JCT vs heterogeneity level (32 GPUs)",
            float_fmt="{:.0f}",
        )
    )

    for i, level in enumerate(LEVELS):
        col = {name: vals[i] for name, vals in series.items()}
        assert col["Hare"] == min(col.values()), level

    # the Hare-vs-oblivious gap widens with heterogeneity
    gap = [series["Sched_Homo"][i] / series["Hare"][i] for i in range(3)]
    assert gap[2] > gap[0]
    # at the low (homogeneous) level Hare and Sched_Homo are close
    assert gap[0] < 1.6
    # Allox's *relative* standing degrades less than the oblivious schemes'
    allox_gap = [series["Sched_Allox"][i] / series["Hare"][i] for i in range(3)]
    homo_gap_growth = gap[2] / gap[0]
    allox_gap_growth = allox_gap[2] / allox_gap[0]
    assert allox_gap_growth < homo_gap_growth
