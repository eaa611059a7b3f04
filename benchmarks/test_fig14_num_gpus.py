"""Fig. 14 — total weighted JCT vs cluster size.

Paper: with 200 jobs, every scheme improves as GPUs are added; Hare is best
throughout, Sched_Allox is the strongest baseline (about 2x slower than
Hare), and Gavel_FIFO is worst. We sweep 24-96 GPUs over a fixed 120-job
trace sized to keep even the largest cluster loaded.
"""

from benchmarks.conftest import run_once
from repro.api import compare
from repro.cluster import scaled_cluster
from repro.harness import render_series

GPU_COUNTS = (24, 48, 96)


def test_fig14_num_gpus(benchmark, report, contended_jobs):
    def run():
        series: dict[str, list[float]] = {}
        for m in GPU_COUNTS:
            results = compare(
                cluster=scaled_cluster(m), workload=contended_jobs,
                trace=False,
            ).results
            for name, r in results.items():
                series.setdefault(name, []).append(
                    r.plan_metrics.total_weighted_flow
                )
        return series

    series = run_once(benchmark, run)
    report(
        render_series(
            "#GPUs",
            list(GPU_COUNTS),
            series,
            title="Fig. 14 — weighted JCT vs number of GPUs (120 jobs)",
            float_fmt="{:.0f}",
        )
    )

    for i in range(len(GPU_COUNTS)):
        col = {name: vals[i] for name, vals in series.items()}
        # Hare best at every cluster size
        assert col["Hare"] == min(col.values())
        # Allox is the best baseline under load
        baselines = {k: v for k, v in col.items() if k != "Hare"}
        assert col["Sched_Allox"] <= 1.1 * min(baselines.values())
        # Allox lags Hare by a substantial factor (paper: ≈2x)
        assert col["Sched_Allox"] >= 1.3 * col["Hare"]
    # every scheme improves (or at least does not regress) with more GPUs
    for name, vals in series.items():
        assert vals[0] >= vals[-1] * 0.95, name
    # Hare improves strictly
    assert series["Hare"][0] > series["Hare"][-1]
