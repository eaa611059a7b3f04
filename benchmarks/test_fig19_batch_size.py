"""Fig. 19 — influence of the batch size (B0, 2·B0, 4·B0).

Paper: batch size has little influence on the relative standing of the
schemes (the exception the paper reports, Sched_Homo, stems from its
per-round gang re-acquisition; our Sched_Homo — like the paper's
description of job-level non-preemption — holds its gang for the whole
job, which cancels the quantization penalty; see EXPERIMENTS.md).

A k-times larger batch makes every task k-times longer; we report the
weighted JCT normalized by k so "no big influence" is directly visible.
"""

from benchmarks.conftest import run_once
from repro.api import compare
from repro.cluster import scaled_cluster
from repro.core import Job
from repro.harness import render_series
from repro.harness.experiments import make_loaded_workload
from repro.workload import WorkloadConfig

NUM_GPUS = 32
BATCH_FACTORS = (1, 2, 4)


def test_fig19_batch_size(benchmark, report):
    cluster = scaled_cluster(NUM_GPUS)
    base = make_loaded_workload(
        60,
        reference_gpus=NUM_GPUS,
        load=2.0,
        seed=19,
        config=WorkloadConfig(rounds_scale=0.2),
    )

    def run():
        series: dict[str, list[float]] = {}
        for k in BATCH_FACTORS:
            jobs = [
                Job(
                    job_id=j.job_id,
                    model=j.model,
                    arrival=j.arrival,
                    weight=j.weight,
                    num_rounds=j.num_rounds,
                    sync_scale=j.sync_scale,
                    batch_scale=float(k),
                )
                for j in base
            ]
            results = compare(
                cluster=cluster, workload=jobs, trace=False
            ).results
            for name, r in results.items():
                series.setdefault(name, []).append(
                    r.plan_metrics.total_weighted_flow / k
                )
        return series

    series = run_once(benchmark, run)
    report(
        render_series(
            "batch",
            [f"{k}xB0" for k in BATCH_FACTORS],
            series,
            title=(
                "Fig. 19 — weighted JCT / k vs batch size "
                "(32 GPUs, 60 jobs; normalized by the k-fold task growth)"
            ),
            float_fmt="{:.0f}",
        )
    )

    # Hare best under every batch size; ordering of schemes stable.
    for i in range(len(BATCH_FACTORS)):
        col = {name: vals[i] for name, vals in series.items()}
        assert col["Hare"] == min(col.values())
        assert col["Sched_Allox"] == min(
            v for k_, v in col.items() if k_ != "Hare"
        )

    # "no big influence": normalized JCT moves < 10% for every scheme.
    for name, vals in series.items():
        assert 0.9 <= vals[-1] / vals[0] <= 1.1, name
