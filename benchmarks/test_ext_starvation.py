"""Extension — the §3 "starvation-free" design goal, quantified.

The paper lists starvation-freedom among Hare's design goals but reports no
tail-latency numbers. This bench measures per-job flow-time tails: mean,
p95 and worst job. Shortest-first policies (SRTF, and Sched_Homo's WSPT)
notoriously starve long jobs under sustained load; Hare's weighted-
completion objective plus task-level packing should deliver the best tail,
not just the best mean.
"""

from benchmarks.conftest import run_once
from repro.api import compare
from repro.cluster import scaled_cluster
from repro.harness import render_table
from repro.harness.experiments import make_loaded_workload
from repro.workload import WorkloadConfig


def test_ext_starvation(benchmark, report):
    jobs = make_loaded_workload(
        80, reference_gpus=32, load=2.5, seed=13,
        config=WorkloadConfig(rounds_scale=0.25),
    )

    def run():
        results = compare(
            cluster=scaled_cluster(32), workload=jobs, trace=False
        ).results
        return {
            name: (
                r.plan_metrics.mean_flow,
                r.plan_metrics.flow_percentile(95),
                r.plan_metrics.max_flow,
            )
            for name, r in results.items()
        }

    stats = run_once(benchmark, run)
    rows = [[name, *vals] for name, vals in stats.items()]
    report(
        render_table(
            ["scheduler", "mean flow (s)", "p95 flow (s)", "worst job (s)"],
            rows,
            title="Extension — flow-time tails (starvation), 32 GPUs / 80 jobs",
            float_fmt="{:.1f}",
        )
    )

    means = {k: v[0] for k, v in stats.items()}
    p95s = {k: v[1] for k, v in stats.items()}
    maxes = {k: v[2] for k, v in stats.items()}
    # Hare leads on the mean AND the tail (starvation-free in practice).
    assert means["Hare"] == min(means.values())
    assert p95s["Hare"] == min(p95s.values())
    assert maxes["Hare"] == min(maxes.values())
    # shortest-first policies pay at the tail: their worst job waits much
    # longer than Hare's worst job.
    assert maxes["SRTF"] > 1.5 * maxes["Hare"]
    assert maxes["Sched_Homo"] > 1.5 * maxes["Hare"]
