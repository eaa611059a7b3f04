"""Extension — finish-time fairness of the compared schedulers (§8).

The paper's related work optimizes fairness (Themis, Gandiva_fair, AlloX's
max-min); Hare optimizes efficiency. This bench reports where each scheme
lands on Themis's finish-time-fairness axis (ρ = realized / isolated flow
time): Hare turns out to be the *fairest* scheduler here too — efficient
packing keeps every job's slowdown low, while gang waiting and shortest-
first orderings concentrate slowdown on a few victims.
"""

from benchmarks.conftest import run_once
from repro.api import compare
from repro.cluster import scaled_cluster
from repro.core import finish_time_fairness
from repro.harness import render_table
from repro.harness.experiments import make_loaded_workload, make_problem
from repro.workload import WorkloadConfig


def test_ext_fairness(benchmark, report):
    cluster = scaled_cluster(32)
    jobs = make_loaded_workload(
        64, reference_gpus=32, load=2.2, seed=61,
        config=WorkloadConfig(rounds_scale=0.2),
    )
    instance = make_problem(cluster, jobs)

    def run():
        results = compare(cluster=cluster, workload=jobs, trace=False).results
        out = {}
        for name, r in results.items():
            rep = finish_time_fairness(instance, r.plan_metrics)
            out[name] = (rep.mean_rho, rep.max_rho, rep.jain_index)
        return out

    stats = run_once(benchmark, run)
    rows = [[name, *vals] for name, vals in stats.items()]
    report(
        render_table(
            ["scheduler", "mean ρ", "max ρ", "Jain index"],
            rows,
            title=(
                "Extension — finish-time fairness "
                "(ρ = flow / isolated runtime; 32 GPUs, 64 jobs)"
            ),
            float_fmt="{:.2f}",
        )
    )

    mean_rho = {k: v[0] for k, v in stats.items()}
    max_rho = {k: v[1] for k, v in stats.items()}
    jain = {k: v[2] for k, v in stats.items()}
    # Hare is the most efficient AND has the least-starved worst job
    assert mean_rho["Hare"] == min(mean_rho.values())
    assert max_rho["Hare"] == min(max_rho.values())
    # its slowdowns are also the most evenly spread
    assert jain["Hare"] >= max(v for k, v in jain.items() if k != "Hare") - 0.05
    # sanity: every scheme has ρ >= 1 on average
    assert all(v >= 1.0 for v in mean_rho.values())
