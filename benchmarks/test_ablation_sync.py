"""Ablation — relaxed scale-fixed vs strict gang rounds, same ordering.

Runs Algorithm 1's relaxation ordering through two executors: Hare's
relaxed list scheduling (tasks of a round may stack on a GPU) and a strict
gang variant (every round waits for sync_scale simultaneously free GPUs).
Isolates the value of the relaxed scale-fixed synchronization scheme.
"""

from benchmarks.conftest import run_once
from repro.cluster import scaled_cluster
from repro.core import metrics_from_schedule, validate_schedule
from repro.harness import render_table
from repro.harness.experiments import make_loaded_workload, make_problem
from repro.schedulers import HareScheduler, strict_gang_schedule
from repro.schedulers.hare import _precedence_safe_order
from repro.workload import WorkloadConfig


def test_ablation_sync(benchmark, report):
    cluster = scaled_cluster(16)
    jobs = make_loaded_workload(
        30, reference_gpus=16, load=2.0, seed=4,
        config=WorkloadConfig(rounds_scale=0.2),
    )
    instance = make_problem(cluster, jobs)

    def run():
        sched = HareScheduler(relaxation="fluid")
        relaxed = sched.schedule(instance)
        order = list(_precedence_safe_order(instance, sched.last_relaxation))
        strict = strict_gang_schedule(instance, order)
        validate_schedule(strict)
        return (
            metrics_from_schedule(relaxed),
            metrics_from_schedule(strict),
        )

    relaxed, strict = run_once(benchmark, run)
    rows = [
        ["relaxed scale-fixed (Hare)", relaxed.total_weighted_flow,
         relaxed.makespan],
        ["strict scale-fixed (gang)", strict.total_weighted_flow,
         strict.makespan],
    ]
    report(
        render_table(
            ["sync scheme", "weighted JCT", "makespan"],
            rows,
            title="Ablation — relaxed vs strict scale-fixed (same ordering)",
            float_fmt="{:.1f}",
        )
    )

    # relaxed sync is the bigger half of Hare's win: ≥ 25% better here
    assert relaxed.total_weighted_flow < 0.75 * strict.total_weighted_flow
    assert relaxed.makespan <= strict.makespan * 1.05
