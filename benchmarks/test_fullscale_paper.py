"""Full paper-scale run: 200 jobs, 40-160 GPUs, full round counts.

The shape benches (`test_fig14/15`) run shrunk workloads for speed; this
bench demonstrates the pipeline at the evaluation's actual scale — the
paper's simulator sweeps 200 jobs over up to 160 GPUs — including a DES
replay with switching dynamics at the 160-GPU point (≈ 30 k tasks,
≈ 60 k events).
"""

from benchmarks.conftest import run_once
from repro.api import compare
from repro.cluster import scaled_cluster
from repro.harness import render_series
from repro.harness.experiments import make_loaded_workload, make_problem
from repro.schedulers import HareScheduler
from repro.sim import simulate_plan
from repro.workload import WorkloadConfig

GPU_COUNTS = (40, 160)


def test_fullscale_paper(benchmark, report):
    jobs = make_loaded_workload(
        200, reference_gpus=160, load=2.0, seed=1,
        config=WorkloadConfig(rounds_scale=1.0),
    )

    def run():
        series: dict[str, list[float]] = {}
        for m in GPU_COUNTS:
            results = compare(
                cluster=scaled_cluster(m), workload=jobs, trace=False
            ).results
            for name, r in results.items():
                series.setdefault(name, []).append(
                    r.plan_metrics.total_weighted_flow
                )
        # DES replay at the largest point
        cluster = scaled_cluster(GPU_COUNTS[-1])
        instance = make_problem(cluster, jobs)
        plan = HareScheduler(relaxation="fluid").schedule(instance)
        sim = simulate_plan(cluster, instance, plan)
        return series, sim

    series, sim = run_once(benchmark, run)
    report(
        render_series(
            "#GPUs",
            list(GPU_COUNTS),
            series,
            title=(
                "Full scale — 200 jobs, full round counts "
                f"(~{sum(j.num_tasks for j in jobs)} tasks); "
                f"DES at 160 GPUs: {sim.events_processed} events, "
                f"plan deviation {sim.telemetry.plan_deviation():.4f}"
            ),
            float_fmt="{:.0f}",
        )
    )

    for i in range(len(GPU_COUNTS)):
        col = {name: vals[i] for name, vals in series.items()}
        assert col["Hare"] == min(col.values())
        # Hare's margin over the best baseline stays large at full scale
        best_baseline = min(v for k, v in col.items() if k != "Hare")
        assert col["Hare"] < 0.8 * best_baseline
    # every scheme benefits from 4x the GPUs
    for name, vals in series.items():
        assert vals[-1] < vals[0], name
    # the DES replay stays within the paper's 5% accuracy bar
    assert sim.telemetry.plan_deviation() < 0.05
    assert len(sim.realized) == sim.realized.instance.num_tasks
