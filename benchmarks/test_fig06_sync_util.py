"""Fig. 6 — GPU utilization of V100 vs K80 in one synchronized job.

Paper: training ResNet152 on a V100+K80 pair keeps the K80 always busy
while the V100 idles at the barrier (utilization rarely over 50 %). We
simulate a 2-task-per-round job pinned across a V100+K80 pair (strict data
parallelism, which is what the motivation section measures) and compare
per-GPU busy fractions.
"""

from benchmarks.conftest import run_once
from repro.cluster import make_cluster
from repro.core import Job
from repro.harness import render_table
from repro.schedulers import GavelFifoScheduler
from repro.sim import simulate_plan
from repro.workload import build_instance

MODEL = "VGG19"  # large compute-bound CNN stand-in for ResNet152


def test_fig06_sync_util(benchmark, report):
    cluster = make_cluster(["V100", "K80"])
    jobs = [Job(job_id=0, model=MODEL, num_rounds=30, sync_scale=2)]
    instance = build_instance(jobs, cluster)

    def run():
        # one gang: a task per GPU every round, at the K80's pace
        plan = GavelFifoScheduler().plan(instance)
        result = simulate_plan(cluster, instance, plan)
        return result.telemetry.gpu_utilization()

    utils = run_once(benchmark, run)
    report(
        render_table(
            ["GPU", "busy fraction"],
            [["V100", utils[0]], ["K80", utils[1]]],
            title=f"Fig. 6 — {MODEL} on V100+K80, strict sync",
            float_fmt="{:.2f}",
        )
    )

    # the K80 is (nearly) always busy; the V100 idles at every barrier
    assert utils[1] > 0.9
    assert utils[0] < 0.5
