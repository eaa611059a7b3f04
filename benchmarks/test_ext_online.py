"""Extension — the price of clairvoyance (paper §1's future work).

The paper's Algorithm 1 is offline; handling dynamically arriving jobs is
left to future work. This bench runs the event-driven re-planning extension
(:class:`repro.schedulers.OnlineHareScheduler`, which never sees future
arrivals) against offline Hare and the baselines on a bursty trace.
"""

from benchmarks.conftest import run_once
from repro.api import compare
from repro.cluster import scaled_cluster
from repro.harness import render_table
from repro.harness.experiments import make_loaded_workload
from repro.schedulers import (
    GavelFifoScheduler,
    HareScheduler,
    OnlineHareScheduler,
    SchedAlloxScheduler,
)
from repro.workload import WorkloadConfig


def test_ext_online_hare(benchmark, report):
    cluster = scaled_cluster(24)
    jobs = make_loaded_workload(
        50, reference_gpus=24, load=2.0, seed=41,
        config=WorkloadConfig(rounds_scale=0.2),
    )

    def run():
        results = compare(
            cluster=cluster,
            workload=jobs,
            trace=False,
            schedulers=[
                GavelFifoScheduler(),
                SchedAlloxScheduler(),
                OnlineHareScheduler(),
                HareScheduler(relaxation="fluid"),
            ],
        ).results
        return {
            name: r.plan_metrics.total_weighted_flow
            for name, r in results.items()
        }

    flows = run_once(benchmark, run)
    offline = flows["Hare"]
    rows = [[name, f, f / offline] for name, f in flows.items()]
    report(
        render_table(
            ["scheduler", "weighted JCT", "vs offline Hare"],
            rows,
            title="Extension — online (non-clairvoyant) Hare, 24 GPUs / 50 jobs",
            float_fmt="{:.2f}",
        )
    )

    # online Hare pays little for non-clairvoyance…
    assert flows["Hare_Online"] <= 1.25 * offline
    # …and still beats every baseline comfortably
    assert flows["Hare_Online"] < 0.8 * flows["Sched_Allox"]
    assert flows["Hare_Online"] < 0.8 * flows["Gavel_FIFO"]
