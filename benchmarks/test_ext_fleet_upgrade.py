"""Extension — what-if fleet upgrade: adding A100s to the testbed.

The profile matrix extrapolates beyond the paper's four GPU models (P100,
A100 with datasheet-derived speedups), so the harness can answer upgrade
questions: given the testbed's workload, is it better to (a) keep the 15
legacy GPUs, (b) replace the slowest 3 (K80 + 2×M60) with A100s, or (c)
add 4 A100s on top? And does the answer depend on the scheduler being
heterogeneity-aware?
"""

from benchmarks.conftest import run_once
from repro.api import compare
from repro.cluster import TESTBED_MIX, make_cluster
from repro.core import GPUModel
from repro.harness import render_table
from repro.harness.experiments import make_loaded_workload
from repro.workload import WorkloadConfig

FLEETS = {
    "testbed (15 legacy)": list(TESTBED_MIX),
    "replace slow 3 with A100": [
        GPUModel.A100 if g in (GPUModel.K80, GPUModel.M60) else g
        for g in TESTBED_MIX
    ],
    "add 4 x A100": list(TESTBED_MIX) + [GPUModel.A100] * 4,
}


def test_ext_fleet_upgrade(benchmark, report):
    jobs = make_loaded_workload(
        30, reference_gpus=15, load=2.0, seed=59,
        config=WorkloadConfig(rounds_scale=0.12),
    )

    def run():
        out = {}
        for label, models in FLEETS.items():
            cluster = make_cluster(models)
            results = compare(
                cluster=cluster, workload=jobs, trace=False
            ).results
            out[label] = {
                name: r.plan_metrics.total_weighted_flow
                for name, r in results.items()
            }
        return out

    results = run_once(benchmark, run)
    rows = []
    for label, flows in results.items():
        rows.append([label, flows["Hare"], flows["Sched_Homo"],
                     flows["Gavel_FIFO"]])
    report(
        render_table(
            ["fleet", "Hare", "Sched_Homo", "Gavel_FIFO"],
            rows,
            title="Extension — fleet upgrade what-if (weighted JCT, 30 jobs)",
            float_fmt="{:.1f}",
        )
    )

    base = results["testbed (15 legacy)"]
    swap = results["replace slow 3 with A100"]
    grow = results["add 4 x A100"]
    # both upgrades help every scheduler
    for fleet in (swap, grow):
        for name in fleet:
            assert fleet[name] < base[name], name
    # Hare stays the best scheduler on every fleet
    for flows in results.values():
        assert flows["Hare"] == min(flows.values())
    # the capacity-planning insight: under Hare, *replacing* the 3 straggler
    # GPUs captures nearly all the benefit of *adding* 4 A100s on top —
    # the slow devices, not raw capacity, were the bottleneck
    assert swap["Hare"] <= 1.10 * grow["Hare"]
    assert swap["Hare"] <= 0.75 * base["Hare"]
