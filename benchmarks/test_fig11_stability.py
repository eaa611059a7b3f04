"""Fig. 11 — per-round training/sync times are stable across rounds.

Paper: measured batch training time and synchronization time of two popular
models on 8 V100s are flat over training rounds, which is what justifies
dropping the round index from T^c_{i,m,r} in the problem formulation.
"""

from benchmarks.conftest import run_once
from repro.cluster import testbed_cluster as _testbed_cluster
from repro.core import GPUModel
from repro.harness import render_table
from repro.workload import TaskProfiler

MODELS = ("ResNet50", "Bert_base")


def test_fig11_stability(benchmark, report):
    profiler = TaskProfiler(_testbed_cluster())

    def run():
        out = {}
        for model in MODELS:
            tc, ts = profiler.round_trace(
                model, GPUModel.V100, 500, jitter_sigma=0.02, seed=3
            )
            out[model] = (tc, ts)
        return out

    traces = run_once(benchmark, run)
    rows = []
    for model, (tc, ts) in traces.items():
        rows.append(
            [
                model,
                tc.mean(),
                tc.std() / tc.mean(),
                ts.mean(),
                ts.std() / ts.mean(),
            ]
        )
    report(
        render_table(
            ["model", "mean T^c (s)", "CoV T^c", "mean T^s (s)", "CoV T^s"],
            rows,
            title="Fig. 11 — per-round time stability (500 rounds, V100)",
            float_fmt="{:.4f}",
        )
    )

    for model, (tc, ts) in traces.items():
        # highly predictable: coefficient of variation of a few percent
        assert tc.std() / tc.mean() < 0.05
        assert ts.std() / ts.mean() < 0.05
        # and no drift: first and last 100-round means agree within 2%
        assert abs(tc[:100].mean() - tc[-100:].mean()) < 0.02 * tc.mean()
