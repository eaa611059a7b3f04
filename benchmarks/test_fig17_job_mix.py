"""Fig. 17 — influence of the workload's job-type mix.

Paper: boosting the NLP fraction raises every scheme's weighted JCT (NLP
jobs carry the heaviest training workloads); boosting the Rec. fraction
lowers it (lightest jobs); Hare stays best under every mix.
"""

from benchmarks.conftest import run_once
from repro.api import compare
from repro.cluster import scaled_cluster
from repro.core import Domain
from repro.harness import render_series
from repro.harness.experiments import make_loaded_workload
from repro.workload import WorkloadConfig, mix_with_boost

NUM_GPUS = 32
MIXES = {
    "default (25% each)": None,
    "NLP-heavy (55%)": mix_with_boost(Domain.NLP, 0.55),
    "Rec-heavy (55%)": mix_with_boost(Domain.REC, 0.55),
}


def test_fig17_job_mix(benchmark, report):
    cluster = scaled_cluster(NUM_GPUS)

    def run():
        series: dict[str, list[float]] = {}
        for mix in MIXES.values():
            cfg = (
                WorkloadConfig(rounds_scale=0.2)
                if mix is None
                else WorkloadConfig(rounds_scale=0.2, domain_mix=mix)
            )
            jobs = make_loaded_workload(
                80, reference_gpus=NUM_GPUS, load=2.0, seed=17, config=cfg
            )
            results = compare(
                cluster=cluster, workload=jobs, trace=False
            ).results
            for name, r in results.items():
                series.setdefault(name, []).append(
                    r.plan_metrics.total_weighted_flow
                )
        return series

    series = run_once(benchmark, run)
    report(
        render_series(
            "mix",
            list(MIXES),
            series,
            title="Fig. 17 — weighted JCT vs job-type mix (32 GPUs, 80 jobs)",
            float_fmt="{:.0f}",
        )
    )

    names = list(MIXES)
    for i in range(len(names)):
        col = {name: vals[i] for name, vals in series.items()}
        assert col["Hare"] == min(col.values()), names[i]

    # NLP-heavy raises JCT and Rec-heavy lowers it, for most schemes;
    # assert it strictly for Hare and on average across schemes.
    assert series["Hare"][1] > series["Hare"][0] > series["Hare"][2]
    mean_default = sum(v[0] for v in series.values())
    mean_nlp = sum(v[1] for v in series.values())
    mean_rec = sum(v[2] for v in series.values())
    assert mean_nlp > mean_default > mean_rec
