"""Integration tests asserting the paper's headline qualitative claims.

These run the full pipeline (trace → profiler → scheduler → metrics /
simulator) at reduced scale and check the *shape* of the results: who wins,
roughly by how much, and in which direction each sweep moves.
"""

import numpy as np
import pytest

from repro.cluster import (
    heterogeneity_preset,
    scaled_cluster,
    testbed_cluster as _testbed_cluster,
)
from repro.api import compare
from repro.core import SwitchMode
from repro.harness.experiments import make_loaded_workload
from repro.workload import WorkloadConfig


@pytest.fixture(scope="module")
def contended_results():
    """100 jobs sized for 2x load on 80 GPUs, run on 40 — the sustained
    queueing regime where the paper's Fig. 14/15 gaps appear."""
    jobs = make_loaded_workload(
        100, reference_gpus=80, load=2.0, seed=2,
        config=WorkloadConfig(rounds_scale=0.3),
    )
    return compare(
        cluster=scaled_cluster(40), workload=jobs, trace=False
    ).results


class TestHareWins:
    def test_hare_best_weighted_flow(self, contended_results):
        flows = {
            k: v.plan_metrics.total_weighted_flow
            for k, v in contended_results.items()
        }
        assert flows["Hare"] == min(flows.values())

    def test_hare_beats_baselines_substantially(self, contended_results):
        """Fig. 12: Hare reduces weighted JCT by ~48-75% vs baselines.

        We assert ≥ 25 % against every baseline and ≥ 40 % against the
        worst one (shape, not absolute numbers)."""
        flows = {
            k: v.plan_metrics.total_weighted_flow
            for k, v in contended_results.items()
        }
        hare = flows.pop("Hare")
        for name, f in flows.items():
            assert hare < 0.75 * f, f"only beat {name} by {1 - hare/f:.0%}"
        assert hare < 0.6 * max(flows.values())

    def test_allox_second_among_baselines(self, contended_results):
        """Fig. 14: Allox is the strongest baseline (hetero-aware)."""
        flows = {
            k: v.plan_metrics.total_weighted_flow
            for k, v in contended_results.items()
        }
        baselines = {k: v for k, v in flows.items() if k != "Hare"}
        assert baselines["Sched_Allox"] == min(baselines.values())

    def test_hare_best_makespan(self, contended_results):
        spans = {
            k: v.plan_metrics.makespan for k, v in contended_results.items()
        }
        assert spans["Hare"] == min(spans.values())


class TestGpuSweepShape:
    def test_more_gpus_help_hare(self):
        """Fig. 14: weighted JCT decreases as the cluster grows."""
        jobs = make_loaded_workload(
            60, reference_gpus=64, load=2.5, seed=5,
            config=WorkloadConfig(rounds_scale=0.25),
        )
        flows = []
        for m in (16, 32, 64):
            res = compare(
                cluster=scaled_cluster(m), workload=jobs,
                schedulers=["hare"], trace=False,
            )
            flows.append(res["Hare"].plan_metrics.total_weighted_flow)
        assert flows[0] > flows[1] > flows[2]


class TestHeterogeneitySweepShape:
    def test_gap_grows_with_heterogeneity(self):
        """Fig. 16: the Hare-vs-oblivious gap widens at high heterogeneity,
        and Hare ≈ Sched_Homo at the homogeneous (low) level."""
        jobs = make_loaded_workload(
            40, reference_gpus=16, load=2.0, seed=3,
            config=WorkloadConfig(rounds_scale=0.2),
        )
        gaps = {}
        for level in ("low", "high"):
            res = compare(
                cluster=heterogeneity_preset(level, 16), workload=jobs,
                trace=False,
            ).results
            flows = {
                k: v.plan_metrics.total_weighted_flow for k, v in res.items()
            }
            gaps[level] = flows["Sched_Homo"] / flows["Hare"]
        assert gaps["high"] > gaps["low"]
        assert gaps["low"] < 1.7  # close at low heterogeneity


class TestSimulatorAgreement:
    def test_plan_vs_replay_within_5_percent(self):
        """§7.1: simulator-vs-testbed gap ≤ 5 %. Our analytic plan is the
        'simulator' and the DES replay with Hare switching the 'testbed'."""
        jobs = make_loaded_workload(
            20, reference_gpus=15, load=1.5, seed=11,
            config=WorkloadConfig(rounds_scale=0.1),
        )
        res = compare(
            cluster=_testbed_cluster(), workload=jobs, simulate=True,
            trace=False,
        ).results
        for name, r in res.items():
            plan = r.plan_metrics.total_weighted_completion
            sim = r.sim.total_weighted_completion
            assert abs(sim - plan) / plan < 0.05, name

    def test_default_switching_breaks_agreement(self):
        """Without fast switching, replay diverges from the plan far more."""
        jobs = make_loaded_workload(
            12, reference_gpus=15, load=1.5, seed=13,
            config=WorkloadConfig(rounds_scale=0.08),
        )
        res_hare, res_default = (
            compare(
                cluster=_testbed_cluster(), workload=jobs,
                schedulers=["hare"], simulate=True, switch_mode=mode,
                trace=False,
            )["Hare"]
            for mode in (SwitchMode.HARE, SwitchMode.DEFAULT)
        )
        slow = res_default.sim.total_weighted_completion
        fast = res_hare.sim.total_weighted_completion
        assert slow > fast
