"""A fault run is an :class:`~repro.api.ExperimentSpec`: ``run_experiment``
with ``faults=`` must give the chaos result ``ControlPlane.run_chaos``
gives on its own, and fill the run's plan, kernel and replay from it."""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.cluster import scaled_cluster
from repro.faults import FaultScenario, GpuCrash
from repro.harness.experiments import make_loaded_workload
from repro.workload import WorkloadConfig
from tests.control.test_chaos_single_run import (
    CASES,
    HEARTBEAT,
    SCENARIOS,
    chaos,
    fields,
    one_run,
)


def spec_run(scheduler, scenario, *, heal=False):
    """``plane_for``'s cluster, workload and settings as a spec run."""
    return run_experiment(
        ExperimentSpec(
            cluster=scaled_cluster(8),
            workload=make_loaded_workload(
                10, reference_gpus=8, load=1.0, seed=0,
                config=WorkloadConfig(rounds_scale=0.2),
            ),
            scheduler=scheduler,
            faults=scenario,
            heartbeat=HEARTBEAT,
            checkpoint_interval=2,
            heal=heal,
            trace=False,
        )
    )


@pytest.mark.parametrize(
    ("scheduler", "scenario"), CASES, ids=[f"{a}-{b}" for a, b in CASES]
)
def test_the_spec_run_is_the_engine_run(scheduler, scenario):
    r = spec_run(scheduler, SCENARIOS[scenario])
    assert fields(r.chaos) == chaos(one_run, scheduler, SCENARIOS[scenario])
    assert r.kernel is r.chaos.kernel
    assert r.plan is r.chaos.kernel.schedule
    assert r.sim is r.chaos.sim
    assert r.weighted_jct == r.chaos.report.degraded_weighted_jct


def test_a_healed_spec_run_is_the_engine_run():
    r = spec_run("hare", SCENARIOS["two"], heal=True)
    assert r.remediation is r.chaos.remediation is not None
    assert fields(r.chaos) == chaos(one_run, "hare", SCENARIOS["two"],
                                    heal=True)


ONE_CRASH = FaultScenario(crashes=(GpuCrash(time=1.0, gpu_id=1),))


@pytest.mark.parametrize(
    ("setting", "named"),
    [
        ({"crashes": ((1.0, 2),)}, "crashes"),
        ({"cells": 2}, "cells > 1"),
        ({"replan_interval": 2.0}, "replan_interval"),
        ({"simulate": False}, "simulate=False"),
    ],
    ids=["crashes", "cells", "replan_interval", "simulate"],
)
def test_faults_refuse_what_the_chaos_run_cannot_do(setting, named):
    with pytest.raises(ValueError, match="faults cannot be combined") as exc:
        ExperimentSpec(gpus=4, faults=ONE_CRASH, **setting)
    assert named in str(exc.value)


@pytest.mark.parametrize(
    ("setting", "message"),
    [
        ({"faults": FaultScenario(crashes=(GpuCrash(1.0, 99),))},
         "GpuCrash targets GPU 99 but the cluster has 4 GPUs"),
        ({"checkpoint_interval": 0}, "checkpoint interval must be >= 1"),
    ],
    ids=["gpu", "checkpoint_interval"],
)
def test_a_fault_run_outside_the_cluster_is_refused(setting, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(gpus=4, **{"faults": ONE_CRASH, **setting})


def test_fault_settings_are_read_only_with_faults():
    """Without faults, the chaos settings are neither checked nor
    written: the config is the one a spec without them writes."""
    spec = ExperimentSpec(gpus=4, checkpoint_interval=0)
    assert spec.to_dict() == ExperimentSpec(gpus=4).to_dict()
    assert "heartbeat" not in spec.to_dict()
