"""A run builds no :class:`Job` after its instance is profiled.

Residuals and cells are :meth:`ProblemInstance.subset` views of the job
table, and every layer reads the table's columns, so from the end of
``make_problem`` to the end of ``run_experiment`` no ``Job`` is
constructed. Small versions of the four end-to-end benchmark shapes,
and a fault run through the control plane.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.cluster import scaled_cluster
from repro.core.job import Job
from repro.faults import FaultScenario, GpuCrash

PLANNED = dict(
    gpus=15, jobs=8, seed=3, rounds_scale=0.05, arrivals="planned",
    simulate=True,
)
FLEET = dict(
    cluster=scaled_cluster(40), jobs=20, seed=3, rounds_scale=0.05,
    arrivals="streaming", simulate=False, scheduler="hare",
)
SHAPES = {
    **{
        f"planned-{name}": dict(PLANNED, scheduler=name)
        for name in ("gavel_fifo", "srtf", "sched_homo", "sched_allox",
                     "hare")
    },
    "online-crash-heal": dict(
        gpus=15, jobs=8, seed=3, rounds_scale=0.1, arrivals="streaming",
        scheduler="hare_online", replan_interval=2.0, crashes=((5.0, 1),),
        heal=True, simulate=True,
    ),
    "faults-crash-heal": dict(
        gpus=15, jobs=8, seed=3, rounds_scale=0.1, scheduler="hare",
        faults=FaultScenario(crashes=(GpuCrash(time=5.0, gpu_id=1),)),
        heal=True, simulate=True,
    ),
    "flat": FLEET,
    "cells": dict(FLEET, cells=8),
}


@pytest.mark.parametrize("spec", SHAPES.values(), ids=SHAPES.keys())
def test_run_builds_no_job(spec, monkeypatch):
    built = []
    counting = [False]
    post_init = Job.__post_init__
    make_problem = api.make_problem

    def counted(job):
        if counting[0]:
            built.append(job)
        post_init(job)

    def profiled(*args, **kwargs):
        instance = make_problem(*args, **kwargs)
        counting[0] = True
        return instance

    monkeypatch.setattr(Job, "__post_init__", counted)
    monkeypatch.setattr(api, "make_problem", profiled)
    result = api.run_experiment(trace=False, **spec)
    assert counting[0]
    assert result.metrics.num_jobs == spec["jobs"]
    # The shape exercised its residual or cell path.
    if "crashes" in spec:
        assert result.kernel.retractions and result.kernel.replans
    if "cells" in spec:
        assert len(result.kernel.cell_stats) == spec["cells"]
    if "faults" in spec:
        assert result.kernel.retractions
        # The control plane runs the run's instance; it profiles nothing.
        assert result.instance is result.chaos.instance
    assert built == []
