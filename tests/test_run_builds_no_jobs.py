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


def test_job_table_readers_build_no_job(monkeypatch):
    """The schedule, attribution, bound and admission helpers read the job
    table's columns: on a view whose ``jobs`` is built only when read,
    none of them constructs a ``Job``."""
    import numpy as np

    from repro.cells.admission import GlobalAdmission
    from repro.cells.partition import CellPartitioner
    from repro.cluster import testbed_cluster
    from repro.core import ProblemInstance
    from repro.core.fairness import isolated_flow_time
    from repro.core.metrics import metrics_from_schedule
    from repro.harness.experiments import make_loaded_workload, make_problem
    from repro.obs.attrib import attribute_records
    from repro.obs.recorder import Record
    from repro.schedulers import HareScheduler
    from repro.schedulers.optimal import brute_force_optimal
    from repro.workload import WorkloadConfig

    cluster = testbed_cluster()
    base = make_problem(cluster, make_loaded_workload(
        6, reference_gpus=cluster.num_gpus, load=1.5, seed=3,
        config=WorkloadConfig(rounds_scale=0.05),
    ))
    view = base.subset(np.arange(base.num_jobs))
    tiny = ProblemInstance(
        jobs=[Job(job_id=0, model="a", num_rounds=2),
              Job(job_id=1, model="b", arrival=0.5, sync_scale=2)],
        train_time=np.array([[1.0, 2.0], [1.5, 1.0]]),
        sync_time=np.array([[0.1, 0.2], [0.1, 0.1]]),
    ).subset(np.arange(2))
    partition = CellPartitioner(cells=3).partition(cluster)
    round_record = Record(
        0, "instant", "kernel", "kernel.round", "kernel", 2.0,
        args={"job": 1, "round": 0, "start": 1.0, "end": 2.0, "gpu": 0,
              "busy": 1.0, "best": 1.0},
    )
    built = []
    post_init = Job.__post_init__

    def counted(job):
        built.append(job)
        post_init(job)

    monkeypatch.setattr(Job, "__post_init__", counted)
    plan = HareScheduler(relaxation="fluid").schedule(view)
    metrics_from_schedule(plan)
    plan.completions()
    isolated_flow_time(view, 1)
    brute_force_optimal(tiny)
    GlobalAdmission().admit(view, partition)
    attribute_records([round_record], instance=view)
    assert built == []
