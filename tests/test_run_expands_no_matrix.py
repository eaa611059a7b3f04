"""Fleet runs never expand ``T^c``/``T^s`` into jobs × GPUs matrices.

A :class:`~repro.core.job.ProblemInstance` keeps its times per GPU
type; its dense ``train_time``/``sync_time`` views are expanded only for
readers that need the matrix itself. A flat planned Hare run, a
sharded one and an online run with a crash (residual re-plans on the
surviving GPUs) read the type tables on every layer, so from the start
of ``make_problem`` to the end of ``run_experiment`` nothing expands.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro.cluster import scaled_cluster
import repro.core.job as job_module

FLEET = dict(
    cluster=scaled_cluster(125), jobs=40, seed=3, rounds_scale=0.05,
    arrivals="streaming", simulate=False, scheduler="hare",
)
SHAPES = {
    "flat": FLEET,
    "cells": dict(FLEET, cells=8),
    "online-crash": dict(
        FLEET, scheduler="hare_online", jobs=20, rounds_scale=0.2,
        replan_interval=2.0, crashes=((5.0, 1),),
    ),
}


@pytest.mark.parametrize("spec", SHAPES.values(), ids=SHAPES.keys())
def test_run_expands_no_matrix(spec, monkeypatch):
    expanded = []
    expand = job_module.expand

    def counted(table, gpu_type):
        expanded.append(table.shape)
        return expand(table, gpu_type)

    monkeypatch.setattr(job_module, "expand", counted)
    result = api.run_experiment(trace=False, **spec)
    assert result.metrics.num_jobs == spec["jobs"]
    if "crashes" in spec:
        assert result.kernel.retractions and result.kernel.replans
    if "cells" in spec:
        assert len(result.kernel.cell_stats) == spec["cells"]
    assert expanded == []
    # The view reduces per type; the counter sees a cold reader's
    # expansion.
    inst = result.instance
    best = (inst.train_time + inst.sync_time).min(axis=1)
    assert best.shape == (spec["jobs"],)
    assert expanded == []
    assert np.asarray(inst.train_time).shape == (
        spec["jobs"], spec["cluster"].num_gpus
    )
    assert expanded == [(spec["jobs"], inst.gpu_type.max() + 1)]
