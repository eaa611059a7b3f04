"""Columnar cell merge ≡ the object-walk merge, assignment for assignment.

``ShardedKernel.run`` re-indexes each cell result's column view to global
job and GPU ids and materializes the merged schedule once.
:func:`object_walk_merge` is the merge it replaced: run each cell, read its
materialized schedule, and build every global ``TaskAssignment`` from the
cell's objects. Both must produce the same assignments in the same
insertion order for every registered scheduler at ``cells=4``, with and
without a crash.
The merged-clock ``kernel.round`` instants are pinned the same way against
:func:`tests.core.oracles.object_walk_rounds`.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import CellPartitioner, GlobalAdmission, ShardedKernel
from repro.cells.sharded import _split_crashes, cell_instance
from repro.core import (
    Job,
    ProblemInstance,
    Schedule,
    TaskAssignment,
    TaskRef,
)
from repro.kernel import run_policy
from repro.obs import Obs, use
from repro.schedulers.registry import available, create
from tests.conftest import make_uniform_instance
from tests.core.oracles import (
    object_walk_rounds,
    reference_metrics_from_schedule,
    schedule_of,
)

CELLS = 4


def object_walk_merge(instance, scheduler, partition, crashes) -> Schedule:
    """The merge as a walk over each cell's materialized assignments."""
    plan = GlobalAdmission().admit(instance, partition)
    cell_crashes = _split_crashes(crashes, partition)
    merged: list[TaskAssignment] = []
    for cell in partition.cells:
        job_ids = plan.jobs_in(cell.index)
        if not job_ids:
            continue
        sub = cell_instance(instance, job_ids, cell)
        result = run_policy(
            sub, scheduler.make_policy(sub),
            crashes=cell_crashes[cell.index] or None,
        )
        for a in result.schedule.assignments.values():
            t = a.task
            merged.append(
                TaskAssignment(
                    task=TaskRef(job_ids[t.job_id], t.round_idx, t.slot),
                    gpu=cell.gpu_ids[a.gpu],
                    start=a.start,
                    train_time=a.train_time,
                    sync_time=a.sync_time,
                )
            )
    return schedule_of(instance, merged)


def _outcome(run):
    """*run*'s result, or the class of the exception it raised."""
    try:
        return run()
    except Exception as exc:  # identical rejection counts as identity
        return type(exc)


def assert_merge_identity(instance, key, *, crash_frac=None):
    scheduler = create(key)
    partition = CellPartitioner(cells=CELLS).partition_instance(instance)
    crashes = []
    if crash_frac is not None:
        probe = _outcome(
            lambda: run_policy(instance, scheduler.make_policy(instance))
        )
        if isinstance(probe, type):
            return
        crashes = [(crash_frac * probe.metrics.makespan, 0)]
    want = _outcome(
        lambda: object_walk_merge(instance, scheduler, partition, crashes)
    )
    got = _outcome(
        lambda: ShardedKernel(
            instance,
            scheduler,
            partition=partition,
            crashes=crashes,
        ).run()
    )
    if isinstance(want, type):
        assert got is want, key  # both reject identically
        return
    assert list(got.schedule.assignments.items()) == list(
        want.assignments.items()
    ), key
    assert got.metrics == reference_metrics_from_schedule(want), key


@st.composite
def instances(draw):
    n_gpus = draw(st.integers(CELLS, 2 * CELLS))
    n_jobs = draw(st.integers(2, 6))
    jobs = [
        Job(
            job_id=n,
            model=f"m{n % 3}",
            arrival=draw(st.floats(0, 5)),
            weight=draw(st.floats(0.5, 4.0)),
            num_rounds=draw(st.integers(1, 3)),
            sync_scale=draw(st.integers(1, 2)),
        )
        for n in range(n_jobs)
    ]
    tc = np.array(
        [[draw(st.floats(0.1, 5.0)) for _ in range(n_gpus)] for _ in jobs]
    )
    ts = np.array(
        [[draw(st.floats(0.0, 0.5)) for _ in range(n_gpus)] for _ in jobs]
    )
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


@given(
    inst=instances(),
    key=st.sampled_from(available()),
    crash_frac=st.none() | st.floats(0.05, 0.9),
)
@settings(max_examples=40, deadline=None)
def test_columnar_merge_matches_object_walk(inst, key, crash_frac):
    assert_merge_identity(inst, key, crash_frac=crash_frac)


def test_unmaterialized_result_pickles_its_columns(fixed_instance):
    """An array-kernel result pickles its columns, not objects."""
    result = run_policy(
        fixed_instance, create("hare").make_policy(fixed_instance)
    )
    again = pickle.loads(pickle.dumps(result))
    assert result.schedule._assignments is None
    assert again.schedule._assignments is None
    cols, want = again.schedule, result.schedule
    for name in ("job", "rnd", "slot", "gpu", "start", "train", "sync"):
        assert np.array_equal(getattr(cols, name), getattr(want, name))
    assert list(again.schedule.assignments.items()) == list(
        result.schedule.assignments.items()
    )


@pytest.mark.parametrize("key", ["hare", "srtf", "sched_homo"])
@pytest.mark.parametrize("uniform", [False, True])
def test_merged_round_instants_match_object_walk(fixed_instance, key, uniform):
    """Uniform times tie round ends, so the critical-task pick is tested."""
    instance = (
        make_uniform_instance(
            10, 8, train_time=1.0, sync_time=0.25, num_rounds=2,
            sync_scale=2,
        )
        if uniform
        else fixed_instance
    )
    obs = Obs.start(trace=False, record=True)
    with use(obs):
        result = ShardedKernel(
            instance,
            create(key),
            partition=CellPartitioner(cells=CELLS).partition_instance(
                instance
            ),
        ).run()
    got = [
        r.args for r in obs.recorder.records() if r.name == "kernel.round"
    ]
    assert got == object_walk_rounds(instance, result.schedule)
