"""The instance is jobs × GPU types, and its dense views round-trip.

The dense constructor factors identical (``T^c``, ``T^s``) column pairs
into types; :attr:`ProblemInstance.train_time`/``sync_time`` must hand
back the input bytes and read as the matrix (:class:`GpuView`),
:meth:`ProblemInstance.subset` must equal slicing the dense matrices, and
every reduction over GPUs must keep the bytes of reducing the dense
matrix.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.job as job_module
from repro.core import Job, ProblemInstance
from repro.core.errors import ConfigurationError, InfeasibleProblemError
from repro.core.job import GpuView

#: Values whose sums and means round: -0.0 is a distinct column for the
#: bytes-compared factoring, and a valid T^s.
TRAIN = (0.1, 0.3, 1.0, 1.0 / 3.0, 2.5, 7.1, 1e-13)
SYNC = (0.0, -0.0, 0.2, 0.7, 1.0 / 7.0, 3.3)


@st.composite
def dense(draw, max_jobs=6, max_gpus=9):
    """Jobs and dense matrices whose columns repeat a few profiles."""
    n_jobs = draw(st.integers(0, max_jobs))
    n_gpus = draw(st.integers(1, max_gpus))
    n_profiles = draw(st.integers(1, 4))
    profile = draw(st.lists(
        st.integers(0, n_profiles - 1), min_size=n_gpus, max_size=n_gpus
    ))

    def table(values):
        cells = n_jobs * n_profiles
        # C-ordered, as the profiler's tables expand: an F-ordered
        # matrix reduces along its rows in another order.
        return np.ascontiguousarray(np.array(draw(st.lists(
            st.sampled_from(values), min_size=cells, max_size=cells
        ))).reshape(n_jobs, n_profiles)[:, profile])

    tc, ts = table(TRAIN), table(SYNC)
    jobs = [
        Job(job_id=n, model=f"m{n}", arrival=float(n),
            num_rounds=draw(st.integers(1, 3)),
            sync_scale=draw(st.integers(1, 3)))
        for n in range(n_jobs)
    ]
    return jobs, tc, ts


def _first_appearance(gpu_type: np.ndarray) -> bool:
    kinds, first = np.unique(gpu_type, return_index=True)
    return (
        np.array_equal(kinds, np.arange(len(kinds)))
        and bool((np.diff(first) > 0).all())
    )


@settings(max_examples=150, deadline=None)
@given(data=dense())
def test_dense_views_return_the_input_bytes(data):
    jobs, tc, ts = data
    inst = ProblemInstance(jobs, tc, ts)
    assert inst.train_time.tobytes() == tc.tobytes()
    assert inst.sync_time.tobytes() == ts.tobytes()
    assert inst.train_time.shape == tc.shape
    assert not inst.train_time.flags.writeable
    assert _first_appearance(inst.gpu_type)
    pairs = {
        (tc[:, m].tobytes(), ts[:, m].tobytes()) for m in range(tc.shape[1])
    }
    assert inst.train_by_type.shape == (len(jobs), len(pairs))
    for n in range(len(jobs)):
        for m in range(tc.shape[1]):
            assert inst.tc(n, m) == tc[n, m]
            assert inst.ts(n, m) == ts[n, m]


@settings(max_examples=150, deadline=None)
@given(data=dense(), pick=st.data())
def test_subset_equals_the_dense_subset(data, pick):
    jobs, tc, ts = data
    inst = ProblemInstance(jobs, tc, ts)
    n_jobs, n_gpus = tc.shape
    rows = np.array(pick.draw(st.lists(
        st.integers(0, max(n_jobs - 1, 0)), max_size=n_jobs
    ) if n_jobs else st.just([])), dtype=np.int64)
    gpus = pick.draw(st.none() | st.lists(
        st.integers(0, n_gpus - 1), min_size=1, max_size=n_gpus, unique=True
    ))
    sub = inst.subset(rows, gpus)
    cols = np.arange(n_gpus) if gpus is None else np.array(gpus)
    block = np.ix_(rows, cols)
    assert sub.train_time.tobytes() == tc[block].tobytes()
    assert sub.sync_time.tobytes() == ts[block].tobytes()
    assert sub.train_time.shape == (len(rows), len(cols))
    assert sub.gpu_labels == [inst.gpu_labels[m] for m in cols]
    assert _first_appearance(sub.gpu_type)
    assert sub.train_by_type.shape[1] == sub.gpu_type.max() + 1
    # Reductions over GPUs: the dense subset's bytes.
    _assert_reductions(sub, tc[block], ts[block])


def _assert_reductions(inst, tc, ts):
    both = tc + ts
    assert inst.mean_task_time().tobytes() == both.mean(axis=1).tobytes()
    harmonic = tc.shape[1] / (1.0 / both).sum(axis=1)
    assert (
        inst.mean_task_time(harmonic=True).tobytes() == harmonic.tobytes()
    )
    for n in range(len(tc)):
        assert inst.best_round_time(n) == float(both[n].min())
        assert inst.fastest_gpu(n) == int(np.argmin(both[n]))
    if len(tc):
        dense_inst = ProblemInstance(
            [Job(job_id=n, model="m") for n in range(len(tc))], tc, ts
        )
        assert inst.alpha() == dense_inst.alpha()


@pytest.mark.parametrize("block", [1, 7, 37, 1 << 16])
@settings(max_examples=60, deadline=None)
@given(data=dense(max_jobs=12, max_gpus=40))
def test_blocked_reductions_keep_the_dense_bytes(block, data):
    jobs, tc, ts = data
    inst = ProblemInstance(jobs, tc, ts)
    saved = job_module._BLOCK
    job_module._BLOCK = block
    try:
        _assert_reductions(inst, tc, ts)
    finally:
        job_module._BLOCK = saved


@settings(max_examples=100, deadline=None)
@given(data=dense(), pick=st.data())
def test_views_read_as_the_dense_matrix(data, pick):
    jobs, tc, ts = data
    if not jobs:
        return
    inst = ProblemInstance(jobs, tc, ts)
    view = inst.train_time
    n_jobs, n_gpus = tc.shape
    j = pick.draw(st.integers(0, n_jobs - 1))
    g = pick.draw(st.integers(0, n_gpus - 1))
    rows = pick.draw(st.lists(st.integers(0, n_jobs - 1), max_size=4))
    cols = pick.draw(st.lists(
        st.integers(0, n_gpus - 1), min_size=len(rows), max_size=len(rows)
    ))
    assert view.shape == tc.shape and len(view) == n_jobs
    assert view[j, g] == tc[j, g]
    for key in (
        j, rows, (rows, cols), np.ix_(rows, cols), (slice(None), cols),
        (slice(0, 2), slice(1, None)), (j, slice(None)), (slice(None), g),
        (..., g),
    ):
        got, want = np.asarray(view[key]), tc[key]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    both = inst.train_time + inst.sync_time
    assert isinstance(both, GpuView)
    dense_both = tc + ts
    assert np.asarray(both).tobytes() == dense_both.tobytes()
    for how in ("min", "max", "mean", "sum"):
        assert (
            getattr(both, how)(axis=1).tobytes()
            == getattr(dense_both, how)(axis=1).tobytes()
        )
        assert getattr(both, how)() == getattr(dense_both, how)()
    assert np.min(both, axis=1).tobytes() == dense_both.min(axis=1).tobytes()
    assert np.mean(both, axis=1).tobytes() == dense_both.mean(axis=1).tobytes()
    inverse = (1.0 / both).sum(axis=1)
    assert inverse.tobytes() == (1.0 / dense_both).sum(axis=1).tobytes()
    mixed = both + tc  # a plain array: the view expands
    assert type(mixed) is np.ndarray
    assert mixed.tobytes() == (dense_both + tc).tobytes()
    assert (inst.train_time == inst.train_time).all()


def test_bad_time_names_the_first_bad_gpu():
    jobs = [Job(job_id=n, model="m") for n in range(2)]
    tc = np.array([[1.0, 2.0, 1.0, 2.0], [1.0, 2.0, 1.0, np.nan]])
    ts = np.zeros_like(tc)
    with pytest.raises(ConfigurationError, match=r"train_time\[job 1, GPU 3\]"):
        ProblemInstance(jobs, tc, ts)
    ts[0, 2] = -1.0
    tc[1, 3] = 2.0
    with pytest.raises(ConfigurationError, match=r"sync_time\[job 0, GPU 2\]"):
        ProblemInstance(jobs, tc, ts)


def test_from_types_needs_first_appearance_numbering():
    jobs = [Job(job_id=0, model="m")]
    tc, ts = np.array([[1.0, 2.0]]), np.zeros((1, 2))
    inst = ProblemInstance.from_types(jobs, [0, 1, 0], tc, ts)
    assert inst.train_time.tolist() == [[1.0, 2.0, 1.0]]
    for gpu_type in ([1, 0, 1], [0, 0, 0], [0, 2, 1]):
        with pytest.raises(ConfigurationError, match="first appearance"):
            ProblemInstance.from_types(jobs, gpu_type, tc, ts)
    with pytest.raises(InfeasibleProblemError):
        ProblemInstance.from_types(jobs, [], tc, ts)


def test_subset_drops_the_types_its_gpus_lack():
    jobs = [Job(job_id=0, model="m")]
    inst = ProblemInstance.from_types(
        jobs, [0, 1, 2, 1], np.array([[1.0, 2.0, 3.0]]), np.zeros((1, 3))
    )
    sub = inst.subset([0], [3, 2])
    assert sub.gpu_type.tolist() == [0, 1]
    assert sub.train_by_type.tolist() == [[2.0, 3.0]]
    assert sub.alpha() == 1.5


def _typed_instance() -> ProblemInstance:
    """Four jobs on five GPUs of three types; jobs 0 and 2 share rows."""
    jobs = [Job(job_id=n, model=f"m{n}") for n in range(4)]
    tc = np.array([
        [1.0, 2.0, 3.0], [0.5, 0.7, 0.9], [1.0, 2.0, 3.0], [4.0, 2.0, 1.0]
    ])
    return ProblemInstance.from_types(
        jobs, [0, 1, 0, 2, 1], tc, np.full((4, 3), 0.25)
    )


def _expanded(inst: ProblemInstance, j: int) -> bytes:
    return np.take(inst.train_by_type[j], inst.gpu_type).tobytes()


def test_subsets_on_every_gpu_share_the_row_table():
    """A residual on the parent's GPUs reads and fills the parent's
    expanded T^c rows: one expansion per label across them all."""
    inst = _typed_instance()
    sub = inst.subset([2, 0, 3], num_rounds=[1, 1, 1])
    assert sub._rows is inst._rows
    for j in range(sub.num_jobs):
        assert sub.train_row(j).tobytes() == _expanded(sub, j)
    assert len(inst._rows) == 2  # jobs 2 and 0 share a label
    assert inst.train_row(0) is sub.train_row(0)
    for j in range(inst.num_jobs):
        assert inst.train_row(j).tobytes() == _expanded(inst, j)
    nested = sub.subset([2, 1])
    assert nested._rows is inst._rows
    assert nested.train_row(0) is inst.train_row(3)


def test_subsets_on_other_gpus_keep_their_own_rows():
    inst = _typed_instance()
    inst.train_row(0)
    cell = inst.subset([0, 3, 2], [4, 2, 3])
    assert cell._rows is not inst._rows
    for j in range(cell.num_jobs):
        assert cell.train_row(j).tobytes() == _expanded(cell, j)
    assert len(inst._rows) == 1
