"""AlloX's assignment solver against ``scipy.optimize.linear_sum_assignment``.

``min_cost_assignment`` must pick scipy's columns exactly, ties included,
so that every AlloX schedule keeps its bytes. scipy is the oracle here
only; the scheduler never imports it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from repro.core.errors import SolverError
from repro.schedulers.allox import min_cost_assignment


def _scipy_columns(cost: np.ndarray) -> list[int]:
    rows, cols = linear_sum_assignment(cost)
    assert rows.tolist() == list(range(len(cost)))
    return cols.tolist()


@st.composite
def tie_heavy(draw) -> np.ndarray:
    """A wide matrix of small integers: most optima are tied."""
    nr = draw(st.integers(1, 16))
    nc = draw(st.integers(nr, 40))
    top = draw(st.integers(0, 4))
    ints = draw(arrays(np.int64, (nr, nc), elements=st.integers(0, top)))
    return ints.astype(np.float64)


@st.composite
def allox_shaped(draw) -> np.ndarray:
    """AlloX's jobs × (GPU, position) matrix ``(k·p_{j,m} + r_m) / w_j``:
    GPUs of one type give equal ``p`` columns, idle GPUs ``r = 0``."""
    nr = draw(st.integers(1, 16))
    gpus = draw(st.integers(1, 16))
    types = draw(st.integers(1, min(4, gpus)))
    gpu_type = np.array(draw(st.lists(
        st.integers(0, types - 1), min_size=gpus, max_size=gpus
    )))
    by_type = draw(arrays(
        np.float64, (nr, types),
        elements=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 7.25]),
    ))
    rounds = draw(arrays(np.int64, (nr, 1), elements=st.integers(1, 5)))
    busy = draw(arrays(
        np.float64, gpus, elements=st.sampled_from([0.0, 0.0, 0.5, 2.0, 9.0])
    ))
    weight = draw(arrays(
        np.float64, nr, elements=st.sampled_from([1.0, 1.0, 2.0, 0.5])
    ))
    positions = -(-nr // gpus)
    serial = np.take(rounds * by_type, gpu_type, axis=1)
    pos = np.arange(1, positions + 1)
    cost = (
        pos[None, None, :] * serial[:, :, None] + busy[None, :, None]
    ) / weight[:, None, None]
    return cost.reshape(nr, gpus * positions)


class TestMatchesScipy:
    @given(cost=tie_heavy())
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_integers(self, cost):
        assert min_cost_assignment(cost) == _scipy_columns(cost)

    @given(cost=allox_shaped())
    @settings(max_examples=150, deadline=None)
    def test_allox_shaped(self, cost):
        assert min_cost_assignment(cost) == _scipy_columns(cost)

    @given(cost=arrays(
        np.float64, st.tuples(st.integers(1, 8), st.integers(8, 12)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    ))
    @settings(max_examples=100, deadline=None)
    def test_real_valued(self, cost):
        assert min_cost_assignment(cost) == _scipy_columns(cost)


class TestNamedCases:
    def test_constant_matrix_gives_the_identity(self):
        assert min_cost_assignment(np.full((5, 9), 3.0)) == [0, 1, 2, 3, 4]

    @given(row=arrays(np.float64, st.integers(1, 40),
                      elements=st.integers(0, 3).map(float)))
    @settings(max_examples=100, deadline=None)
    def test_one_row_gives_the_first_argmin(self, row):
        assert min_cost_assignment(row[None, :]) == [int(np.argmin(row))]

    def test_square_and_empty(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        assert min_cost_assignment(cost) == _scipy_columns(cost) == [1, 0, 2]
        assert min_cost_assignment(np.zeros((0, 3))) == []


class TestRefusals:
    def test_tall_matrix(self):
        with pytest.raises(SolverError, match="wide"):
            min_cost_assignment(np.ones((3, 2)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_cost(self, bad):
        cost = np.ones((2, 3))
        cost[1, 2] = bad
        with pytest.raises(SolverError, match="finite"):
            min_cost_assignment(cost)
