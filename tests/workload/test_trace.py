"""Tests for arrival-trace synthesis."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.workload import GoogleLikeTrace


class TestGoogleLikeTrace:
    def test_count_and_sorted(self):
        arr = GoogleLikeTrace().sample(100, seed=0)
        assert len(arr) == 100
        assert (np.diff(arr) >= 0).all()

    def test_deterministic(self):
        a = GoogleLikeTrace().sample(50, seed=3)
        b = GoogleLikeTrace().sample(50, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = GoogleLikeTrace().sample(50, seed=1)
        b = GoogleLikeTrace().sample(50, seed=2)
        assert not np.array_equal(a, b)

    def test_burstier_than_poisson(self):
        # Poisson inter-arrival gaps have a coefficient of variation of 1.
        g = GoogleLikeTrace(burst_mean=5, gap_median_s=120).sample(400, seed=0)
        gaps = np.diff(g)
        assert gaps.std() / gaps.mean() > 1.0

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            GoogleLikeTrace(burst_mean=0.5)
        with pytest.raises(ConfigurationError):
            GoogleLikeTrace(gap_median_s=0)

