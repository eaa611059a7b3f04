"""Gradient correctness tests for the NumPy models."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.dml import LogisticRegression, make_classification


def numerical_gradient(model, params, x, y, eps=1e-6):
    grad = np.zeros_like(params)
    for i in range(len(params)):
        up = params.copy(); up[i] += eps
        dn = params.copy(); dn[i] -= eps
        grad[i] = (model.loss(up, x, y) - model.loss(dn, x, y)) / (2 * eps)
    return grad


class TestLogisticRegression:
    def test_gradient_matches_numerical(self):
        data = make_classification(64, 5, seed=1)
        model = LogisticRegression(num_features=5)
        params = model.init_params(0) + 0.3
        _, grad = model.loss_and_grad(params, data.x, data.y)
        num = numerical_gradient(model, params, data.x, data.y)
        np.testing.assert_allclose(grad, num, atol=1e-5)

    def test_param_count(self):
        assert LogisticRegression(num_features=7).num_params == 8

    def test_init_deterministic(self):
        m = LogisticRegression(num_features=4)
        np.testing.assert_array_equal(m.init_params(3), m.init_params(3))

    def test_loss_positive(self):
        data = make_classification(32, 4, seed=0)
        model = LogisticRegression(num_features=4)
        assert model.loss(model.init_params(), data.x, data.y) > 0

    def test_invalid_features(self):
        with pytest.raises(ConfigurationError):
            LogisticRegression(num_features=0)


class TestDatasets:
    def test_classification_labels_binary(self):
        data = make_classification(128, 6, seed=0)
        assert set(np.unique(data.y)) <= {0.0, 1.0}

    def test_partition_deterministic_by_round(self):
        data = make_classification(100, 4, seed=0)
        a = data.partition_round(3, 2, 16)
        b = data.partition_round(3, 2, 16)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_partition_distinct_tasks(self):
        data = make_classification(100, 4, seed=0)
        parts = data.partition_round(0, 2, 10)
        assert not np.array_equal(parts[0], parts[1])

    def test_partition_wraps_dataset(self):
        data = make_classification(20, 4, seed=0)
        (idx,) = data.partition_round(5, 1, 16)
        assert (idx < 20).all()

    def test_invalid_partition(self):
        data = make_classification(20, 4, seed=0)
        with pytest.raises(ConfigurationError):
            data.partition_round(0, 0, 4)
