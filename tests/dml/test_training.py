"""Tests for the PS-synchronous mini-DML engine — the §2.2.3 claims."""

import numpy as np
import pytest

from repro.core import SyncScheme
from repro.core.errors import ConfigurationError
from repro.dml import (
    LogisticRegression,
    ParameterServer,
    make_classification,
    train,
)


@pytest.fixture(scope="module")
def clf_setup():
    data = make_classification(num_samples=1024, num_features=12, seed=0)
    model = LogisticRegression(num_features=12)
    return model, data


class TestParameterServer:
    def test_aggregation_is_mean(self):
        ps = ParameterServer(params=np.zeros(2), learning_rate=1.0)
        ps.push(np.array([1.0, 0.0]))
        ps.push(np.array([3.0, 2.0]))
        out = ps.synchronize()
        np.testing.assert_allclose(out, [-2.0, -1.0])

    def test_empty_sync_rejected(self):
        ps = ParameterServer(params=np.zeros(2), learning_rate=1.0)
        with pytest.raises(ConfigurationError):
            ps.synchronize()

    def test_shape_mismatch_rejected(self):
        ps = ParameterServer(params=np.zeros(2), learning_rate=1.0)
        with pytest.raises(ConfigurationError):
            ps.push(np.zeros(3))


class TestConvergence:
    def test_loss_decreases(self, clf_setup):
        model, data = clf_setup
        res = train(model, data, num_rounds=80, learning_rate=0.5, seed=1)
        # per-round batch loss is noisy: compare smoothed ends
        assert res.losses[-10:].mean() < res.losses[:10].mean() * 0.85

    def test_accuracy_improves(self, clf_setup):
        model, data = clf_setup
        res = train(model, data, num_rounds=120, learning_rate=0.5, seed=1)
        acc = model.accuracy(res.params, data.x, data.y)
        assert acc > 0.8


class TestSchemeEquivalence:
    def test_relaxed_bit_identical_to_strict(self, clf_setup):
        """The paper's key claim: relaxed scale-fixed aggregates the exact
        same gradients as strict scale-fixed, so the trajectory is
        bit-identical regardless of physical task packing."""
        model, data = clf_setup
        kw = dict(sync_scale=4, num_rounds=60, learning_rate=0.4, seed=5)
        strict = train(model, data, scheme=SyncScheme.SCALE_FIXED, **kw)
        relaxed = train(
            model, data, scheme=SyncScheme.RELAXED_SCALE_FIXED, **kw
        )
        np.testing.assert_array_equal(strict.params, relaxed.params)
        np.testing.assert_array_equal(strict.losses, relaxed.losses)

    def test_adaptive_differs(self, clf_setup):
        model, data = clf_setup
        kw = dict(sync_scale=4, num_rounds=60, learning_rate=0.4, seed=5)
        strict = train(model, data, scheme=SyncScheme.SCALE_FIXED, **kw)
        adaptive = train(
            model,
            data,
            scheme=SyncScheme.SCALE_ADAPTIVE,
            free_gpus_per_round=[1 + (r % 4) for r in range(60)],
            **kw,
        )
        assert not np.array_equal(strict.params, adaptive.params)

    def test_adaptive_round_scales_vary(self, clf_setup):
        model, data = clf_setup
        res = train(
            model,
            data,
            scheme=SyncScheme.SCALE_ADAPTIVE,
            sync_scale=4,
            num_rounds=20,
            free_gpus_per_round=[1, 4] * 10,
            seed=0,
        )
        assert set(res.round_scales) == {1, 4}

    def test_adaptive_requires_trajectory(self, clf_setup):
        model, data = clf_setup
        with pytest.raises(ConfigurationError):
            train(model, data, scheme=SyncScheme.SCALE_ADAPTIVE)


class TestTrainingResult:
    def test_rounds_to_loss(self, clf_setup):
        model, data = clf_setup
        res = train(model, data, num_rounds=100, learning_rate=0.5, seed=1)
        hit = res.rounds_to_loss(res.losses[0] * 0.9)
        assert hit is not None and hit > 0
        assert res.rounds_to_loss(-1.0) is None
