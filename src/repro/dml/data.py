"""Synthetic datasets for the mini-DML training engine.

The paper's convergence argument (§2.2.3) is about *gradient dynamics*, not
about any particular dataset, so a small synthetic problem suffices: a
linearly separable (plus noise) classification task, deterministic given a
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class Dataset:
    """Feature matrix / target pair with mini-batch partitioning helpers."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.x.ndim != 2 or len(self.x) != len(self.y):
            raise ConfigurationError("x must be (n, d) aligned with y")

    @property
    def num_samples(self) -> int:
        return len(self.x)

    @property
    def num_features(self) -> int:
        return int(self.x.shape[1])

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.x[indices], self.y[indices]

    def partition_round(
        self, round_idx: int, num_tasks: int, batch_size: int
    ) -> list[np.ndarray]:
        """Deterministic per-round mini-batch index sets, one per task.

        Round ``r`` task ``d`` always reads the same samples regardless of
        *where or when* the task runs — this is what makes relaxed
        scale-fixed training bit-identical to strict scale-fixed: the set of
        gradients aggregated at the barrier is a function of (r, d) only.
        """
        if num_tasks < 1 or batch_size < 1:
            raise ConfigurationError("num_tasks and batch_size must be >= 1")
        out = []
        for d in range(num_tasks):
            offset = (round_idx * num_tasks + d) * batch_size
            idx = (offset + np.arange(batch_size)) % self.num_samples
            out.append(idx)
        return out


def make_classification(
    num_samples: int = 2048,
    num_features: int = 20,
    *,
    noise: float = 0.25,
    seed: int = 0,
) -> Dataset:
    """Linearly separable binary labels in {0,1} with label-flip noise."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(num_samples, num_features))
    w_true = rng.normal(size=num_features)
    logits = x @ w_true
    y = (logits > 0).astype(float)
    flips = rng.random(num_samples) < noise / 2
    y[flips] = 1.0 - y[flips]
    return Dataset(x=x, y=y)

