"""Pure-NumPy trainable models for the mini-DML engine.

One model with analytic gradients: logistic regression. Parameters live
in a flat vector (the "model" a parameter server ships around);
``loss_and_grad`` evaluates one mini-batch, mirroring equation (2) of the
paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigurationError


class TrainableModel(ABC):
    """A differentiable model over a flat parameter vector."""

    @property
    @abstractmethod
    def num_params(self) -> int: ...

    @abstractmethod
    def init_params(self, seed: int = 0) -> np.ndarray:
        """Deterministic initial parameter vector."""

    @abstractmethod
    def loss_and_grad(
        self, params: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Mean loss over the batch and its gradient w.r.t. params."""

    def loss(self, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        return self.loss_and_grad(params, x, y)[0]


@dataclass(frozen=True, slots=True)
class LogisticRegression(TrainableModel):
    """Binary cross-entropy linear classifier (weights + bias)."""

    num_features: int
    l2: float = 1e-4

    def __post_init__(self) -> None:
        if self.num_features < 1:
            raise ConfigurationError("num_features must be >= 1")

    @property
    def num_params(self) -> int:
        return self.num_features + 1

    def init_params(self, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return 0.01 * rng.normal(size=self.num_params)

    def loss_and_grad(
        self, params: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray]:
        w, b = params[:-1], params[-1]
        z = x @ w + b
        # numerically stable sigmoid cross-entropy
        loss = float(
            np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z))))
        ) + 0.5 * self.l2 * float(w @ w)
        p = 1.0 / (1.0 + np.exp(-z))
        err = (p - y) / len(y)
        grad = np.concatenate([x.T @ err + self.l2 * w, [err.sum()]])
        return loss, grad

    def accuracy(self, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        w, b = params[:-1], params[-1]
        return float(np.mean(((x @ w + b) > 0) == (y > 0.5)))

