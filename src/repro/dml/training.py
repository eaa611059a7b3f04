"""PS-synchronous SGD under the three synchronization schemes (§2.2.3).

This is the convergence substrate behind Hare's choice of *relaxed
scale-fixed* synchronization: the set of gradients a parameter server
aggregates in round ``r`` is

* **scale-fixed**: always the same ``sync_scale`` mini-batches — and which
  GPU computes each batch, or whether two batches share a GPU, does not
  change the arithmetic;
* **relaxed scale-fixed**: the *identical* set (only the physical packing
  differs) — so the parameter trajectory is **bit-identical** to
  scale-fixed, which :func:`train` demonstrates and the tests assert;
* **scale-adaptive**: however many batches fit the GPUs free that round —
  the effective batch size varies, the trajectory differs, and the number
  of rounds to a target loss becomes resource-dependent (the "uncertainty
  in convergence" the paper avoids).

The aggregation follows equations (2)-(3): mean of worker gradients, then
one SGD step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.types import SyncScheme
from .data import Dataset
from .model import TrainableModel


@dataclass(frozen=True, slots=True)
class TrainingResult:
    """Trajectory of one PS training run."""

    scheme: SyncScheme
    params: np.ndarray
    losses: np.ndarray
    #: Gradients aggregated per round (the effective scale trajectory).
    round_scales: np.ndarray

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])

    def rounds_to_loss(self, target: float) -> int | None:
        """First round index with loss <= target, or None."""
        hit = np.nonzero(self.losses <= target)[0]
        return int(hit[0]) if len(hit) else None


@dataclass(slots=True)
class ParameterServer:
    """Synchronous PS: aggregates worker gradients, applies SGD (eq. 3)."""

    params: np.ndarray
    learning_rate: float
    _pending: list[np.ndarray] = field(default_factory=list)

    def push(self, gradient: np.ndarray) -> None:
        if gradient.shape != self.params.shape:
            raise ConfigurationError("gradient shape mismatch")
        self._pending.append(gradient)

    def synchronize(self) -> np.ndarray:
        """Aggregate all pushed gradients and step; returns new params."""
        if not self._pending:
            raise ConfigurationError("synchronize with no gradients")
        mean_grad = np.mean(self._pending, axis=0)
        self.params = self.params - self.learning_rate * mean_grad
        self._pending.clear()
        return self.params


def _adaptive_scales(
    scheme: SyncScheme,
    sync_scale: int,
    num_rounds: int,
    free_gpus_per_round: Sequence[int] | None,
) -> list[int]:
    if scheme is SyncScheme.SCALE_ADAPTIVE:
        if free_gpus_per_round is None:
            raise ConfigurationError(
                "scale-adaptive training needs free_gpus_per_round"
            )
        if len(free_gpus_per_round) < num_rounds:
            raise ConfigurationError("free_gpus_per_round too short")
        return [
            int(np.clip(free_gpus_per_round[r], 1, sync_scale))
            for r in range(num_rounds)
        ]
    return [sync_scale] * num_rounds


def train(
    model: TrainableModel,
    dataset: Dataset,
    *,
    scheme: SyncScheme = SyncScheme.RELAXED_SCALE_FIXED,
    sync_scale: int = 4,
    batch_size: int = 32,
    num_rounds: int = 100,
    learning_rate: float = 0.5,
    seed: int = 0,
    free_gpus_per_round: Sequence[int] | None = None,
) -> TrainingResult:
    """Run synchronous PS training under a synchronization scheme.

    For SCALE_FIXED and RELAXED_SCALE_FIXED each round trains the exact
    ``sync_scale`` batches ``partition_round(r, sync_scale, batch_size)``.
    For SCALE_ADAPTIVE the number of batches per round follows the
    cluster's free-GPU trajectory, so later rounds see *different data* at
    *different effective batch sizes*.
    """
    if num_rounds < 1:
        raise ConfigurationError("num_rounds must be >= 1")
    ps = ParameterServer(
        params=model.init_params(seed), learning_rate=learning_rate
    )
    scales = _adaptive_scales(
        scheme, sync_scale, num_rounds, free_gpus_per_round
    )
    losses = np.empty(num_rounds)
    for r in range(num_rounds):
        tasks = dataset.partition_round(r, scales[r], batch_size)
        round_loss = 0.0
        for idx in tasks:
            x, y = dataset.batch(idx)
            loss, grad = model.loss_and_grad(ps.params, x, y)
            round_loss += loss
            ps.push(grad)
        ps.synchronize()
        losses[r] = round_loss / len(tasks)
    return TrainingResult(
        scheme=scheme,
        params=ps.params,
        losses=losses,
        round_scales=np.array(scales),
    )

