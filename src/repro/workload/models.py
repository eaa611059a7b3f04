"""The eight-model zoo of Table 2, with enough structure for the substrates.

Each :class:`DLModelSpec` carries what the rest of the library consumes:

* parameter count / model bytes — parameter-server sync volume and the
  speculative memory manager's retention decisions;
* a per-layer parameter-size breakdown — the PipeSwitch-style pipelined
  transfer model (§4) overlaps per-layer host→GPU copies with execution;
* activation working-set size — GPU memory occupancy during training;
* batches per epoch — epoch-time experiments (Fig. 5);
* an intrinsic GPU compute demand — models like GraphSAGE are input-bound
  and cannot saturate a fast GPU (Figs. 2-3).

Parameter counts are the standard published sizes; layer splits are
deterministic synthetic breakdowns shaped like the real architectures
(e.g. VGG's classifier head dominates its weight bytes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..core.errors import UnknownModelError
from ..core.types import MIB, Domain, ModelName

_BYTES_PER_PARAM = 4  # FP32 training


@dataclass(frozen=True, slots=True)
class DLModelSpec:
    """Static description of one deep-learning model (one Table 2 row)."""

    name: ModelName
    domain: Domain
    dataset: str
    default_batch_size: int
    params_millions: float
    num_layers: int
    #: Fraction of total parameter bytes in the final (head) layer; the rest
    #: is spread geometrically over the remaining layers.
    head_fraction: float
    #: Activation / optimizer working set while training one batch, bytes.
    activation_bytes: float
    #: Mini-batches per epoch on the (possibly downscaled, §7.1) dataset.
    batches_per_epoch: int
    #: GPU compute demand in "K80 units": 1.0 keeps a K80 fully busy. A
    #: model with demand d achieves utilization min(1, d / speedup(gpu)) on
    #: a GPU that is speedup× faster than a K80 — input-bound models leave
    #: fast GPUs idle (Fig. 3).
    compute_demand: float = 1.0

    @property
    def model_bytes(self) -> float:
        """Parameter bytes (FP32)."""
        return self.params_millions * 1e6 * _BYTES_PER_PARAM

    @property
    def gradient_bytes(self) -> float:
        """Per-round gradient volume pushed to the PS (same as model size)."""
        return self.model_bytes

    def layer_bytes(self) -> np.ndarray:
        """Per-layer parameter bytes, head layer last.

        Deterministic split: the head takes ``head_fraction`` of the bytes;
        the body layers take geometrically increasing shares (later layers
        of CNNs/transformers are wider). Sums to :attr:`model_bytes` exactly.
        """
        return _layer_split(
            round(self.model_bytes), self.num_layers, self.head_fraction
        )

    def training_memory_bytes(self) -> float:
        """Device memory needed to train one batch (weights + grads +
        optimizer state + activations)."""
        # weights + gradients + SGD momentum ≈ 3x params
        return 3 * self.model_bytes + self.activation_bytes


@lru_cache(maxsize=None)
def _layer_split(total_bytes: int, num_layers: int, head_fraction: float) -> np.ndarray:
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    if num_layers == 1:
        return np.array([float(total_bytes)])
    head = total_bytes * head_fraction
    body_total = total_bytes - head
    n_body = num_layers - 1
    # geometric progression, last body layer ~4x the first
    ratios = np.geomspace(1.0, 4.0, n_body)
    body = body_total * ratios / ratios.sum()
    out = np.concatenate([body, [head]])
    out.flags.writeable = False
    return out


_ZOO: dict[ModelName, DLModelSpec] = {
    ModelName.VGG19: DLModelSpec(
        name=ModelName.VGG19,
        domain=Domain.CV,
        dataset="Cifar10",
        default_batch_size=128,
        params_millions=143.7,
        num_layers=19,
        head_fraction=0.70,  # fc head dominates VGG weights
        activation_bytes=1800 * MIB,
        batches_per_epoch=390,  # 50k / 128
        compute_demand=1.0,
    ),
    ModelName.RESNET50: DLModelSpec(
        name=ModelName.RESNET50,
        domain=Domain.CV,
        dataset="Cifar100",
        default_batch_size=64,
        params_millions=25.6,
        num_layers=50,
        head_fraction=0.08,
        activation_bytes=2400 * MIB,
        batches_per_epoch=781,  # 50k / 64
        compute_demand=1.0,
    ),
    ModelName.INCEPTION_V3: DLModelSpec(
        name=ModelName.INCEPTION_V3,
        domain=Domain.CV,
        dataset="Cifar100",
        default_batch_size=32,
        params_millions=27.2,
        num_layers=48,
        head_fraction=0.08,
        activation_bytes=2100 * MIB,
        batches_per_epoch=1562,  # 50k / 32
        compute_demand=1.0,
    ),
    ModelName.BERT_BASE: DLModelSpec(
        name=ModelName.BERT_BASE,
        domain=Domain.NLP,
        dataset="SQuAD (downscaled)",
        default_batch_size=32,
        params_millions=110.0,
        num_layers=12,
        head_fraction=0.22,  # embeddings folded into the head share
        activation_bytes=4200 * MIB,
        batches_per_epoch=600,
        compute_demand=1.0,
    ),
    ModelName.TRANSFORMER: DLModelSpec(
        name=ModelName.TRANSFORMER,
        domain=Domain.NLP,
        dataset="WMT16 (downscaled)",
        default_batch_size=128,
        params_millions=65.0,
        num_layers=12,
        head_fraction=0.25,
        activation_bytes=3600 * MIB,
        batches_per_epoch=500,
        compute_demand=1.0,
    ),
    ModelName.DEEPSPEECH: DLModelSpec(
        name=ModelName.DEEPSPEECH,
        domain=Domain.SPEECH,
        dataset="CommonVoice",
        default_batch_size=8,
        params_millions=38.0,
        num_layers=9,
        head_fraction=0.30,
        activation_bytes=2600 * MIB,
        batches_per_epoch=700,
        compute_demand=0.9,
    ),
    ModelName.FASTGCN: DLModelSpec(
        name=ModelName.FASTGCN,
        domain=Domain.REC,
        dataset="Cora",
        default_batch_size=128,
        params_millions=1.2,
        num_layers=3,
        head_fraction=0.40,
        activation_bytes=300 * MIB,
        batches_per_epoch=21,  # 2708 / 128
        compute_demand=0.5,  # sampling / preprocessing bound
    ),
    ModelName.GRAPHSAGE: DLModelSpec(
        name=ModelName.GRAPHSAGE,
        domain=Domain.REC,
        dataset="Cora",
        default_batch_size=16,
        params_millions=0.6,
        num_layers=2,
        head_fraction=0.50,
        activation_bytes=200 * MIB,
        batches_per_epoch=169,  # 2708 / 16
        compute_demand=0.45,  # neighbour sampling on CPU dominates (Fig. 3)
    ),
}


def model_spec(name: ModelName | str) -> DLModelSpec:
    """Look up a model spec by enum or name string."""
    if isinstance(name, str):
        try:
            name = ModelName(name)
        except ValueError:
            raise UnknownModelError(
                name, tuple(m.value for m in ModelName)
            ) from None
    try:
        return _ZOO[name]
    except KeyError:  # pragma: no cover - zoo covers the enum
        raise UnknownModelError(
            str(name), tuple(m.value for m in ModelName)
        ) from None


def models_by_domain(domain: Domain) -> list[DLModelSpec]:
    """All zoo models in one application domain."""
    return [spec for spec in _ZOO.values() if spec.domain == domain]


#: Generic stand-in for models outside the zoo (synthetic test workloads):
#: a mid-sized CNN-ish footprint so memory and switching models stay sane.
_SYNTHETIC_TEMPLATE = dict(
    domain=Domain.CV,
    dataset="synthetic",
    default_batch_size=64,
    params_millions=25.0,
    num_layers=20,
    head_fraction=0.15,
    activation_bytes=1000 * MIB,
    batches_per_epoch=100,
    compute_demand=1.0,
)


@lru_cache(maxsize=None)
def _synthetic_spec(name: str) -> DLModelSpec:
    spec = DLModelSpec(name=ModelName.RESNET50, **_SYNTHETIC_TEMPLATE)
    # frozen dataclass: rebuild with the real name recorded via __dict__ is
    # not possible; the name field keeps the template's enum, but callers of
    # spec_or_synthetic only consume sizes/layers, never the name.
    return spec


def spec_or_synthetic(name: ModelName | str) -> DLModelSpec:
    """Like :func:`model_spec`, but unknown names get a synthetic footprint.

    Simulator components (memory manager, switch cost model) use this so
    test workloads with made-up model names still execute.
    """
    try:
        return model_spec(name)
    except UnknownModelError:
        return _synthetic_spec(str(name))
