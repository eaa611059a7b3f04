"""Heterogeneous cluster description and the paper's preset configurations.

A :class:`Cluster` is the hardware half of a scheduling problem: the flat
list of GPU devices plus the interconnect. Presets reproduce the
configurations the evaluation uses:

* :func:`testbed_cluster` — the 15-GPU testbed (8×V100, 4×T4, 1×K80, 2×M60);
* :func:`heterogeneity_preset` — the low / mid / high heterogeneity levels of
  Fig. 16 (pure V100; V100×K80; V100×T4×K80×M60);
* :func:`scaled_cluster` — N-GPU clusters that keep the testbed's type mix
  (Figs. 14-15 use 40-160 GPUs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..core.errors import ConfigurationError
from ..core.types import GPUModel
from .network import NetworkConfig
from .node import GPUDevice, Node, build_nodes


@dataclass(frozen=True, slots=True)
class Cluster:
    """A heterogeneous GPU cluster."""

    nodes: tuple[Node, ...]
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError("a cluster needs at least one node")
        expected = 0
        for node in self.nodes:
            for g in node.gpus:
                if g.gpu_id != expected:
                    raise ConfigurationError(
                        f"GPU ids must be dense; expected {expected}, "
                        f"got {g.gpu_id}"
                    )
                expected += 1
        if expected == 0:
            raise ConfigurationError("a cluster needs at least one GPU")

    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        return sum(n.num_gpus for n in self.nodes)

    def devices(self) -> Iterator[GPUDevice]:
        for node in self.nodes:
            yield from node.gpus

    def device(self, gpu_id: int) -> GPUDevice:
        if not 0 <= gpu_id < self.num_gpus:
            raise ConfigurationError(f"no GPU {gpu_id} in a {self.num_gpus}-GPU cluster")
        for node in self.nodes:
            if gpu_id < node.num_gpus:
                return node.gpus[gpu_id]
            gpu_id -= node.num_gpus
        raise AssertionError("unreachable")  # pragma: no cover

    def gpu_models(self) -> list[GPUModel]:
        """Per-GPU device model, indexed by ``m``."""
        return [g.model for g in self.devices()]

    def labels(self) -> list[str]:
        return [g.label for g in self.devices()]

    def type_counts(self) -> dict[GPUModel, int]:
        counts: dict[GPUModel, int] = {}
        for g in self.devices():
            counts[g.model] = counts.get(g.model, 0) + 1
        return counts

    def subcluster(self, gpu_ids: Sequence[int]) -> "Cluster":
        """A dense sub-cluster view over *gpu_ids* (ascending global order).

        The selected devices are re-indexed ``0..len(gpu_ids)-1`` so the
        result satisfies the dense-id invariant and can be used anywhere a
        :class:`Cluster` is expected (cell-local scheduling). Local GPU
        ``j`` corresponds to global GPU ``sorted(gpu_ids)[j]``, which is
        exactly the column convention of
        :meth:`repro.core.job.ProblemInstance.subset`, so a sub-instance
        ``instance.subset(rows, sorted(gpu_ids))`` lines up with the
        sub-cluster's device order. Node boundaries (failure domains) are
        preserved: devices stay grouped under their original host, and the
        interconnect config is shared.
        """
        ids = sorted(gpu_ids)
        if not ids:
            raise ConfigurationError("a sub-cluster needs at least one GPU")
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate GPU ids in {list(gpu_ids)!r}")
        if ids[0] < 0 or ids[-1] >= self.num_gpus:
            raise ConfigurationError(
                f"GPU ids {list(gpu_ids)!r} out of range for a "
                f"{self.num_gpus}-GPU cluster"
            )
        wanted = set(ids)
        nodes: list[Node] = []
        next_gpu = 0
        for node in self.nodes:
            picked = [g for g in node.gpus if g.gpu_id in wanted]
            if not picked:
                continue
            node_id = len(nodes)
            gpus = tuple(
                GPUDevice(
                    gpu_id=next_gpu + j,
                    node_id=node_id,
                    local_index=j,
                    spec=g.spec,
                )
                for j, g in enumerate(picked)
            )
            next_gpu += len(gpus)
            nodes.append(
                Node(
                    node_id=node_id,
                    gpus=gpus,
                    host_memory_bytes=node.host_memory_bytes,
                )
            )
        return Cluster(nodes=tuple(nodes), network=self.network)


def make_cluster(
    gpu_models: Sequence[GPUModel | str],
    *,
    network: NetworkConfig | None = None,
    gpus_per_node: int = 4,
) -> Cluster:
    """Build a cluster from a flat list of GPU model names."""
    nodes = build_nodes(list(gpu_models), gpus_per_node=gpus_per_node)
    return Cluster(
        nodes=tuple(nodes), network=network or NetworkConfig()
    )


#: The paper's testbed mix (§7.1), in a deterministic interleaved order so
#: small prefixes stay heterogeneous.
TESTBED_MIX: tuple[GPUModel, ...] = (
    GPUModel.V100,
    GPUModel.V100,
    GPUModel.T4,
    GPUModel.V100,
    GPUModel.V100,
    GPUModel.T4,
    GPUModel.M60,
    GPUModel.V100,
    GPUModel.V100,
    GPUModel.T4,
    GPUModel.K80,
    GPUModel.V100,
    GPUModel.V100,
    GPUModel.T4,
    GPUModel.M60,
)


def testbed_cluster(network: NetworkConfig | None = None) -> Cluster:
    """The 15-GPU testbed: 8×V100, 4×T4, 1×K80, 2×M60 on 4 nodes."""
    return make_cluster(TESTBED_MIX, network=network, gpus_per_node=4)


def scaled_cluster(
    num_gpus: int, *, network: NetworkConfig | None = None
) -> Cluster:
    """An *num_gpus* cluster repeating the testbed's type proportions.

    Used for the Fig. 14/15 sweeps (40-160 GPUs): the mix stays roughly
    8:4:1:2 V100:T4:K80:M60 as the cluster grows.
    """
    if num_gpus < 1:
        raise ConfigurationError("num_gpus must be >= 1")
    models = [TESTBED_MIX[i % len(TESTBED_MIX)] for i in range(num_gpus)]
    return make_cluster(models, network=network)


def heterogeneity_preset(
    level: str, num_gpus: int, *, network: NetworkConfig | None = None
) -> Cluster:
    """Fig. 16's heterogeneity levels.

    ``"low"``  → V100 only;
    ``"mid"``  → V100 × K80 alternating;
    ``"high"`` → V100 × T4 × K80 × M60 round-robin.
    """
    mixes: dict[str, tuple[GPUModel, ...]] = {
        "low": (GPUModel.V100,),
        "mid": (GPUModel.V100, GPUModel.K80),
        "high": (GPUModel.V100, GPUModel.T4, GPUModel.K80, GPUModel.M60),
    }
    try:
        mix = mixes[level]
    except KeyError:
        raise ConfigurationError(
            f"heterogeneity level must be one of {sorted(mixes)}, got {level!r}"
        ) from None
    models = [mix[i % len(mix)] for i in range(num_gpus)]
    return make_cluster(models, network=network)
