"""Cell partitioning: carve one cluster into disjoint schedulable shards.

A *cell* is a contiguous slice of the cluster that one per-cell
scheduler owns outright (DESIGN.md §16). Cells are the unit of the
hierarchical scale-out story: the global admission layer
(:mod:`repro.cells.admission`) places every job onto exactly one cell,
and the sharded kernel (:mod:`repro.cells.sharded`) runs one
:class:`~repro.kernel.runner.SchedulingKernel` per cell.

Identity convention: ``Cell.gpu_ids`` lists **global** GPU ids in
ascending order, and the cell-local dense index ``j`` corresponds to
``gpu_ids[j]`` — the column convention of
:meth:`repro.core.job.ProblemInstance.subset`, which residuals share, so
the cell instance ``instance.subset(job_ids, gpu_ids)`` lines up with the
cell's sub-cluster device order (see
:meth:`repro.cluster.Cluster.subcluster`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster
    from ..core.job import ProblemInstance

#: Supported partitioning strategies (``CellPartitioner.strategy``).
CELL_STRATEGIES = ("balanced", "gpu_type", "failure_domain")


def _type_key(label: str) -> str:
    """GPU-type key of an instance column label (``"V100#3"`` → ``"V100"``)."""
    return label.split("#", 1)[0] if "#" in label else label


@dataclass(frozen=True, slots=True)
class Cell:
    """One shard: a set of GPUs owned by a single per-cell scheduler."""

    index: int
    #: Global GPU ids, strictly ascending; local GPU ``j`` ↔ ``gpu_ids[j]``.
    gpu_ids: tuple[int, ...]
    #: Dense sub-cluster view (``Cluster.subcluster``); ``None`` when the
    #: partition was derived from a bare :class:`ProblemInstance`.
    cluster: "Cluster | None" = None

    def __post_init__(self) -> None:
        if not self.gpu_ids:
            raise ConfigurationError(f"cell {self.index} has no GPUs")
        if any(b <= a for a, b in zip(self.gpu_ids, self.gpu_ids[1:])):
            raise ConfigurationError(
                f"cell {self.index} GPU ids must be strictly ascending, "
                f"got {self.gpu_ids!r}"
            )

    @property
    def num_gpus(self) -> int:
        return len(self.gpu_ids)


@dataclass(frozen=True, slots=True)
class CellPartition:
    """A disjoint cover of GPUs ``0..num_gpus-1`` by cells."""

    num_gpus: int
    cells: tuple[Cell, ...]
    strategy: str = "balanced"
    _owner: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        owner = [-1] * self.num_gpus
        for pos, cell in enumerate(self.cells):
            if cell.index != pos:
                raise ConfigurationError(
                    f"cell indexes must be dense and ordered; position "
                    f"{pos} holds cell {cell.index}"
                )
            for m in cell.gpu_ids:
                if not 0 <= m < self.num_gpus:
                    raise ConfigurationError(
                        f"cell {cell.index} references GPU {m} outside "
                        f"0..{self.num_gpus - 1}"
                    )
                if owner[m] != -1:
                    raise ConfigurationError(
                        f"GPU {m} appears in cells {owner[m]} and "
                        f"{cell.index}"
                    )
                owner[m] = cell.index
        missing = [m for m, c in enumerate(owner) if c == -1]
        if missing:
            raise ConfigurationError(
                f"cells do not cover the cluster; unassigned GPUs "
                f"{missing[:8]}{'…' if len(missing) > 8 else ''}"
            )
        object.__setattr__(self, "_owner", tuple(owner))

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def cell_of(self, gpu_id: int) -> int:
        """Index of the cell owning global GPU *gpu_id*."""
        if not 0 <= gpu_id < self.num_gpus:
            raise ConfigurationError(
                f"no GPU {gpu_id} in a {self.num_gpus}-GPU partition"
            )
        return self._owner[gpu_id]

    def sizes(self) -> tuple[int, ...]:
        return tuple(c.num_gpus for c in self.cells)


def _balanced_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """*parts* contiguous near-equal ``[lo, hi)`` ranges covering *total*."""
    return [
        (i * total // parts, (i + 1) * total // parts) for i in range(parts)
    ]


@dataclass(frozen=True, slots=True)
class CellPartitioner:
    """Split a :class:`~repro.cluster.Cluster` into cells.

    ``strategy``:

    * ``"balanced"`` — *cells* contiguous near-equal GPU ranges;
    * ``"gpu_type"`` — one cell per distinct GPU model (in order of
      first appearance); *cells*, when given, must match that count;
    * ``"failure_domain"`` — whole nodes grouped into *cells*
      contiguous chunks, so a cell never splits a host.
    """

    cells: int | None = None
    strategy: str = "balanced"

    def __post_init__(self) -> None:
        if self.strategy not in CELL_STRATEGIES:
            raise ConfigurationError(
                f"unknown cell strategy {self.strategy!r}; expected one "
                f"of {CELL_STRATEGIES}"
            )
        if self.cells is not None and self.cells < 1:
            raise ConfigurationError(
                f"cells must be >= 1, got {self.cells}"
            )
        if self.cells is None and self.strategy != "gpu_type":
            raise ConfigurationError(
                f"strategy {self.strategy!r} needs an explicit cell count"
            )

    # ------------------------------------------------------------------
    def partition(self, cluster: "Cluster") -> CellPartition:
        """Partition *cluster*, building real sub-cluster views per cell."""
        groups = self._groups(cluster)
        cells = tuple(
            Cell(
                index=i,
                gpu_ids=tuple(ids),
                cluster=cluster.subcluster(ids),
            )
            for i, ids in enumerate(groups)
        )
        return CellPartition(
            num_gpus=cluster.num_gpus, cells=cells, strategy=self.strategy
        )

    def partition_instance(
        self, instance: "ProblemInstance"
    ) -> CellPartition:
        """Partition from a bare instance (no cluster topology).

        ``"balanced"`` uses GPU count alone; ``"gpu_type"`` groups
        columns by the type prefix of ``instance.gpu_labels``;
        ``"failure_domain"`` needs node topology and is rejected.
        """
        num = instance.num_gpus
        if self.strategy == "balanced":
            groups = self._balanced_ids(num)
        elif self.strategy == "gpu_type":
            groups = _group_by_key(
                [_type_key(lbl) for lbl in instance.gpu_labels]
            )
            self._check_type_count(len(groups))
        else:
            raise ConfigurationError(
                "failure_domain partitioning needs a Cluster (node "
                "topology); pass cluster=... or use strategy='balanced'"
            )
        cells = tuple(
            Cell(index=i, gpu_ids=tuple(ids), cluster=None)
            for i, ids in enumerate(groups)
        )
        return CellPartition(
            num_gpus=num, cells=cells, strategy=self.strategy
        )

    # ------------------------------------------------------------------
    def _groups(self, cluster: "Cluster") -> list[list[int]]:
        if self.strategy == "balanced":
            return self._balanced_ids(cluster.num_gpus)
        if self.strategy == "gpu_type":
            groups = _group_by_key(
                [g.model.value for g in cluster.devices()]
            )
            self._check_type_count(len(groups))
            return groups
        # failure_domain: whole nodes in near-equal contiguous chunks.
        nodes = cluster.nodes
        if self.cells > len(nodes):
            raise ConfigurationError(
                f"failure_domain partitioning needs cells <= nodes; "
                f"got {self.cells} cells for {len(nodes)} nodes"
            )
        groups = []
        for lo, hi in _balanced_ranges(len(nodes), self.cells):
            ids = [g.gpu_id for node in nodes[lo:hi] for g in node.gpus]
            groups.append(ids)
        return groups

    def _balanced_ids(self, num_gpus: int) -> list[list[int]]:
        if self.cells > num_gpus:
            raise ConfigurationError(
                f"cannot split {num_gpus} GPUs into {self.cells} "
                f"non-empty cells"
            )
        return [
            list(range(lo, hi))
            for lo, hi in _balanced_ranges(num_gpus, self.cells)
        ]

    def _check_type_count(self, found: int) -> None:
        if self.cells is not None and self.cells != found:
            raise ConfigurationError(
                f"gpu_type partitioning found {found} GPU type(s) but "
                f"cells={self.cells} was requested"
            )


def _group_by_key(keys: Sequence[str]) -> list[list[int]]:
    """Group indexes by key, groups ordered by first appearance."""
    groups: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())
