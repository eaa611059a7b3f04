"""Checkpoint storage: the HDFS stand-in of the system overview (Fig. 9).

The paper stores all data (datasets, checkpoints) in HDFS, and the
Hare_Parameter_Server saves each job's checkpoint with PyTorch's
``save()``. This module provides a versioned blob store with write/read
accounting, plus a :class:`CheckpointManager` that implements the per-job
save-every-k-rounds policy. A restore is priced with
:meth:`BlobStore.read_time`; no run reads a blob back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class BlobMeta:
    """Metadata of one stored blob version."""

    path: str
    version: int
    size_bytes: float
    written_at: float


@dataclass(slots=True)
class BlobStore:
    """Versioned key → blob-metadata store with traffic accounting.

    Blobs are metadata-only (sizes, versions); the reproduction never needs
    the actual tensor bytes, only the storage behaviour and accounting.
    """

    read_bandwidth: float = 2.4e9  # reads stream from replicas, bytes/s
    _blobs: dict[str, list[BlobMeta]] = field(default_factory=dict)
    bytes_written: float = 0.0
    bytes_read: float = 0.0
    writes: int = 0
    reads: int = 0

    def put(self, path: str, size_bytes: float, *, at: float = 0.0) -> BlobMeta:
        if size_bytes < 0:
            raise ConfigurationError("size_bytes must be >= 0")
        versions = self._blobs.setdefault(path, [])
        meta = BlobMeta(
            path=path,
            version=len(versions) + 1,
            size_bytes=float(size_bytes),
            written_at=at,
        )
        versions.append(meta)
        self.bytes_written += size_bytes
        self.writes += 1
        return meta

    def get(self, path: str, version: int | None = None) -> BlobMeta:
        versions = self._blobs.get(path)
        if not versions:
            raise KeyError(path)
        if version is None:
            version = len(versions)
        elif not 1 <= version <= len(versions):
            raise KeyError(f"{path} has no version {version}")
        meta = versions[version - 1]
        self.bytes_read += meta.size_bytes
        self.reads += 1
        return meta

    def latest_version(self, path: str) -> int:
        return len(self._blobs.get(path, []))

    def read_time(self, size_bytes: float) -> float:
        """Seconds to read a blob back (the checkpoint-restore cost)."""
        return size_bytes / self.read_bandwidth

    def __contains__(self, path: str) -> bool:
        return path in self._blobs


@dataclass(slots=True)
class CheckpointManager:
    """Per-job checkpointing policy: save every *interval* rounds."""

    store: BlobStore
    job_id: int
    model_bytes: float
    interval: int = 10

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ConfigurationError("checkpoint interval must be >= 1")

    @property
    def path(self) -> str:
        return f"checkpoints/job{self.job_id}/model.pt"

    def maybe_checkpoint(
        self, round_idx: int, *, at: float = 0.0
    ) -> BlobMeta | None:
        """Persist after rounds interval-1, 2*interval-1, … (and round 0
        of 1-round jobs is covered by final_checkpoint)."""
        if (round_idx + 1) % self.interval != 0:
            return None
        return self.store.put(self.path, self.model_bytes, at=at)

    def final_checkpoint(self, *, at: float = 0.0) -> BlobMeta:
        """Persist the trained model at job completion."""
        return self.store.put(self.path, self.model_bytes, at=at)
