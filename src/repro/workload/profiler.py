"""Task profiling: producing ``T^c`` / ``T^s`` matrices for a problem.

The paper's scheduler runs a *profiler* that trains a small slice of data to
measure per-GPU task times, and keeps a database of historical results so
repeatedly-submitted jobs skip re-profiling (§3, Fig. 9). Here the "ground
truth" is the calibrated profile matrix; the profiler adds measurement noise
and the database caches results exactly like the paper's.

:func:`build_instance` is the main entry point used by the harness: it turns
(jobs, cluster) into a :class:`repro.core.job.ProblemInstance`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.cluster import Cluster
from ..core.job import Job, ProblemInstance
from ..core.types import GPUModel
from .models import model_spec
from .profiles import profile_for


@dataclass(frozen=True, slots=True)
class ProfileKey:
    """Cache key: a (model, GPU type, batch scale, sync scale) combination.

    ``sync_scale`` only matters for collective fabrics (ring all-reduce
    time depends on the group size); the PS fabric caches one entry per
    scale anyway for uniformity.
    """

    model: str
    gpu: GPUModel
    batch_scale: float
    sync_scale: int = 1


@dataclass(frozen=True, slots=True)
class ProfileRecord:
    """One profiling result: measured train and sync time (seconds)."""

    train_time: float
    sync_time: float


@dataclass(slots=True)
class ProfileDatabase:
    """Historical profiling results, keyed by (model, GPU, batch scale).

    ``hits``/``misses`` are exposed so experiments can report how much
    profiling the database avoided (the paper's motivation for it: many jobs
    are re-submitted periodically).
    """

    records: dict[ProfileKey, ProfileRecord] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def lookup(self, key: ProfileKey) -> ProfileRecord | None:
        rec = self.records.get(key)
        if rec is None:
            self.misses += 1
        else:
            self.hits += 1
        return rec

    def store(self, key: ProfileKey, record: ProfileRecord) -> None:
        self.records[key] = record

    def __len__(self) -> int:
        return len(self.records)


@dataclass(slots=True)
class TaskProfiler:
    """Measures task times by "training a small piece of data".

    Parameters
    ----------
    network:
        The cluster interconnect, for sync-time measurement.
    noise_sigma:
        Relative std-dev of multiplicative measurement noise. Fig. 11 shows
        per-round times are stable; a value of 0.01-0.03 reproduces that
        jitter. 0 gives exact times (the default, so schedulers see the
        same numbers the simulator charges).
    profile_batches:
        How many batches one profiling run averages over (reduces noise by
        sqrt(profile_batches)).
    """

    cluster: Cluster
    noise_sigma: float = 0.0
    profile_batches: int = 8
    #: Gradient aggregation fabric: "ps" (the paper's scheme) or "ring"
    #: (bandwidth-optimal all-reduce, §8's alternative).
    sync_fabric: str = "ps"
    database: ProfileDatabase = field(default_factory=ProfileDatabase)
    _rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )
    #: Per-GPU-model spec memo (scanning 10k+ devices per profile miss
    #: would dominate instance construction at cluster scale).
    _spec_cache: dict = field(default_factory=dict, repr=False)

    def reseed(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def true_times(
        self,
        model: str,
        gpu_model: GPUModel,
        batch_scale: float,
        *,
        sync_scale: int = 1,
    ) -> ProfileRecord:
        """Noise-free ground truth for a (model, GPU type) pair."""
        prof = profile_for(model)
        spec = model_spec(model)
        # batch_scale scales the mini-batch, which scales GPU compute and
        # the input pipeline proportionally.
        tc = prof.batch_time(gpu_model) * batch_scale
        gpu_spec = self._spec_cache.get(gpu_model)
        if gpu_spec is None:
            gpu_spec = next(
                d.spec for d in self.cluster.devices()
                if d.model == gpu_model
            )
            self._spec_cache[gpu_model] = gpu_spec
        if self.sync_fabric == "ps":
            ts = self.cluster.network.sync_time(
                spec.model_bytes, gpu_spec.pcie_bandwidth
            )
        elif self.sync_fabric == "ring":
            from ..sync.allreduce import ring_allreduce_time

            ts = ring_allreduce_time(
                spec.model_bytes, sync_scale, self.cluster.network
            )
        else:
            from ..core.errors import ConfigurationError

            raise ConfigurationError(
                f"unknown sync fabric {self.sync_fabric!r}"
            )
        return ProfileRecord(train_time=tc, sync_time=ts)

    def profile(
        self,
        model: str,
        gpu_model: GPUModel,
        batch_scale: float = 1.0,
        *,
        sync_scale: int = 1,
    ) -> ProfileRecord:
        """Measure (or recall from the database) task times."""
        key = ProfileKey(
            model=model,
            gpu=gpu_model,
            batch_scale=batch_scale,
            sync_scale=sync_scale,
        )
        cached = self.database.lookup(key)
        if cached is not None:
            return cached
        truth = self.true_times(
            model, gpu_model, batch_scale, sync_scale=sync_scale
        )
        if self.noise_sigma > 0:
            sigma = self.noise_sigma / np.sqrt(self.profile_batches)
            factor = float(
                np.clip(self._rng.normal(1.0, sigma), 0.5, 1.5)
            )
        else:
            factor = 1.0
        record = ProfileRecord(
            train_time=truth.train_time * factor,
            sync_time=truth.sync_time * factor,
        )
        self.database.store(key, record)
        return record

    def round_trace(
        self,
        model: str,
        gpu_model: GPUModel,
        num_rounds: int,
        *,
        jitter_sigma: float = 0.02,
        seed: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-round (train, sync) time traces — the Fig. 11 experiment.

        Round times fluctuate by a small multiplicative jitter around the
        stable mean, demonstrating why the paper can drop the ``r``
        subscript from ``T^c_{i,m,r}``.
        """
        truth = self.true_times(model, gpu_model, 1.0)
        rng = np.random.default_rng(seed)
        tc = truth.train_time * rng.normal(1.0, jitter_sigma, size=num_rounds)
        ts = truth.sync_time * rng.normal(1.0, jitter_sigma, size=num_rounds)
        return np.abs(tc), np.abs(ts)


def build_instance(
    jobs: list[Job],
    cluster: Cluster,
    *,
    profiler: TaskProfiler | None = None,
) -> ProblemInstance:
    """Assemble the scheduler-facing :class:`ProblemInstance`.

    ``T^c[n, k]`` and ``T^s[n, k]`` of each job and GPU type are filled
    from the profiler (which may add measurement noise and uses its
    database to avoid re-measuring repeated (model, GPU type, batch)
    combinations). No jobs × GPUs matrix is built.
    """
    profiler = profiler or TaskProfiler(cluster)
    gpu_models = cluster.gpu_models()
    # GPU types in order of first appearance, so profile() is called once
    # per (job, type) in the order the retired per-column loop used:
    # database traffic and noise-path RNG draws stay byte-identical.
    types: dict[GPUModel, int] = {}
    gpu_type = np.array(
        [types.setdefault(gm, len(types)) for gm in gpu_models],
        dtype=np.int64,
    )
    tc = np.empty((len(jobs), len(types)))
    ts = np.empty((len(jobs), len(types)))
    for n, job in enumerate(jobs):
        for gm, k in types.items():
            rec = profiler.profile(
                job.model, gm, job.batch_scale,
                sync_scale=job.sync_scale,
            )
            tc[n, k] = rec.train_time
            ts[n, k] = rec.sync_time
    return ProblemInstance.from_types(
        jobs, gpu_type, tc, ts, gpu_labels=cluster.labels()
    )
