"""Composable fault scenarios: what can go wrong, and when.

A :class:`FaultScenario` bundles every kind of injected fault the chaos
pipeline understands:

* :class:`GpuCrash` — a **permanent** GPU failure: the device never comes
  back, affected jobs restore from checkpoints and the residual workload is
  re-planned on the survivors;
* :class:`GpuRestart` — a transient failure: crash + restart after a
  fixed delay;
* :class:`GpuSlowdown` — a transient straggler: tasks started on the GPU
  inside the window run ``factor``× slower, and its heartbeats arrive late;
* :class:`RpcFlakiness` — each control-plane message is independently
  dropped with probability ``drop_rate``;
* :class:`NetworkPartition` — a window during which *every* message is
  dropped (senders see timeouts and back off).

Scenarios validate themselves against a cluster size at construction time so
a typo'd GPU id or a negative timestamp surfaces immediately, not deep in a
run. :meth:`FaultScenario.network` compiles the message-level faults into an
:class:`UnreliableNetwork` the transport consults per send.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class GpuCrash:
    """A permanent GPU failure at ``time`` — the device never returns."""

    time: float
    gpu_id: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(
                f"GpuCrash time must be >= 0, got {self.time}"
            )
        if self.gpu_id < 0:
            raise ConfigurationError(
                f"GpuCrash gpu_id must be >= 0, got {self.gpu_id}"
            )


@dataclass(frozen=True, slots=True)
class GpuRestart:
    """A transient failure: the GPU crashes and restarts after a delay."""

    time: float
    gpu_id: int
    restart_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(
                f"GpuRestart time must be >= 0, got {self.time}"
            )
        if self.gpu_id < 0:
            raise ConfigurationError(
                f"GpuRestart gpu_id must be >= 0, got {self.gpu_id}"
            )
        if self.restart_delay_s < 0:
            raise ConfigurationError("restart_delay_s must be >= 0")


@dataclass(frozen=True, slots=True)
class GpuSlowdown:
    """A transient straggler window: the GPU runs ``factor``× slower."""

    gpu_id: int
    start: float
    duration: float
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.gpu_id < 0:
            raise ConfigurationError("GpuSlowdown gpu_id must be >= 0")
        if self.start < 0 or self.duration <= 0:
            raise ConfigurationError(
                "GpuSlowdown needs start >= 0 and duration > 0"
            )
        if self.factor < 1.0:
            raise ConfigurationError(
                f"GpuSlowdown factor must be >= 1, got {self.factor}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True, slots=True)
class RpcFlakiness:
    """Independent per-message drop probability for control RPCs."""

    drop_rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate < 1.0:
            raise ConfigurationError(
                f"drop_rate must be in [0, 1), got {self.drop_rate}"
            )
        if self.seed < 0:
            raise ConfigurationError(
                f"RpcFlakiness seed must be >= 0, got {self.seed}"
            )


@dataclass(frozen=True, slots=True)
class NetworkPartition:
    """A window during which every message between endpoints is lost."""

    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ConfigurationError(
                "NetworkPartition needs start >= 0 and duration > 0"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(slots=True)
class UnreliableNetwork:
    """Per-send fault decisions compiled from a scenario.

    The transport asks :meth:`drops` before enqueueing each message; the
    answer is deterministic for a given seed and call sequence. Partition
    windows drop everything; outside them each message is dropped i.i.d.
    with ``drop_rate``.
    """

    drop_rate: float = 0.0
    partitions: tuple[tuple[float, float], ...] = ()
    seed: int = 0
    considered: int = 0
    dropped: int = 0
    _rng: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def drops(self, src: str, dst: str, at: float) -> bool:
        self.considered += 1
        for start, end in self.partitions:
            if start <= at < end:
                self.dropped += 1
                return True
        if self.drop_rate > 0 and self._rng.random() < self.drop_rate:
            self.dropped += 1
            return True
        return False


@dataclass(frozen=True, slots=True)
class FaultScenario:
    """Everything that goes wrong in one chaos run."""

    crashes: tuple[GpuCrash, ...] = ()
    restarts: tuple[GpuRestart, ...] = ()
    slowdowns: tuple[GpuSlowdown, ...] = ()
    flakiness: RpcFlakiness | None = None
    partitions: tuple[NetworkPartition, ...] = ()

    def __post_init__(self) -> None:
        # dataclass callers may pass lists; normalize to tuples
        for name in ("crashes", "restarts", "slowdowns", "partitions"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        seen = set()
        for crash in self.crashes:
            if crash.gpu_id in seen:
                raise ConfigurationError(
                    f"GPU {crash.gpu_id} crashes permanently twice"
                )
            seen.add(crash.gpu_id)

    # ------------------------------------------------------------------
    def validate(self, num_gpus: int) -> "FaultScenario":
        """Check every GPU reference against the cluster; returns self."""
        for event in (*self.crashes, *self.restarts, *self.slowdowns):
            if not 0 <= event.gpu_id < num_gpus:
                raise ConfigurationError(
                    f"{type(event).__name__} targets GPU {event.gpu_id} "
                    f"but the cluster has {num_gpus} GPUs"
                )
        if len(self.crashes) >= num_gpus:
            raise ConfigurationError(
                f"{len(self.crashes)} permanent crashes would leave a "
                f"{num_gpus}-GPU cluster with no survivors"
            )
        return self

    # ------------------------------------------------------------------
    def network(self) -> UnreliableNetwork | None:
        """Compile message-level faults for the transport (None = reliable)."""
        if self.flakiness is None and not self.partitions:
            return None
        return UnreliableNetwork(
            drop_rate=self.flakiness.drop_rate if self.flakiness else 0.0,
            partitions=tuple((p.start, p.end) for p in self.partitions),
            seed=self.flakiness.seed if self.flakiness else 0,
        )

    def slowdown_windows(self) -> list[tuple[float, float, int, float]]:
        """Simulator-facing ``(start, end, gpu_id, factor)`` windows."""
        return [
            (s.start, s.end, s.gpu_id, s.factor) for s in self.slowdowns
        ]

    def restart_failures(self) -> list[tuple[float, int, float]]:
        """Simulator-facing ``(time, gpu_id, restart delay)`` transient
        restarts."""
        return [(r.time, r.gpu_id, r.restart_delay_s) for r in self.restarts]

    def ordered_crashes(self) -> list[GpuCrash]:
        return sorted(self.crashes, key=lambda c: (c.time, c.gpu_id))

    @classmethod
    def from_json(cls, doc: dict) -> "FaultScenario":
        """The scenario ``dataclasses.asdict`` wrote as *doc*."""
        flaky = doc.get("flakiness")
        return cls(
            crashes=[GpuCrash(**e) for e in doc.get("crashes", ())],
            restarts=[GpuRestart(**e) for e in doc.get("restarts", ())],
            slowdowns=[GpuSlowdown(**e) for e in doc.get("slowdowns", ())],
            flakiness=RpcFlakiness(**flaky) if flaky else None,
            partitions=[
                NetworkPartition(**e) for e in doc.get("partitions", ())
            ],
        )
