"""Lease-based failure detection from executor heartbeats.

Executors emit a :class:`~repro.control.messages.Heartbeat` every
``interval_s`` seconds; the control plane's :class:`FailureDetector` tracks
the last heartbeat seen per GPU and applies a two-threshold policy:

* **SUSPECT** after ``suspect_misses`` consecutive missed intervals — the
  straggler signal: a slowed GPU's heartbeats arrive late, the detector
  suspects it, and the next heartbeat clears the suspicion;
* **DEAD** once the lease (``lease_s``) expires with no heartbeat — the
  crash signal; DEAD is permanent (a lease is never re-granted).

State transitions carry exact crossing times (``last_seen + threshold``),
so detection latency is measured precisely rather than at poll granularity.
:func:`run_detection` drives the detector from a fault scenario through the
message transport, accounting every heartbeat (and drop) in the link stats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..core.errors import ConfigurationError, SimulationError
from ..obs import Category, current as obs_current
from .scenario import FaultScenario, GpuCrash

#: Trace track carrying detector state-change instants.
DETECTOR_TRACK = "detector"


def _emit_transitions(new: list["HealthTransition"]) -> None:
    """Mirror fresh detector transitions into the ambient observability."""
    if not new:
        return
    obs = obs_current()
    if not obs.enabled:
        return
    for t in new:
        obs.tracer.instant(
            Category.FAULT,
            f"gpu {t.gpu_id} {t.state.value}",
            track=DETECTOR_TRACK,
            time=t.time,
            gpu=t.gpu_id,
            state=t.state.value,
        )
        obs.metrics.counter(f"fault.detector.{t.state.value}").inc()


class GpuHealth(enum.Enum):
    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass(frozen=True, slots=True)
class HeartbeatConfig:
    """Heartbeat cadence and the detector's two thresholds."""

    interval_s: float = 2.0
    suspect_misses: int = 2
    lease_s: float = 10.0

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigurationError("interval_s must be > 0")
        if self.suspect_misses < 1:
            raise ConfigurationError("suspect_misses must be >= 1")
        if self.lease_s <= self.suspect_window_s:
            raise ConfigurationError(
                f"lease_s ({self.lease_s}) must exceed the suspect window "
                f"({self.suspect_window_s})"
            )

    @property
    def suspect_window_s(self) -> float:
        return self.suspect_misses * self.interval_s


@dataclass(frozen=True, slots=True)
class HealthTransition:
    """One detector state change, stamped with its exact crossing time."""

    time: float
    gpu_id: int
    state: GpuHealth


@dataclass(slots=True)
class FailureDetector:
    """Tracks per-GPU health from heartbeat arrival times."""

    cfg: HeartbeatConfig = field(default_factory=HeartbeatConfig)
    _last_seen: dict[int, float] = field(default_factory=dict)
    _state: dict[int, GpuHealth] = field(default_factory=dict)
    transitions: list[HealthTransition] = field(default_factory=list)

    def register(self, gpu_id: int, *, now: float = 0.0) -> None:
        if gpu_id in self._state:
            raise ConfigurationError(f"GPU {gpu_id} already registered")
        self._last_seen[gpu_id] = now
        self._state[gpu_id] = GpuHealth.ALIVE

    def state(self, gpu_id: int) -> GpuHealth:
        try:
            return self._state[gpu_id]
        except KeyError:
            raise ConfigurationError(
                f"GPU {gpu_id} not registered with the detector"
            ) from None

    def dead(self) -> set[int]:
        return {g for g, s in self._state.items() if s is GpuHealth.DEAD}

    def detected_at(self, gpu_id: int) -> float:
        """Time the detector declared *gpu_id* dead."""
        for t in self.transitions:
            if t.gpu_id == gpu_id and t.state is GpuHealth.DEAD:
                return t.time
        raise SimulationError(f"GPU {gpu_id} was never declared dead")

    # ------------------------------------------------------------------
    def advance(self, now: float) -> list[HealthTransition]:
        """Apply every threshold crossing up to *now*; returns new ones."""
        new: list[HealthTransition] = []
        for gpu_id, state in self._state.items():
            if state is GpuHealth.DEAD:
                continue
            last = self._last_seen[gpu_id]
            dead_at = last + self.cfg.lease_s
            suspect_at = last + self.cfg.suspect_window_s
            if now >= dead_at:
                if state is GpuHealth.ALIVE and suspect_at < dead_at:
                    new.append(
                        HealthTransition(suspect_at, gpu_id, GpuHealth.SUSPECT)
                    )
                self._state[gpu_id] = GpuHealth.DEAD
                new.append(HealthTransition(dead_at, gpu_id, GpuHealth.DEAD))
            elif now > suspect_at and state is GpuHealth.ALIVE:
                # Strictly past the threshold: a heartbeat arriving at
                # exactly `suspect_at` is live evidence at that instant
                # and wins the tie (no phantom SUSPECT/ALIVE flap pair).
                self._state[gpu_id] = GpuHealth.SUSPECT
                new.append(
                    HealthTransition(suspect_at, gpu_id, GpuHealth.SUSPECT)
                )
        self.transitions.extend(new)
        _emit_transitions(new)
        return new

    def observe(self, gpu_id: int, now: float) -> list[HealthTransition]:
        """A heartbeat from *gpu_id* arrived at *now*."""
        self.advance(now)
        state = self.state(gpu_id)
        if state is GpuHealth.DEAD:
            return []  # the lease already expired; DEAD is permanent
        if now <= self._last_seen[gpu_id]:
            # A stale/duplicate heartbeat (retried RPCs re-deliver, and
            # deliveries can reorder) carries no fresh liveness evidence:
            # it must neither extend the lease nor clear SUSPECT —
            # otherwise a suspect GPU flaps HEALTHY and back on every
            # duplicate of a heartbeat it sent before going quiet.
            return []
        self._last_seen[gpu_id] = now
        if state is GpuHealth.SUSPECT:
            transition = HealthTransition(now, gpu_id, GpuHealth.ALIVE)
            self._state[gpu_id] = GpuHealth.ALIVE
            self.transitions.append(transition)
            _emit_transitions([transition])
            return [transition]
        return []


@dataclass(frozen=True, slots=True)
class DetectionResult:
    """Outcome of one heartbeat-driven detection pass."""

    crash: GpuCrash
    detected_at: float
    heartbeats_sent: int
    heartbeats_delivered: int
    suspect_events: tuple[HealthTransition, ...]

    @property
    def latency_s(self) -> float:
        return self.detected_at - self.crash.time

    @property
    def heartbeats_dropped(self) -> int:
        return self.heartbeats_sent - self.heartbeats_delivered


def run_detection(
    transport,
    gpu_ids: list[int],
    crash: GpuCrash,
    scenario: FaultScenario,
    *,
    cfg: HeartbeatConfig | None = None,
    start: float = 0.0,
    endpoint_of=None,
    scheduler_endpoint: str = "scheduler",
) -> DetectionResult:
    """Stream heartbeats through *transport* until *crash* is detected.

    Every GPU in *gpu_ids* heartbeats on the configured interval starting
    from *start*; the crashed GPU stops at ``crash.time``, and a GPU inside
    a slowdown window emits late (by ``(factor - 1) · interval``). Messages
    ride the real transport, so flaky-RPC drops and byte accounting apply.
    Returns the detection outcome; raises if the crash target is not in
    *gpu_ids*.
    """
    from ..control.messages import Heartbeat

    cfg = cfg or HeartbeatConfig()
    if crash.gpu_id not in gpu_ids:
        raise ConfigurationError(
            f"crash targets GPU {crash.gpu_id}, not among alive {gpu_ids}"
        )
    if endpoint_of is None:
        endpoint_of = lambda g: f"executor-{g}"  # noqa: E731

    slowdowns = scenario.slowdown_windows()

    def emit_delay(gpu_id: int, t: float) -> float:
        for s, e, g, factor in slowdowns:
            if g == gpu_id and s <= t < e:
                return (factor - 1.0) * cfg.interval_s
        return 0.0

    # Worst case: the last heartbeat before the crash is delivered. A
    # crash before *start* (it struck while an earlier crash was being
    # detected) sends nothing, so its lease runs from *start*.
    horizon = max(crash.time, start) + cfg.lease_s + 2 * cfg.interval_s

    beats: list[tuple[float, int, int]] = []  # (emit time, gpu, seq)
    for gpu_id in gpu_ids:
        seq = 0
        t = start + cfg.interval_s
        while t <= horizon:
            if gpu_id == crash.gpu_id and t >= crash.time:
                break
            beats.append((t + emit_delay(gpu_id, t), gpu_id, seq))
            seq += 1
            t += cfg.interval_s
    beats.sort()

    detector = FailureDetector(cfg=cfg)
    for gpu_id in gpu_ids:
        detector.register(gpu_id, now=start)

    sent = delivered = 0
    for emit_at, gpu_id, seq in beats:
        detector.advance(emit_at)
        if detector.state(crash.gpu_id) is GpuHealth.DEAD:
            break
        at = max(emit_at, transport.now)
        delivered_at = transport.send(
            endpoint_of(gpu_id),
            scheduler_endpoint,
            Heartbeat(gpu_id=gpu_id, seq=seq, time=emit_at),
            at=at,
        )
        sent += 1
        if delivered_at != float("inf"):
            delivered += 1
            detector.observe(gpu_id, delivered_at)
    if detector.state(crash.gpu_id) is not GpuHealth.DEAD:
        # Heartbeats ran out before the lease expired (e.g. a lone
        # survivor): age the detector to the horizon, where the crashed
        # GPU's lease has certainly lapsed but fresh survivors' have not.
        detector.advance(horizon)
    transport.drain(scheduler_endpoint)

    detected_at = detector.detected_at(crash.gpu_id)
    suspects = tuple(
        t
        for t in detector.transitions
        if t.state is not GpuHealth.DEAD and t.gpu_id != crash.gpu_id
    )
    return DetectionResult(
        crash=crash,
        detected_at=detected_at,
        heartbeats_sent=sent,
        heartbeats_delivered=delivered,
        suspect_events=suspects,
    )
