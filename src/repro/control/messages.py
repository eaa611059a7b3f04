"""Control-plane message protocol (§6: scheduler ↔ executors over gRPC).

The paper's prototype wires a central scheduler to per-machine executors
with gRPC control messages: job submission, task sequences, acks and
completions, plus the liveness and recovery traffic of a fault run. We
model that protocol with typed dataclass messages and a wire format
(plain dicts, JSON-serializable) so the transport can account bytes and
tests can verify round-trips. The training-time bulk traffic (gradient
pushes, model updates) is counted by
:func:`repro.control.controlplane.traffic_bill`, not sent.

Every message type registers itself; :func:`to_wire` / :func:`from_wire`
convert between objects and wire dicts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar, Type

from ..core.errors import ConfigurationError

_REGISTRY: dict[str, Type["Message"]] = {}


@dataclass(frozen=True, slots=True)
class Message:
    """Base class; subclasses register by class name."""

    #: Estimated payload size on the wire when the message stands in for a
    #: bulk transfer (a checkpoint read back); 0 for control messages.
    TYPE: ClassVar[str] = "Message"

    def __init_subclass__(cls) -> None:
        # NB: no zero-arg super() here — @dataclass(slots=True) rebuilds the
        # class and severs the __class__ cell that zero-arg super needs.
        cls.TYPE = cls.__name__
        _REGISTRY[cls.__name__] = cls

    @property
    def payload_bytes(self) -> float:
        """Bulk bytes this message represents (0 for pure control)."""
        return float(getattr(self, "data_bytes", 0.0))

    def wire_bytes(self) -> float:
        """Total bytes on the wire: JSON envelope + bulk payload."""
        return len(json.dumps(to_wire(self))) + self.payload_bytes


def to_wire(message: Message) -> dict[str, Any]:
    """Serialize to a JSON-able dict with a type tag."""
    body = asdict(message)
    body["__type__"] = type(message).__name__
    return body


def from_wire(wire: dict[str, Any]) -> Message:
    """Reconstruct a message from its wire dict."""
    data = dict(wire)
    try:
        type_name = data.pop("__type__")
    except KeyError:
        raise ConfigurationError("wire dict missing __type__") from None
    try:
        cls = _REGISTRY[type_name]
    except KeyError:
        raise ConfigurationError(f"unknown message type {type_name!r}") from None
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(
            f"{type_name} does not accept fields {sorted(unknown)}"
        )
    return cls(**data)


# ----------------------------------------------------------------------
# Submission
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SubmitJob(Message):
    """Upper layer → scheduler: one training job (Fig. 9 'job information')."""

    job_id: int
    model: str
    arrival: float
    weight: float
    num_rounds: int
    sync_scale: int
    batch_scale: float = 1.0


# ----------------------------------------------------------------------
# Task sequences (scheduler → executor) and acks
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class PlannedTask(Message):
    """One entry of a GPU's task sequence."""

    job_id: int
    round_idx: int
    slot: int
    start: float
    train_time: float
    sync_time: float


@dataclass(frozen=True, slots=True)
class TaskSequence(Message):
    """Scheduler → executor: the ordered task list for one GPU (Fig. 9)."""

    gpu_id: int
    tasks: tuple  # of PlannedTask wire dicts (kept wire-level for asdict)

    def planned(self) -> list[PlannedTask]:
        return [
            t if isinstance(t, PlannedTask) else from_wire(t)  # type: ignore[arg-type]
            for t in self.tasks
        ]


@dataclass(frozen=True, slots=True)
class SequenceAck(Message):
    """Executor → scheduler: sequence received and loaded."""

    gpu_id: int
    num_tasks: int


# ----------------------------------------------------------------------
# Fault tolerance: liveness and recovery traffic
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Heartbeat(Message):
    """Executor → scheduler: periodic liveness beacon (lease renewal)."""

    gpu_id: int
    seq: int
    time: float


@dataclass(frozen=True, slots=True)
class CheckpointRestored(Message):
    """Storage → PS: a job's checkpoint was read back for recovery (bulk)."""

    job_id: int
    version: int
    round_idx: int
    time: float
    data_bytes: float = 0.0


@dataclass(frozen=True, slots=True)
class JobCompleted(Message):
    """Scheduler → upper layer: a job finished all rounds."""

    job_id: int
    completion_time: float
