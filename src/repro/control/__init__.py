"""Control plane (§6): message protocol, transport, storage, orchestrator."""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".controlplane": (
        "PS SCHEDULER UPPER ChaosResult ControlPlane TrafficBill "
        "executor_endpoint traffic_bill"
    ),
    ".messages": (
        "CheckpointRestored Heartbeat JobCompleted Message PlannedTask "
        "SequenceAck SubmitJob TaskSequence from_wire to_wire"
    ),
    ".storage": "BlobMeta BlobStore CheckpointManager",
    ".transport": "DROPPED Delivery LinkStats RpcOutcome SimTransport",
})
