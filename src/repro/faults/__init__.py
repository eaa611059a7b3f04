"""Fault tolerance: failure scenarios, detection, retry and recovery.

The §6 prototype assumes a cooperative cluster; this subpackage adds the
production-grade robustness layer on top of it:

* :mod:`~repro.faults.scenario` — a composable description of injected
  faults (permanent GPU crashes, transient stragglers, flaky RPCs, brief
  network partitions) that drives both the simulator and the transport;
* :mod:`~repro.faults.retry` — the RPC retry policy (bounded attempts,
  exponential backoff with deterministic jitter, per-message timeout);
* :mod:`~repro.faults.detector` — a heartbeat/lease failure detector that
  distinguishes stragglers (late heartbeats → SUSPECT) from crashes
  (expired lease → DEAD);
* :mod:`~repro.faults.recovery` — the recovery report; recovery itself
  (retraction, checkpoint rollback, residual re-plan) runs on the
  scheduling kernel.
"""

from .detector import (
    DetectionResult,
    FailureDetector,
    GpuHealth,
    HeartbeatConfig,
    run_detection,
)
from .recovery import ChaosTelemetry, RecoveryReport
from .retry import RetryPolicy, budget_exhaustion_severity
from .scenario import (
    FaultScenario,
    GpuCrash,
    GpuRestart,
    GpuSlowdown,
    NetworkPartition,
    RpcFlakiness,
    UnreliableNetwork,
)

__all__ = [
    "ChaosTelemetry",
    "DetectionResult",
    "FailureDetector",
    "FaultScenario",
    "GpuCrash",
    "GpuHealth",
    "GpuRestart",
    "GpuSlowdown",
    "HeartbeatConfig",
    "NetworkPartition",
    "RecoveryReport",
    "RetryPolicy",
    "RpcFlakiness",
    "UnreliableNetwork",
    "budget_exhaustion_severity",
    "run_detection",
]
