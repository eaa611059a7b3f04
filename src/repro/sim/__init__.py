"""Trace-driven discrete-event cluster simulator (§7.1)."""

from .events import Event, EventQueue, EventType
from .paramserver import ParameterServerPool
from .simulator import ClusterSimulator, SimResult, simulate_plan
from .telemetry import TaskRecord, Telemetry

__all__ = [
    "ClusterSimulator",
    "Event",
    "EventQueue",
    "EventType",
    "ParameterServerPool",
    "SimResult",
    "TaskRecord",
    "Telemetry",
    "simulate_plan",
]
