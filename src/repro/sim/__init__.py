"""Trace-driven discrete-event cluster simulator (§7.1)."""

from .events import Event, EventQueue, EventType
from .simulator import ClusterSimulator, SimResult, simulate_plan
from .telemetry import TaskRecord, Telemetry

__all__ = [
    "ClusterSimulator",
    "Event",
    "EventQueue",
    "EventType",
    "SimResult",
    "TaskRecord",
    "Telemetry",
    "simulate_plan",
]
