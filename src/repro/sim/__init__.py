"""Trace-driven discrete-event cluster simulator (§7.1)."""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".events": "Event EventQueue EventType",
    ".simulator": "ClusterSimulator SimResult simulate_plan",
    ".telemetry": "TaskRecord Telemetry",
})
