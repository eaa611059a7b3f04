"""Synchronization: §2.2.3 schemes + PS/All-Reduce aggregation fabrics."""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".allreduce": "ps_round_sync_time ring_allreduce_time",
    ".schemes": (
        "RoundPlan plan_relaxed_scale_fixed plan_scale_adaptive "
        "plan_scale_fixed"
    ),
})
