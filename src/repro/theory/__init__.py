"""Theoretical analysis (§5.3): α, certified bounds, Theorem 4 audits."""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".bounds": (
        "BoundAudit alpha approximation_factor audit_theorem4 "
        "capacity_lower_bound critical_path_lower_bound lower_bound "
        "parallel_work_lower_bound"
    ),
})
