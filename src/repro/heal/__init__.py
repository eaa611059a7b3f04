"""Self-healing control plane: detect → diagnose → remediate.

The observability layer (:mod:`repro.obs`) grades anomalies into
findings; this package closes the loop by *acting* on them while the run
is still in flight. A :class:`RemediationEngine` subscribes to the
flight-recorder stream like any monitor, evaluates its wrapped monitor
catalogue incrementally (``Monitor.poll``), maps each finding type to a
typed :class:`RemediationAction` through a declarative policy table
(:data:`DEFAULT_POLICY`), and applies the action through kernel/control
hooks:

========================  =======================================
finding type              action
========================  =======================================
``replan_storm``          :data:`throttle_replans <DEFAULT_POLICY>`
``job_starvation``        ``boost_weight`` (capped, decaying)
``utilization_collapse``  ``force_replan``
``gpu_suspect``           ``quarantine_gpu``
``rpc_budget_exhausted``  ``observe`` (log only)
========================  =======================================

Every action emits a ``ctrl``-category ``remediation`` instant plus
``heal.*`` counters and lands in the :class:`RemediationLog` artifact
(schema ``repro.remediation/1``) attached to
:class:`~repro.control.controlplane.ChaosResult` /
:class:`~repro.api.RunResult`. Findings with no policy entry (notably
invariant violations — a correct run must never produce one, so there is
nothing safe to auto-do) are recorded as *unremediated*; CI fails a heal
run that ends with an unremediated ERROR.
"""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".actions": (
        "REMEDIATION_SCHEMA RemediationAction RemediationLog "
        "RemediationRecord"
    ),
    ".engine": "HEAL_TRACK RemediationEngine",
    ".policy": "DEFAULT_POLICY ActionSpec",
})
