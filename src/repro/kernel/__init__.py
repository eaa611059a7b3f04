"""repro.kernel — the event-driven scheduling kernel (DESIGN.md §11).

One loop, many policies: the DES event queue is the single source of
time; schedulers participate as incremental policies woken on typed
events (:class:`KernelEventType`) and answering with
:class:`Commitment` values. Offline planners ride along via
:class:`PlannedPolicy`; the §7.1 gang baselines subclass
:class:`GangPolicy`; online Hare implements :class:`Policy` directly
on the kernel's residual re-plan path (:mod:`repro.kernel.residual`).

Invariant: with every arrival known at t=0 and no faults injected, a
kernel-driven policy realizes exactly the metrics of its offline
counterpart — the kernel changes architecture, not semantics.
"""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".array": "ArraySchedulingKernel",
    ".events": "Event EventQueue KernelEventType",
    ".policies": "GangPolicy PlannedPolicy Policy gang_commitment",
    ".residual": "KERNEL_TRACK build_residual_instance",
    ".runner": "KernelResult SchedulingKernel run_policy",
    ".state": "KERNEL_EPS Commitment KernelCrash KernelState Retraction",
})
