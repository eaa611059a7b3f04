"""repro.kernel — the event-driven scheduling kernel (DESIGN.md §11).

One loop, many policies: the DES event queue is the single source of
time; schedulers participate as incremental policies woken on typed
events (:class:`KernelEventType`) and answering with
:class:`Commitment` values. Offline planners ride along via
:class:`PlannedPolicy`; the §7.1 gang baselines subclass
:class:`GangPolicy`; online Hare implements :class:`Policy` directly
on the kernel's residual re-plan path (:class:`ResidualPlanner`).

Invariant: with every arrival known at t=0 and no faults injected, a
kernel-driven policy realizes exactly the metrics of its offline
counterpart — the kernel changes architecture, not semantics.
"""

from .array import ArraySchedulingKernel
from .events import Event, EventQueue, KernelEventType
from .policies import GangPolicy, PlannedPolicy, Policy, gang_commitment
from .residual import (
    KERNEL_TRACK,
    ResidualPlanner,
    build_residual_instance,
)
from .runner import KernelResult, SchedulingKernel, run_policy
from .state import (
    KERNEL_EPS,
    Commitment,
    KernelCrash,
    KernelState,
    Retraction,
)

__all__ = [
    "ArraySchedulingKernel",
    "Commitment",
    "Event",
    "EventQueue",
    "GangPolicy",
    "KERNEL_EPS",
    "KERNEL_TRACK",
    "KernelCrash",
    "KernelEventType",
    "KernelResult",
    "KernelState",
    "PlannedPolicy",
    "Policy",
    "ResidualPlanner",
    "Retraction",
    "SchedulingKernel",
    "build_residual_instance",
    "gang_commitment",
    "run_policy",
]
