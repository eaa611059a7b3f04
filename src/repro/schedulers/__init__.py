"""Schedulers: Hare's Algorithm 1 and the §7.1 comparison baselines."""

from .allox import SchedAlloxScheduler
from .base import Scheduler, check_gang_feasible, fastest_free_gpus
from .fifo import GavelFifoPolicy, GavelFifoScheduler
from .hare import (
    AUTO_LP_TASK_LIMIT,
    HareScheduler,
    list_schedule,
    strict_gang_schedule,
)
from .homo import SchedHomoPolicy, SchedHomoScheduler
from .online import OnlineHarePolicy, OnlineHareScheduler
from .optimal import brute_force_optimal
from .registry import (
    SchemeInfo,
    UnknownSchedulerError,
    available,
    create,
    create_from_spec,
    info,
    register,
    schemes,
)
from .relaxation import (
    ExactRelaxationSolver,
    FluidRelaxationSolver,
    RelaxationResult,
    RelaxationSolver,
    greedy_assignment,
)
from .srtf import SrtfPolicy, SrtfScheduler
from .timeslice import TimeSliceScheduler


__all__ = [
    "AUTO_LP_TASK_LIMIT",
    "ExactRelaxationSolver",
    "FluidRelaxationSolver",
    "GavelFifoPolicy",
    "GavelFifoScheduler",
    "HareScheduler",
    "OnlineHarePolicy",
    "OnlineHareScheduler",
    "RelaxationResult",
    "RelaxationSolver",
    "SchedAlloxScheduler",
    "SchedHomoPolicy",
    "SchedHomoScheduler",
    "Scheduler",
    "SchemeInfo",
    "SrtfPolicy",
    "SrtfScheduler",
    "TimeSliceScheduler",
    "UnknownSchedulerError",
    "available",
    "brute_force_optimal",
    "check_gang_feasible",
    "create",
    "create_from_spec",
    "fastest_free_gpus",
    "greedy_assignment",
    "info",
    "list_schedule",
    "register",
    "schemes",
    "strict_gang_schedule",
]
