"""Core abstractions of the Hare reproduction.

This subpackage holds the paper's problem model (§5.1): jobs, rounds, tasks,
schedules and the constraint checker, plus the metrics the evaluation section
reports. Everything else in the library is expressed in these terms.
"""

from .fairness import (
    FairnessReport,
    finish_time_fairness,
    isolated_flow_time,
)
from .errors import (
    ConfigurationError,
    InfeasibleProblemError,
    MemoryModelError,
    ProfileMissError,
    ReproError,
    ScheduleValidationError,
    SimulationError,
    SolverError,
    UnknownGPUTypeError,
    UnknownModelError,
)
from .job import Job, ProblemInstance, make_uniform_instance
from .metrics import (
    JobMetrics,
    ScheduleMetrics,
    gpu_utilization,
    improvement_percent,
    jct_cdf,
    mean_cluster_utilization,
    metrics_from_columns,
    metrics_from_completions,
    metrics_from_schedule,
    utilization_timeline,
)
from .schedule import (
    Schedule,
    ScheduleColumns,
    TaskAssignment,
    gpu_busy_intervals,
    merge_intervals,
    schedule_from_mapping,
    validate_schedule,
)
from .types import (
    GBPS,
    GIB,
    MIB,
    Domain,
    GPUModel,
    ModelName,
    SwitchMode,
    SyncScheme,
    TaskRef,
)

__all__ = [
    "GBPS",
    "GIB",
    "MIB",
    "ConfigurationError",
    "Domain",
    "FairnessReport",
    "GPUModel",
    "InfeasibleProblemError",
    "Job",
    "JobMetrics",
    "MemoryModelError",
    "ModelName",
    "ProblemInstance",
    "ProfileMissError",
    "ReproError",
    "Schedule",
    "ScheduleColumns",
    "ScheduleMetrics",
    "ScheduleValidationError",
    "SimulationError",
    "SolverError",
    "SwitchMode",
    "SyncScheme",
    "TaskAssignment",
    "TaskRef",
    "UnknownGPUTypeError",
    "UnknownModelError",
    "finish_time_fairness",
    "gpu_busy_intervals",
    "gpu_utilization",
    "improvement_percent",
    "isolated_flow_time",
    "jct_cdf",
    "make_uniform_instance",
    "mean_cluster_utilization",
    "merge_intervals",
    "metrics_from_columns",
    "metrics_from_completions",
    "metrics_from_schedule",
    "schedule_from_mapping",
    "utilization_timeline",
    "validate_schedule",
]
