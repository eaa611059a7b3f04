"""Core abstractions of the Hare reproduction.

This subpackage holds the paper's problem model (§5.1): jobs, rounds, tasks,
schedules and the constraint checker, plus the metrics the evaluation section
reports. Everything else in the library is expressed in these terms.
"""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".fairness": "FairnessReport finish_time_fairness isolated_flow_time",
    ".errors": (
        "ConfigurationError GangDoesNotFitError InfeasibleProblemError "
        "MemoryModelError ProfileMissError ReproError ScheduleValidationError "
        "SimulationError SolverError UnknownGPUTypeError UnknownModelError"
    ),
    ".job": "Job ProblemInstance",
    ".metrics": (
        "JobMetrics ScheduleMetrics gpu_utilization improvement_percent "
        "jct_cdf mean_cluster_utilization metrics_from_completions "
        "metrics_from_schedule utilization_timeline"
    ),
    ".schedule": (
        "Schedule TaskAssignment merge_intervals "
        "schedule_from_mapping schedule_from_rows validate_schedule"
    ),
    ".types": (
        "GBPS GIB MIB Domain GPUModel ModelName SwitchMode SyncScheme TaskRef"
    ),
})
