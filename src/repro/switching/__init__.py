"""Fast task switching (§4): pipelined transfer, speculative memory, costs."""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".costmodel": (
        "CALIBRATION SwitchBreakdown SwitchCalibration SwitchCostModel "
        "switch_time_table switching_ratio"
    ),
    ".memory": "GpuMemoryManager SwitchDecision",
    ".planner": (
        "BeladyPolicy ModelFootprint OldestFirstPolicy RetentionOutcome "
        "evaluate_policy optimal_retention_cost"
    ),
    ".pipeline": (
        "PipelineParams TransferBreakdown group_layers pipelined_transfer "
        "sequential_transfer"
    ),
})
