"""The declarative finding-type → remediation-action policy table.

Each entry maps a finding type (the emitting monitor's name, or the
synthetic ``gpu_suspect`` type the engine derives from failure-detector
transitions) to an :class:`ActionSpec`. A finding with no entry lands in
the log's *unremediated* list. Invariant checkers (commitment
monotonicity, utilization conservation) are deliberately unmapped — a
violated invariant means the run is wrong, and no online knob makes
wrong results right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .actions import ACTION_KINDS


@dataclass(frozen=True, slots=True)
class ActionSpec:
    """An action kind plus its default parameters."""

    kind: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(
                f"unknown remediation action {self.kind!r}; "
                f"expected one of {ACTION_KINDS}"
            )


#: Default policy table. ``throttle_replans`` derives its minimum
#: replan gap from the storm finding itself unless ``min_gap_s`` is
#: given; ``boost_weight`` multiplies the starved job's weight by
#: ``factor`` up to ``cap``, decaying back towards 1.0 by ``decay`` per
#: evaluation cycle once the job stops being flagged.
DEFAULT_POLICY: dict[str, ActionSpec] = {
    "replan_storm": ActionSpec("throttle_replans"),
    "job_starvation": ActionSpec(
        "boost_weight", {"factor": 2.0, "cap": 8.0, "decay": 0.5}
    ),
    "utilization_collapse": ActionSpec("force_replan"),
    "gpu_suspect": ActionSpec("quarantine_gpu"),
    "rpc_budget_exhausted": ActionSpec("observe"),
}
