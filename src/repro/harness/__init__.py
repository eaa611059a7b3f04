"""Experiment harness: workload builders, table and report rendering."""

from .experiments import (
    make_loaded_workload,
    make_problem,
    make_workload,
)
from .gantt import GanttOptions, render_gantt, render_job_timeline
from .report import PAPER_CLAIMS, Claim, Verdict, render_claims
from .tables import normalize_to, render_series, render_table

__all__ = [
    "PAPER_CLAIMS",
    "Claim",
    "GanttOptions",
    "make_loaded_workload",
    "make_problem",
    "make_workload",
    "normalize_to",
    "render_series",
    "Verdict",
    "render_claims",
    "render_gantt",
    "render_job_timeline",
    "render_table",
]
