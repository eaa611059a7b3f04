"""Experiment harness: workload builders, table and Gantt rendering."""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".experiments": "make_loaded_workload make_problem make_workload",
    ".gantt": "GanttOptions render_gantt",
    ".tables": "render_series render_table",
})
