"""ASCII Gantt rendering of schedules — one row per GPU.

Turns a :class:`~repro.core.schedule.Schedule` (or a simulation's realized
schedule) into a fixed-width timeline: each GPU row shows which job
occupies it over time, with ``.`` for idle. Useful in examples, debugging
and failure triage; the toy figures of the paper (Figs. 1, 4, 10) are
exactly this kind of picture.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigurationError
from ..core.schedule import Schedule

#: job-id glyphs: digits, then letters.
_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _glyph(job_id: int) -> str:
    return _GLYPHS[job_id % len(_GLYPHS)]


@dataclass(frozen=True, slots=True)
class GanttOptions:
    """Rendering options."""

    width: int = 80
    #: Mark sync windows with '~' after each task's compute (if they fit).
    show_sync: bool = False
    #: Include a legend mapping glyphs to job ids/models.
    legend: bool = True

    def __post_init__(self) -> None:
        if self.width < 10:
            raise ConfigurationError("gantt width must be >= 10 columns")


def render_gantt(
    schedule: Schedule,
    *,
    options: GanttOptions | None = None,
    horizon: float | None = None,
) -> str:
    """Render the schedule as an ASCII Gantt chart.

    Each column is ``horizon / width`` seconds; a cell shows the job whose
    compute occupies the majority of that slice on that GPU (idle = '.').
    """
    options = options or GanttOptions()
    inst = schedule.instance
    if horizon is None:
        horizon = schedule.makespan()
    if horizon <= 0:
        return "(empty schedule)"
    width = options.width
    cell = horizon / width

    label_w = max(len(str(lbl)) for lbl in inst.gpu_labels)
    lines = [
        f"{'':{label_w}} 0{'':{width - len(f'{horizon:.1f}') - 1}}"
        f"{horizon:.1f}s"
    ]
    seqs = schedule.gpu_sequences()
    for gpu in range(inst.num_gpus):
        row = ["."] * width
        for a in seqs.get(gpu, []):
            first = int(a.start / cell)
            last = int(max(a.start, min(a.compute_end, horizon) - 1e-12) / cell)
            for c in range(max(first, 0), min(last + 1, width)):
                row[c] = _glyph(a.task.job_id)
            if options.show_sync and a.sync_time > 0:
                sync_last = int(
                    max(0.0, min(a.end, horizon) - 1e-12) / cell
                )
                for c in range(last + 1, min(sync_last + 1, width)):
                    if row[c] == ".":
                        row[c] = "~"
        lines.append(f"{inst.gpu_labels[gpu]:>{label_w}} {''.join(row)}")

    if options.legend:
        legend = "  ".join(
            f"{_glyph(n)}={n}:{model}" for n, model in enumerate(inst.model)
        )
        lines.append(f"{'':{label_w}} {legend[: width + 8]}")
    return "\n".join(lines)

