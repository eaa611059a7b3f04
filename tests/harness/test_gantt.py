"""Tests for ASCII Gantt rendering."""

import numpy as np
import pytest

from repro.core import Job, ProblemInstance, TaskRef, schedule_from_mapping
from repro.core.errors import ConfigurationError
from repro.harness.gantt import GanttOptions, render_gantt
from repro.schedulers import HareScheduler


@pytest.fixture
def small_schedule():
    jobs = [
        Job(job_id=0, model="a", num_rounds=1, sync_scale=1),
        Job(job_id=1, model="b", num_rounds=1, sync_scale=1),
    ]
    inst = ProblemInstance(
        jobs=jobs,
        train_time=np.array([[2.0], [2.0]]),
        sync_time=np.zeros((2, 1)),
    )
    return schedule_from_mapping(
        inst, {TaskRef(0, 0, 0): (0, 0.0), TaskRef(1, 0, 0): (0, 2.0)}
    )


class TestRenderGantt:
    def test_jobs_appear_in_order(self, small_schedule):
        out = render_gantt(small_schedule, options=GanttOptions(width=10))
        row = out.splitlines()[1]
        cells = row.split(" ", 1)[1]
        assert cells[:5].count("0") == 5
        assert cells[5:].count("1") == 5

    def test_idle_shown_as_dots(self):
        jobs = [Job(job_id=0, model="a", num_rounds=1, arrival=2.0)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[2.0]]),
            sync_time=np.zeros((1, 1)),
        )
        sched = schedule_from_mapping(inst, {TaskRef(0, 0, 0): (0, 2.0)})
        out = render_gantt(sched, options=GanttOptions(width=12, legend=False))
        cells = out.splitlines()[1].split(" ", 1)[1]
        assert cells.startswith("....")

    def test_legend_lists_jobs(self, small_schedule):
        out = render_gantt(small_schedule)
        assert "0=0:a" in out and "1=1:b" in out

    def test_legend_can_be_disabled(self, small_schedule):
        out = render_gantt(small_schedule, options=GanttOptions(legend=False))
        assert "0=0:a" not in out

    def test_empty_schedule(self, small_schedule):
        empty = schedule_from_mapping(small_schedule.instance, {})
        assert render_gantt(empty) == "(empty schedule)"

    def test_width_validation(self):
        with pytest.raises(ConfigurationError):
            GanttOptions(width=5)

    def test_sync_markers(self):
        jobs = [Job(job_id=0, model="a", num_rounds=1)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0]]),
            sync_time=np.array([[1.0]]),
        )
        sched = schedule_from_mapping(inst, {TaskRef(0, 0, 0): (0, 0.0)})
        out = render_gantt(
            sched, options=GanttOptions(width=10, show_sync=True,
                                        legend=False),
        )
        assert "~" in out

    def test_real_schedule_renders(self, fig1_instance):
        sched = HareScheduler(relaxation="fluid").schedule(fig1_instance)
        out = render_gantt(sched, options=GanttOptions(width=40))
        assert len(out.splitlines()) == 1 + 3 + 1  # header + 3 GPUs + legend
