"""Unit tests for simulation telemetry."""

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.core import Job, ProblemInstance, TaskRef
from repro.core.schedule import Schedule, schedule_from_mapping
from repro.obs import Obs, use
from repro.obs.metrics import NULL_REGISTRY
from repro.sim import TaskRecord, Telemetry, simulate_plan


def record(job=0, rnd=0, slot=0, gpu=0, *, start=1.0, switch=0.0,
           train=2.0, sync=0.5, hit=False, planned=None):
    return TaskRecord(
        task=TaskRef(job, rnd, slot),
        gpu=gpu,
        planned_start=start if planned is None else planned,
        start=start,
        switch_time=switch,
        train_time=train,
        sync_time=sync,
        retained_hit=hit,
    )


def telemetry(*records: TaskRecord, num_gpus: int = 1) -> Telemetry:
    """The telemetry of *records*, completed in the order given."""
    inst = ProblemInstance(
        jobs=[Job(job_id=0, model="m", num_rounds=2, sync_scale=1)],
        train_time=np.ones((1, num_gpus)),
        sync_time=np.zeros((1, num_gpus)),
    )
    realized = Schedule(
        inst,
        *(zip(*[
            (r.task.job_id, r.task.round_idx, r.task.slot, r.gpu, r.start,
             r.train_time, r.sync_time)
            for r in records
        ]) if records else ((),) * 7),
    )
    return Telemetry.from_columns(
        realized,
        [r.planned_start for r in records],
        [r.switch_time for r in records],
        [r.retained_hit for r in records],
    )


class TestAccumulation:
    def test_busy_intervals_tracked(self):
        t = telemetry(record(gpu=0, start=0.0), record(gpu=1, start=1.0),
                      num_gpus=2)
        assert t.busy[0] == [(0.0, 2.0)]
        assert t.busy[1] == [(1.0, 3.0)]
        assert t.records == [record(gpu=0, start=0.0),
                             record(gpu=1, start=1.0)]

    def test_switch_intervals_and_count(self):
        t = telemetry(record(start=1.0, switch=0.5))
        assert t.switch_count == 1
        assert t.switching[0] == [(0.5, 1.0)]

    def test_zero_switch_not_counted(self):
        t = telemetry(record(switch=0.0))
        assert t.switch_count == 0

    def test_retention_hits(self):
        t = telemetry(record(hit=True), record(rnd=1, hit=False))
        assert t.retention_hits == 1


class TestDerived:
    def test_makespan_includes_sync(self):
        t = telemetry(record(start=1.0, train=2.0, sync=0.5))
        assert t.makespan == pytest.approx(3.5)

    def test_empty_telemetry(self):
        t = telemetry(num_gpus=2)
        assert t.makespan == 0.0
        assert t.mean_utilization == 0.0
        assert t.switch_overhead_fraction() == 0.0
        assert t.plan_deviation() == 0.0
        assert t.aborted_attempts == 0
        assert t.wasted_compute_s == 0.0

    def test_overhead_fraction(self):
        t = telemetry(record(start=1.0, switch=1.0, train=4.0))
        assert t.switch_overhead_fraction() == pytest.approx(0.25)

    def test_utilization_respects_horizon(self):
        t = telemetry(record(start=0.0, train=2.0, sync=0.0))
        assert t.gpu_utilization(horizon=4.0)[0] == pytest.approx(0.5)

    def test_idle_gpu_reports_zero(self):
        t = telemetry(record(gpu=0), num_gpus=2)
        assert t.gpu_utilization()[1] == 0.0

    def test_plan_deviation_relative_to_makespan(self):
        t = telemetry(record(start=2.0, planned=1.0, train=8.0, sync=0.0))
        # slip 1.0 over makespan 10.0
        assert t.plan_deviation() == pytest.approx(0.1)

    def test_utilization_clamps_straddling_interval(self):
        # A busy interval straddling the horizon counts only up to it:
        # busy [0, 3] against horizon 2.0 is 100% utilization, not 150%.
        t = telemetry(record(start=0.0, train=3.0, sync=0.0))
        assert t.gpu_utilization(horizon=2.0)[0] == pytest.approx(1.0)

    def test_utilization_ignores_interval_past_horizon(self):
        t = telemetry(record(start=5.0, train=1.0, sync=0.0))
        assert t.gpu_utilization(horizon=2.0)[0] == 0.0


def crash_replay(obs: Obs | None):
    """One GPU running job 0's two rounds around job 1's, with a crash
    at 1 s and a 0.5 s restart; replayed under *obs* (None: disabled)."""
    cluster = make_cluster(["V100"])
    inst = ProblemInstance(
        jobs=[Job(job_id=0, model="VGG19", num_rounds=2, sync_scale=1),
              Job(job_id=1, model="ResNet50", num_rounds=1, sync_scale=1)],
        train_time=np.full((2, 1), 2.0),
        sync_time=np.full((2, 1), 0.25),
    )
    plan = schedule_from_mapping(inst, {
        TaskRef(0, 0, 0): (0, 0.0), TaskRef(1, 0, 0): (0, 2.0),
        TaskRef(0, 1, 0): (0, 4.0),
    })
    if obs is None:
        return simulate_plan(cluster, inst, plan, failures=[(1.0, 0, 0.5)])
    with use(obs):
        return simulate_plan(cluster, inst, plan, failures=[(1.0, 0, 0.5)])


class TestMetricsRegistry:
    def test_scalars_route_through_registry(self):
        """The replay writes the telemetry's scalars to the run's
        registry as the ``sim.*`` instruments."""
        obs = Obs.start(trace=False)
        t = crash_replay(obs).telemetry
        snap = obs.metrics.snapshot()
        assert snap["sim.tasks"]["value"] == len(t.records) == 3
        assert snap["sim.switch_count"]["value"] == t.switch_count == 2
        assert snap["sim.retention_hits"]["value"] == t.retention_hits == 1
        assert snap["sim.aborted_attempts"]["value"] == t.aborted_attempts
        assert snap["sim.wasted_compute_s"]["value"] == t.wasted_compute_s
        assert t.aborted_attempts == 1 and t.wasted_compute_s == 1.0
        assert snap["sim.train_time_s"]["total"] == t.total_train_time
        assert snap["sim.switch_time_s"]["total"] == t.total_switch_time
        assert snap["sim.sync_time_s"]["count"] == 3

    def test_totals_match_histograms(self):
        t = telemetry(record(start=0.0, switch=0.25, train=2.0, sync=0.5),
                      record(rnd=1, start=3.0, switch=0.25, train=2.0))
        assert t.total_switch_time == pytest.approx(0.5)
        assert t.total_train_time == pytest.approx(4.0)

    def test_aggregates_are_plain_floats(self):
        """The callable deprecation shim is gone: the aggregate properties
        return plain (non-callable) floats."""
        t = telemetry(record(start=1.0, switch=0.5))
        for value in (t.total_switch_time, t.total_train_time,
                      t.mean_utilization):
            assert type(value) is float
            assert not callable(value)

    def test_disabled_replay_writes_nothing(self):
        """Outside any ``use()`` the replay writes nothing to the
        disabled registry, and its telemetry reads the same scalars as a
        live run's."""
        quiet = crash_replay(None).telemetry
        assert NULL_REGISTRY._instruments == {}
        assert NULL_REGISTRY._samples == []
        assert NULL_REGISTRY.counter("sim.tasks").value == 0.0
        assert NULL_REGISTRY.histogram("sim.train_time_s").count == 0
        live = crash_replay(Obs.start(trace=False)).telemetry
        for name in ("retention_hits", "switch_count", "aborted_attempts",
                     "wasted_compute_s", "total_switch_time",
                     "total_train_time", "makespan", "mean_utilization"):
            assert getattr(quiet, name) == getattr(live, name), name
