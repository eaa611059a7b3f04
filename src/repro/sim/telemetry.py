"""Simulation telemetry: per-GPU busy/switch intervals and task records.

Since the observability redesign, :class:`Telemetry` is a **read view** over
a :class:`~repro.obs.metrics.MetricsRegistry`: the ``record_*`` methods
route every scalar mutation through named instruments (``sim.*`` counters
and histograms), and the legacy attributes (``switch_count``,
``retention_hits``, ``total_switch_time``, ...) are properties reading the
registry back. The aggregate durations that used to be methods are
properties like :attr:`makespan`; the deprecated callable shim that briefly
kept the old ``telemetry.metric()`` form alive has been removed — the
properties return plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.schedule import merge_intervals
from ..core.types import TaskRef
from ..obs.metrics import MetricsRegistry


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """Realized execution of one task."""

    task: TaskRef
    gpu: int
    planned_start: float
    start: float
    switch_time: float
    train_time: float
    sync_time: float
    retained_hit: bool

    @property
    def compute_end(self) -> float:
        return self.start + self.train_time

    @property
    def sync_end(self) -> float:
        return self.compute_end + self.sync_time


@dataclass(slots=True)
class Telemetry:
    """Accumulates what happened on every GPU during a simulation."""

    num_gpus: int
    records: list[TaskRecord] = field(default_factory=list)
    #: per-GPU (start, end) compute intervals
    busy: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    #: per-GPU (start, end) switch-overhead intervals
    switching: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    #: every scalar mutation goes through here; the properties read it back
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def record_task(self, record: TaskRecord) -> None:
        self.records.append(record)
        self.busy.setdefault(record.gpu, []).append(
            (record.start, record.compute_end)
        )
        self.metrics.counter("sim.tasks").inc()
        self.metrics.histogram("sim.train_time_s").observe(record.train_time)
        if record.sync_time > 0:
            self.metrics.histogram("sim.sync_time_s").observe(record.sync_time)
        if record.switch_time > 0:
            self.switching.setdefault(record.gpu, []).append(
                (record.start - record.switch_time, record.start)
            )
            self.metrics.counter("sim.switch_count").inc()
            self.metrics.histogram("sim.switch_time_s").observe(
                record.switch_time
            )
        if record.retained_hit:
            self.metrics.counter("sim.retention_hits").inc()

    def record_abort(self, wasted_compute_s: float) -> None:
        """A GPU failure destroyed an in-flight attempt."""
        self.metrics.counter("sim.aborted_attempts").inc()
        self.metrics.counter("sim.wasted_compute_s").inc(wasted_compute_s)

    # ------------------------------------------------------------------
    # Registry-backed read view of the legacy scalar attributes.
    # ------------------------------------------------------------------
    @property
    def retention_hits(self) -> int:
        return int(self.metrics.counter("sim.retention_hits").value)

    @property
    def switch_count(self) -> int:
        return int(self.metrics.counter("sim.switch_count").value)

    @property
    def aborted_attempts(self) -> int:
        return int(self.metrics.counter("sim.aborted_attempts").value)

    @property
    def wasted_compute_s(self) -> float:
        return self.metrics.counter("sim.wasted_compute_s").value

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        if not self.records:
            return 0.0
        return max(r.sync_end for r in self.records)

    @property
    def total_switch_time(self) -> float:
        return self.metrics.histogram("sim.switch_time_s").total

    @property
    def total_train_time(self) -> float:
        return self.metrics.histogram("sim.train_time_s").total

    def switch_overhead_fraction(self) -> float:
        """Switch time as a fraction of train time (the Table 3 percent)."""
        train = self.total_train_time
        return self.total_switch_time / train if train > 0 else 0.0

    def gpu_utilization(self, *, horizon: float | None = None) -> dict[int, float]:
        """Compute-busy fraction per GPU over [0, horizon].

        Intervals that start at or past the horizon are excluded; an
        interval straddling it contributes only its part before the
        horizon.
        """
        horizon = horizon if horizon is not None else self.makespan
        out = {m: 0.0 for m in range(self.num_gpus)}
        if horizon <= 0:
            return out
        for gpu, intervals in self.busy.items():
            merged = merge_intervals(intervals)
            out[gpu] = sum(
                min(e, horizon) - s for s, e in merged if s < horizon
            ) / horizon
        return out

    @property
    def mean_utilization(self) -> float:
        utils = self.gpu_utilization()
        return float(np.mean(list(utils.values()))) if utils else 0.0

    def plan_deviation(self) -> float:
        """Max relative start-time slip vs the plan (sim-accuracy metric).

        The paper validates its simulator within 5 % of the testbed; here
        the analytic plan plays the simulator's role and the DES with
        switching costs plays the testbed's.
        """
        if not self.records:
            return 0.0
        horizon = max(self.makespan, 1e-12)
        return max(
            abs(r.start - r.planned_start) / horizon for r in self.records
        )
