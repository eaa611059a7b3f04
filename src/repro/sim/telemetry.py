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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.schedule import ScheduleColumns, merge_intervals
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


class Telemetry:
    """Accumulates what happened on every GPU during a simulation.

    Built task by task (:meth:`record_task`) or, for a finished replay,
    from its completion columns (:meth:`from_columns`). Either way the
    ``sim.*`` instruments are written up front; a column-backed
    telemetry builds its :attr:`records` and the :attr:`busy` and
    :attr:`switching` intervals only when they are read.
    """

    __slots__ = (
        "num_gpus", "metrics", "_records", "_columns", "_busy", "_switching",
    )

    def __init__(
        self, num_gpus: int, metrics: MetricsRegistry | None = None
    ) -> None:
        self.num_gpus = num_gpus
        #: every scalar mutation goes through here; the properties read
        #: it back
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._records: list[TaskRecord] | None = []
        #: (realized view, planned start, switch time, retained hit)
        self._columns: tuple | None = None
        self._busy: dict[int, list[tuple[float, float]]] | None = None
        self._switching: dict[int, list[tuple[float, float]]] | None = None

    @classmethod
    def from_columns(
        cls,
        num_gpus: int,
        realized: ScheduleColumns,
        planned_start: Sequence[float],
        switch_time: Sequence[float],
        retained_hit: Sequence[bool],
        wasted_compute_s: Iterable[float] = (),
    ) -> "Telemetry":
        """A finished run's telemetry from its completions, one row each
        in completion order: the realized schedule's view plus each
        task's planned start, switch time and retention hit.

        The instruments end in the same state as :meth:`record_task` per
        row, in order, then :meth:`record_abort` per destroyed attempt.
        """
        telemetry = cls(num_gpus)
        telemetry._records = None
        telemetry._columns = (
            realized, planned_start, switch_time, retained_hit
        )
        telemetry._count(
            realized.train.tolist(),
            [s for s in realized.sync.tolist() if s > 0],
            [w for w in switch_time if w > 0],
            sum(retained_hit),
        )
        for wasted in wasted_compute_s:
            telemetry.record_abort(wasted)
        return telemetry

    def record_task(self, record: TaskRecord) -> None:
        self.records.append(record)
        self._columns = self._busy = self._switching = None
        self._count(
            [record.train_time],
            [record.sync_time] if record.sync_time > 0 else [],
            [record.switch_time] if record.switch_time > 0 else [],
            int(record.retained_hit),
        )

    def _count(
        self,
        trains: list[float],
        syncs: list[float],
        switches: list[float],
        hits: int,
    ) -> None:
        """Write tasks' durations, in order, to the ``sim.*``
        instruments; *syncs* and *switches* hold the positive ones."""
        if not trains:
            return
        self.metrics.counter("sim.tasks").inc(len(trains))
        self.metrics.histogram("sim.train_time_s").observe_all(trains)
        if syncs:
            self.metrics.histogram("sim.sync_time_s").observe_all(syncs)
        if switches:
            self.metrics.counter("sim.switch_count").inc(len(switches))
            self.metrics.histogram("sim.switch_time_s").observe_all(switches)
        if hits:
            self.metrics.counter("sim.retention_hits").inc(hits)

    def record_abort(self, wasted_compute_s: float) -> None:
        """A GPU failure destroyed an in-flight attempt."""
        self.metrics.counter("sim.aborted_attempts").inc()
        self.metrics.counter("sim.wasted_compute_s").inc(wasted_compute_s)

    # ------------------------------------------------------------------
    # Per-task views, built on first read.
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[TaskRecord]:
        """One :class:`TaskRecord` per completed task, in completion
        order."""
        if self._records is None:
            realized, planned, switch, hit = self._columns
            self._records = [
                TaskRecord(TaskRef(j, r, s), *rest)
                for j, r, s, *rest in zip(
                    realized.job.tolist(), realized.rnd.tolist(),
                    realized.slot.tolist(), realized.gpu.tolist(),
                    planned, realized.start.tolist(), switch,
                    realized.train.tolist(), realized.sync.tolist(), hit,
                )
            ]
        return self._records

    @property
    def busy(self) -> dict[int, list[tuple[float, float]]]:
        """Per-GPU ``(start, end)`` compute intervals."""
        if self._busy is None:
            self._intervals()
        return self._busy

    @property
    def switching(self) -> dict[int, list[tuple[float, float]]]:
        """Per-GPU ``(start, end)`` switch-overhead intervals."""
        if self._switching is None:
            self._intervals()
        return self._switching

    def _intervals(self) -> None:
        busy: dict[int, list[tuple[float, float]]] = {}
        switching: dict[int, list[tuple[float, float]]] = {}
        for r in self.records:
            busy.setdefault(r.gpu, []).append((r.start, r.compute_end))
            if r.switch_time > 0:
                switching.setdefault(r.gpu, []).append(
                    (r.start - r.switch_time, r.start)
                )
        self._busy, self._switching = busy, switching

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
        if self._columns is not None:
            return self._columns[0].makespan()
        if not self._records:
            return 0.0
        return max(r.sync_end for r in self._records)

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
