"""Simulation telemetry: what one replay ran, as views over its columns.

A :class:`Telemetry` is a finished replay's completions, one row each in
completion order: the realized schedule plus each task's
planned start, switch time and retention hit, and the compute every
aborted attempt wasted. Its scalars (``switch_count``,
``retention_hits``, ``total_switch_time``, ...) are reductions of those
columns, summed in completion order, and the per-task :attr:`records`
and the :attr:`busy`/:attr:`switching` intervals are built only when
read. The replay itself writes the matching ``sim.*`` instruments into
the run's registry (DESIGN §13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.metrics import gpu_utilization, mean_cluster_utilization
from ..core.schedule import Schedule
from ..core.types import TaskRef


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


def _total(values: Iterable[float]) -> float:
    """Left-to-right sum, as a counter or histogram accumulates it."""
    total = 0.0
    for value in values:
        total += value
    return total


class Telemetry:
    """What happened on every GPU during one replay.

    Built only by :meth:`from_columns`, from the replay's completions.
    """

    __slots__ = (
        "realized", "_planned", "_switch", "_hit", "_wasted",
        "_records", "_busy", "_switching",
    )

    @classmethod
    def from_columns(
        cls,
        realized: Schedule,
        planned_start: Sequence[float],
        switch_time: Sequence[float],
        retained_hit: Sequence[bool],
        wasted_compute_s: Iterable[float] = (),
    ) -> "Telemetry":
        """A finished run's telemetry from its completions, one row each
        in completion order: the realized schedule plus each
        task's planned start, switch time and retention hit; then the
        compute each destroyed attempt lost, in abort order."""
        telemetry = cls.__new__(cls)
        telemetry.realized = realized
        telemetry._planned = planned_start
        telemetry._switch = switch_time
        telemetry._hit = retained_hit
        telemetry._wasted = tuple(wasted_compute_s)
        telemetry._records = telemetry._busy = telemetry._switching = None
        return telemetry

    # ------------------------------------------------------------------
    # Per-task views, built on first read.
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[TaskRecord]:
        """One :class:`TaskRecord` per completed task, in completion
        order."""
        if self._records is None:
            realized = self.realized
            self._records = [
                TaskRecord(TaskRef(j, r, s), *rest)
                for j, r, s, *rest in zip(
                    realized.job.tolist(), realized.rnd.tolist(),
                    realized.slot.tolist(), realized.gpu.tolist(),
                    self._planned, realized.start.tolist(), self._switch,
                    realized.train.tolist(), realized.sync.tolist(),
                    self._hit,
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
    # Scalars: reductions of the columns, in completion order.
    # ------------------------------------------------------------------
    @property
    def retention_hits(self) -> int:
        return sum(self._hit)

    @property
    def switch_count(self) -> int:
        return sum(1 for w in self._switch if w > 0)

    @property
    def aborted_attempts(self) -> int:
        return len(self._wasted)

    @property
    def wasted_compute_s(self) -> float:
        return _total(self._wasted)

    @property
    def makespan(self) -> float:
        return self.realized.makespan()

    @property
    def total_switch_time(self) -> float:
        return _total(w for w in self._switch if w > 0)

    @property
    def total_train_time(self) -> float:
        return _total(self.realized.train.tolist())

    def switch_overhead_fraction(self) -> float:
        """Switch time as a fraction of train time (the Table 3 percent)."""
        train = self.total_train_time
        return self.total_switch_time / train if train > 0 else 0.0

    def gpu_utilization(self, *, horizon: float | None = None) -> dict[int, float]:
        """Compute-busy fraction per GPU over [0, horizon]
        (:func:`~repro.core.metrics.gpu_utilization` of the realized
        schedule)."""
        return gpu_utilization(self.realized, horizon=horizon)

    @property
    def mean_utilization(self) -> float:
        return mean_cluster_utilization(self.realized)

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
