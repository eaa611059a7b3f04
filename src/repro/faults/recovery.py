"""The recovery report: what a chaos run's crashes cost.

Crash recovery itself runs on the scheduling kernel
(:class:`repro.kernel.state.KernelCrash`): when the detector confirms a
permanent GPU failure, the kernel retracts the work the dead GPU would
still have run — cut at the physical crash time, applied at the
detection — rolls each affected job back to its newest checkpoint whose
barrier opened by then, makes it ready after the restore read, and lets
the scheduler's own policy re-place the residual on the alive GPUs
(:meth:`repro.control.ControlPlane.run_chaos`).

This module holds the :class:`ChaosTelemetry` accumulator and the
:class:`RecoveryReport` the chaos CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .detector import DetectionResult
from .scenario import GpuCrash


@dataclass(slots=True)
class ChaosTelemetry:
    """Mutable accumulator for one chaos run's recovery metrics."""

    detections: list[DetectionResult] = field(default_factory=list)
    replans: int = 0
    lost_work_s: float = 0.0
    lost_rounds: dict[int, int] = field(default_factory=dict)
    checkpoint_bytes_restored: float = 0.0
    restore_reads: int = 0
    restore_time_s: float = 0.0
    rpc_retries: int = 0
    rpc_timeouts: int = 0
    rpc_duplicates: int = 0
    messages_dropped: int = 0

    def record_lost_round(self, job_id: int, rounds: int) -> None:
        if rounds > 0:
            self.lost_rounds[job_id] = self.lost_rounds.get(job_id, 0) + rounds

    def record_retraction(self, retraction, checkpoint_bytes: float) -> None:
        """Account one crash's :class:`~repro.kernel.state.Retraction` of
        one job; a job that keeps rounds restored a checkpoint of
        *checkpoint_bytes*."""
        self.record_lost_round(retraction.job, retraction.rounds_lost)
        self.lost_work_s += retraction.lost_work_s
        if retraction.rounds_done:
            self.restore_reads += 1
            self.checkpoint_bytes_restored += checkpoint_bytes
            self.restore_time_s += retraction.restore_s

    def report(
        self,
        *,
        crashes: tuple[GpuCrash, ...],
        failure_free_weighted_jct: float,
        degraded_weighted_jct: float,
        failure_free_makespan: float,
        degraded_makespan: float,
    ) -> "RecoveryReport":
        return RecoveryReport(
            crashes=crashes,
            detections=tuple(self.detections),
            replans=self.replans,
            lost_work_s=self.lost_work_s,
            lost_rounds=dict(self.lost_rounds),
            checkpoint_bytes_restored=self.checkpoint_bytes_restored,
            restore_reads=self.restore_reads,
            restore_time_s=self.restore_time_s,
            rpc_retries=self.rpc_retries,
            rpc_timeouts=self.rpc_timeouts,
            rpc_duplicates=self.rpc_duplicates,
            messages_dropped=self.messages_dropped,
            failure_free_weighted_jct=failure_free_weighted_jct,
            degraded_weighted_jct=degraded_weighted_jct,
            failure_free_makespan=failure_free_makespan,
            degraded_makespan=degraded_makespan,
        )


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """Everything a chaos run reveals about the fault-tolerance layer.

    :attr:`crashes` lists every injected crash. A crash at or after the
    recovered run's last completion falls outside the run: it is still
    detected (from a one-lease window of heartbeats), but nothing is
    retracted or re-planned, so :attr:`replans` counts the crashes inside
    the run. :attr:`lost_rounds`, :attr:`lost_work_s` and the restore
    counters come from the kernel's retractions: rounds whose barrier had
    opened but were rolled back to a checkpoint, the compute the dropped
    tasks had done, and one restore read per job that restored a
    checkpoint. The JCT and makespan figures come from the DES replays.
    """

    crashes: tuple[GpuCrash, ...]
    detections: tuple[DetectionResult, ...]
    replans: int
    lost_work_s: float
    lost_rounds: dict[int, int]
    checkpoint_bytes_restored: float
    restore_reads: int
    restore_time_s: float
    rpc_retries: int
    rpc_timeouts: int
    rpc_duplicates: int
    messages_dropped: int
    failure_free_weighted_jct: float
    degraded_weighted_jct: float
    failure_free_makespan: float
    degraded_makespan: float

    @property
    def detection_latencies(self) -> tuple[float, ...]:
        return tuple(d.latency_s for d in self.detections)

    @property
    def heartbeats_sent(self) -> int:
        return sum(d.heartbeats_sent for d in self.detections)

    @property
    def heartbeats_delivered(self) -> int:
        return sum(d.heartbeats_delivered for d in self.detections)

    @property
    def total_lost_rounds(self) -> int:
        return sum(self.lost_rounds.values())

    @property
    def jct_degradation(self) -> float:
        """Degraded weighted JCT over failure-free (>= 1 under pure delays)."""
        if self.failure_free_weighted_jct <= 0:
            return 1.0
        return self.degraded_weighted_jct / self.failure_free_weighted_jct
