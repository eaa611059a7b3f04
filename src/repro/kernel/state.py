"""Kernel state and the commitment model.

A policy never mutates the world directly: it returns
:class:`Commitment` values from ``on_event`` and the kernel applies them —
appending the assignments to the committed schedule, advancing the per-GPU
availability vector φ, and publishing the follow-up events
(``ROUND_BARRIER_OPEN``, ``GPU_FREE``) that wake policies later.

Commitments are **round-granular**: every round present in a commitment
must be complete (all ``sync_scale`` slots) and must extend its job's
committed prefix in order. That keeps the residual problem a clean
:class:`~repro.core.job.ProblemInstance` at all times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..core.errors import SimulationError
from ..core.job import Job, ProblemInstance
from ..core.schedule import Schedule, TaskAssignment

#: Time comparisons in the kernel tolerate this much float slack.
KERNEL_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class Commitment:
    """An irrevocable (fault-retraction aside) scheduling decision.

    ``assignments`` are global-frame :class:`TaskAssignment` values
    covering one or more *complete* rounds. ``gpu_release`` optionally
    overrides when the touched GPUs become available again: gang policies
    hold every GPU until job completion (the sync tail included), while
    the default releases each GPU at the last committed ``compute_end``
    (sync overlaps the successor, §5.2).
    """

    assignments: tuple[TaskAssignment, ...]
    gpu_release: Mapping[int, float] | None = None


@dataclass(frozen=True, slots=True)
class KernelCrash:
    """A permanent GPU failure, as the kernel applies it.

    Retraction cuts at the physical crash :attr:`time`: every committed
    round with a task on :attr:`gpu` still computing past it falls, with
    the rest of its job. The ``GPU_CRASHED`` event fires, and retracted
    jobs become ready again, at :attr:`detected_at` (``time`` when
    omitted — a plain ``crashes=((t, gpu),)`` entry is exactly that).

    With a :attr:`checkpoint_interval`, an affected job also rolls back
    to its newest checkpoint whose barrier opened by the detection:
    round ``k · checkpoint_interval``, or round 0 if there is none. A job
    that restores a checkpoint is ready ``restore_s[job]`` seconds after
    the detection (the restore read). :attr:`quarantined`, when given,
    replaces the state's advisory quarantine set at the event — a heal
    engine's set as of this detection.
    """

    time: float
    gpu: int
    detected_at: float | None = None
    checkpoint_interval: int | None = None
    restore_s: Mapping[int, float] = field(default_factory=dict)
    quarantined: frozenset[int] | None = None

    @property
    def fires_at(self) -> float:
        return self.time if self.detected_at is None else self.detected_at


@dataclass(frozen=True, slots=True)
class Retraction:
    """What one crash took from one job (``KernelResult.retractions``)."""

    #: When the crash was applied (its detection time).
    time: float
    gpu: int
    job: int
    #: Committed rounds the job keeps.
    rounds_done: int
    #: Dropped rounds whose barrier had already opened: rolled back.
    rounds_lost: int
    #: Compute the dropped tasks had performed: up to the crash on the
    #: dead GPU, up to the detection elsewhere (rounds after the one
    #: the crash hit never started: their barrier never opened).
    lost_work_s: float
    #: Checkpoint restore read paid before the job is ready (0 if none).
    restore_s: float


@dataclass(slots=True)
class KernelState:
    """Everything a policy may read when deciding.

    The kernel owns the mutation; policies treat this as read-only.
    """

    instance: ProblemInstance
    #: Current kernel time (the event being processed).
    now: float = 0.0
    #: Per-GPU availability φ_m: when the device's committed compute drains.
    phi: list[float] = field(default_factory=list)
    #: Job ids whose arrival event has fired.
    arrived: set[int] = field(default_factory=set)
    #: Rounds committed so far, per job.
    rounds_done: dict[int, int] = field(default_factory=dict)
    #: When each job's next round may start (last committed barrier).
    ready_at: dict[int, float] = field(default_factory=dict)
    #: GPUs currently alive (all of them unless faults are injected).
    alive: set[int] = field(default_factory=set)
    #: The committed schedule, growing monotonically (faults may retract).
    committed: Schedule = None  # type: ignore[assignment]
    #: Arrival times not yet fired, ascending (kernel-maintained).
    pending_arrivals: list[float] = field(default_factory=list)
    #: Advisory per-job weight multipliers (remediation ``boost_weight``):
    #: policies fold these into the residual objective. Aliased to the
    #: remediation engine's live dict when one is attached.
    weight_boost: dict[int, float] = field(default_factory=dict)
    #: Advisory set of SUSPECT GPUs (remediation ``quarantine_gpu``):
    #: policies avoid *new* commitments there, but these GPUs stay in
    #: :attr:`alive` — quarantine is a preference, not a crash.
    quarantined: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        inst = self.instance
        self.phi = [0.0] * inst.num_gpus
        self.rounds_done = {j.job_id: 0 for j in inst.jobs}
        self.ready_at = {j.job_id: j.arrival for j in inst.jobs}
        self.alive = set(range(inst.num_gpus))
        self.committed = Schedule(inst)
        self.pending_arrivals = sorted(j.arrival for j in inst.jobs)

    # -- derived views policies decide from ----------------------------
    def known_jobs(self) -> list[Job]:
        """Arrived jobs, in job-id order (what a non-clairvoyant sees)."""
        return [
            j for j in self.instance.jobs if j.job_id in self.arrived
        ]

    def unstarted(self) -> list[int]:
        """Arrived jobs with no committed round yet (gang candidates)."""
        return sorted(
            n for n in self.arrived if self.rounds_done[n] == 0
        )

    def free_gpus(self) -> list[int]:
        """Alive GPUs whose committed work has drained by *now*."""
        return [
            m for m in sorted(self.alive)
            if self.phi[m] <= self.now + KERNEL_EPS
        ]

    def usable_gpus(self, jobs: Iterable[Job]) -> set[int]:
        """Alive GPUs minus the quarantined ones — unless that would
        leave *jobs*' residual infeasible (fewer GPUs than the widest
        unfinished job needs), in which case quarantine is ignored: it
        is advisory, feasibility wins."""
        quarantined = self.quarantined
        if not quarantined:
            return self.alive
        candidate = self.alive - quarantined
        min_scale = max(
            (
                j.sync_scale for j in jobs
                if self.rounds_done[j.job_id] < j.num_rounds
            ),
            default=1,
        )
        if len(candidate) >= min_scale:
            return candidate
        return self.alive

    def next_arrival_time(self) -> float | None:
        """The earliest arrival that has not fired yet (``None`` if none)."""
        return self.pending_arrivals[0] if self.pending_arrivals else None

    def remaining_rounds(self, job_id: int) -> int:
        return (
            self.instance.jobs[job_id].num_rounds - self.rounds_done[job_id]
        )

    def complete(self) -> bool:
        """Every round of every job committed."""
        return all(
            self.rounds_done[j.job_id] == j.num_rounds
            for j in self.instance.jobs
        )

    # -- commitment validation (used by the kernel before applying) ----
    def check_commitment(self, commitment: Commitment) -> None:
        """Round-granularity sanity: complete rounds, in prefix order."""
        by_round: dict[tuple[int, int], int] = {}
        for a in commitment.assignments:
            key = (a.task.job_id, a.task.round_idx)
            by_round[key] = by_round.get(key, 0) + 1
        per_job: dict[int, list[int]] = {}
        for (job_id, r), count in by_round.items():
            job = self.instance.jobs[job_id]
            if count != job.sync_scale:
                raise SimulationError(
                    f"commitment covers {count}/{job.sync_scale} tasks of "
                    f"job {job_id} round {r}"
                )
            per_job.setdefault(job_id, []).append(r)
        for job_id, rounds in per_job.items():
            rounds.sort()
            expected = list(
                range(self.rounds_done[job_id],
                      self.rounds_done[job_id] + len(rounds))
            )
            if rounds != expected:
                raise SimulationError(
                    f"job {job_id} commitment rounds {rounds} do not extend "
                    f"the committed prefix ({self.rounds_done[job_id]} done)"
                )
