"""Kernel state and the commitment model.

A policy never mutates the world directly: it returns
:class:`Commitment` values from ``on_event`` and the kernel applies them
(:func:`repro.kernel.runner.apply_commitment`) — appending the block to
the commit log, advancing the per-GPU availability vector φ, and
publishing the follow-up events (``ROUND_BARRIER_OPEN``, ``GPU_FREE``)
that wake policies later.

A commitment is one job's next ``k`` **complete rounds** as a block of
columns, extending its committed prefix in order; that keeps the
residual problem a clean :class:`~repro.core.job.ProblemInstance`. Both
kernel loops keep this one state: φ, ``rounds_done`` and ``ready_at``
are arrays (values leave them as built-in ``int``/``float``: numpy
scalars would change JSON bytes), and :class:`CommitLog` is the
committed schedule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..core.errors import ScheduleValidationError, SimulationError
from ..core.job import ProblemInstance
from ..core.schedule import Schedule
from ..core.types import TaskRef

#: Time comparisons in the kernel tolerate this much float slack.
KERNEL_EPS = 1e-12

#: Blocks up to this many rows are checked and applied through
#: ``tolist()`` reads: below it numpy's per-call overhead costs more.
SMALL_BLOCK = 16


@dataclass(frozen=True, slots=True)
class Commitment:
    """An irrevocable (fault-retraction aside) scheduling decision.

    Row ``i`` places task ``(job, rnd[i], slot[i])`` on ``gpu[i]`` at
    ``start[i]`` for ``train[i]`` + ``sync[i]``, in the base instance's
    frame. ``gpu_release`` optionally holds every GPU of the block until
    that time: gang policies keep their GPUs until job completion (the
    sync tail included), while by default each GPU frees at its last
    committed ``compute_end`` (sync overlaps the successor, §5.2).
    """

    job: int
    rnd: np.ndarray
    slot: np.ndarray
    gpu: np.ndarray
    start: np.ndarray
    train: np.ndarray
    sync: np.ndarray
    gpu_release: float | None = None


class CommitLog:
    """The committed schedule as columns, rows in commit order; a
    retraction drops rows and keeps the rest in order. Sized to the
    instance, since no task is committed twice."""

    def __init__(self, instance: ProblemInstance) -> None:
        self.instance = instance
        self.n = 0
        cap = instance.num_tasks
        #: The seven columns; rows from :attr:`n` on are unused.
        self.buffers = [np.empty(cap, dtype=np.int64) for _ in range(4)]
        self.buffers += [np.empty(cap) for _ in range(3)]
        (self.job, self.rnd, self.slot, self.gpu, self.start, self.train,
         self.sync) = self.buffers
        #: Job ``j``'s round ``r`` is round id ``round_base[j] + r``.
        self.round_base = np.zeros(instance.num_jobs + 1, dtype=np.int64)
        np.cumsum(instance.num_rounds, out=self.round_base[1:])

    def append(self, *block) -> None:
        """Append a block given as the seven columns (``job`` may be one
        id for every row)."""
        lo = self.n
        self.n += len(block[-1])
        for buf, col in zip(self.buffers, block):
            buf[lo:self.n] = col

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows where *mask* is False."""
        n = int(np.count_nonzero(mask))
        for buf in self.buffers:
            buf[:n] = buf[: self.n][mask]
        self.n = n

    def round_ends(self) -> np.ndarray:
        """Every round's barrier, its latest committed task end, by round
        id (:attr:`round_base`); ``-inf`` where nothing is committed."""
        n = self.n
        ends = np.full(int(self.round_base[-1]), -np.inf)
        np.maximum.at(
            ends, self.round_base[self.job[:n]] + self.rnd[:n],
            (self.start[:n] + self.train[:n]) + self.sync[:n],
        )
        return ends

    def columns(self) -> Schedule:
        """A copy of the committed rows."""
        return Schedule(
            self.instance, *(buf[: self.n].copy() for buf in self.buffers)
        )


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
    phi: np.ndarray = field(init=False)
    #: Job ids whose arrival event has fired.
    arrived: set[int] = field(default_factory=set)
    #: Rounds committed so far, per job id.
    rounds_done: np.ndarray = field(init=False)
    #: When each job's next round may start (last committed barrier).
    ready_at: np.ndarray = field(init=False)
    #: GPUs currently alive (all of them unless faults are injected).
    alive: set[int] = field(default_factory=set)
    #: The committed schedule, growing monotonically (faults may retract).
    committed: CommitLog = field(init=False)
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
        self.phi = np.zeros(inst.num_gpus)
        self.rounds_done = np.zeros(inst.num_jobs, dtype=np.int64)
        self.ready_at = inst.arrival.copy()
        self.alive = set(range(inst.num_gpus))
        self.committed = CommitLog(inst)
        self.pending_arrivals = sorted(inst.arrival.tolist())

    # -- derived views policies decide from ----------------------------
    def known_jobs(self) -> list[int]:
        """Arrived job ids, ascending (what a non-clairvoyant sees)."""
        return sorted(self.arrived)

    def free_gpus(self) -> list[int]:
        """Alive GPUs whose committed work has drained by *now*."""
        drained = (self.phi <= self.now + KERNEL_EPS).nonzero()[0].tolist()
        return [m for m in drained if m in self.alive]

    def usable_gpus(self, job_ids: Iterable[int]) -> set[int]:
        """Alive GPUs minus the quarantined ones — unless that would
        leave the residual of *job_ids* infeasible (fewer GPUs than the
        widest unfinished job needs), in which case quarantine is
        ignored: it is advisory, feasibility wins."""
        quarantined = self.quarantined
        if not quarantined:
            return self.alive
        candidate = self.alive - quarantined
        ids = np.fromiter(job_ids, dtype=np.int64)
        left = ids[self.rounds_done[ids] < self.instance.num_rounds[ids]]
        min_scale = int(self.instance.sync_scale[left].max(initial=1))
        if len(candidate) >= min_scale:
            return candidate
        return self.alive

    def next_arrival_time(self) -> float | None:
        """The earliest arrival that has not fired yet (``None`` if none)."""
        return self.pending_arrivals[0] if self.pending_arrivals else None

    def complete(self) -> bool:
        """Every round of every job committed."""
        return bool((self.rounds_done == self.instance.num_rounds).all())

    # -- commitment validation (used by the kernel before applying) ----
    def check_commitment(self, commitment: Commitment) -> None:
        """Refuse a block that is not its job's next complete rounds.

        A canonical block (row ``i`` is task ``(done + i // sync_scale,
        i % sync_scale)``) only needs live GPUs. Any other is checked in
        order: each round has ``sync_scale`` rows, the rounds extend the
        committed prefix, and no row is on a dead GPU or repeats an
        earlier row's task (the first such row is named).
        """
        c = commitment
        job_id = c.job
        scale = int(self.instance.sync_scale[job_id])
        done = int(self.rounds_done[job_id])
        n = len(c.rnd)
        if n > SMALL_BLOCK:
            row = np.arange(n)
            canonical = (
                (c.rnd == done + row // scale).all()
                and (c.slot == row % scale).all()
            )
        else:
            canonical = (
                c.rnd.tolist() == [done + i // scale for i in range(n)]
                and c.slot.tolist() == [i % scale for i in range(n)]
            )
        if (
            n % scale == 0
            and canonical
            and self.alive.issuperset(c.gpu.tolist())
        ):
            return
        rnd, slot = c.rnd.tolist(), c.slot.tolist()
        for r, count in Counter(rnd).items():
            if count != scale:
                raise SimulationError(
                    f"commitment covers {count}/{scale} tasks of "
                    f"job {job_id} round {r}"
                )
        rounds = sorted(set(rnd))
        if rounds != list(range(done, done + len(rounds))):
            raise SimulationError(
                f"job {job_id} commitment rounds {rounds} do not extend "
                f"the committed prefix ({done} done)"
            )
        dead = np.isin(c.gpu, list(self.alive), invert=True)
        repeat = np.ones(n, dtype=bool)
        repeat[np.unique(np.stack((c.rnd, c.slot)), axis=1,
                         return_index=True)[1]] = False
        if not (dead | repeat).any():
            return
        i = int(np.argmax(dead | repeat))
        task = TaskRef(job_id, rnd[i], slot[i])
        if dead[i]:
            raise SimulationError(
                f"commitment places {task} on dead GPU {int(c.gpu[i])}"
            )
        raise ScheduleValidationError(5, f"task {task} assigned twice")
