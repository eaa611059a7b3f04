"""Job and problem-instance abstractions (the scheduler-facing model of §5.1).

A :class:`Job` is the static description of one DML training job: its model,
arrival time ``a_n``, weight ``w_n``, number of training rounds ``|R_n|`` and
the number of parallel tasks per round ``|D_r|`` (the *sync scale*).

A :class:`ProblemInstance` bundles a set of jobs with the per-(job, GPU)
training and synchronization time matrices ``T^c`` and ``T^s``. The paper
drops the round subscript ``r`` because per-round times are stable (Fig. 11);
we keep that simplification: every task of job ``n`` takes ``T^c[n, m]``
seconds of compute and ``T^s[n, m]`` seconds of gradient synchronization when
placed on GPU ``m``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, InfeasibleProblemError
from .types import TaskRef, validate_non_negative, validate_positive


@dataclass(frozen=True, slots=True)
class Job:
    """Static description of one DML training job.

    Parameters
    ----------
    job_id:
        Dense 0-based index within the problem instance.
    model:
        Name of the trained model (free-form; the workload layer uses
        :class:`repro.core.types.ModelName` values).
    arrival:
        Arrival time ``a_n`` in seconds.
    weight:
        Job weight ``w_n`` in the total weighted completion-time objective.
    num_rounds:
        Number of training rounds ``|R_n|`` (>= 1).
    sync_scale:
        Number of parallel tasks per round ``|D_r|`` (>= 1). Hare's relaxed
        scale-fixed scheme keeps this constant across rounds.
    batch_scale:
        Multiplier on the profiled per-batch training time (Fig. 19 sweeps
        batch size; training time grows with batch size, sync time does not).
    """

    job_id: int
    model: str
    arrival: float = 0.0
    weight: float = 1.0
    num_rounds: int = 1
    sync_scale: int = 1
    batch_scale: float = 1.0

    def __post_init__(self) -> None:
        validate_non_negative("arrival", self.arrival)
        validate_positive("weight", self.weight)
        validate_positive("batch_scale", self.batch_scale)
        if self.num_rounds < 1:
            raise ConfigurationError(
                f"num_rounds must be >= 1, got {self.num_rounds}"
            )
        if self.sync_scale < 1:
            raise ConfigurationError(
                f"sync_scale must be >= 1, got {self.sync_scale}"
            )

    @property
    def num_tasks(self) -> int:
        """Total number of tasks over all rounds."""
        return self.num_rounds * self.sync_scale

    def tasks(self) -> Iterator[TaskRef]:
        """Yield every task of this job in (round, slot) order."""
        for r in range(self.num_rounds):
            for d in range(self.sync_scale):
                yield TaskRef(self.job_id, r, d)

    def round_tasks(self, round_idx: int) -> list[TaskRef]:
        """The task set ``D_r`` for round ``round_idx``."""
        if not 0 <= round_idx < self.num_rounds:
            raise ConfigurationError(
                f"round {round_idx} out of range for job {self.job_id} "
                f"with {self.num_rounds} rounds"
            )
        return [TaskRef(self.job_id, round_idx, d) for d in range(self.sync_scale)]


@dataclass(slots=True)
class ProblemInstance:
    """A scheduling problem: jobs ``N``, GPUs ``M`` and time matrices.

    Attributes
    ----------
    jobs:
        The job set ``N``; ``jobs[n].job_id == n`` must hold.
    train_time:
        ``(|N|, |M|)`` array; ``train_time[n, m]`` is ``T^c`` of any task of
        job ``n`` on GPU ``m`` (already including ``batch_scale``).
    sync_time:
        ``(|N|, |M|)`` array; ``sync_time[n, m]`` is ``T^s``.
    gpu_labels:
        Optional human-readable per-GPU labels (e.g. ``"V100#3"``).
    """

    jobs: Sequence[Job]
    train_time: np.ndarray
    sync_time: np.ndarray
    gpu_labels: Sequence[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.train_time = np.asarray(self.train_time, dtype=float)
        self.sync_time = np.asarray(self.sync_time, dtype=float)
        n_jobs = len(self.jobs)
        if self.train_time.shape != self.sync_time.shape:
            raise ConfigurationError(
                "train_time and sync_time shapes differ: "
                f"{self.train_time.shape} vs {self.sync_time.shape}"
            )
        if self.train_time.ndim != 2 or self.train_time.shape[0] != n_jobs:
            raise ConfigurationError(
                f"train_time must be ({n_jobs}, M), got {self.train_time.shape}"
            )
        if self.num_gpus < 1:
            raise InfeasibleProblemError("a problem instance needs >= 1 GPU")
        tc, ts = self.train_time, self.sync_time
        # min/max reduce without a temporary array, and NaN propagates
        # through both, so it fails these comparisons as ±inf does.
        if tc.size and not (
            tc.min() > 0 and tc.max() < np.inf
            and ts.min() >= 0 and ts.max() < np.inf
        ):
            for name, matrix, ok, rule in (
                ("train_time", tc, tc > 0, "> 0"),
                ("sync_time", ts, ts >= 0, ">= 0"),
            ):
                bad = ~(ok & (matrix < np.inf))
                if bad.any():
                    n, m = np.argwhere(bad)[0]
                    raise ConfigurationError(
                        f"{name}[job {n}, GPU {m}] = {matrix[n, m]}: task "
                        f"times must be finite and {rule}"
                    )
        for n, job in enumerate(self.jobs):
            if job.job_id != n:
                raise ConfigurationError(
                    f"jobs must be densely indexed: jobs[{n}].job_id == "
                    f"{job.job_id}"
                )
        if not self.gpu_labels:
            self.gpu_labels = [f"gpu{m}" for m in range(self.num_gpus)]
        elif len(self.gpu_labels) != self.num_gpus:
            raise ConfigurationError(
                f"{len(self.gpu_labels)} labels for {self.num_gpus} GPUs"
            )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def num_gpus(self) -> int:
        return int(self.train_time.shape[1])

    @property
    def num_tasks(self) -> int:
        """Total task count ``|D|`` across all jobs and rounds."""
        return sum(job.num_tasks for job in self.jobs)

    # ------------------------------------------------------------------
    # Time lookups (the only way schedulers should read T^c / T^s)
    # ------------------------------------------------------------------
    def tc(self, job_id: int, gpu: int) -> float:
        """Training time ``T^c_{i,m}`` of any task of *job_id* on *gpu*."""
        return float(self.train_time[job_id, gpu])

    def ts(self, job_id: int, gpu: int) -> float:
        """Synchronization time ``T^s_{i,m}``."""
        return float(self.sync_time[job_id, gpu])

    def task_time(self, job_id: int, gpu: int) -> float:
        """``T^c + T^s`` — the span a task contributes to its round."""
        return self.tc(job_id, gpu) + self.ts(job_id, gpu)

    def best_round_time(self, job_id: int) -> float:
        """Fastest profiled single-round time ``min_m (T^c + T^s)`` of
        *job_id*: the one definition of ``best``. It is the ``best`` arg
        of every ``kernel.round`` instant
        (:func:`repro.kernel.runner.emit_rounds`) and of every round
        :func:`repro.obs.attrib.attribute_schedule` builds; attribution
        uses it to split a round's span into compute and heterogeneity
        penalty."""
        return float(
            (self.train_time[job_id] + self.sync_time[job_id]).min()
        )

    def fastest_gpu(self, job_id: int) -> int:
        """GPU index minimizing ``T^c + T^s`` for the job."""
        return int(np.argmin(self.train_time[job_id] + self.sync_time[job_id]))

    def all_tasks(self) -> Iterator[TaskRef]:
        """Every task of every job, jobs in id order."""
        return itertools.chain.from_iterable(job.tasks() for job in self.jobs)

    def task_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Job, round and slot of every task as int64 arrays, in
        :meth:`all_tasks` order — entry ``k`` names canonical task ``k``
        (:attr:`repro.core.schedule.ScheduleColumns.canon`)."""
        n = len(self.jobs)
        rounds = np.fromiter((j.num_rounds for j in self.jobs), np.int64, n)
        scale = np.fromiter((j.sync_scale for j in self.jobs), np.int64, n)
        per_job = rounds * scale
        job = np.repeat(np.arange(n), per_job)
        local = np.arange(len(job)) - (np.cumsum(per_job) - per_job)[job]
        rnd, slot = np.divmod(local, scale[job])
        return job, rnd, slot

    # ------------------------------------------------------------------
    # Derived quantities used by theory and schedulers
    # ------------------------------------------------------------------
    def alpha(self) -> float:
        """Heterogeneity factor α of Lemma 3 / Theorem 4.

        ``α = max_i max(T_i^{c,max}/T_i^{c,min}, T_i^{s,max}/T_i^{s,min})``.
        Sync ratios of jobs with all-zero sync time are treated as 1.
        """
        tc_ratio = self.train_time.max(axis=1) / self.train_time.min(axis=1)
        smax = self.sync_time.max(axis=1)
        smin = self.sync_time.min(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ts_ratio = np.where(smin > 0, smax / np.maximum(smin, 1e-300), 1.0)
        ts_ratio = np.where(smax == 0, 1.0, ts_ratio)
        return float(max(tc_ratio.max(), ts_ratio.max()))

    def total_work_lower_bound(self, job_id: int) -> float:
        """Serial work of the job on its fastest GPU — a crude LB on C_n - a_n."""
        job = self.jobs[job_id]
        m = self.fastest_gpu(job_id)
        per_round = self.task_time(job_id, m)
        return job.num_rounds * per_round

    def remaining_time_estimate(
        self, job_id: int, rounds_done: int, free_gpus: Sequence[int]
    ) -> float:
        """Estimated remaining runtime on a given set of free GPUs.

        Used by SRTF-style policies: each remaining round runs its
        ``sync_scale`` tasks spread over the ``free_gpus`` (or serialized on
        the single fastest one when fewer GPUs than tasks are free).
        """
        job = self.jobs[job_id]
        remaining_rounds = job.num_rounds - rounds_done
        if remaining_rounds <= 0:
            return 0.0
        if not free_gpus:
            m = self.fastest_gpu(job_id)
            return remaining_rounds * job.sync_scale * self.task_time(job_id, m)
        times = sorted(self.task_time(job_id, m) for m in free_gpus)
        k = min(job.sync_scale, len(times))
        # sync_scale tasks over k GPUs: ceil(scale/k) waves bounded by the
        # slowest of the chosen k fastest GPUs.
        waves = -(-job.sync_scale // k)
        return remaining_rounds * waves * times[k - 1]


def make_uniform_instance(
    num_jobs: int,
    num_gpus: int,
    *,
    train_time: float = 1.0,
    sync_time: float = 0.0,
    num_rounds: int = 1,
    sync_scale: int = 1,
    model: str = "synthetic",
) -> ProblemInstance:
    """Build a homogeneous toy instance (mainly for tests and docs)."""
    jobs = [
        Job(
            job_id=n,
            model=model,
            num_rounds=num_rounds,
            sync_scale=sync_scale,
        )
        for n in range(num_jobs)
    ]
    tc = np.full((num_jobs, num_gpus), float(train_time))
    ts = np.full((num_jobs, num_gpus), float(sync_time))
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)
