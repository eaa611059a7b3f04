"""Job and problem-instance abstractions (the scheduler-facing model of §5.1).

A :class:`Job` is the static description of one DML training job: its model,
arrival time ``a_n``, weight ``w_n``, number of training rounds ``|R_n|`` and
the number of parallel tasks per round ``|D_r|`` (the *sync scale*).

A :class:`ProblemInstance` holds the jobs as one table of columns, with
the per-(job, GPU) training and synchronization time matrices ``T^c`` and
``T^s``. The paper drops the round subscript ``r`` because per-round times
are stable (Fig. 11); we keep that simplification: every task of job ``n``
takes ``T^c[n, m]`` seconds of compute and ``T^s[n, m]`` seconds of
gradient synchronization when placed on GPU ``m``.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class ProblemInstance:
    """A scheduling problem: jobs ``N``, GPUs ``M`` and time matrices.

    The jobs are one table indexed by job id: read-only numpy columns
    :attr:`arrival` (``a_n``), :attr:`weight` (``w_n``),
    :attr:`num_rounds` (``|R_n|``), :attr:`sync_scale` (``|D_r|``) and
    :attr:`task_offset` (job ``n``'s canonical tasks start at
    ``task_offset[n]``), and the tuples :attr:`model` and
    :attr:`batch_scale`. The constructor copies the :class:`Job` values
    into the table; :meth:`subset` slices a residual or a cell out of it
    without building a :class:`Job`, and :attr:`jobs` is then built from
    the columns the first time it is read.

    Attributes
    ----------
    train_time:
        ``(|N|, |M|)`` array; ``train_time[n, m]`` is ``T^c`` of any task of
        job ``n`` on GPU ``m`` (already including ``batch_scale``).
    sync_time:
        ``(|N|, |M|)`` array; ``sync_time[n, m]`` is ``T^s``.
    gpu_labels:
        Optional human-readable per-GPU labels (e.g. ``"V100#3"``).
    """

    __slots__ = (
        "train_time", "sync_time", "gpu_labels", "arrival", "weight",
        "num_rounds", "sync_scale", "model", "batch_scale", "task_offset",
        "_jobs", "_tasks",
    )

    def __init__(
        self,
        jobs: Sequence[Job],
        train_time: np.ndarray,
        sync_time: np.ndarray,
        gpu_labels: Sequence[str] = (),
    ) -> None:
        jobs = tuple(jobs)
        n_jobs = len(jobs)
        self.train_time = np.asarray(train_time, dtype=float)
        self.sync_time = np.asarray(sync_time, dtype=float)
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
        for n, job in enumerate(jobs):
            if job.job_id != n:
                raise ConfigurationError(
                    f"jobs must be densely indexed: jobs[{n}].job_id == "
                    f"{job.job_id}"
                )
        self._set_table(
            np.fromiter((j.arrival for j in jobs), np.float64, n_jobs),
            np.fromiter((j.weight for j in jobs), np.float64, n_jobs),
            np.fromiter((j.num_rounds for j in jobs), np.int64, n_jobs),
            np.fromiter((j.sync_scale for j in jobs), np.int64, n_jobs),
            tuple(j.model for j in jobs),
            tuple(j.batch_scale for j in jobs),
        )
        self._jobs = jobs
        if not gpu_labels:
            gpu_labels = [f"gpu{m}" for m in range(self.num_gpus)]
        elif len(gpu_labels) != self.num_gpus:
            raise ConfigurationError(
                f"{len(gpu_labels)} labels for {self.num_gpus} GPUs"
            )
        self.gpu_labels = gpu_labels

    def _set_table(
        self, arrival, weight, num_rounds, sync_scale, model, batch_scale
    ) -> None:
        """Install the job columns read-only, after :class:`Job`'s checks
        run over each column (the first offending job is named)."""
        for name, col, bad, rule in (
            ("arrival", arrival, arrival < 0, ">= 0"),
            ("weight", weight, ~(weight > 0), "> 0"),
            ("batch_scale", batch_scale,
             ~(np.asarray(batch_scale, dtype=float) > 0), "> 0"),
            ("num_rounds", num_rounds, num_rounds < 1, ">= 1"),
            ("sync_scale", sync_scale, sync_scale < 1, ">= 1"),
        ):
            if bad.any():
                n = int(bad.argmax())
                raise ConfigurationError(
                    f"job {n}: {name} must be {rule}, got {col[n]!r}"
                )
        offset = np.zeros(len(num_rounds) + 1, dtype=np.int64)
        np.cumsum(num_rounds * sync_scale, out=offset[1:])
        for col in (arrival, weight, num_rounds, sync_scale, offset):
            col.flags.writeable = False
        self.arrival, self.weight = arrival, weight
        self.num_rounds, self.sync_scale = num_rounds, sync_scale
        self.model, self.batch_scale = model, batch_scale
        self.task_offset = offset
        self._tasks = None

    def subset(
        self,
        rows: Sequence[int] | np.ndarray,
        gpus: Sequence[int] | None = None,
        *,
        arrival: np.ndarray | None = None,
        weight: np.ndarray | None = None,
        num_rounds: np.ndarray | None = None,
    ) -> ProblemInstance:
        """The sub-instance of jobs *rows* on GPUs *gpus* (all if ``None``).

        Job ``rows[i]`` becomes job ``i`` and GPU ``gpus[j]`` GPU ``j``,
        keeping its label. *arrival*, *weight* and *num_rounds*, given
        one value per row, replace the sliced columns (a residual's ready
        times, boosted weights and remaining rounds). No :class:`Job` is
        built.
        """
        rows = np.asarray(rows, dtype=np.int64)
        sub = object.__new__(ProblemInstance)
        # A row take is many times faster than an np.ix_ block.
        block = rows if gpus is None else np.ix_(rows, np.asarray(gpus, int))
        sub.train_time = self.train_time[block]
        sub.sync_time = self.sync_time[block]
        sub.gpu_labels = (
            list(self.gpu_labels) if gpus is None
            else [self.gpu_labels[m] for m in gpus]
        )
        if sub.num_gpus < 1:
            raise InfeasibleProblemError("a problem instance needs >= 1 GPU")
        picked = rows.tolist()
        sub._set_table(
            self.arrival[rows] if arrival is None
            else np.array(arrival, dtype=np.float64),
            self.weight[rows] if weight is None
            else np.array(weight, dtype=np.float64),
            self.num_rounds[rows] if num_rounds is None
            else np.array(num_rounds, dtype=np.int64),
            self.sync_scale[rows],
            tuple(self.model[g] for g in picked),
            tuple(self.batch_scale[g] for g in picked),
        )
        sub._jobs = None
        return sub

    @property
    def jobs(self) -> tuple[Job, ...]:
        """The jobs as :class:`Job` values, in id order."""
        if self._jobs is None:
            self._jobs = tuple(map(
                Job, range(self.num_jobs), self.model, self.arrival.tolist(),
                self.weight.tolist(), self.num_rounds.tolist(),
                self.sync_scale.tolist(), self.batch_scale,
            ))
        return self._jobs

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        return len(self.num_rounds)

    @property
    def num_gpus(self) -> int:
        return int(self.train_time.shape[1])

    @property
    def num_tasks(self) -> int:
        """Total task count ``|D|`` across all jobs and rounds."""
        return int(self.task_offset[-1])

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
        return map(TaskRef, *(col.tolist() for col in self.task_columns()))

    def task_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Job, round and slot of every task as read-only int64 arrays,
        in :meth:`all_tasks` order — entry ``k`` names canonical task
        ``k`` (:attr:`repro.core.schedule.ScheduleColumns.canon`).
        Computed once, from :attr:`task_offset`."""
        if self._tasks is None:
            offset = self.task_offset
            job = np.repeat(np.arange(self.num_jobs), np.diff(offset))
            rnd, slot = np.divmod(
                np.arange(len(job)) - offset[job], self.sync_scale[job]
            )
            for col in (job, rnd, slot):
                col.flags.writeable = False
            self._tasks = (job, rnd, slot)
        return self._tasks

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
        m = self.fastest_gpu(job_id)
        per_round = self.task_time(job_id, m)
        return int(self.num_rounds[job_id]) * per_round


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
