"""Job and problem-instance abstractions (the scheduler-facing model of §5.1).

A :class:`Job` is the static description of one DML training job: its model,
arrival time ``a_n``, weight ``w_n``, number of training rounds ``|R_n|`` and
the number of parallel tasks per round ``|D_r|`` (the *sync scale*).

A :class:`ProblemInstance` holds the jobs as one table of columns, with
the training and synchronization times ``T^c`` and ``T^s`` per job and
GPU *type*, and each GPU's type. The paper drops the round subscript
``r`` because per-round times are stable (Fig. 11); we keep that
simplification: every task of job ``n`` takes ``T^c[n, m]`` seconds of
compute and ``T^s[n, m]`` seconds of gradient synchronization when placed
on GPU ``m``, the entries of its type.
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


#: Largest jobs × GPUs block (elements) a reduction over GPUs expands.
_BLOCK = 1 << 16


def expand(table: np.ndarray, gpu_type: np.ndarray) -> np.ndarray:
    """A jobs × types *table* as the read-only, C-ordered jobs × GPUs
    matrix."""
    matrix = np.take(table, gpu_type, axis=1)
    matrix.flags.writeable = False
    return matrix


def row_reduce(table: np.ndarray, gpu_type: np.ndarray, how: str) -> np.ndarray:
    """Each row of *table* (rows × types) expanded over the GPUs and
    reduced by *how* (``"mean"`` or ``"sum"``), in C-ordered blocks of at
    most :data:`_BLOCK` elements. The bytes are those of reducing
    ``expand(table, gpu_type)`` along its rows: a per-type sum weighted
    by type counts rounds differently, and so does reducing an F-ordered
    matrix."""
    step = max(1, _BLOCK // len(gpu_type))
    if len(table) <= step:
        return getattr(np.take(table, gpu_type, axis=1), how)(axis=1)
    out = np.empty(len(table))
    for a in range(0, len(table), step):
        block = np.take(table[a:a + step], gpu_type, axis=1)
        out[a:a + step] = getattr(block, how)(axis=1)
    return out


class GpuView(np.lib.mixins.NDArrayOperatorsMixin):
    """A jobs × types table read as the jobs × GPUs matrix it stands for,
    without building it unless it must.

    Indexing gathers from the table (``view[n, m]``, ``view[rows]``,
    ``view[rows, cols]``, slices and ``np.ix_`` blocks, as on the
    matrix). Element-wise ufuncs over views of one GPU typing and scalars
    stay views, computed on the tables (the same float operations), and
    ``min``/``max``/``mean``/``sum`` along the GPU axis reduce per type or
    by :func:`row_reduce`, with the matrix's bytes. Anything else — numpy
    conversion, other attributes and reductions — works on the matrix,
    expanded by :func:`expand` once and kept. Read-only.
    """

    __slots__ = ("table", "gpu_type", "_matrix")

    def __init__(self, table: np.ndarray, gpu_type: np.ndarray) -> None:
        self.table, self.gpu_type = table, gpu_type
        self._matrix: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.table), len(self.gpu_type))

    def matrix(self) -> np.ndarray:
        """The expanded matrix (built on first call, then kept)."""
        if self._matrix is None:
            self._matrix = expand(self.table, self.gpu_type)
        return self._matrix

    def __array__(self, dtype=None, copy=None):
        matrix = self.matrix()
        if dtype is not None and np.dtype(dtype) != matrix.dtype:
            return matrix.astype(dtype)
        return matrix.copy() if copy else matrix

    def __getattr__(self, name):
        if name.startswith("_"):  # unset slots, pickle's probes
            raise AttributeError(name)
        return getattr(self.matrix(), name)

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self):
        return iter(self.matrix())

    def __repr__(self) -> str:
        return f"GpuView({self.matrix()!r})"

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            return np.take(self.table[key], self.gpu_type, axis=-1)
        if len(key) == 2 and not any(k is None or k is Ellipsis for k in key):
            rows, cols = key
            return self.table[rows, self.gpu_type[cols]]
        return self.matrix()[key]

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "__call__" and ufunc.nout == 1 and not kwargs and all(
            np.isscalar(x) or (
                isinstance(x, GpuView) and (
                    x.gpu_type is self.gpu_type
                    or np.array_equal(x.gpu_type, self.gpu_type)
                )
            )
            for x in inputs
        ):
            return GpuView(
                ufunc(*(getattr(x, "table", x) for x in inputs)),
                self.gpu_type,
            )
        inputs = tuple(
            x.matrix() if isinstance(x, GpuView) else x for x in inputs
        )
        return getattr(ufunc, method)(*inputs, **kwargs)

    def _reduce(self, how: str, axis, kwargs):
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        if axis not in (1, -1) or kwargs:
            return getattr(self.matrix(), how)(axis=axis, **kwargs)
        if how in ("min", "max"):  # every type has a GPU: exact per type
            return getattr(self.table, how)(axis=1)
        return row_reduce(self.table, self.gpu_type, how)

    def min(self, axis=None, **kwargs):
        return self._reduce("min", axis, kwargs)

    def max(self, axis=None, **kwargs):
        return self._reduce("max", axis, kwargs)

    def mean(self, axis=None, **kwargs):
        return self._reduce("mean", axis, kwargs)

    def sum(self, axis=None, **kwargs):
        return self._reduce("sum", axis, kwargs)


class ProblemInstance:
    """A scheduling problem: jobs ``N``, GPUs ``M`` and time tables.

    The jobs are one table indexed by job id: read-only numpy columns
    :attr:`arrival` (``a_n``), :attr:`weight` (``w_n``),
    :attr:`num_rounds` (``|R_n|``), :attr:`sync_scale` (``|D_r|``) and
    :attr:`task_offset` (job ``n``'s canonical tasks start at
    ``task_offset[n]``), and the tuples :attr:`model` and
    :attr:`batch_scale`. The constructor copies the :class:`Job` values
    into the table; :meth:`subset` slices a residual or a cell out of it
    without building a :class:`Job`, and :attr:`jobs` is then built from
    the columns the first time it is read.

    The times are per GPU *type*: GPU ``m`` has type :attr:`gpu_type`
    ``[m]``, and a task of job ``n`` on it takes
    ``train_by_type[n, gpu_type[m]]`` seconds of compute (``T^c``,
    ``batch_scale`` included) and ``sync_by_type[n, gpu_type[m]]`` of
    synchronization (``T^s``). Types are numbered in order of first
    appearance, and every type has a GPU. The dense constructor takes
    jobs × GPUs matrices and makes one type of each distinct
    (``T^c``, ``T^s``) column pair; :attr:`train_time`/:attr:`sync_time`
    read the tables back as jobs × GPUs :class:`GpuView` s, which expand
    only for a reader that needs the matrix itself.

    Attributes
    ----------
    gpu_type:
        ``(|M|,)`` int64 array, the type of each GPU.
    train_by_type:
        ``(|N|, K)`` array of ``T^c`` per job and GPU type.
    sync_by_type:
        ``(|N|, K)`` array of ``T^s`` per job and GPU type.
    gpu_labels:
        Optional human-readable per-GPU labels (e.g. ``"V100#3"``).
    """

    __slots__ = (
        "gpu_type", "train_by_type", "sync_by_type", "gpu_labels",
        "arrival", "weight", "num_rounds", "sync_scale", "model",
        "batch_scale", "task_offset", "_jobs", "_tasks", "_types",
        "_row_class", "_rows", "_train", "_sync",
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
        tc = np.asarray(train_time, dtype=float)
        ts = np.asarray(sync_time, dtype=float)
        if tc.shape != ts.shape:
            raise ConfigurationError(
                "train_time and sync_time shapes differ: "
                f"{tc.shape} vs {ts.shape}"
            )
        if tc.ndim != 2 or tc.shape[0] != n_jobs:
            raise ConfigurationError(
                f"train_time must be ({n_jobs}, M), got {tc.shape}"
            )
        if tc.shape[1] < 1:
            raise InfeasibleProblemError("a problem instance needs >= 1 GPU")
        gpu_type, first = _factor_columns(tc, ts)
        self._set_times(gpu_type, tc[:, first], ts[:, first])
        self._set_jobs(jobs, gpu_labels)

    @classmethod
    def from_types(
        cls,
        jobs: Sequence[Job],
        gpu_type: np.ndarray,
        train_by_type: np.ndarray,
        sync_by_type: np.ndarray,
        gpu_labels: Sequence[str] = (),
    ) -> ProblemInstance:
        """The instance with GPU types *gpu_type* (numbered in order of
        first appearance) and the jobs × types tables."""
        jobs = tuple(jobs)
        gpu_type = np.array(gpu_type, dtype=np.int64)
        tc = np.array(train_by_type, dtype=float)
        ts = np.array(sync_by_type, dtype=float)
        if not len(gpu_type):
            raise InfeasibleProblemError("a problem instance needs >= 1 GPU")
        kinds, first = np.unique(gpu_type, return_index=True)
        k = len(kinds)
        if not (
            tc.shape == ts.shape == (len(jobs), k)
            and np.array_equal(kinds, np.arange(k))
            and (np.diff(first) > 0).all()
        ):
            raise ConfigurationError(
                f"time tables {tc.shape}/{ts.shape} do not fit "
                f"{len(jobs)} jobs on GPU types numbered by first "
                f"appearance"
            )
        inst = object.__new__(cls)
        inst._set_times(gpu_type, tc, ts)
        inst._set_jobs(jobs, gpu_labels)
        return inst

    def _set_times(
        self, gpu_type: np.ndarray, tc: np.ndarray, ts: np.ndarray,
        *, check: bool = True,
    ) -> None:
        """Install the type tables read-only, after checking (unless a
        :meth:`subset` copies checked ones) that every time is finite,
        ``T^c > 0`` and ``T^s >= 0``; the first offending (job, GPU) in
        row-major order is named."""
        # min/max reduce without a temporary array, and NaN propagates
        # through both, so it fails these comparisons as ±inf does.
        if check and tc.size and not (
            tc.min() > 0 and tc.max() < np.inf
            and ts.min() >= 0 and ts.max() < np.inf
        ):
            for name, table, ok, rule in (
                ("train_time", tc, tc > 0, "> 0"),
                ("sync_time", ts, ts >= 0, ">= 0"),
            ):
                bad = ~(ok & (table < np.inf))
                if bad.any():
                    # Types number in first-appearance order, so a row's
                    # first bad type holds its first bad GPU.
                    n, k = np.argwhere(bad)[0]
                    m = int((gpu_type == k).argmax())
                    raise ConfigurationError(
                        f"{name}[job {n}, GPU {m}] = {table[n, k]}: task "
                        f"times must be finite and {rule}"
                    )
        tc, ts = np.ascontiguousarray(tc), np.ascontiguousarray(ts)
        for col in (gpu_type, tc, ts):
            col.flags.writeable = False
        self.gpu_type, self.train_by_type, self.sync_by_type = gpu_type, tc, ts
        self._types = self._train = self._sync = self._row_class = None
        self._rows: dict[int, np.ndarray] = {}

    def _set_jobs(
        self, jobs: tuple[Job, ...], gpu_labels: Sequence[str]
    ) -> None:
        n_jobs = len(jobs)
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
        times, boosted weights and remaining rounds). The types the GPUs
        keep are renumbered in their order of first appearance, and the
        rest are dropped. No :class:`Job` is built. On all of the GPUs
        the sub-instance shares this one's expanded ``T^c`` rows
        (:meth:`train_row`).
        """
        rows = np.asarray(rows, dtype=np.int64)
        sub = object.__new__(ProblemInstance)
        tc, ts = self.train_by_type[rows], self.sync_by_type[rows]
        if gpus is None:
            gpu_type = self.gpu_type
            sub.gpu_labels = list(self.gpu_labels)
        else:
            gpus = np.asarray(gpus, dtype=np.int64)
            kept: dict[int, int] = {}  # old type -> new, first appearance
            gpu_type = np.array(
                [kept.setdefault(k, len(kept))
                 for k in self.gpu_type[gpus].tolist()],
                dtype=np.int64,
            )
            kept_types = list(kept)
            tc = np.take(tc, kept_types, axis=1)
            ts = np.take(ts, kept_types, axis=1)
            sub.gpu_labels = [self.gpu_labels[m] for m in gpus.tolist()]
        if not len(gpu_type):
            raise InfeasibleProblemError("a problem instance needs >= 1 GPU")
        sub._set_times(gpu_type, tc, ts, check=False)
        if not self._type_per_gpu():  # this instance's labels still hold
            sub._row_class = self.row_class()[rows]
            if gpus is None:  # and so do its expanded rows
                sub._rows = self._rows
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
        return len(self.gpu_type)

    @property
    def num_tasks(self) -> int:
        """Total task count ``|D|`` across all jobs and rounds."""
        return int(self.task_offset[-1])

    # ------------------------------------------------------------------
    # Time lookups (the only way schedulers should read T^c / T^s)
    # ------------------------------------------------------------------
    @property
    def train_time(self) -> GpuView:
        """``T^c`` as the read-only ``(|N|, |M|)`` matrix: a
        :class:`GpuView` of :attr:`train_by_type`, expanded only for
        readers that need the matrix itself."""
        if self._train is None:
            self._train = GpuView(self.train_by_type, self.gpu_type)
        return self._train

    @property
    def sync_time(self) -> GpuView:
        """``T^s`` as the read-only ``(|N|, |M|)`` matrix (see
        :attr:`train_time`)."""
        if self._sync is None:
            self._sync = GpuView(self.sync_by_type, self.gpu_type)
        return self._sync

    def tc(self, job_id: int, gpu: int) -> float:
        """Training time ``T^c_{i,m}`` of any task of *job_id* on *gpu*."""
        return self.train_by_type.item(job_id, self._type_list()[gpu])

    def ts(self, job_id: int, gpu: int) -> float:
        """Synchronization time ``T^s_{i,m}``."""
        return self.sync_by_type.item(job_id, self._type_list()[gpu])

    def task_time(self, job_id: int, gpu: int) -> float:
        """``T^c + T^s`` — the span a task contributes to its round."""
        return self.tc(job_id, gpu) + self.ts(job_id, gpu)

    def times(self, job, gpu) -> tuple[np.ndarray, np.ndarray]:
        """``T^c`` and ``T^s`` gathered at ``(job, gpu)`` (numpy index
        arrays or ints, broadcast together)."""
        k = self.gpu_type[gpu]
        return self.train_by_type[job, k], self.sync_by_type[job, k]

    def _type_list(self) -> list[int]:
        if self._types is None:
            self._types = self.gpu_type.tolist()
        return self._types

    def row_class(self) -> np.ndarray:
        """A label per job; jobs with the same label have the same rows
        in :attr:`train_by_type` and :attr:`sync_by_type`. A
        :meth:`subset` keeps the labels of the instance it slices."""
        if self._row_class is None:
            both = np.concatenate(
                (self.train_by_type, self.sync_by_type), axis=1
            )
            key = both.view(np.dtype((np.void, both.itemsize * both.shape[1])))
            self._row_class = np.unique(key.ravel(), return_inverse=True)[1]
        return self._row_class

    def _type_per_gpu(self) -> bool:
        """Whether every GPU is its own type: the tables are then the
        jobs × GPUs matrices (first-appearance numbering makes
        :attr:`gpu_type` ``0..M-1``)."""
        return self.train_by_type.shape[1] == len(self.gpu_type)

    def train_row(self, job_id: int) -> np.ndarray:
        """``T^c`` of *job_id* over the GPUs, read-only: expanded once
        per distinct per-type row (:meth:`row_class`) and kept, in a
        table that every :meth:`subset` on all of the GPUs shares."""
        if self._type_per_gpu():
            return self.train_by_type[job_id]
        label = self.row_class().item(job_id)
        row = self._rows.get(label)
        if row is None:
            row = np.take(self.train_by_type[job_id], self.gpu_type)
            row.flags.writeable = False
            self._rows[label] = row
        return row

    def mean_task_time(self, *, harmonic: bool = False) -> np.ndarray:
        """Per job, the mean of ``T^c + T^s`` over the GPUs (with
        *harmonic*, ``M`` over the sum of its inverses).

        The bytes are those of reducing the C-ordered jobs × GPUs matrix
        along its rows (:func:`row_reduce`), each distinct per-type row
        (:meth:`row_class`) once on an instance of more than one block.
        """
        tc, ts = self.train_by_type, self.sync_by_type
        if self._type_per_gpu() or tc.shape[0] * self.num_gpus <= _BLOCK:
            per_type, inv = tc + ts, None  # one block: nothing to share
        else:
            _, first, inv = np.unique(
                self.row_class(), return_index=True, return_inverse=True
            )
            per_type = tc[first] + ts[first]
        if harmonic:
            out = self.num_gpus / row_reduce(
                1.0 / per_type, self.gpu_type, "sum"
            )
        else:
            out = row_reduce(per_type, self.gpu_type, "mean")
        return out if inv is None else out[inv]

    def best_round_time(self, job_id: int) -> float:
        """Fastest profiled single-round time ``min_m (T^c + T^s)`` of
        *job_id*: the one definition of ``best``. It is the ``best`` arg
        of every ``kernel.round`` instant
        (:func:`repro.kernel.runner.emit_rounds`) and of every round
        :func:`repro.obs.attrib.attribute_schedule` builds; attribution
        uses it to split a round's span into compute and heterogeneity
        penalty."""
        return float(
            (self.train_by_type[job_id] + self.sync_by_type[job_id]).min()
        )

    def fastest_gpu(self, job_id: int) -> int:
        """GPU index minimizing ``T^c + T^s`` for the job (the lowest on
        a tie: the fastest types' first GPU)."""
        k = np.argmin(self.train_by_type[job_id] + self.sync_by_type[job_id])
        return int((self.gpu_type == k).argmax())

    def all_tasks(self) -> Iterator[TaskRef]:
        """Every task of every job, jobs in id order."""
        return map(TaskRef, *(col.tolist() for col in self.task_columns()))

    def task_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Job, round and slot of every task as read-only int64 arrays,
        in :meth:`all_tasks` order — entry ``k`` names canonical task
        ``k`` (:attr:`repro.core.schedule.Schedule.canon`).
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
        tc, ts = self.train_by_type, self.sync_by_type
        tc_ratio = tc.max(axis=1) / tc.min(axis=1)
        smax = ts.max(axis=1)
        smin = ts.min(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ts_ratio = np.where(smin > 0, smax / np.maximum(smin, 1e-300), 1.0)
        ts_ratio = np.where(smax == 0, 1.0, ts_ratio)
        return float(max(tc_ratio.max(), ts_ratio.max()))


def _factor_columns(
    tc: np.ndarray, ts: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Each GPU's type and each type's first GPU: one type per distinct
    (``T^c``, ``T^s``) column pair, compared by bytes, numbered in order
    of first appearance."""
    pairs = np.ascontiguousarray(np.concatenate((tc, ts)).T)
    types: dict[bytes, int] = {}
    first: list[int] = []
    gpu_type = np.empty(len(pairs), dtype=np.int64)
    for m, col in enumerate(pairs):
        k = types.setdefault(col.tobytes(), len(types))
        if k == len(first):
            first.append(m)
        gpu_type[m] = k
    return gpu_type, first
