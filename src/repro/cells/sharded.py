"""The sharded kernel: one logical scheduler over many cells.

:class:`ShardedKernel` is the bottom of the hierarchy (DESIGN.md §16):
admission (:mod:`repro.cells.admission`) has already placed every job
onto exactly one cell, so the per-cell
:class:`~repro.kernel.runner.SchedulingKernel` runs share **no** state
— no job, no GPU, no φ entry. Their event queues therefore commute:
interleaving them on one global clock or running them to completion
one-by-one (or in parallel worker processes) produces the same merged
commit log. That is the "single logical event clock" argument — the
merge below is a pure re-indexing, not a semantic synchronization: each
cell result's column view (:meth:`KernelResult.columns`) is remapped to
global job and GPU ids and concatenated in cell order, so a cell's
schedule is never materialized.

The merged result is a :class:`ShardedKernelResult`: a plain
:class:`~repro.kernel.runner.KernelResult` (schedule over the *global*
instance, materialized from the merged columns on first access, summed
event/commitment/replan/retraction stats, metrics computed from the
merged columns) plus the admission plan and
per-cell statistics. The merged schedule passes the same streaming
monitors as a flat run (:func:`repro.obs.monitors.diagnose_schedule`).

The flat path is pinned: ``cells=1`` delegates to
:func:`repro.kernel.runner.run_policy` unchanged, byte-identical for
every registered scheduler.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.job import ProblemInstance
from ..core.metrics import metrics_from_columns
from ..core.schedule import Schedule, ScheduleColumns
from ..kernel.residual import KERNEL_TRACK, planner_scope
from ..kernel.runner import KernelResult, best_round_time, run_policy
from ..obs import Category, DISABLED, current as obs_current, use
from .admission import AdmissionPlan, GlobalAdmission
from .partition import Cell, CellPartition, CellPartitioner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster
    from ..schedulers.base import Scheduler

#: Track name for cell-layer instants (admission decisions).
CELLS_TRACK = "cells"


class ShardedKernelResult(KernelResult):
    """A merged :class:`KernelResult` plus the cell-layer evidence."""

    __slots__ = ("partition", "admission_plan", "cell_stats")

    def __init__(
        self,
        *,
        partition: CellPartition,
        admission_plan: AdmissionPlan,
        cell_stats: tuple[dict, ...],
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.partition = partition
        self.admission_plan = admission_plan
        self.cell_stats = cell_stats

    def __getstate__(self):
        state = super().__getstate__()
        state["partition"] = self.partition
        state["admission_plan"] = self.admission_plan
        state["cell_stats"] = self.cell_stats
        return state

    def __setstate__(self, state) -> None:
        self.partition = state.pop("partition")
        self.admission_plan = state.pop("admission_plan")
        self.cell_stats = state.pop("cell_stats")
        super().__setstate__(state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedKernelResult(cells={self.partition.num_cells}, "
            f"events={self.events}, commitments={self.commitments}, "
            f"replans={self.replans})"
        )


def cell_instance(
    instance: ProblemInstance, job_ids: Sequence[int], cell: Cell
) -> ProblemInstance:
    """The cell-local sub-instance: *job_ids* rows × the cell's columns.

    Jobs are re-identified dense (local id = position in ascending
    *job_ids*); GPU columns follow ``cell.gpu_ids`` ascending, and the
    **parent** labels are kept so GPU identity stays stable across the
    partition (the same convention as
    :func:`repro.kernel.residual.build_residual_instance`).
    """
    rows = np.asarray(job_ids, dtype=int)
    cols = np.asarray(cell.gpu_ids, dtype=int)
    jobs = tuple(
        replace(instance.jobs[g], job_id=i)
        for i, g in enumerate(job_ids)
    )
    return ProblemInstance(
        jobs=jobs,
        train_time=instance.train_time[np.ix_(rows, cols)],
        sync_time=instance.sync_time[np.ix_(rows, cols)],
        gpu_labels=[instance.gpu_labels[m] for m in cell.gpu_ids],
    )


def _split_faults(
    faults: Sequence[tuple[float, int]] | None, partition: CellPartition
) -> list[list[tuple[float, int]]]:
    """Map global ``(time, gpu)`` faults to their owning cell, local ids."""
    per: list[list[tuple[float, int]]] = [[] for _ in partition.cells]
    for time, gpu in faults or []:
        c = partition.cell_of(gpu)
        per[c].append((time, partition.cells[c].gpu_ids.index(gpu)))
    return per


def _run_cell_worker(payload):
    """One cell's kernel run (module-level so worker processes can pickle).

    Runs under a fresh :func:`planner_scope` and the DISABLED obs
    context — exactly what a spawned worker process would see — so
    serial and parallel execution are bit-identical
    (``repro.sweep``'s process-sharding discipline).
    """
    (
        sub,
        scheduler,
        crashes,
        restores,
        replan_interval,
        max_events,
    ) = payload
    start = _time.perf_counter()
    with planner_scope(), use(DISABLED):
        result = run_policy(
            sub,
            scheduler.make_policy(sub),
            crashes=crashes or None,
            restores=restores or None,
            replan_interval=replan_interval,
            max_events=max_events,
        )
    wall = _time.perf_counter() - start
    return result, wall


class ShardedKernel:
    """Run one per-cell kernel per cell and merge the results.

    Construction wires the full hierarchy: ``partition`` (from a
    :class:`CellPartitioner`), admission (a :class:`GlobalAdmission`
    policy name or instance), and the per-cell scheduler — each cell
    gets its own policy via ``scheduler.make_policy(sub_instance)``, so
    any registered scheduler works unchanged. ``workers > 1`` fans the
    cells out over processes (results are bit-identical to serial).
    """

    def __init__(
        self,
        instance: ProblemInstance,
        scheduler: "Scheduler",
        *,
        partition: CellPartition,
        admission: str | GlobalAdmission = "throughput",
        crashes: Sequence[tuple[float, int]] | None = None,
        restores: Sequence[tuple[float, int]] | None = None,
        replan_interval: float | None = None,
        max_events: int | None = None,
        workers: int = 1,
    ) -> None:
        if partition.num_gpus != instance.num_gpus:
            raise ConfigurationError(
                f"partition covers {partition.num_gpus} GPUs but the "
                f"instance has {instance.num_gpus}"
            )
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.instance = instance
        self.scheduler = scheduler
        self.partition = partition
        self.admission = (
            admission
            if isinstance(admission, GlobalAdmission)
            else GlobalAdmission(policy=admission)
        )
        self.crashes = list(crashes or [])
        self.restores = list(restores or [])
        self.replan_interval = replan_interval
        self.max_events = max_events
        self.workers = workers

    # ------------------------------------------------------------------
    def run(self) -> ShardedKernelResult:
        obs = obs_current()
        instance, partition = self.instance, self.partition
        plan = self.admission.admit(instance, partition)
        obs.tracer.instant(
            Category.SCHED,
            "cells.partition",
            track=CELLS_TRACK,
            time=0.0,
            cells=partition.num_cells,
            sizes=list(partition.sizes()),
            strategy=partition.strategy,
        )
        for d in plan.decisions:
            obs.tracer.instant(
                Category.SCHED,
                "cells.admit",
                track=CELLS_TRACK,
                time=instance.jobs[d.job_id].arrival,
                job=d.job_id,
                cell=d.cell,
                work_s=d.work_s,
            )
        cell_crashes = _split_faults(self.crashes, partition)
        cell_restores = _split_faults(self.restores, partition)

        payloads: list[tuple] = []
        members: list[tuple[Cell, list[int]]] = []
        for cell in partition.cells:
            job_ids = plan.jobs_in(cell.index)
            if not job_ids:
                continue
            sub = cell_instance(instance, job_ids, cell)
            members.append((cell, job_ids))
            payloads.append(
                (
                    sub,
                    self.scheduler,
                    cell_crashes[cell.index],
                    cell_restores[cell.index],
                    self.replan_interval,
                    self.max_events,
                )
            )

        if self.workers > 1 and len(payloads) > 1:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(payloads))
            ) as pool:
                outcomes = list(pool.map(_run_cell_worker, payloads))
        else:
            outcomes = [_run_cell_worker(p) for p in payloads]

        parts: list[tuple[np.ndarray, ...]] = []
        events = commitments = replans = retracted = 0
        stats: list[dict] = []
        for (cell, job_ids), (result, wall) in zip(members, outcomes):
            # Re-index the cell's columns to global job and GPU ids.
            c = result.columns()
            parts.append((
                np.asarray(job_ids, dtype=np.int64)[c.job], c.rnd, c.slot,
                np.asarray(cell.gpu_ids, dtype=np.int64)[c.gpu],
                c.start, c.train, c.sync,
            ))
            events += result.events
            commitments += result.commitments
            replans += result.replans
            retracted += result.retracted_rounds
            stats.append(
                {
                    "cell": cell.index,
                    "gpus": cell.num_gpus,
                    "jobs": len(job_ids),
                    "events": result.events,
                    "commitments": result.commitments,
                    "replans": result.replans,
                    "retracted_rounds": result.retracted_rounds,
                    "load_s": plan.loads[cell.index],
                    "wall_s": wall,
                }
            )
            prefix = f"cells.cell{cell.index}"
            obs.metrics.gauge(f"{prefix}.jobs").set(len(job_ids))
            obs.metrics.gauge(f"{prefix}.gpus").set(cell.num_gpus)
            obs.metrics.gauge(f"{prefix}.events").set(result.events)
            obs.metrics.gauge(f"{prefix}.commitments").set(
                result.commitments
            )
            obs.metrics.gauge(f"{prefix}.load_s").set(
                plan.loads[cell.index]
            )
        obs.metrics.gauge("cells.count").set(partition.num_cells)
        obs.metrics.counter("kernel.events").inc(events)
        obs.metrics.counter("kernel.commitments").inc(commitments)

        merged = (
            ScheduleColumns(
                instance, *(np.concatenate(col) for col in zip(*parts))
            )
            if parts
            else Schedule(instance).columns()
        )
        if obs.tracer.enabled:
            self._emit_merged_rounds(obs, merged)

        return ShardedKernelResult(
            partition=partition,
            admission_plan=plan,
            cell_stats=tuple(stats),
            columns=merged,
            metrics=metrics_from_columns(merged),
            events=events,
            commitments=commitments,
            replans=replans,
            retracted_rounds=retracted,
        )

    def _emit_merged_rounds(self, obs, merged: ScheduleColumns) -> None:
        """Merged-clock ``kernel.round`` stream for the attribution engine.

        The per-cell kernels run under the DISABLED context (worker
        discipline), so their commit instants never reach the global
        obs; this replays the merged schedule's rounds onto the logical
        clock — one instant per ``(job, round)``, ordered by round end,
        with **global** GPU ids and ``best`` over the whole cluster's
        profile row, so cell confinement surfaces as heterogeneity
        penalty in the attribution.
        """
        end = merged.end
        # Rows grouped by (job, round), latest end first and ties in
        # insertion order: each group's first row is its critical task,
        # the one the reference loop's strict `>` scan keeps.
        order = np.lexsort(
            (np.arange(len(merged)), -end, merged.rnd, merged.job)
        )
        job, rnd = merged.job[order], merged.rnd[order]
        first = np.flatnonzero(
            np.r_[True, (job[1:] != job[:-1]) | (rnd[1:] != rnd[:-1])]
        )
        crit = order[first]
        round_start = np.minimum.reduceat(merged.start[order], first)
        emit = np.lexsort((merged.rnd[crit], merged.job[crit], end[crit]))
        rows = crit[emit]
        best_cache: dict[int, float] = {}
        for job_id, r, start, end_t, gpu, busy in zip(
            merged.job[rows].tolist(),
            merged.rnd[rows].tolist(),
            round_start[emit].tolist(),
            end[rows].tolist(),
            merged.gpu[rows].tolist(),
            (merged.train[rows] + merged.sync[rows]).tolist(),
        ):
            best = best_cache.get(job_id)
            if best is None:
                best = best_cache[job_id] = best_round_time(
                    self.instance, job_id
                )
            obs.tracer.instant(
                Category.SCHED,
                "kernel.round",
                track=KERNEL_TRACK,
                time=end_t,
                job=job_id,
                round=r,
                start=start,
                end=end_t,
                gpu=gpu,
                busy=busy,
                best=best,
            )


def run_sharded(
    instance: ProblemInstance,
    scheduler: "Scheduler | str",
    *,
    cells: int | None = None,
    strategy: str = "balanced",
    partition: CellPartition | None = None,
    cluster: "Cluster | None" = None,
    admission: str | GlobalAdmission = "throughput",
    crashes: Sequence[tuple[float, int]] | None = None,
    restores: Sequence[tuple[float, int]] | None = None,
    replan_interval: float | None = None,
    max_events: int | None = None,
    workers: int = 1,
) -> KernelResult:
    """Partition, admit, run per-cell kernels, and merge.

    The convenience front door mirroring
    :func:`repro.kernel.runner.run_policy`. Either pass a prebuilt
    *partition*, or a cell count (*cells*) plus *strategy* — with a
    *cluster* the partitioner uses real topology (sub-cluster views,
    failure domains); without one the partition is derived from the
    instance's GPU labels.

    **Pinned flat path**: with one cell (``cells=1`` or a single-cell
    partition) this delegates straight to :func:`run_policy` on the
    unmodified instance — byte-identical stats and assignments for
    every registered scheduler.
    """
    from ..schedulers.registry import create_from_spec

    sched = create_from_spec(scheduler)
    if partition is None:
        if cells is None:
            raise ConfigurationError(
                "run_sharded needs cells=N or an explicit partition"
            )
        partitioner = CellPartitioner(cells=cells, strategy=strategy)
        if cells == 1 and strategy == "balanced":
            partition = None  # flat: no partition needed at all
        elif cluster is not None:
            partition = partitioner.partition(cluster)
        else:
            partition = partitioner.partition_instance(instance)
    if partition is None or partition.num_cells == 1:
        return run_policy(
            instance,
            sched.make_policy(instance),
            crashes=list(crashes) if crashes else None,
            restores=list(restores) if restores else None,
            replan_interval=replan_interval,
            max_events=max_events,
        )
    return ShardedKernel(
        instance,
        sched,
        partition=partition,
        admission=admission,
        crashes=crashes,
        restores=restores,
        replan_interval=replan_interval,
        max_events=max_events,
        workers=workers,
    ).run()
