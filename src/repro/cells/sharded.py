"""The sharded kernel: one logical scheduler over many cells.

:class:`ShardedKernel` is the bottom of the hierarchy (DESIGN.md §16):
admission (:mod:`repro.cells.admission`) has already placed every job
onto exactly one cell, so the per-cell
:class:`~repro.kernel.runner.SchedulingKernel` runs share **no** state
— no job, no GPU, no φ entry. Their event queues therefore commute:
interleaving them on one global clock or running them to completion
one-by-one produces the same merged commit log. That is the "single
logical event clock" argument — the merge below is a pure re-indexing,
not a semantic synchronization: each cell result's schedule columns
(:attr:`KernelResult.schedule`) are remapped to global job and GPU ids
and concatenated in cell order, so a cell's schedule is never
materialized.

The merged result is a :class:`ShardedKernelResult`: a plain
:class:`~repro.kernel.runner.KernelResult` (schedule over the *global*
instance, backed by the merged columns until its objects are read, summed
event/commitment/replan/retraction stats, the cells' retractions on
global ids and their re-plan instants in time order, metrics computed
from the merged columns) plus the admission plan and
per-cell statistics. The merged schedule passes the same constraint
check as a flat run (:func:`repro.core.schedule.validate_schedule`).

The flat path is pinned: ``cells=1`` delegates to
:func:`repro.kernel.runner.run_policy` unchanged, byte-identical for
every registered scheduler.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.errors import ConfigurationError, GangDoesNotFitError
from ..core.job import ProblemInstance
from ..core.metrics import metrics_from_schedule
from ..core.schedule import Schedule, schedule_from_rows
from ..kernel.runner import (
    KernelResult,
    emit_replan,
    emit_retract,
    emit_rounds,
    run_policy,
)
from ..kernel.state import Retraction
from ..obs import Category, DISABLED, current as obs_current, use
from .admission import AdmissionPlan, GlobalAdmission
from .partition import Cell, CellPartition, CellPartitioner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster
    from ..schedulers.base import Scheduler

#: Track name for cell-layer instants (admission decisions).
CELLS_TRACK = "cells"


@dataclass(slots=True, kw_only=True, eq=False, repr=False)
class ShardedKernelResult(KernelResult):
    """A merged :class:`KernelResult` plus the cell-layer evidence."""

    partition: CellPartition
    admission_plan: AdmissionPlan
    cell_stats: tuple[dict, ...]

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

    One :meth:`ProblemInstance.subset`: jobs are re-identified dense
    (local id = position in *job_ids*), GPU columns follow
    ``cell.gpu_ids`` ascending, and the **parent** labels are kept so
    GPU identity stays stable across the partition (the same convention
    as :func:`repro.kernel.residual.build_residual_instance`).
    """
    return instance.subset(job_ids, cell.gpu_ids)


def _split_crashes(
    crashes: Sequence[tuple[float, int]], partition: CellPartition
) -> list[list[tuple[float, int]]]:
    """Map global ``(time, gpu)`` crashes to their owning cell, local ids."""
    per: list[list[tuple[float, int]]] = [[] for _ in partition.cells]
    for time, gpu in crashes:
        c = partition.cell_of(gpu)
        per[c].append((time, partition.cells[c].gpu_ids.index(gpu)))
    return per


class ShardedKernel:
    """Run one per-cell kernel per cell and merge the results.

    Construction wires the full hierarchy: ``partition`` (from a
    :class:`CellPartitioner`), admission (a :class:`GlobalAdmission`
    policy name or instance), and the per-cell scheduler — each cell
    gets its own policy via ``scheduler.make_policy(sub_instance)``, so
    any registered scheduler works unchanged. Cells run one after
    another.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        scheduler: "Scheduler",
        *,
        partition: CellPartition,
        admission: str | GlobalAdmission = "throughput",
        crashes: Sequence[tuple[float, int]] | None = None,
        replan_interval: float | None = None,
        max_events: int | None = None,
    ) -> None:
        if partition.num_gpus != instance.num_gpus:
            raise ConfigurationError(
                f"partition covers {partition.num_gpus} GPUs but the "
                f"instance has {instance.num_gpus}"
            )
        self.instance = instance
        self.scheduler = scheduler
        self.partition = partition
        self.admission = (
            admission
            if isinstance(admission, GlobalAdmission)
            else GlobalAdmission(policy=admission)
        )
        self.crashes = list(crashes or [])
        self.replan_interval = replan_interval
        self.max_events = max_events

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
                time=float(instance.arrival[d.job_id]),
                job=d.job_id,
                cell=d.cell,
                work_s=d.work_s,
            )
        cell_crashes = _split_crashes(self.crashes, partition)

        parts: list[tuple[np.ndarray, ...]] = []
        lost: list[Retraction] = []
        replan_times: list[float] = []
        events = commitments = replans = retracted = 0
        stats: list[dict] = []
        for cell in partition.cells:
            job_ids = plan.jobs_in(cell.index)
            if not job_ids:
                continue
            sub = cell_instance(instance, job_ids, cell)
            start = _time.perf_counter()
            # DISABLED keeps the cell's local-frame instants and metrics
            # out of the merged stream; its rounds and retractions are
            # emitted below, on the global frame.
            try:
                with use(DISABLED):
                    result = run_policy(
                        sub,
                        self.scheduler.make_policy(sub),
                        crashes=cell_crashes[cell.index] or None,
                        replan_interval=self.replan_interval,
                        max_events=self.max_events,
                    )
            except GangDoesNotFitError as exc:
                raise GangDoesNotFitError(
                    job_ids[exc.job_id], exc.scale, exc.alive,
                    cell=cell.index,
                ) from None
            wall = _time.perf_counter() - start
            # Re-index the cell's columns to global job and GPU ids.
            c = result.schedule
            parts.append((
                np.asarray(job_ids, dtype=np.int64)[c.job], c.rnd, c.slot,
                np.asarray(cell.gpu_ids, dtype=np.int64)[c.gpu],
                c.start, c.train, c.sync,
            ))
            for x in result.retractions:
                lost.append(replace(
                    x, job=job_ids[x.job], gpu=cell.gpu_ids[x.gpu]
                ))
            replan_times.extend(t for t, _ in result.replan_instants)
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
            Schedule(
                instance, *(np.concatenate(col) for col in zip(*parts))
            )
            if parts
            else schedule_from_rows(instance, [])
        )
        # Cells share no state: ordering by time (stable, so each cell
        # keeps its own order) is one global order; re-plan passes are
        # renumbered across the merge.
        lost.sort(key=lambda x: x.time)
        replan_instants = tuple(
            (t, i) for i, t in enumerate(sorted(replan_times), 1)
        )
        if obs.tracer.enabled:
            for x in lost:
                emit_retract(x)
            for t, i in replan_instants:
                emit_replan(t, i)
            emit_rounds(merged)

        return ShardedKernelResult(
            partition=partition,
            admission_plan=plan,
            cell_stats=tuple(stats),
            schedule=merged,
            metrics=metrics_from_schedule(merged),
            events=events,
            commitments=commitments,
            replans=replans,
            retracted_rounds=retracted,
            retractions=tuple(lost),
            replan_instants=replan_instants,
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
    replan_interval: float | None = None,
    max_events: int | None = None,
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
            replan_interval=replan_interval,
            max_events=max_events,
        )
    return ShardedKernel(
        instance,
        sched,
        partition=partition,
        admission=admission,
        crashes=crashes,
        replan_interval=replan_interval,
        max_events=max_events,
    ).run()
