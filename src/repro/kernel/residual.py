"""Residual-problem construction and the kernel's re-plan path.

Re-planning policies (online Hare, a fixed plan after a GPU crash)
repeat one move: freeze the committed prefix, build the **residual
problem** — the remaining rounds of the known jobs, optionally
restricted to the surviving GPUs — and solve it.
:func:`build_residual_instance` is that construction (it used to live in
``repro.schedulers.online``, forcing the control plane to import from a
sibling scheduler module — the layering inversion this module fixes).
:func:`build_residual`, :func:`solve_relaxation` and :func:`replan` are
the policies' timed entry points: build/solve latency histograms, spans
and the ``kernel.replans`` counter land in the ambient
:class:`repro.obs.Obs` registry.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.job import Job, ProblemInstance
from ..core.schedule import Schedule
from ..obs import Category, current as obs_current

#: Trace track carrying kernel-level spans and instants.
KERNEL_TRACK = "kernel"


def build_residual_instance(
    instance: ProblemInstance,
    jobs: list[Job],
    rounds_done: Sequence[int],
    ready_at: Sequence[float],
    *,
    gpu_subset: list[int] | None = None,
    weight_boost: dict[int, float] | None = None,
) -> tuple[ProblemInstance | None, list[tuple[int, int]]]:
    """The residual problem: remaining rounds of *jobs*, optionally on a
    GPU subset.

    Each job with rounds left becomes a locally re-indexed job whose
    arrival is when its next round may start (its last committed barrier,
    or its recovery-readiness time after a checkpoint restore; both
    inputs are indexed by job id). Returns the
    residual instance (``None`` if nothing remains) and the local → global
    map ``[(global_job_id, round_offset), ...]``.

    ``gpu_subset`` restricts the time matrices to the given (global) GPU
    columns — the fault-recovery path passes the surviving GPUs here, the
    online scheduler keeps the full cluster. ``weight_boost`` multiplies
    per-job weights in the residual objective (the remediation engine's
    ``boost_weight`` hook); the base instance is never mutated.
    """
    residual_jobs: list[Job] = []
    id_map: list[tuple[int, int]] = []
    boost = weight_boost or {}
    for job in jobs:
        done = int(rounds_done[job.job_id])
        remaining = job.num_rounds - done
        if remaining <= 0:
            continue
        local_id = len(residual_jobs)
        residual_jobs.append(
            Job(
                job_id=local_id,
                model=job.model,
                arrival=max(float(ready_at[job.job_id]), job.arrival),
                weight=job.weight * boost.get(job.job_id, 1.0),
                num_rounds=remaining,
                sync_scale=job.sync_scale,
                batch_scale=job.batch_scale,
            )
        )
        id_map.append((job.job_id, done))
    if not residual_jobs:
        return None, []
    globals_ = [g for g, _ in id_map]
    if gpu_subset is None:
        train = instance.train_time[globals_]
        sync = instance.sync_time[globals_]
        labels = list(instance.gpu_labels)
    else:
        cols = np.ix_(globals_, gpu_subset)
        train = instance.train_time[cols]
        sync = instance.sync_time[cols]
        labels = [instance.gpu_labels[m] for m in gpu_subset]
    return (
        ProblemInstance(
            jobs=residual_jobs,
            train_time=train,
            sync_time=sync,
            gpu_labels=labels,
        ),
        id_map,
    )


def to_global(
    job: np.ndarray,
    rnd: np.ndarray,
    gpu: np.ndarray,
    id_map: list[tuple[int, int]],
    gpu_subset: list[int] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual-frame ``(job, rnd, gpu)`` columns in the base instance's
    frame (the inverse of :func:`build_residual_instance`'s renumbering);
    slots and times carry over unchanged."""
    base = np.array(id_map, dtype=np.int64).reshape(-1, 2)
    if gpu_subset is not None:
        gpu = np.asarray(gpu_subset, dtype=np.int64)[gpu]
    return base[job, 0], base[job, 1] + rnd, gpu


def build_residual(
    instance: ProblemInstance,
    jobs: list[Job],
    rounds_done: Sequence[int],
    ready_at: Sequence[float],
    *,
    gpu_subset: list[int] | None = None,
    weight_boost: dict[int, float] | None = None,
) -> tuple[ProblemInstance | None, list[tuple[int, int]]]:
    """:func:`build_residual_instance`, timed into the
    ``kernel.residual_build_s`` histogram."""
    obs = obs_current()
    with obs.tracer.timed(
        Category.SCHED,
        "residual_build",
        track=KERNEL_TRACK,
        jobs=len(jobs),
        hist=obs.metrics.histogram("kernel.residual_build_s"),
    ):
        return build_residual_instance(
            instance, jobs, rounds_done, ready_at,
            gpu_subset=gpu_subset, weight_boost=weight_boost,
        )


def solve_relaxation(solver, residual: ProblemInstance):
    """``solver.solve(residual)``, timed into ``kernel.residual_solve_s``."""
    obs = obs_current()
    with obs.tracer.timed(
        Category.SCHED,
        "residual_solve",
        track=KERNEL_TRACK,
        solver=type(solver).__name__,
        tasks=residual.num_tasks,
        hist=obs.metrics.histogram("kernel.residual_solve_s"),
    ):
        return solver.solve(residual)


def replan(scheduler, residual: ProblemInstance) -> Schedule:
    """Full-scheduler re-plan of a residual (a fixed plan's crash
    recovery, :class:`~repro.kernel.policies.PlannedPolicy`).

    *scheduler* is anything with ``plan(instance) -> Schedule`` (a
    :class:`~repro.schedulers.base.Scheduler`, whose ``plan`` answers
    through ``schedule`` for offline schemes). Counted in
    ``kernel.replans``; latency observed into ``kernel.residual_solve_s``
    like the policy-side solves, so one histogram carries the whole
    re-plan latency story.
    """
    obs = obs_current()
    with obs.tracer.timed(
        Category.SCHED,
        "residual_replan",
        track=KERNEL_TRACK,
        tasks=residual.num_tasks,
        hist=obs.metrics.histogram("kernel.residual_solve_s"),
    ):
        plan = scheduler.plan(residual)
    obs.metrics.counter("kernel.replans").inc()
    return plan
