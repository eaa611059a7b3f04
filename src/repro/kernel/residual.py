"""Residual-problem construction and the kernel's re-plan path.

Re-planning policies (online Hare, a fixed plan after a GPU crash)
repeat one move: freeze the committed prefix, build the **residual
problem** — the remaining rounds of the known jobs, optionally
restricted to the surviving GPUs — and solve it.
:func:`build_residual_instance` is that construction: one
:meth:`~repro.core.job.ProblemInstance.subset` of the base instance's
job table and T^c/T^s rows, with no :class:`~repro.core.job.Job` built
(it used to live in ``repro.schedulers.online``, forcing the control
plane to import from a sibling scheduler module — the layering
inversion this module fixes).
:func:`build_residual`, :func:`solve_relaxation`,
:func:`start_relaxation` and :func:`replan` are the policies' timed
entry points: build/solve latency histograms, spans and the
``kernel.replans`` counter land in the ambient :class:`repro.obs.Obs`
registry.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.job import ProblemInstance
from ..core.schedule import Schedule
from ..obs import Category, current as obs_current

#: Trace track carrying kernel-level spans and instants.
KERNEL_TRACK = "kernel"


def build_residual_instance(
    instance: ProblemInstance,
    job_ids: Sequence[int],
    rounds_done: Sequence[int],
    ready_at: Sequence[float],
    *,
    gpu_subset: list[int] | None = None,
    weight_boost: dict[int, float] | None = None,
) -> tuple[ProblemInstance | None, list[tuple[int, int]]]:
    """The residual problem: remaining rounds of *job_ids*, optionally on
    a GPU subset.

    Each job with rounds left becomes a locally re-indexed job (in
    *job_ids* order) whose arrival is when its next round may start (its
    last committed barrier, or its recovery-readiness time after a
    checkpoint restore; both inputs are indexed by job id). The residual
    is one :meth:`ProblemInstance.subset` of the base instance. Returns
    it (``None`` if nothing remains) and the local → global map
    ``[(global_job_id, round_offset), ...]``.

    ``gpu_subset`` restricts the time matrices to the given (global) GPU
    columns — the fault-recovery path passes the surviving GPUs here, the
    online scheduler keeps the full cluster. ``weight_boost`` multiplies
    per-job weights in the residual objective (the remediation engine's
    ``boost_weight`` hook); the base instance is never mutated.
    """
    ids = np.fromiter(job_ids, dtype=np.int64)
    done = np.asarray(rounds_done, dtype=np.int64)[ids]
    remaining = instance.num_rounds[ids] - done
    left = remaining > 0
    ids, done, remaining = ids[left], done[left], remaining[left]
    if not ids.size:
        return None, []
    boost = (weight_boost or {}).get
    residual = instance.subset(
        ids, gpu_subset,
        arrival=np.maximum(
            np.asarray(ready_at, dtype=np.float64)[ids], instance.arrival[ids]
        ),
        weight=instance.weight[ids] * [boost(g, 1.0) for g in ids.tolist()],
        num_rounds=remaining,
    )
    return residual, list(zip(ids.tolist(), done.tolist()))


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
    job_ids: Sequence[int],
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
        jobs=len(job_ids),
        hist=obs.metrics.histogram("kernel.residual_build_s"),
    ):
        return build_residual_instance(
            instance, job_ids, rounds_done, ready_at,
            gpu_subset=gpu_subset, weight_boost=weight_boost,
        )


def _solve_span(solver, residual: ProblemInstance):
    """The ``residual_solve`` span, timed into ``kernel.residual_solve_s``."""
    obs = obs_current()
    return obs.tracer.timed(
        Category.SCHED,
        "residual_solve",
        track=KERNEL_TRACK,
        solver=type(solver).__name__,
        tasks=residual.num_tasks,
        hist=obs.metrics.histogram("kernel.residual_solve_s"),
    )


def solve_relaxation(solver, residual: ProblemInstance):
    """``solver.solve(residual)``, timed into ``kernel.residual_solve_s``."""
    with _solve_span(solver, residual):
        return solver.solve(residual)


def start_relaxation(solver, residual: ProblemInstance):
    """``solver.stepper(residual)``: a fluid relaxation at its start,
    timed like :func:`solve_relaxation`. Its events run later, while the
    list schedule reads π, so the span covers only the set-up."""
    with _solve_span(solver, residual):
        return solver.stepper(residual)


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
