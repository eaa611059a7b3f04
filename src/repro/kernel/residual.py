"""Residual-problem construction and the kernel's re-plan path.

Re-planning policies (online Hare, a fixed plan after a GPU crash)
repeat one move: freeze the committed prefix, build the **residual
problem** — the remaining rounds of the known jobs, optionally
restricted to the surviving GPUs — and solve it. :func:`build_residual_instance` is that
construction (it used to live in ``repro.schedulers.online``, forcing the
control plane to import from a sibling scheduler module — the layering
inversion this module fixes), and :class:`ResidualPlanner` wraps it with

* a fingerprint cache over residual construction (identical kernel state
  → the same ``ProblemInstance`` object, no numpy re-slicing), and
* a memo over relaxation solves keyed by (solver type, residual
  fingerprint) — the "warm start" of an event-driven re-planner: since
  the solvers are deterministic, replaying a previously seen residual
  reuses the previous :class:`RelaxationResult` exactly, preserving
  semantics while skipping the LP/fluid solve,

plus ``kernel.*`` observability: build/solve latency histograms and
cache-hit counters land in the ambient :class:`repro.obs.Obs` registry.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from ..core.job import Job, ProblemInstance
from ..core.schedule import Schedule, TaskAssignment
from ..core.types import TaskRef
from ..obs import Category, current as obs_current

#: Trace track carrying kernel-level spans and instants.
KERNEL_TRACK = "kernel"

#: Entries kept in each of the planner's two memo tables.
CACHE_SIZE = 128


def build_residual_instance(
    instance: ProblemInstance,
    jobs: list[Job],
    rounds_done: dict[int, int],
    ready_at: dict[int, float],
    *,
    gpu_subset: list[int] | None = None,
    weight_boost: dict[int, float] | None = None,
) -> tuple[ProblemInstance | None, list[tuple[int, int]]]:
    """The residual problem: remaining rounds of *jobs*, optionally on a
    GPU subset.

    Each job with rounds left becomes a locally re-indexed job whose
    arrival is when its next round may start (its last committed barrier,
    or its recovery-readiness time after a checkpoint restore). Returns the
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
        done = rounds_done[job.job_id]
        remaining = job.num_rounds - done
        if remaining <= 0:
            continue
        local_id = len(residual_jobs)
        residual_jobs.append(
            Job(
                job_id=local_id,
                model=job.model,
                arrival=max(ready_at[job.job_id], job.arrival),
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
    a: TaskAssignment,
    id_map: list[tuple[int, int]],
    gpu_subset: list[int] | None,
) -> TaskAssignment:
    """A residual-frame assignment in the base instance's frame (the
    inverse of :func:`build_residual_instance`'s renumbering)."""
    job_id, round_offset = id_map[a.task.job_id]
    return TaskAssignment(
        task=TaskRef(job_id, round_offset + a.task.round_idx, a.task.slot),
        gpu=a.gpu if gpu_subset is None else gpu_subset[a.gpu],
        start=a.start,
        train_time=a.train_time,
        sync_time=a.sync_time,
    )


def _fingerprint(
    jobs: Sequence[Job],
    rounds_done: dict[int, int],
    ready_at: dict[int, float],
    gpu_subset: list[int] | None,
    weight_boost: dict[int, float] | None = None,
) -> tuple:
    return (
        tuple(
            (j.job_id, rounds_done[j.job_id], ready_at[j.job_id])
            for j in jobs
        ),
        None if gpu_subset is None else tuple(gpu_subset),
        None if not weight_boost else tuple(sorted(weight_boost.items())),
    )


class ResidualPlanner:
    """Cached residual construction and memoized re-plan solves.

    One planner serves one base :class:`ProblemInstance` for the length of
    a run (an online-policy run, or a fixed plan's crash re-plans). Both
    memo tables are bounded LRU (:data:`CACHE_SIZE` entries).
    """

    def __init__(self, instance: ProblemInstance) -> None:
        self.instance = instance
        self._residuals: OrderedDict[
            tuple, tuple[ProblemInstance | None, list[tuple[int, int]]]
        ] = OrderedDict()
        self._solves: OrderedDict[tuple, object] = OrderedDict()

    # -- residual construction -----------------------------------------
    def residual(
        self,
        jobs: list[Job],
        rounds_done: dict[int, int],
        ready_at: dict[int, float],
        *,
        gpu_subset: list[int] | None = None,
        weight_boost: dict[int, float] | None = None,
    ) -> tuple[ProblemInstance | None, list[tuple[int, int]]]:
        """Cached :func:`build_residual_instance` over this instance."""
        obs = obs_current()
        key = _fingerprint(
            jobs, rounds_done, ready_at, gpu_subset, weight_boost
        )
        hit = self._residuals.get(key)
        if hit is not None:
            self._residuals.move_to_end(key)
            obs.metrics.counter("kernel.residual_cache_hits").inc()
            return hit
        obs.metrics.counter("kernel.residual_cache_misses").inc()
        with obs.tracer.timed(
            Category.SCHED,
            "residual_build",
            track=KERNEL_TRACK,
            jobs=len(jobs),
            hist=obs.metrics.histogram("kernel.residual_build_s"),
        ):
            built = build_residual_instance(
                self.instance, jobs, rounds_done, ready_at,
                gpu_subset=gpu_subset, weight_boost=weight_boost,
            )
        self._residuals[key] = built
        while len(self._residuals) > CACHE_SIZE:
            self._residuals.popitem(last=False)
        return built

    # -- solving ---------------------------------------------------------
    def solve_relaxation(self, solver, residual: ProblemInstance):
        """Memoized ``solver.solve(residual)``.

        The memo key is (solver type, residual content); the solvers are
        deterministic pure functions of the instance, so a hit returns a
        result identical to a fresh solve. The solve latency (misses only)
        lands in the ``kernel.residual_solve_s`` histogram.
        """
        obs = obs_current()
        key = (
            type(solver).__name__,
            tuple(
                (j.arrival, j.weight, j.num_rounds, j.sync_scale)
                for j in residual.jobs
            ),
            residual.train_time.tobytes(),
            residual.sync_time.tobytes(),
        )
        hit = self._solves.get(key)
        if hit is not None:
            self._solves.move_to_end(key)
            obs.metrics.counter("kernel.solver_cache_hits").inc()
            return hit
        with obs.tracer.timed(
            Category.SCHED,
            "residual_solve",
            track=KERNEL_TRACK,
            solver=type(solver).__name__,
            tasks=residual.num_tasks,
            hist=obs.metrics.histogram("kernel.residual_solve_s"),
        ):
            result = solver.solve(residual)
        self._solves[key] = result
        while len(self._solves) > CACHE_SIZE:
            self._solves.popitem(last=False)
        return result

    # ------------------------------------------------------------------
    def plan(self, scheduler, residual: ProblemInstance) -> Schedule:
        """Full-scheduler re-plan of a residual (a fixed plan's crash
        recovery, :class:`~repro.kernel.policies.PlannedPolicy`).

        *scheduler* is anything with ``plan(instance) -> Schedule`` (a
        :class:`~repro.schedulers.base.Scheduler`, whose ``plan`` answers
        through ``schedule`` for offline schemes). Counted in
        ``kernel.replans``; latency observed into
        ``kernel.residual_solve_s`` like the policy-side solves, so one
        histogram carries the whole re-plan latency story.
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


# ----------------------------------------------------------------------
# Planner sharing (the sweep runner's per-worker memo reuse)
# ----------------------------------------------------------------------
#: Planners kept alive inside one :func:`planner_scope`.
SCOPE_PLANNER_SLOTS = 16

_active_planner_scope: OrderedDict[tuple, ResidualPlanner] | None = None


def instance_fingerprint(instance: ProblemInstance) -> tuple:
    """Content key for a :class:`ProblemInstance` (identity-independent)."""
    return (
        tuple(
            (
                j.job_id, j.model, j.arrival, j.weight,
                j.num_rounds, j.sync_scale, j.batch_scale,
            )
            for j in instance.jobs
        ),
        instance.train_time.tobytes(),
        instance.sync_time.tobytes(),
        tuple(instance.gpu_labels),
    )


@contextmanager
def planner_scope() -> Iterator[None]:
    """Share :class:`ResidualPlanner`\\s across runs inside this scope.

    While active, :func:`planner_for` hands back one planner per distinct
    instance *content*, so back-to-back runs over the same workload — a
    sweep worker grinding through its shard of a (seed, scheduler, scale)
    grid — reuse the residual-fingerprint cache and relaxation-solve memo
    instead of re-deriving them. Outside a scope every run gets a fresh
    planner (cache-hit counters stay per-run deterministic). Scopes nest:
    an inner scope joins the outer one's table.
    """
    global _active_planner_scope
    prev = _active_planner_scope
    _active_planner_scope = prev if prev is not None else OrderedDict()
    try:
        yield
    finally:
        _active_planner_scope = prev


def planner_for(instance: ProblemInstance) -> ResidualPlanner:
    """A :class:`ResidualPlanner` for *instance* — shared when a
    :func:`planner_scope` is active, otherwise freshly constructed."""
    scope = _active_planner_scope
    if scope is None:
        return ResidualPlanner(instance)
    key = instance_fingerprint(instance)
    planner = scope.get(key)
    if planner is None:
        planner = ResidualPlanner(instance)
        scope[key] = planner
        while len(scope) > SCOPE_PLANNER_SLOTS:
            scope.popitem(last=False)
    else:
        scope.move_to_end(key)
    return planner
