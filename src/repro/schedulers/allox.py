"""Sched_Allox baseline: AlloX [24], heterogeneity-aware job-level matching.

AlloX schedules each ML job as an *unsplittable unit on a single device* and
picks placements by solving a min-cost bipartite matching between waiting
jobs and (machine, position) slots: a job placed k-th from the end of
machine *m*'s queue adds ``k · p_{j,m}`` to the sum of completion times, so
the assignment problem minimizes average JCT exactly for the currently
waiting set. The matching is re-solved at every scheduling event (arrivals
and completions), which is AlloX's online operation.

Because a job gets one GPU, a round's ``sync_scale`` tasks run back-to-back
on that GPU (one device trains every mini-batch, then synchronizes once):
``round_time = sync_scale · T^c + T^s``. Heterogeneity is fully exploited —
the cost matrix uses the true per-GPU times — but intra-job parallelism is
not (the paper's Fig. 1(b) scenario), which is the gap Hare exploits.

The matching is solved in-process by :func:`min_cost_assignment`, so an
AlloX run never imports ``scipy.optimize``.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.errors import InfeasibleProblemError, SolverError
from ..core.job import ProblemInstance, expand
from ..core.schedule import Schedule
from .base import Scheduler
from .registry import register


def min_cost_assignment(cost: np.ndarray) -> list[int]:
    """The column matched to each row of a wide *cost* matrix, at least
    cost in total.

    Crouse's shortest augmenting path method (D. F. Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 52(4),
    2016), a port of scipy's ``rectangular_lsap.cpp`` (BSD-3) that
    returns ``scipy.optimize.linear_sum_assignment``'s columns exactly,
    ties included. That needs scipy's order of operations:

    - the remaining columns start as ``nc-1 … 0``, and a picked column is
      swap-removed (the last remaining column takes its place);
    - a reduced cost is ``((min_val + c[i][j]) - u[i]) - v[j]``;
    - the pick is the first strict minimum in remaining order, replaced
      by a later equal column only if that column is unassigned;
    - after each augmentation ``u[cur] += min_val``, every other visited
      row gets ``u[i] += min_val - spc[col4row[i]]`` and every visited
      column ``v[j] -= min_val - spc[j]``.

    Only what AlloX builds is accepted: ``nr <= nc`` and finite costs;
    anything else raises :class:`SolverError`.

    Each augmentation scans every remaining column once per visited row,
    so a matching takes up to about ``nr² · nc / 2`` inner-loop steps in
    Python: fine at the testbed's 16 × 30, but 28–43× slower than scipy
    from 137 × 160 up (DESIGN.md §13 has the measured sizes).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] > cost.shape[1]:
        raise SolverError(f"assignment needs a wide matrix, got {cost.shape}")
    if not np.isfinite(cost).all():
        raise SolverError("assignment costs must be finite")
    nr, nc = cost.shape
    c = cost.tolist()
    u = [0.0] * nr
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    path = [-1] * nc
    for cur in range(nr):
        spc = [math.inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        rows: list[int] = []
        cols: list[int] = []
        i, min_val = cur, 0.0
        while True:
            rows.append(i)
            ci, ui = c[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                s = spc[j]
                r = min_val + ci[j] - ui - v[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s <= lowest and (s < lowest or row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            j = remaining[index]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for k in cols:
            v[k] -= min_val - spc[k]
        while True:  # augment along the path, from the sink back to cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


@register("sched_allox", summary="AlloX min-cost matching to single GPUs")
class SchedAlloxScheduler(Scheduler):
    """AlloX: online min-cost matching of jobs to single GPUs."""

    name = "Sched_Allox"

    def __init__(self, *, weighted: bool = False) -> None:
        #: If True, scale position costs by job weight (a natural extension;
        #: the original AlloX minimizes the unweighted average).
        self.weighted = weighted

    # ------------------------------------------------------------------
    def _run_job(
        self, cols: dict[str, list], instance: ProblemInstance, job_id: int,
        gpu: int, start: float,
    ) -> float:
        """Append the rows of a job serialized on *gpu* to the *cols* lists;
        returns the time the GPU frees up."""
        tc = instance.tc(job_id, gpu)
        ts = instance.ts(job_id, gpu)
        scale = int(instance.sync_scale[job_id])
        num_rounds = int(instance.num_rounds[job_id])
        n = num_rounds * scale
        cols["job"] += [job_id] * n
        cols["rnd"] += [r for r in range(num_rounds) for _ in range(scale)]
        cols["slot"] += list(range(scale)) * num_rounds
        cols["gpu"] += [gpu] * n
        cols["train"] += [tc] * n
        cols["sync"] += [ts] * n
        starts = cols["start"]
        t = start
        for _ in range(num_rounds):
            for _ in range(scale):
                starts.append(t)
                t += tc
            # Each task's sync overlaps the next task's compute (§5.2); the
            # round barrier is the last task's end, so the next round (and
            # the GPU hand-off) waits one sync beyond the last batch.
            t += ts
        return t

    # ------------------------------------------------------------------
    def schedule(self, instance: ProblemInstance) -> Schedule:
        cols: dict[str, list] = {
            k: [] for k in ("job", "rnd", "slot", "gpu", "start", "train", "sync")
        }
        num_gpus = instance.num_gpus
        gpu_free = [0.0] * num_gpus
        arrival = instance.arrival.tolist()
        waiting = set(range(instance.num_jobs))
        # p_{j,m} = rounds · (scale·T^c + T^s), the job run serially on m.
        rounds = instance.num_rounds[:, None]
        serial = expand(rounds * (
            instance.sync_scale[:, None] * instance.train_by_type
            + instance.sync_by_type
        ), instance.gpu_type)
        t = 0.0
        guard = 0
        max_iters = 4 * len(waiting) + 4 * num_gpus + 64
        while waiting:
            guard += 1
            if guard > max_iters:  # pragma: no cover - defensive
                raise InfeasibleProblemError("AlloX failed to make progress")
            runnable = sorted(
                n for n in waiting if arrival[n] <= t + 1e-12
            )
            free = [m for m in range(num_gpus) if gpu_free[m] <= t + 1e-12]
            started = False
            if runnable and free:
                starts = self._match(
                    instance, runnable, gpu_free, t, serial[runnable]
                )
                for job_id, gpu in starts:
                    start = max(t, arrival[job_id])
                    gpu_free[gpu] = self._run_job(
                        cols, instance, job_id, gpu, start
                    )
                    waiting.discard(job_id)
                    started = True
            if started:
                continue
            future = [ft for ft in gpu_free if ft > t + 1e-12]
            future += [arrival[n] for n in waiting if arrival[n] > t + 1e-12]
            if not future:  # pragma: no cover - defensive
                raise InfeasibleProblemError("AlloX deadlock")
            t = min(future)
        return Schedule(instance, **cols)

    def _match(
        self,
        instance: ProblemInstance,
        runnable: list[int],
        gpu_free: list[float],
        now: float,
        serial: np.ndarray,
    ) -> list[tuple[int, int]]:
        """Min-cost matching; returns the (job, gpu) pairs to start now.

        Builds the jobs × (GPU, position) cost matrix with
        ``cost[j, (m, k)] = k · p_{j,m} + r_m`` (optionally weight-scaled),
        where position ``k`` counts **from the end** of machine *m*'s queue
        (a job at position k delays k completions) and ``r_m`` is the
        machine's remaining busy time — *every* machine participates, so a
        heavy job may rationally queue behind a busy fast GPU instead of
        grabbing a free slow one. The job that runs first on a machine is
        the one at that machine's largest matched position; of those, only
        jobs matched to currently **free** machines start now. Everyone
        else re-enters the matching at the next event, which is how AlloX
        stays adaptive online. *serial* holds ``p_{j,m}`` for the runnable
        jobs' rows.
        """
        num_gpus = len(gpu_free)
        positions = max(1, -(-len(runnable) // num_gpus))
        # Columns run GPU-major over positions k = 1..positions.
        r = np.maximum(0.0, np.asarray(gpu_free) - now)
        pos = np.arange(1, positions + 1)
        cost = pos[None, None, :] * serial[:, :, None] + r[None, :, None]
        if self.weighted:
            cost /= instance.weight[runnable][:, None, None]
        cost = cost.reshape(len(runnable), num_gpus * positions)
        head: dict[int, tuple[int, int]] = {}  # gpu -> (k, job)
        for i, c in enumerate(min_cost_assignment(cost)):
            m, k = divmod(c, positions)
            k += 1
            if m not in head or k > head[m][0]:
                head[m] = (k, runnable[i])
        return [
            (job_id, m)
            for m, (_, job_id) in head.items()
            if gpu_free[m] <= now + 1e-12
        ]
