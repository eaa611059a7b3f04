"""Global admission: place each arriving job onto exactly one cell.

The admission layer is the top of the hierarchy (DESIGN.md §16): jobs
are scored against every cell through a per-(job, GPU-type)
effective-throughput matrix derived from the same profile/duration
model that built the instance — the round-based heterogeneity-aware
allocation idea of Gavel (Narayanan et al., OSDI'20) — and committed to
the best cell. After admission the cells are fully independent: no job
or GPU is shared, so per-cell schedulers can run concurrently.

Scores are *estimates* (admission is a heuristic, the per-cell Hare
instances do the real optimization), but they are deterministic:
identical inputs produce identical assignments, which is what keeps
sweep shards bit-equal to serial runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.errors import ConfigurationError, InfeasibleProblemError
from ..obs import current as obs_current
from .partition import CellPartition, _type_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.job import ProblemInstance

#: Supported admission scoring policies (``GlobalAdmission.policy``).
ADMISSION_POLICIES = ("throughput", "least_loaded", "round_robin")


def throughput_matrix(
    instance: "ProblemInstance", partition: CellPartition
) -> np.ndarray:
    """Per-(job, cell) aggregate effective throughput, tasks/second.

    ``rate[n, c] = Σ_{m ∈ cell c} 1 / (t^c_{n,m} + t^s_{n,m})`` — the
    task rate job *n* would see if cell *c* worked for it exclusively.
    Columns are grouped by GPU type (the ``"V100#3"`` label prefix):
    the profile model keys durations by ``(model, gpu_type, …)``, so
    same-type columns are identical and one representative per type is
    exact, keeping this O(jobs × types × cells) instead of
    O(jobs × gpus). Columns without a type prefix each form their own
    group, which degrades gracefully to the exact per-column sum. A
    representative's column is its type's column of the instance's
    tables.
    """
    train, sync = instance.train_by_type, instance.sync_by_type
    gpu_type = instance.gpu_type
    n_jobs = instance.num_jobs
    rate = np.zeros((n_jobs, partition.num_cells))
    for cell in partition.cells:
        groups: dict[str, list[int]] = {}
        for m in cell.gpu_ids:
            key = _type_key(instance.gpu_labels[m])
            groups.setdefault(key, []).append(m)
        col = np.zeros(n_jobs)
        for members in groups.values():
            k = gpu_type[members[0]]
            col += len(members) / (train[:, k] + sync[:, k])
        rate[:, cell.index] = col
    return rate


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """One job's placement: the chosen cell and the scoring inputs."""

    job_id: int
    cell: int
    #: The winning score (policy-dependent; lower is better).
    score: float
    #: Estimated cell-exclusive service time of the job (seconds).
    work_s: float


@dataclass(frozen=True, slots=True)
class AdmissionPlan:
    """The admission layer's output: a job → cell assignment."""

    #: ``assignment[job_id]`` is the owning cell's index.
    assignment: tuple[int, ...]
    #: Decisions in admission order (ascending ``(arrival, job_id)``).
    decisions: tuple[AdmissionDecision, ...]
    #: Final per-cell backlog estimate (seconds of cell-exclusive work).
    loads: tuple[float, ...]

    def jobs_in(self, cell: int) -> list[int]:
        """Global job ids admitted to *cell*, ascending."""
        return [n for n, c in enumerate(self.assignment) if c == cell]


@dataclass(frozen=True, slots=True)
class GlobalAdmission:
    """Score jobs against cells and commit each to exactly one.

    ``policy``:

    * ``"throughput"`` — minimize the estimated finish
      ``load[c] + work[n, c]`` where ``work`` comes from
      :func:`throughput_matrix` (heterogeneity-aware: a job lands where
      its models run fast *and* the queue is short);
    * ``"least_loaded"`` — ignore the job's own affinity, minimize the
      current backlog;
    * ``"round_robin"`` — cycle cells in index order.

    All policies reject a job whose ``sync_scale`` exceeds every cell
    (the gang cannot be split across cells), mirroring the
    ``strict_gang_schedule`` precedent instead of silently truncating.

    Every admission publishes the chosen cell's running backlog as a
    ``cells.cell{c}.admitted_load_s`` gauge, sampled at the job's
    arrival into the ambient :class:`~repro.obs.MetricsRegistry`
    timeline — so Perfetto shows per-cell admitted load as counter
    tracks, and consumers (the future cross-cell rebalancer) read the
    same telemetry the admission decisions were made on instead of
    private bookkeeping. No-ops outside an observability context.
    """

    policy: str = "throughput"

    def __post_init__(self) -> None:
        if self.policy not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"unknown admission policy {self.policy!r}; expected "
                f"one of {ADMISSION_POLICIES}"
            )

    def admit(
        self, instance: "ProblemInstance", partition: CellPartition
    ) -> AdmissionPlan:
        rate = throughput_matrix(instance, partition)
        sizes = partition.sizes()
        metrics = obs_current().metrics
        loads = [0.0] * partition.num_cells
        assignment = [-1] * instance.num_jobs
        decisions: list[AdmissionDecision] = []
        rr_next = 0
        arrival = instance.arrival.tolist()
        scales = instance.sync_scale.tolist()
        num_rounds = instance.num_rounds.tolist()
        # Jobs by (arrival, id): a stable sort of the ids.
        for n in sorted(range(instance.num_jobs), key=arrival.__getitem__):
            scale = scales[n]
            feasible = [c for c, size in enumerate(sizes) if size >= scale]
            if not feasible:
                raise InfeasibleProblemError(
                    f"job {n} needs {scale} simultaneous GPUs "
                    f"but the largest cell has {max(sizes)} "
                    f"(cell sizes: {list(sizes)})"
                )
            tasks = num_rounds[n] * scale
            if self.policy == "round_robin":
                best = next(
                    c
                    for c in (
                        (rr_next + k) % len(sizes)
                        for k in range(len(sizes))
                    )
                    if sizes[c] >= scale
                )
                rr_next = (best + 1) % len(sizes)
                score = float(best)
            elif self.policy == "least_loaded":
                best = min(feasible, key=lambda c: (loads[c], c))
                score = loads[best]
            else:  # throughput
                best = min(
                    feasible,
                    key=lambda c: (loads[c] + tasks / rate[n, c], c),
                )
                score = loads[best] + tasks / rate[n, best]
            work = float(tasks / rate[n, best])
            loads[best] += work
            name = f"cells.cell{best}.admitted_load_s"
            metrics.gauge(name).set(loads[best])
            metrics.sample(name, arrival[n])
            assignment[n] = best
            decisions.append(
                AdmissionDecision(
                    job_id=n, cell=best, score=float(score), work_s=work
                )
            )
        return AdmissionPlan(
            assignment=tuple(assignment),
            decisions=tuple(decisions),
            loads=tuple(loads),
        )
