"""Process-parallel sweeps over (seed, scheduler, scale, cells) grids.

:func:`sweep` shards the Cartesian grid of seeds × schedulers × cluster
scales × cell counts across a
:class:`concurrent.futures.ProcessPoolExecutor` and runs
each cell through :func:`repro.api.run_experiment` with identical
parameters, so every cell's headline metrics are **byte-equal** to the
serial run of the same cell (the pool only changes where the work
happens, never what it computes). Each worker wraps its shard in
:func:`repro.kernel.residual.planner_scope`, so cells sharing a workload
(same seed and scale, different scheduler) reuse the kernel's
residual-fingerprint cache and relaxation-solve memo instead of
re-deriving them.

The aggregated :class:`SweepResult` exports one manifest for the whole
grid and one flat ``sweep.*`` baseline snapshot
(:meth:`SweepResult.write_baseline`) consumable by ``repro check
--baseline``, seeding a cross-commit trajectory for full grids the same
way ``BENCH_kernel.json`` does for single runs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .core.types import SwitchMode
from .kernel.residual import planner_scope
from .obs import build_manifest, write_manifest as _write_manifest_file
from .obs.baseline import BASELINE_SCHEMA, write_baseline


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One (scheduler, seed, gpus, cells) grid cell's headline results."""

    scheduler: str
    seed: int
    gpus: int
    jobs: int
    weighted_jct: float
    weighted_flow: float
    makespan: float
    simulated: bool
    #: Cell count of the sharded-scheduling axis; 1 = the flat path.
    cells: int = 1

    @property
    def key(self) -> tuple[str, int, int, int]:
        return (self.scheduler, self.seed, self.gpus, self.cells)


@dataclass(slots=True)
class SweepResult:
    """Every grid cell's :class:`SweepPoint` plus the sweep config."""

    points: list[SweepPoint]
    config: dict

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, key: tuple) -> SweepPoint:
        if len(key) == 3:  # pre-cells callers: flat axis implied
            key = (*key, 1)
        for point in self.points:
            if point.key == key:
                return point
        raise KeyError(key)

    def by_scheduler(self) -> dict[str, list[SweepPoint]]:
        out: dict[str, list[SweepPoint]] = {}
        for point in self.points:
            out.setdefault(point.scheduler, []).append(point)
        return out

    # -- aggregation ----------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Flat ``sweep.*`` metrics: one entry per cell statistic plus
        per-scheduler means — the baseline-snapshot payload."""
        flat: dict[str, float] = {}
        for point in self.points:
            stem = f"sweep.{point.scheduler}.seed{point.seed}.gpus{point.gpus}"
            if point.cells != 1:  # flat stems stay pinned byte-identical
                stem += f".cells{point.cells}"
            flat[f"{stem}.weighted_jct"] = point.weighted_jct
            flat[f"{stem}.weighted_flow"] = point.weighted_flow
            flat[f"{stem}.makespan"] = point.makespan
        for name, points in self.by_scheduler().items():
            flat[f"sweep.{name}.mean_weighted_jct"] = sum(
                p.weighted_jct for p in points
            ) / len(points)
            flat[f"sweep.{name}.mean_makespan"] = sum(
                p.makespan for p in points
            ) / len(points)
        return flat

    # -- artifacts ------------------------------------------------------
    def manifest(self) -> dict:
        return build_manifest(
            command="api.sweep",
            config=self.config,
            results={
                "cells": len(self.points),
                "points": [asdict(p) for p in self.points],
            },
            metrics=self.metrics(),
        )

    def write_manifest(self, path: str | Path) -> Path:
        return _write_manifest_file(self.manifest(), path)

    def write_baseline(self, path: str | Path) -> Path:
        """Snapshot the aggregated ``sweep.*`` metrics as a regression
        baseline (already flat — no registry flattening involved)."""
        return write_baseline(
            {
                "schema": BASELINE_SCHEMA,
                "command": "api.sweep",
                "config": dict(self.config),
                "metrics": self.metrics(),
            },
            path,
        )


# ----------------------------------------------------------------------
def _run_cell(cell: Mapping) -> dict:
    """One grid cell → plain-dict headline results (picklable)."""
    from .api import ExperimentSpec, run_experiment
    # local import: repro.api re-exports sweep()

    result = run_experiment(ExperimentSpec.from_dict(cell, trace=False))
    return {
        "scheduler": result.scheduler,
        "seed": cell["seed"],
        "gpus": result.cluster.num_gpus,
        "jobs": cell["jobs"],
        "weighted_jct": result.weighted_jct,
        "weighted_flow": result.metrics.total_weighted_flow,
        "makespan": result.makespan,
        "simulated": result.sim is not None,
        "cells": cell.get("cells", 1),
    }


def _run_shard(shard: list[tuple[int, dict]]) -> list[tuple[int, dict]]:
    """Worker entry point: run a shard of grid cells in one process.

    Module-level (picklable) and wrapped in a planner scope so cells that
    share a workload reuse the kernel's residual/solve memos.
    """
    with planner_scope():
        return [(index, _run_cell(cell)) for index, cell in shard]


def sweep(
    *,
    seeds: int | Sequence[int] = 8,
    schedulers: Sequence[str] = ("hare",),
    scales: Sequence[int] = (15,),
    jobs: int = 20,
    load: float = 1.5,
    rounds_scale: float = 0.15,
    simulate: bool = True,
    switch_mode: SwitchMode = SwitchMode.HARE,
    arrivals: str = "planned",
    cells: int | Sequence[int] = (1,),
    workers: int = 4,
) -> SweepResult:
    """Run the seeds × schedulers × scales × cells grid across workers.

    ``seeds`` may be a count (→ ``range(seeds)``) or an explicit sequence;
    ``scales`` are cluster GPU counts (15 selects the paper's testbed mix,
    as in :func:`repro.api.run_experiment`); ``cells`` is the sharded-
    scheduling axis (:mod:`repro.cells`); ``arrivals`` is recorded in
    every grid cell's config but selects nothing. ``workers <= 1`` runs
    the grid serially in-process (still inside one planner scope). Grid
    cells are sharded contiguously in seed-major order so one worker
    handles all schedulers of a seed and its planner memo pays off.

    Every grid cell is computed by the exact code path of a serial
    :func:`repro.api.run_experiment` call with the same arguments, so the
    returned metrics match serial runs exactly.
    """
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    cells_list = [cells] if isinstance(cells, int) else list(cells)
    if not seed_list:
        raise ValueError("sweep needs at least one seed")
    if not schedulers or not scales:
        raise ValueError("sweep needs at least one scheduler and one scale")
    if not cells_list:
        raise ValueError("sweep needs at least one cells value")
    grid: list[dict] = [
        {
            "seed": seed,
            "gpus": gpus,
            "scheduler": scheduler,
            "jobs": jobs,
            "load": load,
            "rounds_scale": rounds_scale,
            "simulate": simulate,
            "switch_mode": switch_mode.value,
            "arrivals": arrivals,
            "cells": cell_count,
        }
        for seed in seed_list
        for gpus in scales
        for scheduler in schedulers
        for cell_count in cells_list
    ]
    indexed = list(enumerate(grid))
    workers = max(1, int(workers))
    results: list[tuple[int, dict]] = []
    if workers == 1 or len(grid) == 1:
        results = _run_shard(indexed)
    else:
        n_shards = min(workers, len(grid))
        step = -(-len(indexed) // n_shards)  # ceil division
        shards = [
            indexed[i : i + step] for i in range(0, len(indexed), step)
        ]
        with ProcessPoolExecutor(max_workers=n_shards) as pool:
            for shard_result in pool.map(_run_shard, shards):
                results.extend(shard_result)
    results.sort(key=lambda pair: pair[0])
    points = [SweepPoint(**payload) for _, payload in results]
    config = {
        "seeds": seed_list,
        "schedulers": list(schedulers),
        "scales": list(scales),
        "jobs": jobs,
        "load": load,
        "rounds_scale": rounds_scale,
        "simulate": simulate,
        "switch_mode": switch_mode.value,
        "arrivals": arrivals,
        "workers": workers,
    }
    if cells_list != [1]:  # default grids keep byte-compatible manifests
        config["cells"] = cells_list
    return SweepResult(points=points, config=config)


__all__ = ["SweepPoint", "SweepResult", "sweep"]
