"""Test oracles for the kernel's residual construction.

:func:`reference_build_residual_instance` is the straightforward original
of :func:`repro.kernel.residual.build_residual_instance`: it walks the
known jobs, builds one :class:`Job` per job with rounds left and
constructs a fresh :class:`ProblemInstance` from them. The production
routine is one :meth:`ProblemInstance.subset` call over the job table;
``test_residual_equivalence.py`` pins the two equal column for column.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.job import Job, ProblemInstance


def reference_build_residual_instance(
    instance: ProblemInstance,
    jobs: list[Job],
    rounds_done: Sequence[int],
    ready_at: Sequence[float],
    *,
    gpu_subset: list[int] | None = None,
    weight_boost: dict[int, float] | None = None,
) -> tuple[ProblemInstance | None, list[tuple[int, int]]]:
    """The residual of *jobs* as fresh ``Job`` objects."""
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
