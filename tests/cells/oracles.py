"""Test oracles for the cell layer.

:func:`reference_cell_instance` is the straightforward original of
:func:`repro.cells.sharded.cell_instance`: it re-identifies each of the
cell's jobs with :func:`dataclasses.replace` and constructs a fresh
:class:`ProblemInstance`. The production routine is one
:meth:`ProblemInstance.subset` call; ``test_cell_instance_equivalence.py``
pins the two equal column for column.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.cells.partition import Cell
from repro.core.job import ProblemInstance


def reference_cell_instance(
    instance: ProblemInstance, job_ids: Sequence[int], cell: Cell
) -> ProblemInstance:
    """The cell's sub-instance built from ``Job`` objects."""
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
