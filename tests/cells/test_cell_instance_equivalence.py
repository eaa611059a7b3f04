"""The cell instance as a job-table subset ≡ the one built from ``Job``s.

:func:`repro.cells.sharded.cell_instance` slices the parent's job columns
and the cell's T^c/T^s block. Over seeded random instances and
partitions, each cell's sub-instance for a random set of jobs must equal
:func:`tests.cells.oracles.reference_cell_instance` column for column.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import CellPartitioner
from repro.cells.sharded import cell_instance
from tests.cells.oracles import reference_cell_instance
from tests.core.oracles import assert_same_instance
from tests.kernel.test_residual_equivalence import random_instance


@pytest.mark.parametrize("seed", range(30))
def test_subset_cell_matches_job_rebuild(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    types = len({label.split("#")[0] for label in inst.gpu_labels})
    strategy = "gpu_type" if seed % 2 else "balanced"
    cells = (
        types if strategy == "gpu_type"
        else int(rng.integers(1, inst.num_gpus + 1))
    )
    partition = CellPartitioner(
        cells=cells, strategy=strategy
    ).partition_instance(inst)
    for cell in partition.cells:
        job_ids = sorted(rng.choice(
            inst.num_jobs, size=int(rng.integers(1, inst.num_jobs + 1)),
            replace=False,
        ).tolist())
        assert_same_instance(
            cell_instance(inst, job_ids, cell),
            reference_cell_instance(inst, job_ids, cell),
        )
