"""repro.cells — hierarchical cell-sharded scheduling (DESIGN.md §16).

One logical scheduler over 10k+ GPUs, in three layers:

1. :class:`CellPartitioner` splits the cluster into disjoint *cells*
   (balanced ranges, per-GPU-type, or whole failure domains) with real
   :meth:`~repro.cluster.Cluster.subcluster` views;
2. :class:`GlobalAdmission` scores each arriving job against every
   cell via a per-(job, GPU-type) effective-throughput matrix (the
   Gavel-style heterogeneity-aware allocation) and commits it to
   exactly one cell;
3. :class:`ShardedKernel` runs one per-cell scheduling kernel (array
   or reference backend, per cell) and merges the commit logs, stats
   and metrics into one :class:`~repro.kernel.runner.KernelResult`.

``cells=1`` is pinned byte-identical to the flat
:func:`repro.kernel.runner.run_policy` path.
"""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".admission": (
        "ADMISSION_POLICIES AdmissionDecision AdmissionPlan GlobalAdmission "
        "throughput_matrix"
    ),
    ".partition": "CELL_STRATEGIES Cell CellPartition CellPartitioner",
    ".sharded": (
        "CELLS_TRACK ShardedKernel ShardedKernelResult cell_instance "
        "run_sharded"
    ),
})
