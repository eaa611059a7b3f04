"""repro — reproduction of *Hare* (HPDC 2022).

Hare schedules multiple distributed machine-learning jobs on heterogeneous
GPU clusters, exploiting inter-job and intra-job parallelism with a relaxed
scale-fixed synchronization scheme, fast task switching, and a relaxation-
based list-scheduling algorithm with an α(2+α) approximation guarantee.

Quick start::

    from repro import run_experiment
    result = run_experiment(gpus=8, jobs=10, scheduler="hare", seed=1)
    print(result.weighted_jct)
    result.write_trace("hare.trace.json")  # open in ui.perfetto.dev

See :mod:`repro.api` for the stable facade (``run_experiment``,
``simulate``, ``compare``), :mod:`repro.obs` for tracing/metrics, and the
``benchmarks/`` directory for every table/figure reproduction.
"""

from __future__ import annotations

from ._lazy import lazy_facade

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".": "api cluster control core dml harness kernel obs schedulers sim "
    "sweep switching sync theory workload",
    ".api": "CompareResult ExperimentSpec RunResult compare run_experiment",
})
__all__.append("__version__")
