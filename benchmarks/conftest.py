"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures: it runs
the experiment once inside ``benchmark.pedantic`` (timing the full
pipeline), prints the paper-style rows/series, writes them to
``benchmarks/out/<test>.txt``, and asserts the *shape* the paper reports
(orderings, approximate factors, trend directions) — absolute numbers are
not expected to match a physical testbed.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cluster import testbed_cluster
from repro.harness.experiments import make_loaded_workload
from repro.workload import WorkloadConfig

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture
def report(request):
    """Print a rendered table and persist it under benchmarks/out/."""

    def _report(text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        name = re.sub(r"[^A-Za-z0-9_.-]", "_", request.node.name)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _report


def run_once(benchmark, fn):
    """Execute *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def testbed():
    return testbed_cluster()


@pytest.fixture(scope="session")
def contended_jobs():
    """The shared Fig. 14/15-style workload: 120 jobs sized so the largest
    sweep cluster still queues (load 2.5 at 96 GPUs)."""
    return make_loaded_workload(
        120,
        reference_gpus=96,
        load=2.5,
        seed=7,
        config=WorkloadConfig(rounds_scale=0.25),
    )


@pytest.fixture(scope="session")
def testbed_jobs():
    """The Fig. 12/13 testbed-style workload: 40 jobs at ~1.5x load on the
    15-GPU testbed."""
    return make_loaded_workload(
        40,
        reference_gpus=15,
        load=1.5,
        seed=12,
        config=WorkloadConfig(rounds_scale=0.15),
    )
