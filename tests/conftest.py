"""Shared fixtures: canonical instances, clusters and workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import testbed_cluster
from repro.core import Job, ProblemInstance
from repro.harness import make_workload
from repro.workload import WorkloadConfig, build_instance


@pytest.fixture
def fig1_instance() -> ProblemInstance:
    """The paper's Fig. 1 toy: 3 jobs × 3 GPUs, hand-set times.

    J1: one round of 2 parallel tasks; J2: 3 sequential rounds;
    J3: 2 rounds of 2 parallel tasks. No sync time (as in the figure).
    """
    jobs = [
        Job(job_id=0, model="toyA", num_rounds=1, sync_scale=2),
        Job(job_id=1, model="toyB", num_rounds=3, sync_scale=1),
        Job(job_id=2, model="toyC", num_rounds=2, sync_scale=2),
    ]
    tc = np.array(
        [
            [1.0, 2.0, 2.0],
            [1.0, 1.5, 1.5],
            [1.0, 0.5, 0.75],
        ]
    )
    ts = np.zeros((3, 3))
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


@pytest.fixture
def tiny_instance() -> ProblemInstance:
    """4 tasks on 2 heterogeneous GPUs — small enough for brute force."""
    jobs = [
        Job(job_id=0, model="a", num_rounds=2, sync_scale=1, weight=2.0),
        Job(job_id=1, model="b", num_rounds=1, sync_scale=2, arrival=0.5),
    ]
    tc = np.array([[1.0, 2.0], [1.5, 1.0]])
    ts = np.array([[0.1, 0.2], [0.1, 0.1]])
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


@pytest.fixture(scope="session")
def testbed():
    """The paper's 15-GPU testbed cluster."""
    return testbed_cluster()


@pytest.fixture(scope="session")
def small_workload(testbed):
    """12 zoo jobs on the testbed, shrunk rounds — fast but realistic."""
    jobs = make_workload(
        12, seed=42, config=WorkloadConfig(rounds_scale=0.12)
    )
    return jobs


@pytest.fixture(scope="session")
def small_instance(testbed, small_workload):
    return build_instance(small_workload, testbed)


@pytest.fixture(scope="session")
def fixed_instance() -> ProblemInstance:
    """10 staggered jobs of 1-3 rounds and scale 1-2 on 8 GPUs, seeded."""
    rng = np.random.default_rng(11)
    jobs = [
        Job(
            job_id=n,
            model=f"m{n % 3}",
            arrival=float(rng.uniform(0, 4)),
            num_rounds=1 + n % 3,
            sync_scale=1 + n % 2,
        )
        for n in range(10)
    ]
    return ProblemInstance(
        jobs=jobs,
        train_time=rng.uniform(0.5, 3.0, (10, 8)),
        sync_time=rng.uniform(0.0, 0.4, (10, 8)),
    )


def make_random_instance(
    seed: int,
    *,
    max_jobs: int = 4,
    max_gpus: int = 3,
    max_rounds: int = 2,
    max_scale: int = 2,
    with_sync: bool = True,
) -> ProblemInstance:
    """Deterministic random instance generator for property-style tests."""
    rng = np.random.default_rng(seed)
    n_jobs = int(rng.integers(1, max_jobs + 1))
    n_gpus = int(rng.integers(1, max_gpus + 1))
    jobs = [
        Job(
            job_id=n,
            model=f"m{n}",
            arrival=float(rng.uniform(0, 2)),
            weight=float(rng.uniform(0.5, 3.0)),
            num_rounds=int(rng.integers(1, max_rounds + 1)),
            sync_scale=int(rng.integers(1, max_scale + 1)),
        )
        for n in range(n_jobs)
    ]
    tc = rng.uniform(0.2, 3.0, size=(n_jobs, n_gpus))
    ts = rng.uniform(0.0, 0.3, size=(n_jobs, n_gpus)) if with_sync else np.zeros((n_jobs, n_gpus))
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


def make_uniform_instance(
    num_jobs: int,
    num_gpus: int,
    *,
    train_time: float = 1.0,
    sync_time: float = 0.0,
    num_rounds: int = 1,
    sync_scale: int = 1,
) -> ProblemInstance:
    """A homogeneous toy instance: every job the same on every GPU."""
    jobs = [
        Job(
            job_id=n,
            model="synthetic",
            num_rounds=num_rounds,
            sync_scale=sync_scale,
        )
        for n in range(num_jobs)
    ]
    tc = np.full((num_jobs, num_gpus), float(train_time))
    ts = np.full((num_jobs, num_gpus), float(sync_time))
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)
