"""The residual as a job-table subset ≡ the residual built from ``Job``s.

:func:`repro.kernel.residual.build_residual_instance` slices the base
instance's job columns and T^c/T^s rows. Over seeded random instances,
with GPU subsets, weight boosts, ready times before and after arrival
and jobs with no rounds left, it must equal
:func:`tests.kernel.oracles.reference_build_residual_instance` column for
column, with the same local → global map.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Job, ProblemInstance
from repro.kernel.residual import build_residual_instance
from tests.core.oracles import assert_same_instance
from tests.kernel.oracles import reference_build_residual_instance


def random_instance(rng: np.random.Generator) -> ProblemInstance:
    num_jobs = int(rng.integers(1, 12))
    num_gpus = int(rng.integers(1, 9))
    jobs = [
        Job(
            job_id=n,
            model=str(rng.choice(["a", "b", "c"])),
            arrival=float(rng.uniform(0.0, 20.0)),
            weight=float(rng.choice([0.5, 1.0, 2.0])),
            num_rounds=int(rng.integers(1, 6)),
            sync_scale=int(rng.integers(1, 4)),
            batch_scale=float(rng.choice([1.0, 1.5])),
        )
        for n in range(num_jobs)
    ]
    tc = rng.uniform(0.5, 3.0, size=(num_jobs, num_gpus))
    ts = rng.uniform(0.0, 0.5, size=(num_jobs, num_gpus))
    labels = [f"T{m % 3}#{m}" for m in range(num_gpus)]
    return ProblemInstance(
        jobs=jobs, train_time=tc, sync_time=ts, gpu_labels=labels
    )


@pytest.mark.parametrize("seed", range(40))
def test_subset_residual_matches_job_rebuild(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    n = inst.num_jobs
    # Jobs part-way through, finished (no rounds left) and untouched.
    rounds_done = np.array([
        int(rng.integers(0, r + 1)) for r in inst.num_rounds.tolist()
    ])
    finished = rng.random(n) < 0.2
    rounds_done[finished] = inst.num_rounds[finished]
    rounds_done[rng.random(n) < 0.2] = 0
    # Ready times on both sides of each arrival.
    ready_at = inst.arrival + rng.uniform(-10.0, 10.0, size=n)
    known = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)),
                              replace=False).tolist())
    gpu_subset = (
        None if rng.random() < 0.5
        else sorted(rng.choice(inst.num_gpus,
                               size=int(rng.integers(1, inst.num_gpus + 1)),
                               replace=False).tolist())
    )
    weight_boost = (
        None if rng.random() < 0.5
        else {int(j): float(rng.choice([2.0, 3.5])) for j in known[::2]}
    )

    got, got_map = build_residual_instance(
        inst, known, rounds_done, ready_at,
        gpu_subset=gpu_subset, weight_boost=weight_boost,
    )
    want, want_map = reference_build_residual_instance(
        inst, [inst.jobs[j] for j in known], rounds_done, ready_at,
        gpu_subset=gpu_subset, weight_boost=weight_boost,
    )
    assert got_map == want_map
    assert all(type(g) is int and type(d) is int for g, d in got_map)
    if want is None:
        assert got is None
        return
    assert_same_instance(got, want)


def test_every_job_finished_is_no_residual():
    rng = np.random.default_rng(0)
    inst = random_instance(rng)
    residual, id_map = build_residual_instance(
        inst, range(inst.num_jobs), inst.num_rounds, inst.arrival
    )
    assert residual is None and id_map == []


def test_base_instance_is_not_mutated():
    rng = np.random.default_rng(1)
    inst = random_instance(rng)
    before = (inst.arrival.tobytes(), inst.weight.tobytes(),
              inst.num_rounds.tobytes(), inst.jobs)
    build_residual_instance(
        inst, range(inst.num_jobs), np.zeros(inst.num_jobs, dtype=int),
        inst.arrival + 5.0, weight_boost={0: 4.0},
    )
    after = (inst.arrival.tobytes(), inst.weight.tobytes(),
             inst.num_rounds.tobytes(), inst.jobs)
    assert before == after
