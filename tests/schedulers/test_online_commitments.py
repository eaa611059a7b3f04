"""What an online re-plan commits and reads: ``OnlineHarePolicy._commitments``
on hand-built plans and against the untruncated oracle's object walk on
complete plans, and the expanded T^c rows its residuals share."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Job, ProblemInstance
from repro.core.schedule import Schedule
from repro.kernel import run_policy
from repro.schedulers import online
from repro.schedulers.hare import _precedence_safe_order, list_schedule
from repro.schedulers.online import OnlineHarePolicy
from repro.schedulers.relaxation import FluidRelaxationSolver
from tests.conftest import make_random_instance
from tests.schedulers.oracles import UntruncatedOnlineHarePolicy, column_bytes

#: Residual job -> (base job, rounds already done).
ID_MAP = [(4, 1), (0, 0), (2, 3)]
#: Just before the horizon of 2.0.
BEFORE = float(np.nextafter(2.0, 0.0))


@pytest.fixture(scope="module")
def residual():
    """Three jobs of scales 1, 2 and 2 on three GPUs."""
    jobs = [
        Job(job_id=j, model=f"m{j}", arrival=0.0, num_rounds=n,
            sync_scale=s)
        for j, (n, s) in enumerate(((3, 1), (2, 2), (2, 2)))
    ]
    return ProblemInstance(
        jobs=jobs, train_time=np.ones((3, 3)),
        sync_time=np.full((3, 3), 0.25),
    )


def _plan(instance, rows) -> Schedule:
    """The plan holding *rows* (job, rnd, slot, gpu, start, train, sync)."""
    return Schedule(instance, *zip(*rows))


def _committed(plan, id_map, gpu_subset, horizon):
    """Each commitment as (job, rnd, slot, gpu, start, train, sync)."""
    return [
        (c.job, *(col.tolist() for col in (
            c.rnd, c.slot, c.gpu, c.start, c.train, c.sync
        )))
        for c in OnlineHarePolicy()._commitments(
            plan, plan.instance, id_map, gpu_subset, horizon
        )
    ]


def _bytes(commitments):
    return [
        (c.job, *((col.dtype, col.tobytes()) for col in (
            c.rnd, c.slot, c.gpu, c.start, c.train, c.sync
        )))
        for c in commitments
    ]


def test_interleaved_rounds_commit_in_canonical_order(residual):
    """Rows of two jobs' rounds interleave in π (job 1's round 0 around
    job 0's); the commitments come out per (job, round), slots in order.
    Job 2 is unplaced and commits nothing."""
    plan = _plan(residual, [
        (1, 0, 1, 1, 0.0, 1.0, 0.5),
        (0, 0, 0, 0, 0.0, 2.0, 0.25),
        (1, 0, 0, 2, 0.5, 1.0, 0.5),
        (0, 1, 0, 0, 2.25, 2.0, 0.25),
        (1, 1, 0, 1, 2.0, 1.0, 0.5),
        (1, 1, 1, 2, 2.0, 1.5, 0.5),
        (0, 2, 0, 1, 4.5, 2.0, 0.25),
    ])
    assert _committed(plan, ID_MAP, None, None) == [
        (4, [1], [0], [0], [0.0], [2.0], [0.25]),
        (4, [2], [0], [0], [2.25], [2.0], [0.25]),
        (4, [3], [0], [1], [4.5], [2.0], [0.25]),
        (0, [0, 0], [0, 1], [2, 1], [0.5, 0.0], [1.0, 1.0], [0.5, 0.5]),
        (0, [1, 1], [0, 1], [1, 2], [2.0, 2.0], [1.0, 1.5], [0.5, 0.5]),
    ]


def test_horizon_short_round_and_gpu_subset(residual):
    """Job 0's round 1 starts exactly at the horizon: neither it nor a
    later round of job 0 is committed. Job 1's round 1 starts just
    before it (one slot after it) and is. Job 2's round 0 is short a
    task. GPUs map through the subset."""
    plan = _plan(residual, [
        (0, 0, 0, 0, 0.0, 2.0, 0.25),
        (1, 0, 0, 1, 0.0, 1.0, 0.5),
        (1, 0, 1, 2, 0.0, 1.0, 0.5),
        (0, 1, 0, 0, 2.0, 2.0, 0.25),
        (0, 2, 0, 1, 1.5, 2.0, 0.25),
        (1, 1, 1, 1, BEFORE, 1.0, 0.5),
        (1, 1, 0, 2, 2.5, 1.0, 0.5),
        (2, 0, 0, 1, 1.0, 1.0, 0.5),
    ])
    assert _committed(plan, ID_MAP, [1, 4, 6], 2.0) == [
        (4, [1], [0], [1], [0.0], [2.0], [0.25]),
        (0, [0, 0], [0, 1], [4, 6], [0.0, 0.0], [1.0, 1.0], [0.5, 0.5]),
        (0, [1, 1], [0, 1], [6, 4], [2.5, BEFORE], [1.0, 1.0], [0.5, 0.5]),
    ]


def test_nothing_before_the_horizon_commits_nothing(residual):
    plan = _plan(residual, [(0, 0, 0, 0, 2.0, 2.0, 0.25)])
    assert _committed(plan, ID_MAP, None, 2.0) == []


@pytest.mark.parametrize("seed", range(12))
def test_complete_plans_match_the_oracle(seed):
    """On a complete list schedule, under any horizon and through a GPU
    subset, the commitments equal the oracle's, byte for byte."""
    inst = make_random_instance(
        seed, max_jobs=5, max_gpus=4, max_rounds=3, max_scale=3
    )
    order = _precedence_safe_order(inst, FluidRelaxationSolver().solve(inst))
    plan = list_schedule(inst, order)
    rng = np.random.default_rng(seed)
    n = inst.num_jobs
    id_map = list(zip(
        (2 * rng.permutation(n)).tolist(), rng.integers(0, 5, n).tolist()
    ))
    gpu_subset = sorted(
        rng.choice(3 * inst.num_gpus, inst.num_gpus, replace=False).tolist()
    )
    starts = np.unique(plan.start).tolist()
    horizons = [None, *starts, *(np.nextafter(s, np.inf) for s in starts)]
    for gpus in (None, gpu_subset):
        for horizon in horizons:
            args = (plan, inst, id_map, gpus, horizon)
            got = OnlineHarePolicy()._commitments(*args)
            want = UntruncatedOnlineHarePolicy()._commitments(*args)
            assert _bytes(got) == _bytes(want)


@pytest.mark.parametrize("crashes", [None, ((1.0, 2),)])
def test_a_second_run_reuses_the_rows_and_matches(crashes, monkeypatch):
    """Residuals share the run instance's expanded T^c rows, so a second
    run on one instance starts from the rows the first one filled; its
    schedule and stats are the same. A crash adds residuals on the
    surviving GPUs, which expand their own rows."""
    gpu_subsets = []
    build = online.build_residual

    def spy(*args, **kwargs):
        gpu_subsets.append(kwargs["gpu_subset"])
        return build(*args, **kwargs)

    monkeypatch.setattr(online, "build_residual", spy)
    rng = np.random.default_rng(5)
    jobs = [
        Job(job_id=j, model=f"m{j}", arrival=float(a), num_rounds=3,
            sync_scale=int(s))
        for j, (a, s) in enumerate(zip(
            rng.choice([0.0, 0.5, 1.5, 2.0, 3.0], 8), rng.integers(1, 3, 8)
        ))
    ]
    tc = rng.choice([0.5, 1.0, 2.0], (4, 3))[rng.integers(0, 4, 8)]
    inst = ProblemInstance.from_types(
        jobs, [0, 1, 0, 2, 1, 0], tc, tc / 4.0
    )
    first = run_policy(inst, OnlineHarePolicy(), crashes=crashes)
    labels = len(inst._rows)
    assert 0 < labels <= len(np.unique(inst.row_class()))
    second = run_policy(inst, OnlineHarePolicy(), crashes=crashes)
    assert len(inst._rows) == labels
    assert column_bytes(second.schedule) == column_bytes(first.schedule)
    assert second.metrics == first.metrics
    for stat in (
        "events", "commitments", "replans", "retracted_rounds",
        "retractions", "replan_instants",
    ):
        assert getattr(second, stat) == getattr(first, stat), stat
    assert first.replans > 1
    assert any(gpu_subsets) == bool(crashes)
