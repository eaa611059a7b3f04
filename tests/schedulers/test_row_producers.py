"""Row-building producers ≡ their object-building originals, byte for byte.

``strict_gang_schedule``, ``TimeSliceScheduler`` and
``brute_force_optimal`` append ``(job, rnd, slot, gpu, start)`` rows and
build one schedule from them (``schedule_from_rows``). The originals,
kept in ``tests/schedulers/oracles.py``, built one ``TaskAssignment`` per
task. Both must give the same columns in the same row order.
"""

from __future__ import annotations

import pytest

from repro.core import InfeasibleProblemError, metrics_from_schedule
from repro.schedulers import (
    HareScheduler,
    TimeSliceScheduler,
    brute_force_optimal,
    strict_gang_schedule,
)
from repro.schedulers.hare import _precedence_safe_order
from tests.conftest import make_random_instance
from tests.schedulers.oracles import (
    ObjectTimeSliceScheduler,
    column_bytes,
    reference_brute_force_optimal,
    reference_strict_gang_schedule,
)

SEEDS = range(12)


def _instance(seed):
    return make_random_instance(seed, max_jobs=4, max_gpus=4, max_rounds=3)


def _outcome(build):
    """The schedule's column bytes, or the class of what it raised."""
    try:
        return column_bytes(build())
    except InfeasibleProblemError as exc:
        return type(exc)


@pytest.mark.parametrize("seed", SEEDS)
def test_strict_gang(seed):
    inst = _instance(seed)
    hare = HareScheduler(relaxation="fluid")
    hare.schedule(inst)
    order = _precedence_safe_order(inst, hare.last_relaxation)
    got = _outcome(lambda: strict_gang_schedule(inst, order))
    want = _outcome(lambda: reference_strict_gang_schedule(inst, order))
    assert got == want


@pytest.mark.parametrize("quantum", [1e-3, 0.5, 2.0, 10.0, 60.0])
@pytest.mark.parametrize("seed", SEEDS)
def test_timeslice(seed, quantum):
    """1 ms is shorter than every round: each quantum takes the stretch
    branch."""
    inst = _instance(seed)
    got = _outcome(
        lambda: TimeSliceScheduler(quantum_s=quantum).schedule(inst)
    )
    want = _outcome(
        lambda: ObjectTimeSliceScheduler(quantum_s=quantum).schedule(inst)
    )
    assert got == want


def _tiny(seed):
    """The Theorem 4 audit's instances (``tests/theory/test_bounds.py``)."""
    return make_random_instance(seed, max_jobs=3, max_gpus=2, max_rounds=2)


@pytest.mark.parametrize(
    "seed", [s for s in range(40) if _tiny(s).num_tasks <= 5]
)
def test_brute_force_optimal(seed):
    inst = _tiny(seed)
    best = brute_force_optimal(inst)
    ref = reference_brute_force_optimal(inst)
    assert column_bytes(best) == column_bytes(ref)
    assert (
        metrics_from_schedule(best).total_weighted_completion
        == metrics_from_schedule(ref).total_weighted_completion
    )
