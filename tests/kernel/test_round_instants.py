"""Flat ``kernel.round`` instants ≡ the object-walk oracle, on both loops.

Every kernel emits its ``kernel.round`` instants once, after the run,
from the committed columns (``Schedule.round_spans``). The args
must equal :func:`tests.core.oracles.object_walk_rounds` over the
committed schedule: uniform times tie round ends, so the critical-task
pick is tested too. A crash run emits no instant for a retracted
attempt, only for the rounds that survived.
"""

from __future__ import annotations

import pytest

from repro.kernel.array import ArraySchedulingKernel
from repro.kernel.runner import SchedulingKernel, run_policy
from repro.obs import Obs, use
from repro.obs.attrib import attribute_schedule
from repro.schedulers.registry import create
from tests.conftest import make_uniform_instance
from tests.core.oracles import object_walk_rounds

KERNELS = {"reference": SchedulingKernel, "array": ArraySchedulingKernel}


def _instance(fixed_instance, uniform):
    if not uniform:
        return fixed_instance
    return make_uniform_instance(
        10, 8, train_time=1.0, sync_time=0.25, num_rounds=2, sync_scale=2
    )


def _recorded(run):
    obs = Obs.start(trace=False, record=True)
    with use(obs):
        result = run()
    return result, [r for r in obs.recorder.records() if r.kind == "instant"]


#: (scheduler, backend) pairs: the gang baselines run on the reference
#: loop only.
CASES = [
    ("hare", "array"), ("hare", "reference"),
    ("sched_homo", "reference"), ("srtf", "reference"),
]


@pytest.mark.parametrize("key,backend", CASES)
@pytest.mark.parametrize("uniform", [False, True])
def test_round_instants_match_object_walk(
    fixed_instance, backend, key, uniform
):
    instance = _instance(fixed_instance, uniform)
    result, instants = _recorded(
        lambda: KERNELS[backend](
            instance, create(key).make_policy(instance)
        ).run()
    )
    rounds = [r for r in instants if r.name == "kernel.round"]
    assert [r.args for r in rounds] == object_walk_rounds(
        instance, result.schedule
    )
    assert [r.time for r in rounds] == [r.args["end"] for r in rounds]
    # Emitted after the run: they follow every other kernel instant.
    assert instants[-len(rounds):] == rounds


@pytest.mark.parametrize("key", ["hare_online", "srtf"])
def test_crash_run_emits_only_surviving_rounds(fixed_instance, key):
    instance = fixed_instance
    result, instants = _recorded(
        lambda: run_policy(
            instance, create(key).make_policy(instance), crashes=[(3.0, 0)]
        )
    )
    assert result.retracted_rounds > 0
    rounds = [r.args for r in instants if r.name == "kernel.round"]
    assert rounds == object_walk_rounds(instance, result.schedule)


def test_attribute_schedule_leaves_columns_unmaterialized(fixed_instance):
    result = run_policy(
        fixed_instance, create("hare").make_policy(fixed_instance)
    )
    assert result.schedule._assignments is None
    report = attribute_schedule(result.schedule)
    assert result.schedule._assignments is None
    assert len(report.jobs) == fixed_instance.num_jobs
    assert report.check() == []
