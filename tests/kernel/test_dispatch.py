"""run_policy picks the event loop from the run, and only from the run.

The vectorized :class:`~repro.kernel.array.ArraySchedulingKernel` takes a
run when the policy has a batch path (an unmodified ``PlannedPolicy`` or
``GangPolicy``) and the run has no crashes, restores, re-plan timer or
heal engine; every other run takes the reference
:class:`~repro.kernel.runner.SchedulingKernel`. Each case poisons both
kernel classes so the one ``run_policy`` builds names itself.

Also pinned: the retired ``kernel_backend`` option stays gone from every
layer — spec, ``run_policy``, CLI and the package exports.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernel as kernel_pkg
import repro.kernel.array as array_mod
import repro.kernel.runner as runner
from repro.api import ExperimentSpec
from repro.cli import main
from repro.core import Job, ProblemInstance
from repro.core.errors import ConfigurationError
from repro.heal import RemediationEngine
from repro.kernel import PlannedPolicy, run_policy
from repro.kernel.array import ArraySchedulingKernel
from repro.schedulers import HareScheduler, OnlineHarePolicy, SrtfScheduler

INSTANCE = ProblemInstance(
    jobs=[
        Job(job_id=0, model="m0", num_rounds=2, sync_scale=1),
        Job(job_id=1, model="m1", num_rounds=1, sync_scale=2, arrival=0.5),
    ],
    train_time=np.array([[1.0, 2.0], [1.5, 1.0]]),
    sync_time=np.full((2, 2), 0.1),
)


class _OwnOnEvent(PlannedPolicy):
    """A planned policy that changes how it reacts to events."""

    def on_event(self, event, state):
        return super().on_event(event, state)


POLICIES = {
    "gang": lambda: SrtfScheduler().make_policy(INSTANCE),
    "planned": lambda: PlannedPolicy(HareScheduler()),
    "online": lambda: OnlineHarePolicy(relaxation="fluid"),
    "planned_own_on_event": lambda: _OwnOnEvent(HareScheduler()),
}

RUNS = {
    "no_fault": dict,
    "crashes": lambda: {"crashes": [(1.0, 0)]},
    "restores": lambda: {"restores": [(2.0, 0)]},
    "replan_interval": lambda: {"replan_interval": 1.0},
    "heal": lambda: {"heal": RemediationEngine(INSTANCE)},
}

ARRAY, REFERENCE = "ArraySchedulingKernel", "SchedulingKernel"

DISPATCH = [
    *(
        (policy, run, ARRAY if run == "no_fault" else REFERENCE)
        for policy in ("gang", "planned")
        for run in RUNS
    ),
    ("online", "no_fault", REFERENCE),
    ("planned_own_on_event", "no_fault", REFERENCE),
]


class _Built(Exception):
    pass


def _poisoned(name):
    class Poison:
        def __init__(self, *args, **kwargs):
            raise _Built(name)

    return Poison


@pytest.mark.parametrize(
    "policy,run,expected", DISPATCH, ids=[f"{p}-{r}" for p, r, _ in DISPATCH]
)
def test_dispatch_table(monkeypatch, policy, run, expected):
    monkeypatch.setattr(runner, "SchedulingKernel", _poisoned(REFERENCE))
    monkeypatch.setattr(array_mod, "ArraySchedulingKernel", _poisoned(ARRAY))
    with pytest.raises(_Built) as built:
        run_policy(INSTANCE, POLICIES[policy](), **RUNS[run]())
    assert str(built.value) == expected


@pytest.mark.parametrize("policy", ["online", "planned_own_on_event"])
def test_array_kernel_refuses_policies_without_a_batch_path(policy):
    with pytest.raises(ConfigurationError, match="batch path"):
        ArraySchedulingKernel(INSTANCE, POLICIES[policy]())


class TestKernelBackendOptionIsGone:
    def test_spec_field(self):
        with pytest.raises(TypeError, match="kernel_backend"):
            ExperimentSpec(kernel_backend="array")

    def test_run_policy_keyword(self):
        with pytest.raises(TypeError, match="kernel_backend"):
            run_policy(
                INSTANCE, PlannedPolicy(HareScheduler()),
                kernel_backend="array",
            )

    def test_cli_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--kernel-backend", "array"])
        assert exc.value.code == 2

    def test_kernel_exports(self):
        for name in (
            "KERNEL_BACKENDS",
            "select_kernel_backend",
            "ARRAY_KERNEL_TASK_LIMIT",
        ):
            assert not hasattr(kernel_pkg, name), name
            assert not hasattr(runner, name), name
