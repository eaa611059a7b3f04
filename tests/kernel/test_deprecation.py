"""Removal hygiene: the PR-6 deprecation shims are gone for good.

These tests pin the *absence* of the old entry points so a later refactor
cannot quietly resurrect them: ``scheduler_by_name`` (use
``repro.schedulers.create``), the ``build_residual_instance`` re-export on
``repro.schedulers.online`` (it lives in ``repro.kernel.residual``), and
the offline ``OnlineHareScheduler.schedule`` (natively online — use
``.plan()`` or streaming arrivals).
"""

from __future__ import annotations

import warnings

import pytest

import repro.schedulers as schedulers
import repro.schedulers.online as online
from repro.kernel import run_policy
from repro.kernel.residual import build_residual_instance
from repro.schedulers import OnlineHareScheduler


class TestRemovedShims:
    def test_scheduler_by_name_is_gone(self):
        assert not hasattr(schedulers, "scheduler_by_name")
        with pytest.raises(ImportError):
            from repro.schedulers import scheduler_by_name  # noqa: F401

    def test_online_module_does_not_reexport_build_residual(self):
        assert not hasattr(online, "build_residual_instance")
        with pytest.raises(ImportError):
            from repro.schedulers.online import (  # noqa: F401
                build_residual_instance,
            )

    def test_create_replaces_scheduler_by_name(self):
        from repro.schedulers.registry import available, create

        assert "hare_online" in available()
        assert isinstance(create("hare_online"), OnlineHareScheduler)


class TestOnlineHareSchedulerIsNativelyOnline:
    def test_schedule_raises(self, tiny_instance):
        with pytest.raises(NotImplementedError, match="streaming"):
            OnlineHareScheduler().schedule(tiny_instance)

    def test_plan_equals_kernel_run(self, tiny_instance):
        sched = OnlineHareScheduler()
        via_plan = sched.plan(tiny_instance)
        direct = run_policy(
            tiny_instance, sched.make_policy(tiny_instance)
        ).schedule
        assert set(via_plan.assignments) == set(direct.assignments)
        for task, a in direct.assignments.items():
            b = via_plan.assignments[task]
            assert (b.gpu, b.start) == (a.gpu, a.start)

    def test_make_policy_does_not_warn(self, tiny_instance):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            OnlineHareScheduler().make_policy(tiny_instance)


class TestResidualCanonicalPath:
    def test_kernel_path_does_not_warn(self, tiny_instance):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            build_residual_instance(
                tiny_instance,
                range(tiny_instance.num_jobs),
                [0, 0],
                [0.0, 0.5],
            )
