"""Tests for the three synchronization schemes (§2.2.3, Fig. 4)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.sync import (
    plan_relaxed_scale_fixed,
    plan_scale_adaptive,
    plan_scale_fixed,
)

#: Fig. 4's situation: three GPUs busy until different times; a 3-task job
#: arrives at t=0. Task time 1.0 on GPUs 0-1, 1.5 on GPU 2.
FREE = [1.0, 2.0, 4.0]
TIME = [1.0, 1.0, 1.5]


class TestScaleFixed:
    def test_waits_for_gang(self):
        plan = plan_scale_fixed(FREE, TIME, 3)
        assert plan.start == 4.0  # the slowest GPU's free time
        assert plan.effective_scale == 3

    def test_barrier(self):
        plan = plan_scale_fixed(FREE, TIME, 3)
        assert plan.barrier == pytest.approx(5.5)  # 4.0 + 1.5 on GPU 2

    def test_partial_gang_uses_earliest_gpus(self):
        plan = plan_scale_fixed(FREE, TIME, 2)
        assert {p[0] for p in plan.placements} == {0, 1}
        assert plan.start == 2.0

    def test_scale_larger_than_cluster(self):
        with pytest.raises(ConfigurationError):
            plan_scale_fixed(FREE, TIME, 4)


class TestRelaxedScaleFixed:
    def test_fig4_earlier_completion(self):
        """Fig. 4(b): stacking two tasks on the early GPU beats the gang."""
        strict = plan_scale_fixed(FREE, TIME, 3)
        relaxed = plan_relaxed_scale_fixed(FREE, TIME, 3)
        assert relaxed.barrier < strict.barrier
        assert relaxed.effective_scale == 3

    def test_tasks_may_stack(self):
        plan = plan_relaxed_scale_fixed(FREE, TIME, 3)
        gpus = [p[0] for p in plan.placements]
        assert len(set(gpus)) < 3  # at least two tasks share a GPU

    def test_no_overlap_on_shared_gpu(self):
        plan = plan_relaxed_scale_fixed(FREE, TIME, 3)
        per_gpu: dict[int, list] = {}
        for gpu, start, end in plan.placements:
            per_gpu.setdefault(gpu, []).append((start, end))
        for intervals in per_gpu.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9

    def test_exact_task_count(self):
        plan = plan_relaxed_scale_fixed(FREE, TIME, 5)
        assert len(plan.placements) == 5

    def test_relaxed_never_later_than_strict(self):
        """Relaxed scale-fixed dominates strict for any free-time vector."""
        import itertools
        for free in itertools.product([0.0, 1.0, 3.0], repeat=3):
            strict = plan_scale_fixed(list(free), TIME, 3)
            relaxed = plan_relaxed_scale_fixed(list(free), TIME, 3)
            assert relaxed.barrier <= strict.barrier + 1e-9


class TestScaleAdaptive:
    def test_uses_whatever_is_free(self):
        plan = plan_scale_adaptive([0.0, 0.0, 4.0], TIME, 3, now=0.0)
        assert plan.effective_scale == 2  # only 2 free now

    def test_waits_for_first_gpu_if_none_free(self):
        plan = plan_scale_adaptive(FREE, TIME, 3, now=0.0)
        assert plan.start == 1.0
        assert plan.effective_scale == 1

    def test_never_exceeds_requested_scale(self):
        plan = plan_scale_adaptive([0.0] * 5, [1.0] * 5, 2, now=0.0)
        assert plan.effective_scale == 2


class TestDispatch:
    def test_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            plan_scale_fixed([0.0], TIME, 1)
