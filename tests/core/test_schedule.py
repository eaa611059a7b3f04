"""Tests for Schedule and constraint validation (4)-(8)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    Job,
    ProblemInstance,
    Schedule,
    ScheduleValidationError,
    TaskAssignment,
    TaskRef,
    merge_intervals,
    schedule_from_mapping,
    validate_schedule,
)


@pytest.fixture
def two_round_instance() -> ProblemInstance:
    jobs = [Job(job_id=0, model="m", num_rounds=2, sync_scale=2, arrival=1.0)]
    tc = np.array([[1.0, 2.0]])
    ts = np.array([[0.5, 0.5]])
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


def valid_mapping(inst):
    """A hand-built feasible schedule for two_round_instance."""
    # round 0: both tasks start at arrival on different GPUs.
    # barrier = max(1+1+0.5, 1+2+0.5) = 3.5; round 1 starts at 3.5.
    return {
        TaskRef(0, 0, 0): (0, 1.0),
        TaskRef(0, 0, 1): (1, 1.0),
        TaskRef(0, 1, 0): (0, 3.5),
        TaskRef(0, 1, 1): (1, 3.5),
    }


class TestScheduleBasics:
    def test_add_and_lookup(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        assert len(sched) == 4
        assert TaskRef(0, 0, 0) in sched
        assert sched[TaskRef(0, 0, 0)].gpu == 0

    def test_double_add_rejected(self, two_round_instance):
        sched = Schedule(two_round_instance)
        a = TaskAssignment(TaskRef(0, 0, 0), 0, 1.0, 1.0, 0.5)
        sched.add(a)
        with pytest.raises(ScheduleValidationError):
            sched.add(a)

    def test_gpu_sequences_sorted(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        seqs = sched.gpu_sequences()
        starts = [a.start for a in seqs[0]]
        assert starts == sorted(starts)

    def test_round_end_and_completion(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        assert sched.round_end(0, 0) == pytest.approx(3.5)
        assert sched.job_completion(0) == pytest.approx(6.0)

    def test_makespan(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        assert sched.makespan() == pytest.approx(6.0)

    def test_total_weighted_completion(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        assert sched.total_weighted_completion() == pytest.approx(6.0)

    def test_empty_makespan(self, two_round_instance):
        assert Schedule(two_round_instance).makespan() == 0.0


class TestValidation:
    def test_valid_schedule_passes(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        validate_schedule(sched)  # must not raise

    def test_missing_task_detected(self, two_round_instance):
        mapping = valid_mapping(two_round_instance)
        del mapping[TaskRef(0, 1, 1)]
        sched = schedule_from_mapping(two_round_instance, mapping)
        with pytest.raises(ScheduleValidationError) as e:
            validate_schedule(sched)
        assert e.value.constraint == 5

    def test_arrival_violation_constraint4(self, two_round_instance):
        mapping = valid_mapping(two_round_instance)
        mapping[TaskRef(0, 0, 0)] = (0, 0.5)  # before arrival 1.0
        sched = schedule_from_mapping(two_round_instance, mapping)
        with pytest.raises(ScheduleValidationError) as e:
            validate_schedule(sched)
        assert e.value.constraint == 4

    def test_barrier_violation_constraint7(self, two_round_instance):
        mapping = valid_mapping(two_round_instance)
        mapping[TaskRef(0, 1, 0)] = (0, 3.0)  # barrier is 3.5
        sched = schedule_from_mapping(two_round_instance, mapping)
        with pytest.raises(ScheduleValidationError) as e:
            validate_schedule(sched)
        assert e.value.constraint == 7

    def test_overlap_violation_constraint8(self, two_round_instance):
        mapping = valid_mapping(two_round_instance)
        # put both round-0 tasks on GPU 0 overlapping
        mapping[TaskRef(0, 0, 1)] = (0, 1.5)
        mapping[TaskRef(0, 1, 0)] = (0, 4.0)
        mapping[TaskRef(0, 1, 1)] = (1, 4.0)
        sched = schedule_from_mapping(two_round_instance, mapping)
        with pytest.raises(ScheduleValidationError) as e:
            validate_schedule(sched)
        assert e.value.constraint in (7, 8)

    def test_sync_may_overlap_next_compute(self, two_round_instance):
        # Task B starts right at A's compute end, inside A's sync window:
        # legal per §5.2 (sync overlaps the successor's compute).
        jobs = [
            Job(job_id=0, model="m", num_rounds=1, sync_scale=1),
            Job(job_id=1, model="m", num_rounds=1, sync_scale=1),
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0], [1.0]]),
            sync_time=np.array([[0.5], [0.5]]),
        )
        sched = schedule_from_mapping(
            inst, {TaskRef(0, 0, 0): (0, 0.0), TaskRef(1, 0, 0): (0, 1.0)}
        )
        validate_schedule(sched)  # must not raise

    def test_wrong_durations_detected(self, two_round_instance):
        sched = Schedule(two_round_instance)
        for task, (gpu, start) in valid_mapping(two_round_instance).items():
            sched.add(
                TaskAssignment(task, gpu, start, train_time=9.9, sync_time=0.5)
            )
        with pytest.raises(ScheduleValidationError) as e:
            validate_schedule(sched)
        assert e.value.constraint == 6

    def test_realized_mode_allows_inflated_durations(self, two_round_instance):
        # simulate switching overhead: longer spans, later rounds shifted
        mapping = {
            TaskRef(0, 0, 0): (0, 1.0),
            TaskRef(0, 0, 1): (1, 1.0),
            TaskRef(0, 1, 0): (0, 5.0),
            TaskRef(0, 1, 1): (1, 5.0),
        }
        sched = Schedule(two_round_instance)
        for task, (gpu, start) in mapping.items():
            sched.add(
                TaskAssignment(task, gpu, start, train_time=2.5, sync_time=0.5)
            )
        validate_schedule(sched, check_durations=False)

    def test_bad_gpu_rejected(self, two_round_instance):
        mapping = valid_mapping(two_round_instance)
        mapping[TaskRef(0, 0, 0)] = (7, 1.0)
        sched = Schedule(two_round_instance)
        for task, (gpu, start) in mapping.items():
            sched.add(
                TaskAssignment(
                    task, gpu, start,
                    train_time=1.0, sync_time=0.5,
                )
            )
        with pytest.raises(ScheduleValidationError):
            validate_schedule(sched, check_durations=False)


class TestNonFiniteTimes:
    """A NaN makes every comparison false; it must still be rejected."""

    @pytest.fixture
    def sched(self, two_round_instance):
        return schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("check_durations", [True, False])
    def test_non_finite_start_fails_constraint4(
        self, sched, start, check_durations
    ):
        task = TaskRef(0, 1, 0)
        sched.assignments[task] = replace(sched[task], start=start)
        with pytest.raises(ScheduleValidationError, match="non-finite") as e:
            validate_schedule(sched, check_durations=check_durations)
        assert e.value.constraint == 4

    @pytest.mark.parametrize("field", ["train_time", "sync_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("check_durations", [True, False])
    def test_non_finite_durations_fail_constraint6(
        self, sched, field, value, check_durations
    ):
        task = TaskRef(0, 0, 1)
        sched.assignments[task] = replace(sched[task], **{field: value})
        with pytest.raises(ScheduleValidationError, match="non-finite") as e:
            validate_schedule(sched, check_durations=check_durations)
        assert e.value.constraint == 6


class TestScheduleColumns:
    def test_columns_follow_insertion_order(self, two_round_instance):
        mapping = dict(reversed(valid_mapping(two_round_instance).items()))
        cols = schedule_from_mapping(two_round_instance, mapping).columns()
        assert cols.canon.tolist() == [3, 2, 1, 0]
        assert cols.gpu.tolist() == [1, 0, 1, 0]
        assert cols.canonical_rows().tolist() == [3, 2, 1, 0]
        assert cols.end.tolist() == [6.0, 5.0, 3.5, 2.5]

    def test_unknown_tasks_have_no_canonical_index(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        sched.add(TaskAssignment(TaskRef(0, 2, 0), 0, 9.0, 1.0, 0.5))
        sched.add(TaskAssignment(TaskRef(1, 0, 0), 0, 9.0, 1.0, 0.5))
        assert sched.columns().canon.tolist() == [0, 1, 2, 3, -1, -1]

    def test_instance_without_jobs(self):
        inst = ProblemInstance(
            jobs=[], train_time=np.ones((0, 2)), sync_time=np.zeros((0, 2))
        )
        sched = Schedule(inst)
        assert sched.completions() == {} and sched.makespan() == 0.0
        validate_schedule(sched)
        sched.add(TaskAssignment(TaskRef(0, 0, 0), 0, 0.0, 1.0, 0.0))
        assert sched.columns().canon.tolist() == [-1]
        assert sched.makespan() == 1.0
        with pytest.raises(ScheduleValidationError, match="1 unknown tasks"):
            validate_schedule(sched)

    def test_canonical_rows_name_the_first_missing_task(
        self, two_round_instance
    ):
        mapping = valid_mapping(two_round_instance)
        del mapping[TaskRef(0, 1, 0)]
        cols = schedule_from_mapping(two_round_instance, mapping).columns()
        with pytest.raises(KeyError) as e:
            cols.canonical_rows()
        assert e.value.args[0] == TaskRef(0, 1, 0)

    def test_to_schedule_round_trips(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        again = sched.columns().to_schedule()
        assert list(again.assignments.items()) == list(
            sched.assignments.items()
        )

    def test_incomplete_final_round_raises_like_round_end(
        self, two_round_instance
    ):
        mapping = valid_mapping(two_round_instance)
        del mapping[TaskRef(0, 1, 1)]
        sched = schedule_from_mapping(two_round_instance, mapping)
        with pytest.raises(ScheduleValidationError) as want:
            sched.round_end(0, 1)
        with pytest.raises(ScheduleValidationError) as got:
            sched.completions()
        assert str(got.value) == str(want.value)


class TestMergeIntervals:
    def test_disjoint_kept(self):
        assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_overlapping_merged(self):
        assert merge_intervals([(0, 2), (1, 3)]) == [(0, 3)]

    def test_touching_merged(self):
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_unsorted_input(self):
        assert merge_intervals([(5, 6), (0, 1)]) == [(0, 1), (5, 6)]

    def test_empty(self):
        assert merge_intervals([]) == []
