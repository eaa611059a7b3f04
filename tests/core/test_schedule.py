"""Tests for Schedule and constraint validation (4)-(8)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    ConfigurationError,
    Job,
    ProblemInstance,
    Schedule,
    ScheduleValidationError,
    TaskAssignment,
    TaskRef,
    merge_intervals,
    schedule_from_mapping,
    schedule_from_rows,
    validate_schedule,
)
from repro.core.metrics import metrics_from_schedule
from tests.core.oracles import reference_round_end, schedule_of


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
        assert reference_round_end(sched, 0, 0) == pytest.approx(3.5)
        assert sched.completions()[0] == pytest.approx(6.0)

    def test_makespan(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        assert sched.makespan() == pytest.approx(6.0)

    def test_total_weighted_completion(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        assert metrics_from_schedule(
            sched
        ).total_weighted_completion == pytest.approx(6.0)

    def test_empty_makespan(self, two_round_instance):
        assert schedule_from_rows(two_round_instance, []).makespan() == 0.0


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
        sched = schedule_of(
            two_round_instance,
            (
                TaskAssignment(task, gpu, start, train_time=9.9, sync_time=0.5)
                for task, (gpu, start) in valid_mapping(
                    two_round_instance
                ).items()
            ),
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
        sched = schedule_of(
            two_round_instance,
            (
                TaskAssignment(task, gpu, start, train_time=2.5, sync_time=0.5)
                for task, (gpu, start) in mapping.items()
            ),
        )
        validate_schedule(sched, check_durations=False)

    def test_bad_gpu_rejected(self, two_round_instance):
        mapping = valid_mapping(two_round_instance)
        mapping[TaskRef(0, 0, 0)] = (7, 1.0)
        sched = schedule_of(
            two_round_instance,
            (
                TaskAssignment(
                    task, gpu, start,
                    train_time=1.0, sync_time=0.5,
                )
                for task, (gpu, start) in mapping.items()
            ),
        )
        with pytest.raises(ScheduleValidationError):
            validate_schedule(sched, check_durations=False)


def _with(sched: Schedule, task: TaskRef, **changes) -> Schedule:
    """A copy of *sched* with *task*'s assignment changed."""
    return schedule_of(
        sched.instance,
        (
            replace(a, **changes) if t == task else a
            for t, a in sched.assignments.items()
        ),
    )


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
        sched = _with(sched, TaskRef(0, 1, 0), start=start)
        with pytest.raises(ScheduleValidationError, match="non-finite") as e:
            validate_schedule(sched, check_durations=check_durations)
        assert e.value.constraint == 4

    @pytest.mark.parametrize("field", ["train_time", "sync_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("check_durations", [True, False])
    def test_non_finite_durations_fail_constraint6(
        self, sched, field, value, check_durations
    ):
        sched = _with(sched, TaskRef(0, 0, 1), **{field: value})
        with pytest.raises(ScheduleValidationError, match="non-finite") as e:
            validate_schedule(sched, check_durations=check_durations)
        assert e.value.constraint == 6


class TestScheduleColumns:
    def test_columns_follow_insertion_order(self, two_round_instance):
        mapping = dict(reversed(valid_mapping(two_round_instance).items()))
        cols = schedule_from_mapping(two_round_instance, mapping)
        assert cols.canon.tolist() == [3, 2, 1, 0]
        assert cols.gpu.tolist() == [1, 0, 1, 0]
        assert cols.canonical_rows().tolist() == [3, 2, 1, 0]
        assert cols.end.tolist() == [6.0, 5.0, 3.5, 2.5]

    def test_unknown_tasks_have_no_canonical_index(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        sched = schedule_of(
            two_round_instance,
            [
                *sched.assignments.values(),
                TaskAssignment(TaskRef(0, 2, 0), 0, 9.0, 1.0, 0.5),
                TaskAssignment(TaskRef(1, 0, 0), 0, 9.0, 1.0, 0.5),
            ],
        )
        assert sched.canon.tolist() == [0, 1, 2, 3, -1, -1]

    def test_instance_without_jobs(self):
        inst = ProblemInstance(
            jobs=[], train_time=np.ones((0, 2)), sync_time=np.zeros((0, 2))
        )
        sched = schedule_from_rows(inst, [])
        assert sched.completions() == {} and sched.makespan() == 0.0
        validate_schedule(sched)
        sched = schedule_of(
            inst, [TaskAssignment(TaskRef(0, 0, 0), 0, 0.0, 1.0, 0.0)]
        )
        assert sched.canon.tolist() == [-1]
        assert sched.makespan() == 1.0
        with pytest.raises(ScheduleValidationError, match="1 unknown tasks"):
            validate_schedule(sched)

    def test_canonical_rows_name_the_first_missing_task(
        self, two_round_instance
    ):
        mapping = valid_mapping(two_round_instance)
        del mapping[TaskRef(0, 1, 0)]
        cols = schedule_from_mapping(two_round_instance, mapping)
        with pytest.raises(KeyError) as e:
            cols.canonical_rows()
        assert e.value.args[0] == TaskRef(0, 1, 0)

    def test_to_schedule_round_trips(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        again = Schedule(
            sched.instance, sched.job, sched.rnd, sched.slot, sched.gpu,
            sched.start, sched.train, sched.sync,
        )
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
            reference_round_end(sched, 0, 1)
        with pytest.raises(ScheduleValidationError) as got:
            sched.completions()
        assert str(got.value) == str(want.value)


def _backed(inst) -> Schedule:
    """The valid two-round schedule, no object read yet."""
    backed = schedule_from_mapping(inst, valid_mapping(inst))
    assert backed._assignments is None
    return backed


class TestColumnBackedSchedule:
    """A schedule is its columns: it builds its objects on the first
    object read, keeps them read-only beside the columns, and answers
    ``len`` from the columns."""

    def test_equals_its_materialized_twin(self, two_round_instance):
        backed = _backed(two_round_instance)
        twin = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        assert backed == twin and twin == backed
        assert backed == _backed(two_round_instance)
        extra = TaskAssignment(TaskRef(0, 2, 0), 0, 9.0, 1.0, 0.5)
        longer = schedule_of(
            two_round_instance, [*twin.assignments.values(), extra]
        )
        assert backed != longer

    def test_pickles_without_materializing(self, two_round_instance):
        import pickle

        backed = _backed(two_round_instance)
        again = pickle.loads(pickle.dumps(backed))
        assert backed._assignments is None and again._assignments is None
        assert again.canon.tolist() == [0, 1, 2, 3]
        assert list(again.assignments.items()) == list(
            backed.assignments.items()
        )

    def test_pickles_after_an_object_read(self, two_round_instance):
        import pickle

        backed = _backed(two_round_instance)
        assert TaskRef(0, 0, 0) in backed  # builds the objects
        again = pickle.loads(pickle.dumps(backed))
        assert again._assignments is None
        assert list(again.assignments.items()) == list(
            backed.assignments.items()
        )

    def test_len_validate_and_metrics_do_not_materialize(
        self, two_round_instance
    ):
        from repro.core import metrics_from_schedule

        backed = _backed(two_round_instance)
        assert len(backed) == 4
        validate_schedule(backed)
        metrics_from_schedule(backed)
        assert backed.makespan() == 6.0
        assert backed._assignments is None
        assert TaskRef(0, 0, 0) in backed
        assert backed._assignments is not None

    def test_streaming_run_returns_an_unmaterialized_plan(self):
        from repro.api import run_experiment

        result = run_experiment(
            gpus=8, jobs=6, scheduler="hare", arrivals="streaming",
            rounds_scale=0.05, simulate=False, validate=True, trace=False,
        )
        plan = result.plan
        assert plan._assignments is None
        assert len(plan) == result.instance.num_tasks
        assert len(plan.assignments) == len(plan)
        assert plan._assignments is not None

    def test_a_run_plan_is_read_only(self):
        from repro.api import run_experiment

        run = run_experiment(
            gpus=4, jobs=3, scheduler="hare", rounds_scale=0.05,
            simulate=False, trace=False,
        )
        task, a = next(iter(run.plan.assignments.items()))
        with pytest.raises(TypeError):
            run.plan.assignments[task] = replace(a, start=a.start + 1.0)
        assert run.plan[task] == a

    def test_repeated_row_fails_constraint5(self, two_round_instance):
        """A schedule can hold a task on two rows; the validator must
        reject it."""
        cols = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        rows = [0, 1, 2, 3, 3]
        twice = Schedule(
            two_round_instance, cols.job[rows], cols.rnd[rows],
            cols.slot[rows], cols.gpu[rows], cols.start[rows],
            cols.train[rows], cols.sync[rows],
        )
        with pytest.raises(
            ScheduleValidationError, match="1 tasks assigned more than once"
        ) as e:
            validate_schedule(twice)
        assert e.value.constraint == 5
        assert str(TaskRef(0, 1, 1)) in str(e.value)


class TestOneScheduleClass:
    def test_ragged_columns_rejected(self, two_round_instance):
        with pytest.raises(ConfigurationError) as e:
            Schedule(
                two_round_instance, job=[0, 0], rnd=[0, 1], slot=[0, 0],
                gpu=[0], start=[0.0, 1.2], train=[1.0, 1.0],
                sync=[0.5, 0.5],
            )
        assert "job=2" in str(e.value) and "gpu=1" in str(e.value)

    def test_duplicated_row_is_not_equal(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        rows = [0, 1, 2, 3, 0]
        twice = Schedule(
            two_round_instance, sched.job[rows], sched.rnd[rows],
            sched.slot[rows], sched.gpu[rows], sched.start[rows],
            sched.train[rows], sched.sync[rows],
        )
        assert len(twice) == 5
        assert sched != twice and twice != sched

    def test_repr_is_a_column_summary(self, two_round_instance):
        sched = schedule_from_mapping(
            two_round_instance, valid_mapping(two_round_instance)
        )
        assert repr(sched) == "Schedule(rows=4, jobs=1, gpus=2, makespan=6)"
        assert sched._assignments is None


class TestScheduleFromRows:
    @pytest.fixture
    def one_job(self) -> ProblemInstance:
        jobs = [Job(job_id=0, model="m", num_rounds=1, sync_scale=1)]
        return ProblemInstance(
            jobs=jobs,
            train_time=np.array([[3.0, 7.0]]),
            sync_time=np.array([[0.5, 0.25]]),
        )

    def test_rows_keep_order_and_read_instance_durations(self, one_job):
        sched = schedule_from_rows(one_job, [(0, 0, 0, 1, 2.0)])
        assert sched[TaskRef(0, 0, 0)] == TaskAssignment(
            TaskRef(0, 0, 0), 1, 2.0, 7.0, 0.25
        )
        rows = [(0, 1, 0, 1, 5.0), (0, 0, 0, 0, 1.0)]
        cols = schedule_from_rows(one_job, rows)
        assert cols.rnd.tolist() == [1, 0]
        assert cols.train.tolist() == [7.0, 3.0]

    @pytest.mark.parametrize(
        ("row", "message"),
        [
            ((0, 0, 0, -1, 0.0), "J0.r0.t0 placed on nonexistent GPU -1"),
            ((0, 0, 0, 2, 0.0), "J0.r0.t0 placed on nonexistent GPU 2"),
            ((3, 0, 0, 0, 0.0), "unknown task J3.r0.t0"),
        ],
        ids=["gpu_-1", "gpu_num_gpus", "unknown_job"],
    )
    def test_row_outside_the_instance_rejected(self, one_job, row, message):
        with pytest.raises(ScheduleValidationError) as e:
            schedule_from_rows(one_job, [row])
        assert e.value.constraint == 5
        assert message in str(e.value)

    def test_a_task_on_two_rows_keeps_both(self, one_job):
        sched = schedule_from_rows(
            one_job, [(0, 0, 0, 0, 0.0), (0, 0, 0, 1, 0.0)]
        )
        assert len(sched) == 2
        with pytest.raises(
            ScheduleValidationError, match="1 tasks assigned more than once"
        ):
            validate_schedule(sched)


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
