"""Tests for Job and ProblemInstance."""

import numpy as np
import pytest

from repro.core import (
    ConfigurationError,
    InfeasibleProblemError,
    Job,
    ProblemInstance,
    TaskRef,
)
from tests.conftest import make_uniform_instance


class TestJob:
    def test_num_tasks(self):
        job = Job(job_id=0, model="m", num_rounds=3, sync_scale=4)
        assert job.num_tasks == 12

    def test_tasks_enumeration_order(self):
        job = Job(job_id=1, model="m", num_rounds=2, sync_scale=2)
        refs = list(job.tasks())
        assert refs == [
            TaskRef(1, 0, 0), TaskRef(1, 0, 1),
            TaskRef(1, 1, 0), TaskRef(1, 1, 1),
        ]

    def test_round_tasks(self):
        job = Job(job_id=0, model="m", num_rounds=2, sync_scale=3)
        assert job.round_tasks(1) == [
            TaskRef(0, 1, 0), TaskRef(0, 1, 1), TaskRef(0, 1, 2)
        ]

    def test_round_tasks_out_of_range(self):
        job = Job(job_id=0, model="m", num_rounds=2)
        with pytest.raises(ConfigurationError):
            job.round_tasks(2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_rounds=0),
            dict(sync_scale=0),
            dict(weight=0.0),
            dict(arrival=-1.0),
            dict(batch_scale=0.0),
        ],
    )
    def test_invalid_job_params(self, kwargs):
        base = dict(job_id=0, model="m")
        with pytest.raises(ConfigurationError):
            Job(**{**base, **kwargs})


class TestProblemInstance:
    def test_shapes_validated(self):
        jobs = [Job(job_id=0, model="m")]
        with pytest.raises(ConfigurationError):
            ProblemInstance(
                jobs=jobs,
                train_time=np.ones((2, 2)),
                sync_time=np.ones((2, 2)),
            )

    def test_mismatched_matrices(self):
        jobs = [Job(job_id=0, model="m")]
        with pytest.raises(ConfigurationError):
            ProblemInstance(
                jobs=jobs,
                train_time=np.ones((1, 2)),
                sync_time=np.ones((1, 3)),
            )

    def test_nonpositive_train_time_rejected(self):
        jobs = [Job(job_id=0, model="m")]
        with pytest.raises(ConfigurationError):
            ProblemInstance(
                jobs=jobs,
                train_time=np.zeros((1, 2)),
                sync_time=np.zeros((1, 2)),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("matrix", ["train_time", "sync_time"])
    def test_non_finite_times_rejected(self, matrix, bad):
        jobs = [Job(job_id=0, model="m"), Job(job_id=1, model="m")]
        times = {
            "train_time": np.ones((2, 3)), "sync_time": np.ones((2, 3)),
        }
        times[matrix][1, 2] = bad
        times[matrix][1, 1] = bad
        with pytest.raises(
            ConfigurationError, match=rf"{matrix}\[job 1, GPU 1\]"
        ):
            ProblemInstance(jobs=jobs, **times)

    def test_dense_job_ids_required(self):
        jobs = [Job(job_id=1, model="m")]
        with pytest.raises(ConfigurationError):
            ProblemInstance(
                jobs=jobs, train_time=np.ones((1, 1)), sync_time=np.zeros((1, 1))
            )

    def test_lookups(self, tiny_instance):
        assert tiny_instance.tc(0, 0) == 1.0
        assert tiny_instance.ts(0, 1) == 0.2
        assert tiny_instance.task_time(1, 1) == pytest.approx(1.1)

    def test_fastest_gpu(self, tiny_instance):
        assert tiny_instance.fastest_gpu(0) == 0
        assert tiny_instance.fastest_gpu(1) == 1

    def test_num_tasks(self, tiny_instance):
        assert tiny_instance.num_tasks == 4

    def test_all_tasks_covers_every_job(self, tiny_instance):
        tasks = list(tiny_instance.all_tasks())
        assert len(tasks) == 4
        assert len(set(tasks)) == 4

    def test_alpha_uniform_is_one(self):
        inst = make_uniform_instance(2, 3, train_time=1.0)
        assert inst.alpha() == pytest.approx(1.0)

    def test_alpha_heterogeneous(self):
        jobs = [Job(job_id=0, model="m")]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0, 7.0]]),
            sync_time=np.array([[0.1, 0.2]]),
        )
        assert inst.alpha() == pytest.approx(7.0)

    def test_alpha_ignores_zero_sync(self):
        jobs = [Job(job_id=0, model="m")]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0, 2.0]]),
            sync_time=np.array([[0.0, 0.0]]),
        )
        assert inst.alpha() == pytest.approx(2.0)

    def test_gpu_labels_defaulted(self, tiny_instance):
        assert tiny_instance.gpu_labels == ["gpu0", "gpu1"]

    def test_uniform_factory_requires_gpu(self):
        with pytest.raises(InfeasibleProblemError):
            make_uniform_instance(1, 0)


class TestJobTable:
    def test_caller_list_is_copied(self):
        """Appending to the caller's list after construction changed
        num_jobs under fixed-size matrices, and planning then failed with
        a bare IndexError."""
        from repro.schedulers import create

        jobs = [Job(0, "m", num_rounds=2), Job(1, "m")]
        inst = ProblemInstance(
            jobs=jobs, train_time=np.ones((2, 3)), sync_time=np.zeros((2, 3))
        )
        jobs.append(Job(2, "m"))
        assert inst.num_jobs == 2
        assert inst.jobs == (Job(0, "m", num_rounds=2), Job(1, "m"))
        assert len(create("hare").plan(inst)) == inst.num_tasks == 3

    @pytest.mark.parametrize(
        "column", ["arrival", "weight", "num_rounds", "sync_scale",
                   "task_offset"],
    )
    def test_job_columns_are_read_only(self, tiny_instance, column):
        with pytest.raises(ValueError, match="read-only"):
            getattr(tiny_instance, column)[0] = 1

    def test_task_columns_are_read_only_and_computed_once(
        self, tiny_instance
    ):
        cols = tiny_instance.task_columns()
        assert cols is tiny_instance.task_columns()
        with pytest.raises(ValueError, match="read-only"):
            cols[0][0] = 1

    def test_columns_mirror_the_jobs(self, tiny_instance):
        inst = tiny_instance
        assert inst.arrival.tolist() == [0.0, 0.5]
        assert inst.weight.tolist() == [2.0, 1.0]
        assert inst.num_rounds.tolist() == [2, 1]
        assert inst.sync_scale.tolist() == [1, 2]
        assert inst.model == ("a", "b")
        assert inst.batch_scale == (1.0, 1.0)
        assert inst.task_offset.tolist() == [0, 2, 4]

    def test_subset_reindexes_and_keeps_labels(self, tiny_instance):
        sub = tiny_instance.subset(
            [1], [1], arrival=[3.0], weight=[4.0], num_rounds=[5]
        )
        assert sub.num_jobs == 1 and sub.num_gpus == 1
        assert sub.gpu_labels == ["gpu1"]
        assert sub.train_time.tolist() == [[1.0]]
        assert sub.jobs == (
            Job(0, "b", arrival=3.0, weight=4.0, num_rounds=5, sync_scale=2),
        )
        assert sub.num_tasks == 10

    @pytest.mark.parametrize(
        "override",
        [{"arrival": [-1.0]}, {"weight": [0.0]}, {"num_rounds": [0]}],
    )
    def test_subset_runs_the_job_checks(self, tiny_instance, override):
        with pytest.raises(ConfigurationError, match="job 0"):
            tiny_instance.subset([1], **override)
