"""Tests for Hare's Algorithm 1."""

import numpy as np
import pytest

from repro.core import (
    ConfigurationError,
    Job,
    ProblemInstance,
    ScheduleValidationError,
    SolverError,
    TaskRef,
    metrics_from_schedule,
    validate_schedule,
)
from repro.schedulers import (
    ExactRelaxationSolver,
    FluidRelaxationSolver,
    GavelFifoScheduler,
    HareScheduler,
    SchedAlloxScheduler,
    list_schedule,
)
from tests.conftest import make_random_instance
from tests.schedulers.oracles import canonical_order


class TestFig1Example:
    def test_beats_oblivious_and_allox(self, fig1_instance):
        """Fig. 1: hetero-oblivious ≈10.5, Allox ≈9, Hare ≈8.5 total JCT."""
        hare = HareScheduler(relaxation="exact").schedule(fig1_instance)
        fifo = GavelFifoScheduler().schedule(fig1_instance)
        allox = SchedAlloxScheduler().schedule(fig1_instance)
        jh = metrics_from_schedule(hare).total_weighted_completion
        jf = metrics_from_schedule(fifo).total_weighted_completion
        ja = metrics_from_schedule(allox).total_weighted_completion
        assert jh < ja < jf + 2.0  # Hare < Allox; FIFO roughly worst
        assert jh <= 8.5 + 1e-6  # at least as good as the paper's schedule

    def test_makespan_not_much_worse(self, fig1_instance):
        """Hare optimizes weighted completion, not makespan; it may trade a
        little makespan (paper's example trades none, ours ≤ ~6%)."""
        hare = HareScheduler(relaxation="exact").schedule(fig1_instance)
        fifo = GavelFifoScheduler().schedule(fig1_instance)
        assert hare.makespan() <= 1.1 * fifo.makespan()


class TestAlgorithmMechanics:
    def test_valid_schedules(self, fig1_instance, tiny_instance):
        for inst in (fig1_instance, tiny_instance):
            for relax in ("exact", "fluid"):
                sched = HareScheduler(relaxation=relax).schedule(inst)
                validate_schedule(sched)

    @pytest.mark.parametrize("placement", ["earliest_available", "earliest_finish"])
    def test_placements_valid(self, fig1_instance, placement):
        sched = HareScheduler(
            relaxation="exact", placement=placement
        ).schedule(fig1_instance)
        validate_schedule(sched)

    def test_earliest_finish_not_worse_on_fig1(self, fig1_instance):
        ef = HareScheduler(relaxation="exact", placement="earliest_finish")
        ea = HareScheduler(relaxation="exact", placement="earliest_available")
        jef = metrics_from_schedule(
            ef.schedule(fig1_instance)
        ).total_weighted_completion
        jea = metrics_from_schedule(
            ea.schedule(fig1_instance)
        ).total_weighted_completion
        assert jef <= jea

    def test_auto_uses_exact_for_small(self, tiny_instance):
        sched = HareScheduler(relaxation="auto")
        sched.schedule(tiny_instance)
        exact = ExactRelaxationSolver().solve(tiny_instance)
        assert sched.last_relaxation.x_hat.tobytes() == exact.x_hat.tobytes()
        assert sched.last_relaxation.objective == exact.objective

    def test_auto_uses_fluid_for_large(self):
        jobs = [
            Job(job_id=n, model=f"m{n}", num_rounds=100, sync_scale=4)
            for n in range(10)
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((10, 4)),
            sync_time=np.zeros((10, 4)),
        )
        sched = HareScheduler(relaxation="auto")
        sched.schedule(inst)
        fluid = FluidRelaxationSolver().solve(inst)
        assert sched.last_relaxation.x_hat.tobytes() == fluid.x_hat.tobytes()
        assert sched.last_relaxation.objective == fluid.objective

    def test_unknown_relaxation_rejected(self, tiny_instance):
        with pytest.raises(SolverError):
            HareScheduler(relaxation="magic").schedule(tiny_instance)

    def test_custom_solver_object(self, tiny_instance):
        sched = HareScheduler(relaxation=FluidRelaxationSolver(harmonic=True))
        validate_schedule(sched.schedule(tiny_instance))

    def test_relaxed_scale_fixed_packs_tasks(self):
        """A 3-task round on 2 GPUs: two tasks share a GPU back-to-back
        (the relaxed scale-fixed scheme, impossible for gang schedulers)."""
        jobs = [Job(job_id=0, model="m", num_rounds=1, sync_scale=3)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((1, 2)),
            sync_time=np.zeros((1, 2)),
        )
        sched = HareScheduler(relaxation="exact").schedule(inst)
        validate_schedule(sched)
        per_gpu = {}
        for a in sched.assignments.values():
            per_gpu.setdefault(a.gpu, []).append(a)
        assert max(len(v) for v in per_gpu.values()) == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_valid(self, seed):
        inst = make_random_instance(seed, max_jobs=5, max_rounds=3, max_scale=3)
        for relax in ("exact", "fluid"):
            sched = HareScheduler(relaxation=relax).schedule(inst)
            validate_schedule(sched)


class TestListSchedule:
    def test_respects_given_order_on_one_gpu(self):
        jobs = [
            Job(job_id=0, model="a", num_rounds=1),
            Job(job_id=1, model="b", num_rounds=1),
        ]
        inst = ProblemInstance(
            jobs=jobs, train_time=np.ones((2, 1)), sync_time=np.zeros((2, 1))
        )
        order = canonical_order(inst, [TaskRef(1, 0, 0), TaskRef(0, 0, 0)])
        sched = list_schedule(inst, order)
        assert sched[TaskRef(1, 0, 0)].start < sched[TaskRef(0, 0, 0)].start

    def test_precedence_violation_raises(self):
        jobs = [Job(job_id=0, model="a", num_rounds=2)]
        inst = ProblemInstance(
            jobs=jobs, train_time=np.ones((1, 1)), sync_time=np.zeros((1, 1))
        )
        bad_order = canonical_order(inst, [TaskRef(0, 1, 0), TaskRef(0, 0, 0)])
        with pytest.raises(SolverError):
            list_schedule(inst, bad_order)

    def test_task_placed_twice_raises(self):
        jobs = [Job(job_id=0, model="a", num_rounds=1, sync_scale=2)]
        inst = ProblemInstance(
            jobs=jobs, train_time=np.ones((1, 2)), sync_time=np.zeros((1, 2))
        )
        with pytest.raises(ScheduleValidationError, match="twice") as e:
            list_schedule(inst, [0, 0])
        assert e.value.constraint == 5

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_index_outside_the_instance_raises(self, bad):
        jobs = [Job(job_id=0, model="a", num_rounds=1, sync_scale=2)]
        inst = ProblemInstance(
            jobs=jobs, train_time=np.ones((1, 2)), sync_time=np.zeros((1, 2))
        )
        with pytest.raises(SolverError, match="outside"):
            list_schedule(inst, [0, bad])

    def test_sync_overlaps_successor(self):
        """GPU frees after compute; the next task may start during sync."""
        jobs = [
            Job(job_id=0, model="a", num_rounds=1),
            Job(job_id=1, model="b", num_rounds=1),
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((2, 1)),
            sync_time=np.full((2, 1), 0.5),
        )
        sched = list_schedule(inst, [0, 1])
        assert sched[TaskRef(1, 0, 0)].start == pytest.approx(1.0)

    def test_unknown_placement_raises(self, tiny_instance):
        """A misspelt rule is refused, not run as ``earliest_finish``."""
        order = np.arange(tiny_instance.num_tasks)
        with pytest.raises(
            ConfigurationError,
            match="'bogus': expected 'earliest_available' or "
            "'earliest_finish'",
        ):
            list_schedule(tiny_instance, order, placement="bogus")

    @pytest.mark.parametrize("name", ["hare", "hare_online"])
    def test_unknown_placement_in_a_spec_raises(self, name):
        from repro.api import run_experiment

        with pytest.raises(ConfigurationError, match="placement 'bogus'"):
            run_experiment(
                scheduler={"name": name, "placement": "bogus"}, gpus=4,
                jobs=3, simulate=False, trace=False,
            )


class TestWeightSensitivity:
    def test_heavy_job_finishes_earlier(self):
        jobs = [
            Job(job_id=0, model="a", num_rounds=3, weight=1.0),
            Job(job_id=1, model="b", num_rounds=3, weight=10.0),
        ]
        inst = ProblemInstance(
            jobs=jobs, train_time=np.ones((2, 1)), sync_time=np.zeros((2, 1))
        )
        sched = HareScheduler(relaxation="exact").schedule(inst)
        assert sched.completions()[1] < sched.completions()[0]
