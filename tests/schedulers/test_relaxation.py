"""Tests for the Hare_Sched_RL relaxation solvers."""

import numpy as np
import pytest

from repro.core import Job, ProblemInstance, TaskRef, metrics_from_schedule
from repro.schedulers import (
    ExactRelaxationSolver,
    FluidRelaxationSolver,
    greedy_assignment,
)
from tests.conftest import make_random_instance, make_uniform_instance
from tests.schedulers.oracles import by_task, reference_ordering


class TestGreedyAssignment:
    def test_every_task_assigned(self, fig1_instance):
        y = greedy_assignment(fig1_instance)
        assert set(y) == set(fig1_instance.all_tasks())

    def test_prefers_fast_gpu_when_idle(self):
        jobs = [Job(job_id=0, model="m", num_rounds=1, sync_scale=1)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[5.0, 1.0]]),
            sync_time=np.zeros((1, 2)),
        )
        y = greedy_assignment(inst)
        assert y[TaskRef(0, 0, 0)] == 1

    def test_balances_load(self):
        inst = make_uniform_instance(6, 2, train_time=1.0)
        y = greedy_assignment(inst)
        loads = [0, 0]
        for gpu in y.values():
            loads[gpu] += 1
        assert loads == [3, 3]


class TestExactSolver:
    def test_lb_below_any_feasible_schedule(self, fig1_instance):
        """The relaxation objective must lower-bound Algorithm 1's result
        (it relaxes non-preemption with the fixed greedy assignment)."""
        from repro.schedulers import HareScheduler

        res = ExactRelaxationSolver().solve(fig1_instance)
        sched = HareScheduler(relaxation="exact").schedule(fig1_instance)
        assert res.objective <= (
            metrics_from_schedule(sched).total_weighted_completion + 1e-6
        )

    def test_x_hat_respects_arrivals(self, tiny_instance):
        res = ExactRelaxationSolver().solve(tiny_instance)
        for task, x in by_task(tiny_instance, res.x_hat).items():
            assert x >= tiny_instance.jobs[task.job_id].arrival - 1e-9

    def test_x_hat_respects_round_order(self, tiny_instance):
        res = ExactRelaxationSolver().solve(tiny_instance)
        x_hat = by_task(tiny_instance, res.x_hat)  # job 0 has 2 rounds
        assert x_hat[TaskRef(0, 1, 0)] > x_hat[TaskRef(0, 0, 0)]

    def test_h_definition(self, tiny_instance):
        res = ExactRelaxationSolver().solve(tiny_instance)
        x_hat = by_task(tiny_instance, res.x_hat)
        for task, h in by_task(tiny_instance, res.h).items():
            half = tiny_instance.train_time[task.job_id].max() / 2
            assert h == pytest.approx(x_hat[task] + half)

    def test_queyranne_full_set_holds(self, fig1_instance):
        """Constraint (9) holds at the solution for each machine's full set."""
        res = ExactRelaxationSolver().solve(fig1_instance)
        x_hat = by_task(fig1_instance, res.x_hat)
        per_machine: dict[int, list] = {}
        for task, m in greedy_assignment(fig1_instance).items():
            per_machine.setdefault(m, []).append(task)
        for m, tasks in per_machine.items():
            q = np.array([fig1_instance.tc(t.job_id, m) for t in tasks])
            x = np.array([x_hat[t] for t in tasks])
            lhs = (q * (x + q)).sum()
            rhs = 0.5 * (q.sum() ** 2 + (q**2).sum())
            assert lhs >= rhs - 1e-6

    def test_queyranne_prefixes_hold(self, fig1_instance):
        """Lemma 2 needs (9) on every prefix in x̂ order — the cuts enforce it."""
        res = ExactRelaxationSolver().solve(fig1_instance)
        x_hat = by_task(fig1_instance, res.x_hat)
        per_machine: dict[int, list] = {}
        for task, m in greedy_assignment(fig1_instance).items():
            per_machine.setdefault(m, []).append(task)
        for m, tasks in per_machine.items():
            tasks.sort(key=lambda t: x_hat[t])
            for k in range(1, len(tasks) + 1):
                sub = tasks[:k]
                q = np.array([fig1_instance.tc(t.job_id, m) for t in sub])
                x = np.array([x_hat[t] for t in sub])
                lhs = (q * (x + q)).sum()
                rhs = 0.5 * (q.sum() ** 2 + (q**2).sum())
                assert lhs >= rhs - 1e-5

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_solve(self, seed):
        inst = make_random_instance(seed)
        res = ExactRelaxationSolver().solve(inst)
        assert len(res.x_hat) == inst.num_tasks
        assert np.isfinite(res.objective)


class TestFluidSolver:
    def test_covers_all_tasks(self, fig1_instance):
        res = FluidRelaxationSolver().solve(fig1_instance)
        assert len(res.x_hat) == fig1_instance.num_tasks

    def test_round_starts_monotone(self, fig1_instance):
        res = FluidRelaxationSolver().solve(fig1_instance)
        x_hat = by_task(fig1_instance, res.x_hat)
        for job in fig1_instance.jobs:
            starts = [
                x_hat[TaskRef(job.job_id, r, 0)]
                for r in range(job.num_rounds)
            ]
            assert all(a <= b + 1e-9 for a, b in zip(starts, starts[1:]))

    def test_respects_arrivals(self):
        jobs = [
            Job(job_id=0, model="a", num_rounds=1, arrival=0.0),
            Job(job_id=1, model="b", num_rounds=1, arrival=10.0),
        ]
        inst = ProblemInstance(
            jobs=jobs, train_time=np.ones((2, 1)), sync_time=np.zeros((2, 1))
        )
        res = FluidRelaxationSolver().solve(inst)
        assert by_task(inst, res.x_hat)[TaskRef(1, 0, 0)] >= 10.0

    def test_density_priority_prefers_heavy_short(self):
        """A heavy short job must get capacity before a light long one."""
        jobs = [
            Job(job_id=0, model="long", num_rounds=10, weight=1.0),
            Job(job_id=1, model="short", num_rounds=1, weight=3.0),
        ]
        inst = ProblemInstance(
            jobs=jobs, train_time=np.ones((2, 1)), sync_time=np.zeros((2, 1))
        )
        h = by_task(inst, FluidRelaxationSolver().solve(inst).h)
        assert h[TaskRef(1, 0, 0)] < h[TaskRef(0, 5, 0)]

    def test_fair_share_variant_runs(self, fig1_instance):
        res = FluidRelaxationSolver(fair_share=True).solve(fig1_instance)
        assert len(res.x_hat) == fig1_instance.num_tasks

    def test_harmonic_variant_runs(self, fig1_instance):
        res = FluidRelaxationSolver(harmonic=True).solve(fig1_instance)
        assert len(res.x_hat) == fig1_instance.num_tasks

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_solve(self, seed):
        inst = make_random_instance(seed, max_jobs=6, max_rounds=4)
        res = FluidRelaxationSolver().solve(inst)
        assert len(res.x_hat) == inst.num_tasks

    def test_scales_to_thousands_of_tasks(self):
        jobs = [
            Job(job_id=n, model=f"m{n}", num_rounds=50, sync_scale=4,
                arrival=float(n))
            for n in range(40)
        ]
        rng = np.random.default_rng(0)
        tc = rng.uniform(0.5, 2.0, size=(40, 8))
        inst = ProblemInstance(
            jobs=jobs, train_time=tc, sync_time=np.zeros((40, 8))
        )
        res = FluidRelaxationSolver().solve(inst)
        assert len(res.x_hat) == 40 * 50 * 4


class TestOrderingAgreement:
    def test_fluid_and_exact_correlate_on_average(self):
        """The fluid H ordering should broadly agree with the exact one.

        Individual tiny instances can disagree (different tie-breaking for
        near-equal H), so the claim is statistical: positive mean rank
        correlation across a batch of random instances."""
        rhos = []
        for seed in range(12):
            inst = make_random_instance(seed, max_jobs=4, max_rounds=3)
            if inst.num_tasks < 4:
                continue
            exact = reference_ordering(
                inst, ExactRelaxationSolver().solve(inst)
            )
            fluid = reference_ordering(
                inst, FluidRelaxationSolver().solve(inst)
            )
            pos_f = {t: i for i, t in enumerate(fluid)}
            ranks_e = np.arange(len(exact))
            ranks_f = np.array([pos_f[t] for t in exact])
            rhos.append(np.corrcoef(ranks_e, ranks_f)[0, 1])
        assert len(rhos) >= 5
        assert np.mean(rhos) > 0.3


class TestRelaxationResult:
    def test_ordering_sorted_by_h(self, tiny_instance):
        res = ExactRelaxationSolver().solve(tiny_instance)
        h = by_task(tiny_instance, res.h)
        hs = [h[t] for t in reference_ordering(tiny_instance, res)]
        assert hs == sorted(hs)

    @pytest.mark.parametrize("solver", ["exact", "fluid"])
    def test_arrays_in_canonical_order(self, tiny_instance, solver):
        cls = {"exact": ExactRelaxationSolver, "fluid": FluidRelaxationSolver}
        res = cls[solver]().solve(tiny_instance)
        for values in (res.x_hat, res.h):
            assert values.dtype == np.float64
            assert values.shape == (tiny_instance.num_tasks,)
        half = np.repeat(
            tiny_instance.train_time.max(axis=1) / 2,
            [job.num_tasks for job in tiny_instance.jobs],
        )
        assert (res.x_hat + half).tobytes() == res.h.tobytes()
