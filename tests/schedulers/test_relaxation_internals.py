"""Unit tests for relaxation-solver internals (fills, curves, cuts)."""

import numpy as np
import pytest

from repro.core import SolverError
from repro.schedulers.relaxation import (
    FluidRelaxationSolver,
    _invert_curves,
    _water_fill,
)
from tests.schedulers.oracles import (
    density_fill,
    invert_curve,
    invert_curve_batch,
)


def _batch(curve, targets):
    """:func:`invert_curve_batch` on a ``[(time, work), ...]`` curve."""
    times, works = (np.array(col) for col in zip(*curve))
    return invert_curve_batch(times, works, targets)


def _per_job(times, works, ends, curve, targets):
    """:func:`_invert_curves`' inputs inverted one curve at a time."""
    out = np.empty(len(targets))
    lo = 0
    for n, hi in enumerate(ends.tolist()):
        mine = curve == n
        out[mine] = invert_curve_batch(
            times[lo:hi], works[lo:hi], targets[mine]
        )
        lo = hi
    return out


def _concat(curves, targets):
    """``_invert_curves`` inputs for ``[(time, work), ...]`` *curves* and
    one target list per curve."""
    times = np.array([t for c in curves for t, _ in c])
    works = np.array([w for c in curves for _, w in c])
    ends = np.cumsum([len(c) for c in curves])
    curve = np.repeat(np.arange(len(curves)), [len(t) for t in targets])
    flat = np.array([x for t in targets for x in t], dtype=float)
    return times, works, ends, curve, flat


class TestWaterFill:
    def test_proportional_when_uncapped(self):
        rates = _water_fill(
            np.array([1.0, 3.0]), np.array([10.0, 10.0]), 4.0
        )
        np.testing.assert_allclose(rates, [1.0, 3.0])

    def test_caps_respected_and_redistributed(self):
        rates = _water_fill(
            np.array([1.0, 1.0]), np.array([0.5, 10.0]), 4.0
        )
        np.testing.assert_allclose(rates, [0.5, 3.5])

    def test_total_never_exceeds_capacity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            w = rng.uniform(0.1, 5.0, n)
            caps = rng.uniform(0.1, 3.0, n)
            cap = float(rng.uniform(0.5, 8.0))
            rates = _water_fill(w, caps, cap)
            assert rates.sum() <= cap + 1e-9
            assert (rates <= caps + 1e-12).all()
            assert (rates >= 0).all()

    def test_surplus_capacity_all_capped(self):
        rates = _water_fill(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 10.0)
        np.testing.assert_allclose(rates, [1.0, 1.0])


class TestDensityFill:
    def test_densest_served_first(self):
        # job1 denser (w/work = 2/1) than job0 (1/1): job1 gets its cap
        rates = density_fill(
            np.array([1.0, 2.0]),
            np.array([1.0, 1.0]),
            np.array([3.0, 3.0]),
            4.0,
        )
        np.testing.assert_allclose(rates, [1.0, 3.0])

    def test_starves_low_density_under_scarcity(self):
        rates = density_fill(
            np.array([1.0, 5.0]),
            np.array([10.0, 1.0]),
            np.array([2.0, 2.0]),
            2.0,
        )
        np.testing.assert_allclose(rates, [0.0, 2.0])

    def test_tie_breaks_by_index(self):
        rates = density_fill(
            np.array([1.0, 1.0]),
            np.array([1.0, 1.0]),
            np.array([2.0, 2.0]),
            2.0,
        )
        np.testing.assert_allclose(rates, [2.0, 0.0])

    def test_capacity_conserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            w = rng.uniform(0.1, 5.0, n)
            work = rng.uniform(0.1, 5.0, n)
            caps = rng.uniform(0.1, 3.0, n)
            cap = float(rng.uniform(0.5, 8.0))
            rates = density_fill(w, work, caps, cap)
            assert rates.sum() <= cap + 1e-9
            assert (rates <= caps + 1e-12).all()


class TestInvertCurve:
    CURVE = [(0.0, 0.0), (2.0, 4.0), (5.0, 4.0), (6.0, 6.0)]

    def test_zero_target_is_curve_start(self):
        assert invert_curve(self.CURVE, 0.0) == 0.0

    def test_linear_interpolation(self):
        assert invert_curve(self.CURVE, 2.0) == pytest.approx(1.0)

    def test_flat_segment_skipped(self):
        # work 4.0 is first reached at t=2.0, not during the stall
        assert invert_curve(self.CURVE, 4.0) == pytest.approx(2.0)

    def test_after_stall(self):
        assert invert_curve(self.CURVE, 5.0) == pytest.approx(5.5)

    def test_target_beyond_curve_clamps_to_end(self):
        assert invert_curve(self.CURVE, 100.0) == 6.0

    def test_float_drift_past_final_work_clamps(self):
        """num_rounds * round_work can land 1 ulp above the curve's total
        work; the inversion must clamp instead of running off the end."""
        assert invert_curve(self.CURVE, 6.0 + 1e-12) == 6.0

    def test_non_monotone_curve_rejected(self):
        # The decreasing segment sits before the target, so the scalar
        # scan must trip over it rather than interpolate earlier.
        bad = [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0)]
        with pytest.raises(SolverError, match="not monotone"):
            invert_curve(bad, 2.5)


class TestInvertCurveBatch:
    CURVE = TestInvertCurve.CURVE

    def test_matches_scalar_on_pinned_curve(self):
        targets = np.array([0.0, -1.0, 2.0, 4.0, 5.0, 6.0, 6.0 + 1e-12, 100.0])
        batch = _batch(self.CURVE, targets)
        scalar = np.array([invert_curve(self.CURVE, float(t)) for t in targets])
        assert np.array_equal(batch, scalar)

    def test_matches_scalar_on_random_curves(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, n))])
            # Random non-decreasing work, with occasional flat segments.
            steps = rng.uniform(0.0, 3.0, n)
            steps[rng.random(n) < 0.3] = 0.0
            works = np.concatenate([[0.0], np.cumsum(steps)])
            curve = list(zip(times.tolist(), works.tolist()))
            targets = rng.uniform(-1.0, works[-1] + 1.0, 16)
            batch = _batch(curve, targets)
            scalar = np.array(
                [invert_curve(curve, float(t)) for t in targets]
            )
            assert np.array_equal(batch, scalar)

    def test_single_point_curve(self):
        batch = _batch([(3.0, 0.0)], np.array([0.0, 1.0]))
        assert np.array_equal(batch, [3.0, 3.0])

    def test_non_monotone_rejected(self):
        with pytest.raises(SolverError, match="not monotone"):
            _batch([(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)], np.array([0.5]))


class TestOnePassInversion:
    """``_invert_curves`` inverts every job's curve in one binary search;
    it must be bit-equal to the per-job oracle."""

    CURVE = TestInvertCurve.CURVE

    def _assert_bit_equal(self, *args):
        got = _invert_curves(*args)
        assert got.tobytes() == _per_job(*args).tobytes()

    def test_edge_cases(self):
        curves = [
            [(3.0, 0.0)],  # a single breakpoint
            self.CURVE,  # a flat segment from t=2 to t=5
            [(1.0, 0.0), (4.0, 0.1 + 0.2)],  # the clamp: 0.3 < 0.1 + 0.2
            [(0.5, 0.0), (1.5, 2.0), (2.5, 5.0)],
        ]
        targets = [
            [0.0, 1.0],
            [0.0, 2.0, 4.0, 5.0, 6.0, 6.0 + 1e-12],
            [0.0, 0.3, 0.1 + 0.2 + 1e-12, 0.15],
            [0.0, 1.0, 2.0, 3.5, 5.0],
        ]
        self._assert_bit_equal(*_concat(curves, targets))
        got = _invert_curves(*_concat(curves, targets))
        assert got[0] == got[1] == 3.0
        assert got[2] == 0.0  # target 0: the curve's start
        assert got[4] == 2.0  # work 4 is first reached before the stall
        assert got[7] == 6.0  # 1e-12 past the end clamps to the end

    def test_random_curves(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            curves, targets = [], []
            for _ in range(int(rng.integers(1, 9))):
                n = int(rng.integers(0, 7))
                times = np.cumsum(rng.uniform(0.1, 2.0, n + 1))
                steps = rng.uniform(0.0, 3.0, n)
                steps[rng.random(n) < 0.3] = 0.0
                works = np.concatenate([[0.0], np.cumsum(steps)])
                curves.append(list(zip(times.tolist(), works.tolist())))
                targets.append(
                    rng.uniform(-1.0, works[-1] + 1.0, int(rng.integers(1, 6)))
                    .tolist() + [0.0, float(works[-1]) + 1e-12]
                )
            self._assert_bit_equal(*_concat(curves, targets))

    def test_non_monotone_rejected(self):
        args = _concat(
            [[(0.0, 0.0), (1.0, 2.0)], [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)]],
            [[0.5], [0.5]],
        )
        with pytest.raises(SolverError, match="not monotone"):
            _invert_curves(*args)

    def test_curve_boundary_is_not_a_drop(self):
        # Curve 0 ends at work 5, curve 1 starts at 0: not a decrease.
        self._assert_bit_equal(*_concat(
            [[(0.0, 0.0), (1.0, 5.0)], [(2.0, 0.0), (3.0, 1.0)]],
            [[2.5], [0.5]],
        ))

    def test_fleet_sized_solve(self):
        """Every round of a fleet-sized solve (500 jobs, 1000 GPUs, ~11k
        tasks) is dated as the per-job oracle inverts its job's finished
        curve, bit for bit. The stepper dates a round at the breakpoint
        that reaches it; the curves are read off the stepper after each
        event (the served jobs whose last breakpoint moved to its time)."""
        from repro.cluster import scaled_cluster
        from repro.harness.experiments import make_loaded_workload, make_problem
        from repro.workload import WorkloadConfig

        jobs = make_loaded_workload(
            500, reference_gpus=1000, load=1.5, seed=1007,
            config=WorkloadConfig(rounds_scale=0.15),
        )
        instance = make_problem(scaled_cluster(1000), jobs)
        rep = (instance.train_time + instance.sync_time).mean(axis=1)
        round_work = instance.sync_scale * rep
        for solver in (
            FluidRelaxationSolver(), FluidRelaxationSolver(fair_share=True)
        ):
            fluid = solver.stepper(instance)
            job_at = np.argsort(fluid._pos)  # rank position -> job
            curves = [[(a, 0.0)] for a in instance.arrival.tolist()]
            while fluid.step():
                grown = fluid._last_t[fluid._s_pos] == fluid.t
                for p, work in zip(
                    fluid._s_pos[grown].tolist(),
                    fluid._s_done[grown].tolist(),
                ):
                    curves[job_at[p]].append((fluid.t, work))
            assert sum(map(len, curves)) > 2 * instance.num_jobs
            x_hat = fluid.result().x_hat
            offset, scale = instance.task_offset, instance.sync_scale
            for n, curve in enumerate(curves):
                targets = np.arange(instance.num_rounds[n]) * round_work[n]
                got = x_hat[offset[n]:offset[n + 1]:scale[n]]
                assert got.tobytes() == _batch(curve, targets).tobytes(), n


class TestCutSeparation:
    def test_violated_prefix_found_and_fixed(self):
        """Craft an instance whose initial LP (full-set cut only) violates a
        prefix; the solver must add cuts until all prefixes hold."""
        import numpy as np

        from repro.core import Job, ProblemInstance
        from repro.schedulers import ExactRelaxationSolver

        # 3 equal sequential-ish tasks on one GPU with varied weights: the
        # optimal LP point pushes cheap tasks early, stressing prefixes.
        jobs = [
            Job(job_id=n, model=f"m{n}", weight=w)
            for n, w in enumerate((1.0, 5.0, 2.0))
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0], [1.0], [1.0]]),
            sync_time=np.zeros((3, 1)),
        )
        solver = ExactRelaxationSolver()
        res = solver.solve(inst)
        # all prefixes of the x̂-sorted order satisfy constraint (9)
        xs = np.sort(res.x_hat)
        q = np.ones(len(xs))
        for k in range(1, len(xs) + 1):
            lhs = (q[:k] * (xs[:k] + q[:k])).sum()
            rhs = 0.5 * (q[:k].sum() ** 2 + (q[:k] ** 2).sum())
            assert lhs >= rhs - 1e-6
        # single machine, unit tasks: the relaxation objective equals the
        # WSPT optimum 5*1 + 2*2 + 1*3 = 12
        assert res.objective == pytest.approx(12.0, abs=1e-5)
