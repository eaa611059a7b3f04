"""Online Hare against the eager-fluid oracle.

:class:`~tests.schedulers.oracles.EagerFluidOnlineHarePolicy` solves each
re-plan's fluid relaxation in full and list-schedules the whole sorted π
up to the commit horizon. ``hare_online`` must commit the same schedule,
byte for byte, with the same ``KernelResult`` stats, whatever share of the
fluid its re-plans run.

The drawn instances aim at what decides how far a re-plan's fluid has to
run: capacity binding (Σ sync_scale > GPUs, so jobs get partial rates or
none), starvation gaps (a low-density job waits while denser ones run),
simultaneous arrivals and WSPT density ties (jobs sharing a time profile,
weight and shape). The named cases pin one feature each.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Job, ProblemInstance
from repro.core.types import TaskRef
from repro.kernel import run_policy
from repro.schedulers import online
from repro.schedulers.hare import (
    _precedence_safe_order,
    _stepped_order,
    select_solver,
)
from repro.schedulers.online import OnlineHarePolicy
from repro.schedulers.relaxation import FluidRelaxationSolver
from tests.schedulers.oracles import (
    EagerFluidOnlineHarePolicy,
    by_task,
    column_bytes,
    reference_fluid_solve,
)

SOLVERS = {
    "wspt": "fluid",
    "fair_share": FluidRelaxationSolver(fair_share=True),
    "harmonic": FluidRelaxationSolver(harmonic=True),
}

#: Coarse grids, so arrivals, round boundaries and event times tie often.
TIMES = (0.5, 1.0, 2.0, 3.0)
ARRIVALS = (0.0, 0.0, 0.5, 1.0, 1.0, 3.0, 6.0)
#: Task times whose rounds hold under 1e-12 of work: jobs that finish at
#: once, with targets past their curve's end.
TINY = (1e-13, 2.5e-13, 5e-13)


@st.composite
def stepped_instances(draw, max_jobs: int = 8, times=TIMES):
    num_gpus = draw(st.integers(2, 4))
    n_jobs = draw(st.integers(2, max_jobs))
    num_profiles = draw(st.integers(1, 3))
    cells = num_profiles * num_gpus
    grid = st.lists(st.sampled_from(times), min_size=cells, max_size=cells)
    tc = np.array(draw(grid)).reshape(num_profiles, num_gpus)
    ts = np.array(draw(grid)).reshape(num_profiles, num_gpus) / 4.0
    jobs, profile = [], []
    for j in range(n_jobs):
        jobs.append(Job(
            job_id=j,
            model=f"m{j}",
            arrival=draw(st.sampled_from(ARRIVALS)),
            num_rounds=draw(st.integers(1, 4)),
            sync_scale=draw(st.integers(1, min(3, num_gpus))),
            weight=draw(st.sampled_from((0.25, 1.0, 1.0, 2.0))),
        ))
        profile.append(draw(st.integers(0, num_profiles - 1)))
    return ProblemInstance(
        jobs=jobs, train_time=tc[profile], sync_time=ts[profile]
    )


def _run(policy_cls, instance, relaxation="fluid", **kw):
    return run_policy(instance, policy_cls(relaxation=relaxation), **kw)


def _assert_same(instance, relaxation="fluid", **kw) -> None:
    got = _run(OnlineHarePolicy, instance, relaxation, **kw)
    want = _run(EagerFluidOnlineHarePolicy, instance, relaxation, **kw)
    assert column_bytes(got.schedule) == column_bytes(want.schedule)
    assert got.metrics == want.metrics
    for stat in (
        "events", "commitments", "replans", "retracted_rounds",
        "retractions",
    ):
        assert getattr(got, stat) == getattr(want, stat), stat


class TestMatchesEagerFluid:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @settings(max_examples=40, deadline=None)
    @given(
        instance=stepped_instances(times=TIMES + TINY),
        replan_interval=st.sampled_from((None, 1.0)),
        crash=st.sampled_from((None, (1.0, 0), (2.5, 0))),
    )
    def test_drawn(self, solver, instance, replan_interval, crash):
        _assert_same(
            instance, SOLVERS[solver], replan_interval=replan_interval,
            crashes=None if crash is None else [crash],
        )


class TestSteppedOrder:
    """Read to the end, the stepped π is the sorted π of the drained
    fluid, and the drained fluid is the per-job oracle loop's; tiny
    rounds included."""

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @settings(max_examples=60, deadline=None)
    @given(instance=stepped_instances(times=TIMES + TINY))
    def test_full_read_is_the_sorted_order(self, solver, instance):
        solver = select_solver(SOLVERS[solver], instance)
        fluid = solver.stepper(instance)
        got = np.fromiter(_stepped_order(instance, fluid), np.int64)
        assert not fluid.step()  # read to the end: drained
        drained = fluid.result()
        want = reference_fluid_solve(solver, instance)
        assert drained.x_hat.tobytes() == want.x_hat.tobytes()
        assert drained.h.tobytes() == want.h.tobytes()
        assert drained.objective == want.objective
        order = _precedence_safe_order(instance, want)
        assert got.tobytes() == order.tobytes()


def _instance(num_gpus, specs, tc, ts=None) -> ProblemInstance:
    """*specs*: ``(arrival, weight, rounds, scale)`` per job; *tc*: one
    T^c row per job."""
    jobs = [
        Job(job_id=n, model=f"m{n}", arrival=a, weight=w, num_rounds=r,
            sync_scale=s)
        for n, (a, w, r, s) in enumerate(specs)
    ]
    tc = np.array(tc, dtype=float)
    ts = np.zeros_like(tc) if ts is None else np.array(ts, dtype=float)
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


class TestNamedCases:
    def test_starved_round_dated_before_the_fluid_time(self):
        """One GPU; job 0 (work 4, density 1/4) runs first, job 1 (two
        rounds of work 1, density 1/20) waits for it. Job 1's curve has
        no breakpoint between its arrival and its finish at 6, so its
        second round is dated by interpolating across the gap: at 3,
        before job 1 ever runs (at 4, when the fluid has passed 3)."""
        inst = _instance(
            1, [(0.0, 1.0, 2, 1), (0.0, 0.1, 2, 1), (9.0, 1.0, 1, 1)],
            [[2.0], [1.0], [1.0]],
        )
        x_hat = by_task(inst, FluidRelaxationSolver().solve(
            inst.subset(np.array([0, 1]))
        ).x_hat)
        job0_done = 2 * 2.0
        assert x_hat[TaskRef(1, 1, 0)] == 3.0 < job0_done
        _assert_same(inst)

    def test_task_whose_h_equals_the_bound(self):
        """Two GPUs, jobs 0 and 1 at rate 1 each. Job 0 (work 2) ends at
        2, exactly where job 1 (rounds of work 2) reaches its second
        round: that round is dated x̂ = 2 and H = 2 + ½·2 = 3, which is
        job 1's own bound (last breakpoint 2 plus c = 1) until its third
        round is dated, so the round must wait for it."""
        inst = _instance(
            2, [(0.0, 1.0, 1, 1), (0.0, 1.0, 3, 1), (5.0, 1.0, 1, 1)],
            [[2.0, 2.0], [2.0, 2.0], [1.0, 1.0]],
        )
        relaxation = FluidRelaxationSolver().solve(
            inst.subset(np.array([0, 1]))
        )
        x_hat, h = by_task(inst, relaxation.x_hat), by_task(inst, relaxation.h)
        assert x_hat[TaskRef(1, 1, 0)] == 2.0
        assert h[TaskRef(1, 1, 0)] == 2.0 + 2.0 / 2
        _assert_same(inst)

    def test_clamp_to_a_finished_curve(self):
        """Jobs 0 and 1 have rounds of work 2e-13. Job 1 (one round) ends
        at 2e-13; job 0 (three rounds, 6e-13) then has 4e-13 ≤ 1e-12
        left and counts as finished, so its curve ends at work 2e-13 and
        its later round targets clamp to that: both are dated at 2e-13,
        where the unclamped targets would lie past the curve's end."""
        tiny = 2e-13
        inst = _instance(
            2, [(0.0, 1.0, 3, 1), (0.0, 1.0, 1, 1), (0.0, 1.0, 2, 1),
                (4.0, 1.0, 1, 1)],
            [[tiny, tiny], [tiny, tiny], [1.0, 2.0], [1.0, 1.0]],
        )
        x_hat = by_task(inst, FluidRelaxationSolver().solve(
            inst.subset(np.array([0, 1]))
        ).x_hat)
        assert x_hat[TaskRef(0, 1, 0)] == x_hat[TaskRef(0, 2, 0)] == tiny
        _assert_same(inst)

    def test_last_replan_has_no_horizon(self, monkeypatch):
        """The final arrival's re-plan lists its whole residual: no
        horizon, every task placed."""
        inst = _instance(
            2, [(0.0, 1.0, 3, 2), (1.0, 0.5, 2, 1), (3.0, 2.0, 2, 1)],
            [[1.0, 2.0], [1.0, 1.0], [2.0, 0.5]],
            [[0.1, 0.1], [0.2, 0.0], [0.0, 0.3]],
        )
        calls = []
        real = online.list_schedule

        def logging(residual, order, **kw):
            plan = real(residual, order, **kw)
            calls.append((kw["horizon"], len(plan), residual.num_tasks))
            return plan

        monkeypatch.setattr(online, "list_schedule", logging)
        run_policy(inst, OnlineHarePolicy())
        monkeypatch.undo()
        assert len(calls) >= 2
        assert all(h is not None for h, _, _ in calls[:-1])
        horizon, placed, tasks = calls[-1]
        assert horizon is None and placed == tasks
        _assert_same(inst)

    def test_arrival_joined_before_it_comes(self):
        """Job 7 of re-plan 1 arrives at 7.75e-13, within 1e-12 of the
        fluid's start, so it joins at 0 and its first breakpoint comes
        before its arrival: the backwards segment dates its rounds at
        5.5e-13 and 3.25e-13. Its arrival plus c bounds nothing then,
        and the stepped π must wait for those rounds (the first committed
        start read 1.0000000000005 against 1.000000000001025)."""
        odd = (0, 2, 5, 7)
        specs = [
            (0.5, 0.25, 1, 1), (0.0, 0.25, 1, 1), (0.0, 1.0, 2, 2),
            (0.0, 0.25, 1, 1), (0.0, 0.25, 1, 1), (0.0, 0.25, 2, 1),
            (0.0, 0.25, 1, 1), (0.0, 0.25, 4, 1),
        ]
        inst = _instance(
            2, specs,
            [[5e-13, 2.5e-13] if n in odd else [0.5, 0.5]
             for n in range(8)],
            [[0.5, 2.5e-14] if n in odd else [0.125, 0.125]
             for n in range(8)],
        )
        _assert_same(inst, SOLVERS["harmonic"])
