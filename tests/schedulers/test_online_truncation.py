"""The online policy's horizon-truncated re-plan against the untruncated
oracle: committed rounds and ``KernelResult`` stats are byte-identical,
and the sorted π and the stop rule hold on their own."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Job, ProblemInstance
from repro.core.errors import SolverError
from repro.core.types import TaskRef
from repro.kernel import run_policy
from repro.schedulers import online
from repro.schedulers.hare import _precedence_safe_order, list_schedule
from repro.schedulers.online import OnlineHarePolicy
from repro.schedulers.relaxation import FluidRelaxationSolver, RelaxationResult
from tests.schedulers.oracles import (
    UntruncatedOnlineHarePolicy,
    canonical_order,
    column_bytes,
    reference_precedence_safe_order,
)

#: Coarse grids, so arrivals, starts and frontiers tie often.
TIMES = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
ARRIVALS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0)


@st.composite
def online_instances(draw, max_jobs: int = 7, max_rounds: int = 4):
    num_gpus = draw(st.integers(2, 5))
    n_jobs = draw(st.integers(2, max_jobs))
    jobs = [
        Job(
            job_id=j,
            model=f"m{j}",
            arrival=draw(st.sampled_from(ARRIVALS)),
            num_rounds=draw(st.integers(1, max_rounds)),
            sync_scale=draw(st.integers(1, min(3, num_gpus))),
            weight=draw(st.sampled_from((0.5, 1.0, 2.0))),
        )
        for j in range(n_jobs)
    ]
    cells = n_jobs * num_gpus
    grid = st.lists(
        st.sampled_from(TIMES), min_size=cells, max_size=cells
    )
    tc = np.array(draw(grid)).reshape(n_jobs, num_gpus)
    ts = np.array(draw(grid)).reshape(n_jobs, num_gpus) / 4.0
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


class _FixedHeal:
    """Stands in for a heal engine: fixed weight boosts and quarantine."""

    def __init__(self, boosts: dict[int, float], quarantined: set[int]):
        self.boosts = boosts
        self.quarantined = quarantined

    def attach_kernel(self, kernel) -> None:
        kernel.state.weight_boost = dict(self.boosts)
        kernel.state.quarantined = set(self.quarantined)


def _run(policy_cls, instance, *, relaxation, placement, crashes,
         replan_interval, heal):
    policy = policy_cls(relaxation=relaxation, placement=placement)
    return run_policy(
        instance, policy, crashes=crashes, replan_interval=replan_interval,
        heal=heal,
    )


def _assert_same(result, oracle) -> None:
    assert column_bytes(result.schedule) == column_bytes(oracle.schedule)
    assert result.metrics == oracle.metrics
    for stat in (
        "events", "commitments", "replans", "retracted_rounds",
        "retractions",
    ):
        assert getattr(result, stat) == getattr(oracle, stat), stat


@st.composite
def scenarios(draw, instances):
    instance = draw(instances)
    m = instance.num_gpus
    crashes = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from((0.5, 1.0, 2.5, 4.0)),
                st.integers(0, m - 1),
            ).map(lambda c: [c]),
        )
    )
    heal = draw(
        st.one_of(
            st.none(),
            st.builds(
                _FixedHeal,
                st.dictionaries(
                    st.integers(0, instance.num_jobs - 1),
                    st.sampled_from((2.0, 4.0)),
                    max_size=2,
                ),
                st.sets(st.integers(0, m - 1), max_size=1),
            ),
        )
    )
    return dict(
        instance=instance,
        placement=draw(st.sampled_from(("earliest_finish",
                                        "earliest_available"))),
        crashes=crashes,
        replan_interval=draw(st.sampled_from((None, 1.0))),
        heal=heal,
    )


class TestMatchesUntruncatedOracle:
    @settings(max_examples=60, deadline=None)
    @given(scenarios(online_instances()))
    def test_fluid(self, case):
        instance = case.pop("instance")
        got = _run(OnlineHarePolicy, instance, relaxation="fluid", **case)
        want = _run(
            UntruncatedOnlineHarePolicy, instance, relaxation="fluid", **case
        )
        _assert_same(got, want)

    @settings(max_examples=15, deadline=None)
    @given(scenarios(online_instances(max_jobs=4, max_rounds=3)))
    def test_exact(self, case):
        instance = case.pop("instance")
        got = _run(OnlineHarePolicy, instance, relaxation="exact", **case)
        want = _run(
            UntruncatedOnlineHarePolicy, instance, relaxation="exact", **case
        )
        _assert_same(got, want)

    def test_truncation_places_fewer_tasks(self, monkeypatch):
        """On a staggered stream the re-plans stop early: fewer tasks are
        list-scheduled than the residuals hold, with the same result."""
        jobs = [
            Job(job_id=j, model=f"m{j}", arrival=2.0 * j, num_rounds=6,
                sync_scale=1 + j % 2)
            for j in range(6)
        ]
        rng = np.random.default_rng(3)
        instance = ProblemInstance(
            jobs=jobs,
            train_time=rng.uniform(0.5, 2.0, (6, 3)),
            sync_time=rng.uniform(0.0, 0.2, (6, 3)),
        )
        counts = {"placed": 0, "residual": 0}
        real = online.list_schedule

        def counting(residual, order, **kw):
            plan = real(residual, order, **kw)
            counts["placed"] += len(plan)
            counts["residual"] += residual.num_tasks
            return plan

        monkeypatch.setattr(online, "list_schedule", counting)
        got = run_policy(instance, OnlineHarePolicy())
        monkeypatch.undo()
        want = run_policy(instance, UntruncatedOnlineHarePolicy())
        _assert_same(got, want)
        assert counts["placed"] < counts["residual"]


def _relaxation(instance: ProblemInstance, h_values) -> RelaxationResult:
    h = np.array(h_values[: instance.num_tasks], dtype=np.float64)
    return RelaxationResult(x_hat=h.copy(), h=h, objective=0.0)


class TestOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        online_instances(),
        st.lists(st.sampled_from((0.0, 1.0, 2.0, 3.0)), min_size=200,
                 max_size=200),
    )
    def test_equals_the_eager_fix_up(self, instance, h_values):
        """Degenerate H values (ties across rounds, later rounds first)
        exercise the fix-up the heap reproduces."""
        relaxation = _relaxation(instance, h_values)
        eager = reference_precedence_safe_order(instance, relaxation)
        got = _precedence_safe_order(instance, relaxation)
        assert got.tobytes() == eager.tobytes()

    def test_rejects_a_partial_relaxation(self, fig1_instance):
        relaxation = FluidRelaxationSolver().solve(fig1_instance)
        partial = RelaxationResult(
            x_hat=relaxation.x_hat[:-1], h=relaxation.h,
            objective=relaxation.objective,
        )
        with pytest.raises(SolverError, match="covers"):
            _precedence_safe_order(fig1_instance, partial)


class TestHorizonStopRule:
    @settings(max_examples=80, deadline=None)
    @given(
        online_instances(),
        st.sampled_from(("earliest_finish", "earliest_available")),
        st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0)),
        st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.5)), min_size=5,
                 max_size=5),
    )
    def test_truncated_plan_is_exact_prefix(
        self, instance, placement, horizon, phi
    ):
        """The truncated plan is a prefix of the full one; every task it
        leaves out starts at or after the horizon, and every round with a
        task starting before the horizon is complete."""
        relaxation = FluidRelaxationSolver().solve(instance)
        order = _precedence_safe_order(instance, relaxation)
        initial_phi = phi[: instance.num_gpus]
        full = list_schedule(
            instance, order, placement=placement, initial_phi=initial_phi
        )
        cut = list_schedule(
            instance, order,
            placement=placement, initial_phi=initial_phi, horizon=horizon,
        )
        n = len(cut)
        fc, cc = full, cut
        assert cc.canon.tobytes() == order[:n].tobytes()
        for name in ("gpu", "start", "train", "sync"):
            assert getattr(cc, name).tobytes() == getattr(fc, name)[:n].tobytes()
        assert (fc.start[n:] >= horizon).all()
        placed = cut.assignments
        for job in instance.jobs:
            for r in range(job.num_rounds):
                tasks = job.round_tasks(r)
                if any(t in placed and placed[t].start < horizon
                       for t in tasks):
                    assert all(t in placed for t in tasks)

    def test_no_horizon_places_everything(self, fig1_instance):
        relaxation = FluidRelaxationSolver().solve(fig1_instance)
        order = _precedence_safe_order(fig1_instance, relaxation)
        plan = list_schedule(fig1_instance, order, placement="earliest_finish")
        assert len(plan) == fig1_instance.num_tasks

    def test_precedence_check_survives_truncation(self, fig1_instance):
        bad = canonical_order(
            fig1_instance, [TaskRef(1, 1, 0), TaskRef(1, 0, 0)]
        )
        with pytest.raises(SolverError, match="precedence"):
            list_schedule(fig1_instance, bad, horizon=100.0)
