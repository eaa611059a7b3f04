"""Bit-identity of the vectorized fluid relaxation against its oracle.

``FluidRelaxationSolver.solve`` ranks jobs once and serves the active set
with one ``cumsum`` over caps per event; :func:`reference_fluid_solve` is
the per-job event loop that re-sorts the active set at every event. The
two must agree exactly — the same ``x_hat`` and ``h`` bytes and the same
``objective`` — in all
four ``fair_share`` × ``harmonic`` variants, and a fluid-ordered Hare plan
must match the all-oracle pipeline byte for byte.

The drawn instances are built to hit what large fleet runs never do:
capacity-binding events (Σ sync_scale > num_gpus, so a job gets a partial
rate or none), simultaneous arrivals, idle gaps between arrivals, and
WSPT density ties (jobs sharing a time profile, weight and shape).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Job, ProblemInstance
from repro.core.types import TaskRef
from repro.schedulers import HareScheduler
from repro.schedulers.relaxation import FluidRelaxationSolver
from tests.schedulers.oracles import (
    by_task,
    column_bytes,
    reference_fluid_solve,
    reference_list_schedule,
    reference_precedence_safe_order,
)

VARIANTS = [
    FluidRelaxationSolver(fair_share=fair, harmonic=harm)
    for fair in (False, True)
    for harm in (False, True)
]
VARIANT_IDS = [
    f"fair_share={s.fair_share}-harmonic={s.harmonic}" for s in VARIANTS
]

#: Arrival times drawn from a short list repeat (simultaneous arrivals)
#: and leave gaps long enough for the cluster to drain (idle gaps).
ARRIVALS = (0.0, 0.0, 0.5, 1.0, 1.0, 4.0, 60.0, 200.0)


@st.composite
def fluid_instances(draw) -> ProblemInstance:
    num_gpus = draw(st.integers(1, 6))
    num_jobs = draw(st.integers(1, 12))
    num_profiles = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tc_profiles = rng.uniform(0.2, 3.0, size=(num_profiles, num_gpus))
    ts_profiles = rng.uniform(0.0, 0.3, size=(num_profiles, num_gpus))
    jobs, profile = [], []
    for n in range(num_jobs):
        jobs.append(
            Job(
                job_id=n,
                model=f"m{n}",
                arrival=draw(
                    st.sampled_from(ARRIVALS)
                    | st.floats(0.0, 10.0, allow_nan=False)
                ),
                weight=draw(st.sampled_from((0.5, 1.0, 1.0, 2.0))),
                num_rounds=draw(st.integers(1, 4)),
                sync_scale=draw(st.integers(1, 5)),
            )
        )
        profile.append(draw(st.integers(0, num_profiles - 1)))
    return ProblemInstance(
        jobs=jobs,
        train_time=tc_profiles[profile],
        sync_time=ts_profiles[profile],
    )


def _assert_identical(fast, ref) -> None:
    assert fast.x_hat.tobytes() == ref.x_hat.tobytes()
    assert fast.h.tobytes() == ref.h.tobytes()
    assert fast.objective == ref.objective


def _instance(num_gpus, specs, *, profiles=None) -> ProblemInstance:
    """*specs*: ``(arrival, weight, rounds, scale)`` per job."""
    rng = np.random.default_rng(11)
    jobs = [
        Job(job_id=n, model=f"m{n}", arrival=a, weight=w,
            num_rounds=r, sync_scale=s)
        for n, (a, w, r, s) in enumerate(specs)
    ]
    rows = profiles if profiles is not None else list(range(len(specs)))
    tc = rng.uniform(0.5, 2.0, size=(max(rows) + 1, num_gpus))[rows]
    ts = rng.uniform(0.0, 0.2, size=(max(rows) + 1, num_gpus))[rows]
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


#: One directed instance per feature the drawn instances aim at.
DIRECTED = {
    # Caps 3 + 2 + 2 on 4 GPUs, one time profile, densest first: job 0
    # runs at 3, job 1 at a partial 1, job 2 at 0 until job 0 finishes.
    "capacity_binding": _instance(
        4, [(0.0, 3.0, 2, 3), (0.0, 1.0, 2, 2), (0.0, 0.1, 2, 2)],
        profiles=[0, 0, 0],
    ),
    "simultaneous_arrivals": _instance(
        3, [(1.0, 1.0, 2, 2), (1.0, 2.0, 1, 2), (1.0, 1.5, 3, 1),
            (5.0, 1.0, 1, 3), (5.0, 1.0, 2, 1)]
    ),
    "idle_gaps": _instance(
        2, [(0.0, 1.0, 1, 1), (50.0, 1.0, 2, 2), (120.0, 2.0, 1, 1)]
    ),
    # Jobs 0, 1 and 3 share profile, weight and shape: equal density.
    "density_ties": _instance(
        3,
        [(0.0, 1.0, 2, 2), (0.0, 1.0, 2, 2), (0.0, 2.0, 1, 1),
         (0.0, 1.0, 2, 2)],
        profiles=[0, 0, 1, 0],
    ),
}


class TestDirectedCases:
    def test_cases_have_their_feature(self):
        binding = DIRECTED["capacity_binding"]
        assert sum(j.sync_scale for j in binding.jobs) > binding.num_gpus
        arrivals = [j.arrival for j in DIRECTED["simultaneous_arrivals"].jobs]
        assert len(set(arrivals)) < len(arrivals)
        ties = DIRECTED["density_ties"]
        keys = [
            (j.weight, j.num_rounds, j.sync_scale,
             ties.train_time[j.job_id].tobytes())
            for j in ties.jobs
        ]
        assert len(set(keys)) < len(keys)
        # Job 0 (one task, alone at rate 1) is done within its slowest
        # task time, long before job 1 arrives: the cluster goes idle.
        gaps = DIRECTED["idle_gaps"]
        slowest = (gaps.train_time[0] + gaps.sync_time[0]).max()
        assert slowest < gaps.jobs[1].arrival

    def test_binding_case_rations_capacity(self):
        """Job 0's second round starts at t1 = one round at rate 3. Job 1,
        at rate 1, reaches its second round when job 0 ends at 2·t1; job 2
        starts then at rate 2 and reaches its second round at 3·t1."""
        inst = DIRECTED["capacity_binding"]
        x_hat = by_task(inst, FluidRelaxationSolver().solve(inst).x_hat)
        t1 = x_hat[TaskRef(0, 1, 0)]
        assert t1 > 0.0
        assert x_hat[TaskRef(1, 1, 0)] == pytest.approx(2 * t1)
        assert x_hat[TaskRef(2, 1, 0)] == pytest.approx(3 * t1)

    @pytest.mark.parametrize("case", sorted(DIRECTED))
    @pytest.mark.parametrize("solver", VARIANTS, ids=VARIANT_IDS)
    def test_matches_oracle(self, case, solver):
        inst = DIRECTED[case]
        _assert_identical(solver.solve(inst), reference_fluid_solve(solver, inst))


class TestDrawnInstances:
    @pytest.mark.parametrize("solver", VARIANTS, ids=VARIANT_IDS)
    @given(inst=fluid_instances())
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle(self, solver, inst):
        _assert_identical(solver.solve(inst), reference_fluid_solve(solver, inst))

    @given(inst=fluid_instances())
    @settings(max_examples=40, deadline=None)
    def test_whole_plan_byte_identical(self, inst):
        plan = HareScheduler(relaxation="fluid").schedule(inst)
        relaxation = reference_fluid_solve(FluidRelaxationSolver(), inst)
        order = reference_precedence_safe_order(inst, relaxation)
        ref = reference_list_schedule(inst, order, placement="earliest_finish")
        assert column_bytes(plan) == column_bytes(ref)
