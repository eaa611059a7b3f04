"""Cell-sharding equivalence properties (Hypothesis).

The acceptance invariant of the cells refactor (DESIGN.md §16):
``cells=1`` is not "approximately" the flat path — it IS the flat path.
:func:`repro.cells.run_sharded` with one cell must hand back a
:class:`~repro.kernel.runner.KernelResult` whose stats and assignments
are byte-identical to :func:`repro.kernel.runner.run_policy` for every
registered scheduler, with and without a crash (and its checkpoint
restore), and whose
metrics agree to 1e-9. Multi-cell runs additionally stay complete and
feasible under the same fault injections.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import run_sharded
from repro.core import Job, ProblemInstance, validate_schedule
from repro.kernel import KernelCrash, run_policy
from repro.schedulers.registry import available, create


@st.composite
def instances(draw, max_jobs=4, max_gpus=4, max_rounds=3):
    n_gpus = draw(st.integers(2, max_gpus))
    n_jobs = draw(st.integers(1, max_jobs))
    jobs = []
    for n in range(n_jobs):
        jobs.append(
            Job(
                job_id=n,
                model=f"m{n % 3}",
                arrival=draw(
                    st.floats(0, 5, allow_nan=False, allow_infinity=False)
                ),
                weight=draw(st.floats(0.5, 4.0)),
                num_rounds=draw(st.integers(1, max_rounds)),
                sync_scale=draw(st.integers(1, n_gpus)),
            )
        )
    tc = np.array(
        [
            [draw(st.floats(0.1, 5.0)) for _ in range(n_gpus)]
            for _ in range(n_jobs)
        ]
    )
    ts = np.array(
        [
            [draw(st.floats(0.0, 0.5)) for _ in range(n_gpus)]
            for _ in range(n_jobs)
        ]
    )
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


#: Every registered scheme — new registrations are covered automatically.
SCHEDULERS = [create(key) for key in available()]


def _assert_byte_identical(flat, sharded, name):
    assert (
        sharded.events,
        sharded.commitments,
        sharded.replans,
        sharded.retracted_rounds,
    ) == (
        flat.events,
        flat.commitments,
        flat.replans,
        flat.retracted_rounds,
    ), name
    assert (
        sharded.schedule.assignments == flat.schedule.assignments
    ), name
    assert (
        abs(
            sharded.metrics.total_weighted_completion
            - flat.metrics.total_weighted_completion
        )
        <= 1e-9
    ), name
    assert abs(sharded.metrics.makespan - flat.metrics.makespan) <= 1e-9, (
        name
    )


@given(inst=instances())
@settings(max_examples=25, deadline=None)
def test_cells1_byte_identical_for_every_scheduler(inst):
    """``cells=1`` ≡ flat ``run_policy``, fault-free."""
    for sched in SCHEDULERS:
        flat = run_policy(inst, sched.make_policy(inst))
        sharded = run_sharded(inst, sched, cells=1)
        _assert_byte_identical(flat, sharded, sched.name)


@given(
    inst=instances(max_jobs=3, max_rounds=2),
    crash_frac=st.floats(0.05, 0.9),
    restore=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_cells1_byte_identical_under_crash_and_restore(
    inst, crash_frac, restore
):
    """``cells=1`` ≡ flat ``run_policy`` under the same crash — with
    *restore*, a rollback to each job's newest checkpoint plus a
    restore read — including schedulers whose policies reject mid-run
    faults: the two paths must then raise identically."""
    if any(j.sync_scale >= inst.num_gpus for j in inst.jobs):
        return  # survivor set cannot host the widest job
    dead = inst.num_gpus - 1
    for sched in SCHEDULERS:
        probe = run_policy(inst, sched.make_policy(inst))
        crash_t = crash_frac * probe.metrics.makespan
        crash = (
            KernelCrash(
                crash_t, dead, checkpoint_interval=1,
                restore_s={j.job_id: 0.5 for j in inst.jobs},
            )
            if restore
            else (crash_t, dead)
        )
        faults = {"crashes": [crash]}
        try:
            flat = run_policy(inst, sched.make_policy(inst), **faults)
        except Exception as exc:  # identical rejection counts too
            try:
                run_sharded(inst, sched, cells=1, **faults)
            except Exception as sharded_exc:
                assert type(sharded_exc) is type(exc), sched.name
            else:
                raise AssertionError(
                    f"{sched.name}: flat raised "
                    f"{type(exc).__name__} but cells=1 succeeded"
                )
            continue
        sharded = run_sharded(inst, sched, cells=1, **faults)
        _assert_byte_identical(flat, sharded, sched.name)


@given(inst=instances(max_gpus=4), cells=st.integers(2, 3))
@settings(max_examples=15, deadline=None)
def test_multicell_runs_stay_complete_and_feasible(inst, cells):
    """Any admissible multi-cell split yields a complete, valid merged
    schedule with every task on a GPU its cell owns."""
    from repro.cells import CellPartitioner
    from repro.core.errors import ConfigurationError, InfeasibleProblemError

    try:
        part = CellPartitioner(cells=cells).partition_instance(inst)
    except ConfigurationError:
        return  # more cells than GPUs — legitimately rejected
    try:
        result = run_sharded(inst, "srtf", partition=part)
    except InfeasibleProblemError:
        widest = max(j.sync_scale for j in inst.jobs)
        assert widest > max(part.sizes())
        return
    assert len(result.schedule) == inst.num_tasks
    validate_schedule(result.schedule)
    for a in result.schedule.assignments.values():
        job_cell = result.admission_plan.assignment[a.task.job_id]
        assert part.cell_of(a.gpu) == job_cell
