"""Property tests: every registered scheduler recovers from a GPU crash.

Crash recovery has one engine — the kernel's retraction, with each
policy re-placing what it lost — so ``run_experiment(crashes=...)``
must complete for every scheduler, wherever and whenever the crash
lands on the testbed, and the recovered schedule must be a valid,
scale-fixed execution that never computes on the dead GPU past its
crash.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_experiment
from repro.core import validate_schedule
from repro.schedulers import available


@given(
    scheduler=st.sampled_from(sorted(available())),
    seed=st.integers(0, 3),
    crash_t=st.sampled_from([1.0, 3.0, 8.0, 20.0]),
    gpu=st.sampled_from([0, 2, 7]),
)
@settings(max_examples=30, deadline=None)
def test_every_scheduler_recovers_from_a_crash(scheduler, seed, crash_t, gpu):
    result = run_experiment(
        scheduler=scheduler, jobs=8, seed=seed, rounds_scale=0.1,
        crashes=[(crash_t, gpu)], simulate=True, trace=False,
    )
    schedule = result.plan
    validate_schedule(schedule)
    assert result.sim is not None

    per_round: dict[tuple[int, int], int] = {}
    for task in schedule.assignments:
        key = (task.job_id, task.round_idx)
        per_round[key] = per_round.get(key, 0) + 1
    for job in result.instance.jobs:
        for r in range(job.num_rounds):
            assert per_round[(job.job_id, r)] == job.sync_scale

    for a in schedule.assignments.values():
        if a.gpu == gpu:
            assert a.compute_end <= crash_t + 1e-9
