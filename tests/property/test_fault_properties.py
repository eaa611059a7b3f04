"""Property-based tests for crash recovery: any schedule, any single crash.

The invariant (ISSUE: fault tolerance): for any workload and any single
permanent GPU failure, the recovered run completes every job, preserves the
per-round task counts (the relaxed scale-fixed invariant, §2.2.3), and its
makespan is no better than the failure-free run's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_cluster
from repro.control import ControlPlane
from repro.core import Job, validate_schedule
from repro.faults import FaultScenario, GpuCrash, HeartbeatConfig
from repro.harness import make_problem

GPU_MENU = ["V100", "T4", "K80", "M60"]
MODEL_MENU = ["VGG19", "ResNet50", "Bert_base", "GraphSAGE", "DeepSpeech"]


@st.composite
def chaos_cases(draw):
    n_gpus = draw(st.integers(2, 4))  # >= 2: someone must survive
    cluster = make_cluster(
        [draw(st.sampled_from(GPU_MENU)) for _ in range(n_gpus)]
    )
    n_jobs = draw(st.integers(1, 3))
    jobs = [
        Job(
            job_id=n,
            model=draw(st.sampled_from(MODEL_MENU)),
            arrival=draw(st.floats(0, 2)),
            weight=draw(st.sampled_from([1.0, 2.0])),
            num_rounds=draw(st.integers(1, 3)),
            sync_scale=draw(st.integers(1, 2)),
        )
        for n in range(n_jobs)
    ]
    crash = GpuCrash(
        time=draw(st.floats(0.0, 3.0)),
        gpu_id=draw(st.integers(0, n_gpus - 1)),
    )
    return cluster, jobs, crash


@given(case=chaos_cases())
@settings(max_examples=25, deadline=None)
def test_single_crash_recovery_invariants(case):
    cluster, jobs, crash = case
    plane = ControlPlane(cluster=cluster, checkpoint_interval=2)
    result = plane.run_chaos(
        make_problem(plane.cluster, jobs),
        FaultScenario(crashes=(crash,)),
        heartbeat=HeartbeatConfig(interval_s=2.0, lease_s=10.0),
    )

    # every job completes on the survivors
    assert sorted(result.completions) == [j.job_id for j in jobs]

    # relaxed scale-fixed: every round still runs exactly sync_scale tasks
    per_round: dict[tuple[int, int], int] = {}
    for task in result.realized.assignments:
        key = (task.job_id, task.round_idx)
        per_round[key] = per_round.get(key, 0) + 1
    for job in jobs:
        for r in range(job.num_rounds):
            assert per_round[(job.job_id, r)] == job.sync_scale

    # the stitched schedule is feasible end to end
    validate_schedule(result.realized, check_durations=False)

    # no task lands on the dead GPU after the crash
    for a in result.realized.assignments.values():
        if a.gpu == crash.gpu_id:
            assert a.start <= result.report.detections[0].detected_at + 1e-9

    # failures only ever delay
    assert result.report.degraded_makespan >= (
        result.report.failure_free_makespan - 1e-6
    )
    assert result.report.jct_degradation >= 1.0 - 1e-9
