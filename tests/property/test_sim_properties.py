"""Property-based tests for the DES replay: causality and conservation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_cluster
from repro.core import Job, SwitchMode
from repro.schedulers import HareScheduler
from repro.sim import simulate_plan
from repro.workload import build_instance

GPU_MENU = ["V100", "T4", "K80", "M60"]
MODEL_MENU = [
    "VGG19", "ResNet50", "Bert_base", "GraphSAGE", "FastGCN", "DeepSpeech"
]


@st.composite
def scenarios(draw):
    n_gpus = draw(st.integers(1, 4))
    gpu_models = [draw(st.sampled_from(GPU_MENU)) for _ in range(n_gpus)]
    cluster = make_cluster(gpu_models)
    n_jobs = draw(st.integers(1, 4))
    jobs = [
        Job(
            job_id=n,
            model=draw(st.sampled_from(MODEL_MENU)),
            arrival=draw(st.floats(0, 3)),
            weight=draw(st.sampled_from([1.0, 2.0, 3.0])),
            num_rounds=draw(st.integers(1, 4)),
            sync_scale=draw(st.integers(1, min(2, n_gpus))),
        )
        for n in range(n_jobs)
    ]
    instance = build_instance(jobs, cluster)
    return cluster, instance


@given(scenario=scenarios(), mode=st.sampled_from(list(SwitchMode)))
@settings(max_examples=30, deadline=None)
def test_replay_completes_and_respects_causality(scenario, mode):
    cluster, instance = scenario
    plan = HareScheduler(relaxation="fluid").schedule(instance)
    result = simulate_plan(cluster, instance, plan, switch_mode=mode)

    # conservation: every task ran exactly once
    assert len(result.realized) == instance.num_tasks
    # causality: nothing before arrival; rounds in order
    for rec in result.telemetry.records:
        job = instance.jobs[rec.task.job_id]
        assert rec.start >= job.arrival - 1e-9
    for job in instance.jobs:
        prev_barrier = job.arrival
        for r in range(job.num_rounds):
            starts = [
                result.realized[t].start for t in job.round_tasks(r)
            ]
            assert min(starts) >= prev_barrier - 1e-9
            prev_barrier = max(
                result.realized[t].end for t in job.round_tasks(r)
            )


@given(scenario=scenarios())
@settings(max_examples=20, deadline=None)
def test_switch_modes_order_total_completion(scenario):
    """DEFAULT replay is never faster than PipeSwitch, which is never
    faster than Hare (more switch overhead can only delay)."""
    cluster, instance = scenario
    plan = HareScheduler(relaxation="fluid").schedule(instance)
    totals = {}
    for mode in SwitchMode:
        totals[mode] = simulate_plan(
            cluster, instance, plan, switch_mode=mode
        ).total_weighted_completion
    assert totals[SwitchMode.HARE] <= totals[SwitchMode.PIPESWITCH] + 1e-6
    assert totals[SwitchMode.PIPESWITCH] <= totals[SwitchMode.DEFAULT] + 1e-6


@given(scenario=scenarios())
@settings(max_examples=20, deadline=None)
def test_realized_never_earlier_than_plan(scenario):
    cluster, instance = scenario
    plan = HareScheduler(relaxation="fluid").schedule(instance)
    result = simulate_plan(
        cluster, instance, plan, switch_mode=SwitchMode.DEFAULT
    )
    for rec in result.telemetry.records:
        assert rec.start >= plan[rec.task].start - 1e-6


@given(scenario=scenarios())
@settings(max_examples=20, deadline=None)
def test_utilization_in_unit_interval(scenario):
    cluster, instance = scenario
    plan = HareScheduler(relaxation="fluid").schedule(instance)
    result = simulate_plan(cluster, instance, plan)
    for u in result.telemetry.gpu_utilization().values():
        assert -1e-9 <= u <= 1.0 + 1e-9
