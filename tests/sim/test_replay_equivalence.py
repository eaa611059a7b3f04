"""The task-indexed replay loop ≡ the engine-of-handlers oracle.

``ClusterSimulator.run`` parks idle executors on what they wait for and
wakes only those an event can start; ``tests/sim/oracles.py`` keeps the
loop it replaced, which tries every executor at every arrival and barrier.
On plans from every registered scheduler, in every switch mode, with
jitter, failures (same-time ones included), releases, overlapping
slowdowns and NIC contention, untraced and traced with a flight recorder,
the two must agree on everything a run exposes: records, the realized
schedule, metrics, telemetry, parameter-server state, event counts, every
tracer event, every metric sample and every recorded record.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_cluster
from repro.core import Job, ProblemInstance, SwitchMode, TaskRef
from repro.core.errors import InfeasibleProblemError, ReproError
from repro.core.schedule import schedule_from_mapping
from repro.obs import Obs, use
from repro.schedulers.registry import available, create
from repro.sim import ClusterSimulator
from repro.workload import build_instance
from tests.sim.oracles import reference_run

GPU_MENU = ["V100", "T4", "K80", "M60"]
MODEL_MENU = ["VGG19", "ResNet50", "Bert_base", "GraphSAGE", "DeepSpeech"]

#: How the ambient observability context is set up for a run.
OBS_MODES = ("off", "metrics", "trace+record", "record")


def make_obs(mode: str) -> Obs | None:
    if mode == "off":
        return None
    if mode == "metrics":
        return Obs.start(trace=False)
    return Obs.start(trace=mode == "trace+record", record=True)


def observe(run, sim: ClusterSimulator, plan, mode: str) -> dict:
    """Everything one replay exposes, or the error it raised."""
    obs = make_obs(mode)
    try:
        if obs is None:
            res = run(sim, plan)
        else:
            with use(obs):
                res = run(sim, plan)
    except ReproError as exc:  # compared like any other outcome
        return {"error": (type(exc), str(exc))}
    out = {
        "records": res.telemetry.records,
        "realized": list(res.realized.assignments.items()),
        "metrics": res.metrics,
        "telemetry": res.telemetry.metrics.snapshot(),
        "busy": res.telemetry.busy,
        "switching": res.telemetry.switching,
        "pool": (
            res.pool._done,
            res.pool._barrier,
            res.pool._synced_tasks,
            res.pool.total_syncs,
        ),
        "events": res.events_processed,
    }
    if obs is not None:
        out["spans"] = obs.tracer.spans
        out["instants"] = obs.tracer.instants
        out["flows"] = obs.tracer.flows
        out["registry"] = obs.metrics.snapshot()
        out["samples"] = obs.metrics._samples
        if obs.recorder is not None:
            out["recorded"] = obs.recorder.records()
    return out


def assert_equivalent(sim: ClusterSimulator, plan, mode: str = "off"):
    loop = observe(ClusterSimulator.run, sim, plan, mode)
    oracle = observe(reference_run, sim, plan, mode)
    assert loop.keys() == oracle.keys()
    for key in loop:
        assert loop[key] == oracle[key], key
    return loop


@st.composite
def scenarios(draw):
    n_gpus = draw(st.integers(1, 5))
    cluster = make_cluster(
        [draw(st.sampled_from(GPU_MENU)) for _ in range(n_gpus)],
        gpus_per_node=draw(st.integers(1, 2)),
    )
    jobs = [
        Job(
            job_id=n,
            model=draw(st.sampled_from(MODEL_MENU)),
            # a coarse grid, so arrivals coincide with each other and
            # with barriers, restarts and releases
            arrival=draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 4.0])),
            weight=draw(st.sampled_from([1.0, 2.0])),
            num_rounds=draw(st.integers(1, 3)),
            sync_scale=draw(st.integers(1, min(2, n_gpus))),
        )
        for n in range(draw(st.integers(1, 4)))
    ]
    return cluster, build_instance(jobs, cluster)


times = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0])


@st.composite
def features(draw, instance, plan):
    """Simulator options: each feature on or off, drawn independently."""
    gpus = st.integers(0, instance.num_gpus - 1)
    kw = {"nic_contention": draw(st.booleans())}
    if draw(st.booleans()):
        kw["jitter_sigma"] = 0.1
        kw["jitter_seed"] = draw(st.integers(0, 3))
    if draw(st.booleans()):
        # duplicates allowed: same-time failures, on one GPU or several
        kw["failures"] = draw(st.lists(st.tuples(times, gpus), max_size=3))
        kw["restart_delay_s"] = draw(st.sampled_from([0.5, 1.0]))
    if draw(st.booleans()):
        kw["slowdowns"] = draw(
            st.lists(
                st.tuples(times, st.sampled_from([1.0, 4.0, 10.0]), gpus,
                          st.sampled_from([1.0, 1.5, 3.0])).map(
                    lambda w: (w[0], w[0] + w[1], w[2], w[3])
                ),
                max_size=3,
            )
        )
    if draw(st.booleans()):
        tasks = sorted(plan.assignments)
        picked = draw(st.lists(st.sampled_from(tasks), max_size=3,
                               unique=True))
        kw["releases"] = {
            t: instance.jobs[t.job_id].arrival + draw(times) for t in picked
        }
    return kw


@given(
    scenario=scenarios(),
    key=st.sampled_from(available()),
    mode=st.sampled_from(list(SwitchMode)),
    obs_mode=st.sampled_from(OBS_MODES),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_loop_matches_oracle(scenario, key, mode, obs_mode, data):
    cluster, instance = scenario
    try:
        plan = create(key).plan(instance)
    except InfeasibleProblemError:
        return
    kw = data.draw(features(instance, plan))
    sim = ClusterSimulator(cluster=cluster, instance=instance,
                           switch_mode=mode, **kw)
    assert_equivalent(sim, plan, obs_mode)


# ----------------------------------------------------------------------
# Same-time ties the wake index must resolve as a full scan does.
# ----------------------------------------------------------------------
def two_job_instance(arrival1: float, *, rounds0: int = 2):
    """Job 0 on GPU 0 (2 s rounds, no sync); job 1 on GPU 1."""
    cluster = make_cluster(["V100", "V100"], gpus_per_node=1)
    jobs = [
        Job(job_id=0, model="m", num_rounds=rounds0, sync_scale=1),
        Job(job_id=1, model="m", num_rounds=1, sync_scale=1,
            arrival=arrival1),
    ]
    inst = ProblemInstance(
        jobs=jobs,
        train_time=np.full((2, 2), 2.0),
        sync_time=np.zeros((2, 2)),
        gpu_labels=cluster.labels(),
    )
    placements = {TaskRef(0, r, 0): (0, 2.0 * r) for r in range(rounds0)}
    placements[TaskRef(1, 0, 0)] = (1, arrival1)
    return cluster, inst, schedule_from_mapping(inst, placements)


def start_of(result: dict, task: TaskRef) -> float:
    return dict(result["realized"])[task].start


@pytest.mark.parametrize("obs_mode", ["off", "trace+record"])
class TestTies:
    def test_barrier_scan_at_another_jobs_arrival(self, obs_mode):
        # Job 0's round-0 barrier opens at t=2 (priority 0); job 1 arrives
        # at 2 + 5e-13, inside the 1e-12 tolerance, so the barrier scan
        # already starts it, before its own JOB_ARRIVAL event.
        cluster, inst, plan = two_job_instance(2.0 + 5e-13)
        sim = ClusterSimulator(cluster=cluster, instance=inst)
        out = assert_equivalent(sim, plan, obs_mode)
        assert start_of(out, TaskRef(1, 0, 0)) == 2.0
        assert start_of(out, TaskRef(0, 1, 0)) == 2.0

    def test_restart_coincides_with_arrival_and_barrier(self, obs_mode):
        # GPU 1 crashes idle at t=1 and restarts at t=2, when job 1
        # arrives and job 0's round-0 barrier opens.
        cluster, inst, plan = two_job_instance(2.0)
        sim = ClusterSimulator(
            cluster=cluster, instance=inst,
            failures=[(1.0, 1)], restart_delay_s=1.0,
        )
        out = assert_equivalent(sim, plan, obs_mode)
        assert start_of(out, TaskRef(1, 0, 0)) == 2.0

    def test_release_equal_to_arrival(self, obs_mode):
        cluster, inst, plan = two_job_instance(2.0)
        sim = ClusterSimulator(
            cluster=cluster, instance=inst,
            releases={TaskRef(1, 0, 0): 2.0, TaskRef(0, 1, 0): 2.0},
        )
        out = assert_equivalent(sim, plan, obs_mode)
        assert start_of(out, TaskRef(1, 0, 0)) == 2.0
        assert start_of(out, TaskRef(0, 1, 0)) == 2.0
