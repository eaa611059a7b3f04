"""Property tests: every registered scheduler stays invariant-clean
under chaos with healing attached, and boosts respect their cap."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import scaled_cluster
from repro.control import ControlPlane
from repro.core import validate_schedule
from repro.faults import FaultScenario, GpuCrash, GpuSlowdown
from repro.harness.experiments import make_loaded_workload, make_problem
from repro.heal import DEFAULT_POLICY, RemediationEngine
from repro.obs import Obs, use
from repro.schedulers import available, create
from repro.workload import WorkloadConfig


@given(
    scheduler=st.sampled_from(sorted(available())),
    seed=st.integers(0, 3),
)
@settings(max_examples=10, deadline=None)
def test_chaos_with_healing_stays_invariant_clean(scheduler, seed):
    cluster = scaled_cluster(6)
    jobs = make_loaded_workload(
        4,
        reference_gpus=6,
        load=1.0,
        seed=seed,
        config=WorkloadConfig(rounds_scale=0.2),
    )
    plane = ControlPlane(cluster=cluster, scheduler=create(scheduler))
    scenario = FaultScenario(
        crashes=(GpuCrash(time=6.0, gpu_id=1),),
        slowdowns=(
            GpuSlowdown(gpu_id=2, start=2.0, duration=8.0, factor=2.0),
        ),
    )
    engine = RemediationEngine()
    obs = Obs.start(trace=False, record=True, monitors=[engine])
    with use(obs):
        result = plane.run_chaos(
            make_problem(plane.cluster, jobs), scenario, heal=engine
        )
    # every job still completes with the engine in the loop
    assert sorted(result.completions) == [j.job_id for j in jobs]
    # what ran meets the paper's constraints
    validate_schedule(result.realized, check_durations=False)
    # no invariant checker fired: healing never corrupts the execution
    report = obs.recorder.diagnose(metrics=obs.metrics.snapshot())
    assert report.invariant_violations() == []
    # boosts never exceed the policy cap
    cap = DEFAULT_POLICY["job_starvation"].params["cap"]
    assert all(b <= cap for b in engine.boosts.values())
    assert engine.max_boost_seen <= cap
    assert result.remediation is engine.log


@given(
    jobs=st.integers(6, 12),
    seed=st.integers(0, 5),
)
@settings(max_examples=8, deadline=None)
def test_storm_healing_never_increases_replans(jobs, seed):
    from repro.cluster import testbed_cluster
    from repro.kernel import run_policy
    from repro.schedulers.online import OnlineHarePolicy
    from repro.workload import build_instance

    cluster = testbed_cluster()
    workload = make_loaded_workload(
        jobs,
        reference_gpus=cluster.num_gpus,
        load=1.5,
        seed=seed,
        config=WorkloadConfig(rounds_scale=0.1),
    )
    instance = build_instance(workload, cluster)

    def arm(engine):
        obs = Obs.start(
            trace=False,
            record=True,
            monitors=[engine] if engine else None,
        )
        with use(obs):
            return run_policy(
                instance,
                OnlineHarePolicy(),
                replan_interval=0.25,
                heal=engine,
            )

    base = arm(None)
    engine = RemediationEngine(instance)
    healed = arm(engine)
    assert healed.replans <= base.replans
    assert len(healed.schedule) == instance.num_tasks
    cap = DEFAULT_POLICY["job_starvation"].params["cap"]
    assert all(b <= cap for b in engine.boosts.values())
