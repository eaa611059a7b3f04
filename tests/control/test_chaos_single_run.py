"""``run_chaos`` steps one kernel through the crashes; the k + 2-run loop
it replaced (:mod:`tests.control.oracles`) must give the same result.

Every field is equal, except on the cases listed in :data:`MOVED`: with
two or more crashes, a gang or online policy's intermediate re-plan now
ships only what the run had committed when the sequences went out, not
a rerun's guesses, so the acks and the wire totals move. On a flaky
wire the drops are drawn in send order, so a different number of
shipped sequences also reshuffles the later heartbeats' drops: the
report's wire counts (suspect events, RPC retries, drops) move there,
never a detection time.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster import scaled_cluster
from repro.control import ControlPlane
from repro.core import validate_schedule
from repro.faults import (
    FaultScenario,
    GpuCrash,
    HeartbeatConfig,
    RpcFlakiness,
)
from repro.harness.experiments import make_loaded_workload, make_problem
from repro.heal import RemediationEngine
from repro.obs import Obs, use
from repro.obs.monitors import ReplanStormMonitor
from repro.schedulers import create
from repro.workload import WorkloadConfig
from tests.control.oracles import reference_run_chaos


def crashes(*pairs):
    return tuple(GpuCrash(time=t, gpu_id=g) for t, g in pairs)


SCENARIOS = {
    "one": FaultScenario(crashes=crashes((5, 1))),
    "two": FaultScenario(crashes=crashes((4, 1), (9, 5))),
    # The second crash lands before the first one is detected.
    "during_detection": FaultScenario(crashes=crashes((4, 1), (5, 6))),
    "after_last": FaultScenario(crashes=crashes((5, 1), (500, 2))),
    "flaky_two": FaultScenario(
        crashes=crashes((4, 1), (9, 5)),
        flakiness=RpcFlakiness(drop_rate=0.05, seed=7),
    ),
}
#: A fixed plan on every scenario; a gang and the online policy where
#: they differ from it.
CASES = [
    *(("hare", scenario) for scenario in SCENARIOS),
    ("srtf", "one"),
    ("srtf", "two"),
    ("srtf", "after_last"),
    ("gavel_fifo", "during_detection"),
    ("gavel_fifo", "flaky_two"),
    ("hare_online", "one"),
    ("hare_online", "during_detection"),
    ("hare_online", "after_last"),
    ("hare_online", "flaky_two"),
]
HEARTBEAT = HeartbeatConfig(interval_s=1.0, lease_s=3.0)

#: Sequences of other lengths: the same messages, other bytes.
ACKS = frozenset({"acks", "control_bytes"})
#: Fewer sequences: fewer messages too.
WIRE = ACKS | {"control_messages"}
#: The cases whose fields move, and which.
MOVED = {
    ("srtf", "two"): ACKS,
    ("gavel_fifo", "during_detection"): WIRE,
    ("gavel_fifo", "flaky_two"): WIRE | {"report"},
    ("hare_online", "during_detection"): ACKS,
}
#: What a reshuffled drop sequence may change in a report.
DRAWN = (
    "rpc_retries", "rpc_timeouts", "rpc_duplicates", "messages_dropped",
)


def columns(schedule):
    order = np.lexsort((schedule.slot, schedule.rnd, schedule.job))
    return tuple(
        getattr(schedule, name)[order].tobytes()
        for name in ("job", "rnd", "slot", "gpu", "start", "train", "sync")
    )


def fields(result) -> dict:
    """Every :class:`ChaosResult` field, in comparable form."""
    remediation = result.remediation
    return {
        "instance": (
            result.instance.train_time.tobytes(),
            result.instance.sync_time.tobytes(),
        ),
        "plan": columns(result.plan),
        "baseline": (
            columns(result.baseline.realized), result.baseline.metrics,
        ),
        "realized": columns(result.realized),
        "metrics": result.metrics,
        "completions": result.completions,
        "report": result.report,
        "acks": result.acks,
        "job_completions": result.job_completions,
        "checkpoint_bytes": result.checkpoint_bytes,
        "control_messages": result.control_messages,
        "control_bytes": result.control_bytes,
        "payload_bytes": result.payload_bytes,
        "remediation": (
            None if remediation is None else remediation.to_json()
        ),
    }


def plane_for(scheduler):
    jobs = make_loaded_workload(
        10, reference_gpus=8, load=1.0, seed=0,
        config=WorkloadConfig(rounds_scale=0.2),
    )
    cluster = scaled_cluster(8)
    plane = ControlPlane(
        cluster=cluster, scheduler=create(scheduler),
        checkpoint_interval=2,
    )
    return plane, make_problem(cluster, jobs)


def chaos(run, scheduler, scenario, *, heal=False):
    plane, instance = plane_for(scheduler)
    if not heal:
        return fields(run(plane, instance, scenario, heartbeat=HEARTBEAT))
    engine = RemediationEngine()
    with use(Obs.start(record=True, monitors=[engine])):
        return fields(
            run(plane, instance, scenario, heartbeat=HEARTBEAT, heal=engine)
        )


def one_run(plane, instance, scenario, **kwargs):
    result = plane.run_chaos(instance, scenario, **kwargs)
    validate_schedule(result.realized, check_durations=False)
    return result


@pytest.mark.parametrize(
    ("scheduler", "scenario"), CASES, ids=[f"{a}-{b}" for a, b in CASES]
)
def test_one_kernel_run_equals_the_reruns(scheduler, scenario):
    new = chaos(one_run, scheduler, SCENARIOS[scenario])
    old = chaos(reference_run_chaos, scheduler, SCENARIOS[scenario])
    moved = {name for name in new if new[name] != old[name]}
    assert moved == MOVED.get((scheduler, scenario), set())
    if "report" in moved:
        a, b = new["report"], old["report"]
        assert [d.detected_at for d in a.detections] == [
            d.detected_at for d in b.detections
        ]
        wire = {name: None for name in ("detections", *DRAWN)}
        assert dataclasses.replace(a, **wire) == dataclasses.replace(
            b, **wire
        )


def test_a_healed_run_equals_the_reruns():
    """The quarantine snapshot each re-plan takes is the same."""
    scenario = SCENARIOS["two"]
    new = chaos(one_run, "hare", scenario, heal=True)
    old = chaos(reference_run_chaos, "hare", scenario, heal=True)
    assert new["remediation"] is not None
    assert new == old


class _ReplanTimes(ReplanStormMonitor):
    def __init__(self):
        super().__init__()
        self.seen = []

    def on_record(self, record):
        self.seen.append(record.time)
        super().on_record(record)


def test_the_recorder_sees_the_replans_in_time_order():
    """The k + 2-run loop recorded every crash's re-plan instant before
    the one kernel run, so the re-plan storm monitor saw time run
    backwards; the stepped run records them in time order."""
    monitor = _ReplanTimes()
    with use(Obs.start(record=True, monitors=[monitor])):
        plane, instance = plane_for("hare_online")
        result = plane.run_chaos(
            instance, SCENARIOS["two"], heartbeat=HEARTBEAT
        )
    assert result.report.replans == 2
    assert len(monitor.seen) > 2
    assert monitor.seen == sorted(monitor.seen)
