"""Recorded runs, pinned byte for byte.

Each run's flight-recorder stream is hashed record by record, with its
diagnosis, remediation and attribution JSON, so a change to how records
are produced or delivered (the DES emission, the tracer's fast path,
the recorder's routing, the remediation engine's bookkeeping) must keep
every record, every finding and every remediation as it was. Wall
records are the tooling's own phase timings: only their position and
identity are pinned, not their wall-clock times or arguments.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.cluster import scaled_cluster
from repro.faults import FaultScenario, GpuCrash, HeartbeatConfig
from repro.harness.experiments import make_loaded_workload
from repro.heal.engine import POLL_EVERY, RemediationEngine
from repro.obs import Category, Obs, use
from repro.obs.trace import RecordBlock, RecordSchema
from repro.sim import ClusterSimulator
from repro.workload import WorkloadConfig
from tests.sim.oracles import reference_run

#: Hare on the fluid relaxation: the exact LP's optimal vertex depends on
#: the HiGHS build, and these pins must not.
HARE = {"name": "hare", "relaxation": "fluid"}


def _record_key(rec) -> tuple:
    head = (rec.seq, rec.kind, rec.category, rec.name, rec.track)
    if rec.kind == "wall":
        return head
    return (*head, rec.time, rec.duration, dict(rec.args))


def digest(result, trace_path=None) -> dict:
    """Hashes of a recorded run's stream and of its reports."""
    records = result.obs.recorder.records()
    stream = hashlib.sha256()
    for rec in records:
        stream.update(repr(_record_key(rec)).encode())
        stream.update(b"\n")
    out = {
        "records": len(records),
        "stream": stream.hexdigest(),
        "attribution": json.dumps(result.attribution().to_json(),
                                  sort_keys=True),
    }
    if result.diagnosis is not None:
        out["diagnosis"] = json.dumps(result.diagnosis.to_json(),
                                      sort_keys=True)
    if result.remediation is not None:
        out["remediation"] = json.dumps(result.remediation.to_json(),
                                        sort_keys=True)
    if trace_path is not None:
        out["trace"] = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    return {
        k: (v if k in ("records", "stream", "trace")
            else hashlib.sha256(v.encode()).hexdigest())
        for k, v in out.items()
    }


def _workload(jobs: int, gpus: int, seed: int, rounds_scale: float):
    return tuple(make_loaded_workload(
        jobs, reference_gpus=gpus, load=1.5, seed=seed,
        config=WorkloadConfig(rounds_scale=rounds_scale),
    ))


def online_chaos(seed: int, *, trace: bool = False):
    """The ``online_chaos`` bench workload's shape, scaled down."""
    return run_experiment(ExperimentSpec(
        scheduler="hare_online", cluster=scaled_cluster(8),
        workload=_workload(16, 8, seed, 0.15), arrivals="streaming",
        replan_interval=2.0, crashes=((5.0, 1),), heal=True,
        simulate=True, trace=trace, validate=True,
    ))


def faults_heal():
    return run_experiment(ExperimentSpec(
        scheduler=HARE, cluster=scaled_cluster(8),
        workload=_workload(10, 8, 0, 0.2),
        faults=FaultScenario(crashes=(GpuCrash(4.0, 1), GpuCrash(9.0, 5))),
        heartbeat=HeartbeatConfig(interval_s=1.0, lease_s=3.0),
        checkpoint_interval=2, heal=True, trace=False,
    ))


def traced_hare():
    return run_experiment(ExperimentSpec(
        scheduler=HARE, cluster=scaled_cluster(6),
        workload=_workload(6, 6, 4, 0.2), record=True, trace=True,
        monitors=True, simulate=True,
    ))


#: The digests of every pinned run. Seeds 3 and 5 of the online run
#: starve a job (a poll-time boost) and storm (a streaming throttle).
PINS = {
    "faults_heal": {
        "attribution": (
            "2ed5587f3e30e3957d3114b8a25c7b63"
            "51acc071fd705953e68d169df93a0304"
        ),
        "diagnosis": (
            "b32a62931ab7f12f0fe59594112caeb6"
            "7b3ce3dda5067bf2aec9844a6cba493c"
        ),
        "records": 3215,
        "remediation": (
            "c46e31d367fe57cbf11f9aaf1c836328"
            "3b65b74273dcc1904135f44d533c3928"
        ),
        "stream": (
            "98ff9a4562175b27c7f334b4ebce283c"
            "9586b4578c1a04dcf3ddc9360fd83be3"
        ),
    },
    "online_chaos-3": {
        "attribution": (
            "a70f2834c8792307d414779cdff1401b"
            "b1aa3053b5da8aa19d00cdd33888971d"
        ),
        "diagnosis": (
            "f56b91e891fa2e73c5dfcaae560879a0"
            "a00110de2ea0f7b7af25c1e0e6612e09"
        ),
        "records": 2513,
        "remediation": (
            "e586db995fc01742847486efad6fdda5"
            "25d35ab9270f32c947aa636d98760716"
        ),
        "stream": (
            "ad3c6593d7fed2247fb5f63eee662685"
            "df10bbcd94f2316998fe4c7faec27785"
        ),
    },
    "online_chaos-5": {
        "attribution": (
            "a2cb1d841cb5d27dc4ea7d4afb24eef3"
            "01ae4e61fcd794583d81609ffdabf3f8"
        ),
        "diagnosis": (
            "1a8aee02fe5457d2eced85ea1a285305"
            "9a5365d10153420ccb1f007894fad233"
        ),
        "records": 3319,
        "remediation": (
            "74f41fc96d2bb96e49dd26e0fda28c2e"
            "7b54355e2a3d10042d9c145083bc5e59"
        ),
        "stream": (
            "fe8d220780561f5673400e97d5dd4bfc"
            "0616706defe313262dc219dd22ccbe18"
        ),
    },
    "traced_hare": {
        "attribution": (
            "51818cfe37f17ea2545be46b24144828"
            "9dc1c589e5be6ac1842563b94784a4f1"
        ),
        "diagnosis": (
            "9b49c6ea1ec01bb61b7fb90b323ba2d7"
            "4094539402b0a7b3c9633e0c579ebed1"
        ),
        "records": 1231,
        "stream": (
            "8c053022b8210cb2133ab80379cf4d43"
            "62c24a322b115b69dbd89e13bc4cdc1b"
        ),
        "trace": (
            "67650f2c8a5561e137b17ce6b3e6c404"
            "2e08d7d2422d425a937dff2ee2e1d302"
        ),
    },
}


def pinned_run(name: str, tmp_path=None) -> dict:
    if name.startswith("online_chaos"):
        return digest(online_chaos(int(name.rpartition("-")[2])))
    if name == "faults_heal":
        return digest(faults_heal())
    result = traced_hare()
    return digest(result, result.write_trace(tmp_path / "trace.json"))


@pytest.mark.parametrize("name", sorted(PINS))
def test_recorded_stream_is_pinned(name, tmp_path):
    assert pinned_run(name, tmp_path) == PINS[name]


# ---------------------------------------------------------------------
# The DES replay hands the recorder one block of records; the reference
# loop hands the tracer each record as it meets it. A run must not tell
# them apart.

#: An online run whose starvation polls boost a job during the replay.
HEALED_IN_REPLAY = 7


@contextmanager
def per_event_replay():
    """Within the block the DES replay is the reference loop."""
    with mock.patch.object(ClusterSimulator, "run",
                           lambda self, plan: reference_run(self, plan)[0]):
        yield


@contextmanager
def small_ring(capacity: int, spill_path=None):
    """Within the block a run's recorder keeps *capacity* records."""
    start = Obs.start.__func__

    def small(cls, **kwargs):
        return start(cls, record_capacity=capacity, spill_path=spill_path,
                     **kwargs)

    with mock.patch.object(Obs, "start", classmethod(small)):
        yield


def log_records(path) -> list:
    """A flight log's or spill file's records, wall records by position
    and identity only."""
    out = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("kind") == "wall":
            for key in ("t", "dur", "args"):
                rec.pop(key, None)
        out.append(rec)
    return out


class TestBlockIngestionEqualsPerEventEmission:
    def test_a_poll_inside_the_replay_dispatches_a_remediation(self):
        result = online_chaos(HEALED_IN_REPLAY)
        records = result.obs.recorder.records()
        replay = [r.seq for r in records if r.track == "engine"]
        assert any(
            r.name == "remediation" and replay[0] < r.seq < replay[-1]
            for r in records
        )
        with per_event_replay():
            reference = online_chaos(HEALED_IN_REPLAY)
        assert digest(result) == digest(reference)

    @pytest.mark.parametrize("spill", [False, True], ids=["drop", "spill"])
    def test_a_ring_smaller_than_the_replay(self, spill, tmp_path):
        def run(tag: str):
            spill_path = tmp_path / f"{tag}.spill.jsonl" if spill else None
            with small_ring(700, spill_path):
                result = online_chaos(HEALED_IN_REPLAY)
            log = result.write_flight_log(tmp_path / f"{tag}.jsonl")
            result.obs.recorder.close()
            return result, log, spill_path

        result, log, spilled = run("block")
        with per_event_replay():
            reference, ref_log, ref_spilled = run("reference")
        recorder = result.obs.recorder
        # The replay's records alone overflow the ring.
        assert {r.category for r in recorder.records()} <= {
            "sim", "sync", "switch"
        }
        assert recorder.dropped == reference.obs.recorder.dropped
        assert recorder.dropped == (0 if spill else recorder.seen - 700)
        assert log_records(log) == log_records(ref_log)
        if spill:
            assert log_records(spilled) == log_records(ref_spilled)
        assert digest(result) == digest(reference)

    def test_a_traced_run_writes_the_same_perfetto_bytes(self, tmp_path):
        result = online_chaos(HEALED_IN_REPLAY, trace=True)
        with per_event_replay():
            reference = online_chaos(HEALED_IN_REPLAY, trace=True)
        assert digest(
            result, result.write_trace(tmp_path / "block.json")
        ) == digest(
            reference, reference.write_trace(tmp_path / "reference.json")
        )

    def test_health_reports_in_a_block(self):
        """A block's GPU health reports are consumed in row order, a
        poll falling on one of them included."""
        schemas = (
            RecordSchema("instant", Category.SIM, "GPU_CHECK", "engine"),
            RecordSchema("span", Category.SIM, "j{job} r{round}",
                         "gpu/{gpu}", ("job", "round", "slot")),
            *(RecordSchema("instant", Category.FAULT, f"gpu {{gpu}} {state}",
                           "detector", ("gpu", "state"))
              for state in ("suspect", "alive")),
        )
        values = []
        for i in range(3 * POLL_EVERY):
            if i in (10, POLL_EVERY - 1, 2 * POLL_EVERY + 5):
                values += [2, float(i), 0.0, -1, -1, -1, i % 3, "suspect"]
            elif i == POLL_EVERY + 20:
                values += [3, float(i), 0.0, -1, -1, -1, 1, "alive"]
            elif i % 4:
                values += [0, float(i), 0.0, -1, -1, -1, -1, None]
            else:
                values += [1, float(i), 1.0, i % 5, i // 5, 0, i % 3, None]
        block = RecordBlock.from_flat(schemas, values)

        def run(per_record: bool):
            engine = RemediationEngine()
            obs = Obs.start(trace=False, monitors=[engine])
            with use(obs):
                if per_record:
                    for fields in block.rows(range(len(block))):
                        obs.recorder.record(*fields)
                else:
                    obs.tracer.block(block)
            return obs.recorder.records(), engine

        records, engine = run(per_record=False)
        ref_records, ref_engine = run(per_record=True)
        assert records == ref_records
        assert engine.log.to_json() == ref_engine.log.to_json()
        assert [r.action.kind for r in engine.log.records] == [
            "quarantine_gpu"
        ] * 3
        assert engine.quarantined == ref_engine.quarantined == {0, 1}
