"""Whole-run digests: full schedule columns and kernel statistics.

Each case hashes, byte for byte, the plan's columns, the kernel's
committed columns and statistics (``events``, ``commitments``,
``replans``, ``retracted_rounds``, ``retractions``, ``replan_instants``,
the metrics) and, for a simulated run, the realized columns. The pinned
values come from the dense jobs × GPUs instance, so a change to how the
instance stores or reads ``T^c``/``T^s`` must leave every one of them
unchanged. Regenerate with ``python tests/test_run_digests.py``.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.api as api
from repro.cluster import scaled_cluster, testbed_cluster as _testbed_cluster
from repro.harness.experiments import make_loaded_workload
from repro.workload.jobs import WorkloadConfig

TESTBED = ("gavel_fifo", "srtf", "sched_homo", "sched_allox", "hare")


def _workload(num_jobs: int, gpus: int, seed: int):
    return tuple(make_loaded_workload(
        num_jobs, reference_gpus=gpus, load=1.5, seed=seed,
        config=WorkloadConfig(rounds_scale=0.15),
    ))


def _specs() -> dict[str, dict]:
    fleet = scaled_cluster(125)
    testbed = _testbed_cluster()
    fleet_jobs = _workload(60, 125, 5)
    testbed_jobs = _workload(16, 15, 5)
    specs = {
        f"fleet-cells{cells}": dict(
            scheduler="hare", cluster=fleet, workload=fleet_jobs,
            arrivals="streaming", cells=cells, simulate=False,
        )
        for cells in (1, 4)
    }
    specs["online-crash"] = dict(
        scheduler="hare_online", cluster=testbed, workload=testbed_jobs,
        arrivals="streaming", replan_interval=2.0, crashes=((5.0, 1),),
        simulate=True,
    )
    for name in TESTBED:
        specs[f"testbed-{name}"] = dict(
            scheduler=name, cluster=testbed, workload=testbed_jobs,
            arrivals="planned", simulate=True,
        )
    return specs


def _columns(schedule) -> list[bytes]:
    return [
        getattr(schedule, name).tobytes()
        for name in ("job", "rnd", "slot", "gpu", "start", "train", "sync")
    ]


def run_digest(spec: dict) -> str:
    result = api.run_experiment(trace=False, validate=True, **spec)
    kernel = result.kernel
    parts = _columns(result.plan) + _columns(kernel.schedule)
    parts.append(repr((
        kernel.events, kernel.commitments, kernel.replans,
        kernel.retracted_rounds, kernel.retractions,
        kernel.replan_instants, kernel.metrics,
    )).encode())
    if result.sim is not None:
        parts += _columns(result.sim.realized)
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()[:24]


DIGESTS = {
    "fleet-cells1": "4f01a40bf639f651f64a67e7",
    "fleet-cells4": "a919ffed5837ba7e4f66fc5d",
    "online-crash": "afd3eb4efade921625c94f44",
    "testbed-gavel_fifo": "74ca89f196e73f5198df3edb",
    "testbed-srtf": "4f9887fa3ccea7ab15f1286d",
    "testbed-sched_homo": "67bca7f02db6668faae46880",
    "testbed-sched_allox": "f370919bec4ddb28b577cb55",
    "testbed-hare": "2e0fa39b14132dc4ef1699c3",
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_run_digest(case):
    assert run_digest(_specs()[case]) == DIGESTS[case]


if __name__ == "__main__":  # pragma: no cover - regenerates DIGESTS
    for case, spec in _specs().items():
        print(f'    "{case}": "{run_digest(spec)}",')
