"""Import footprint: a run loads only the modules it uses.

``import repro`` loads no subpackage: every package facade except
``repro.schedulers`` (whose imports fill the scheduler registry) resolves
its public names on first read, and ``repro.api`` imports the control
plane, healing, sweeps, baselines, attribution and monitors only in the
functions that use them. ``scipy.optimize`` costs more than half of a
cold start, so only the exact LP imports it, on first use; AlloX solves
its matching in-process.

One fresh interpreter checks, in order: ``import repro`` alone; the
registry after ``import repro.api``; that a fluid ``hare_online`` run
leaves no ``scipy`` module behind, and nor does a simulated
``sched_allox`` run on a Fig. 12 testbed input; that a planned ``hare``
run loads none of :data:`UNUSED_BY_A_RUN`; that the exact LP (both
cut-loop backends) still imports scipy and runs; and that every facade
name resolves.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SUBPACKAGES = sorted(
    m.name for m in pkgutil.iter_modules([str(SRC / "repro")]) if m.ispkg
)

#: Modules (and their submodules) a plain planned run never needs.
UNUSED_BY_A_RUN = [
    "repro.control", "repro.heal", "repro.sweep", "repro.obs.baseline",
    "repro.obs.attrib", "repro.obs.monitors", "repro.dml", "repro.theory",
    "repro.sync",
]

SCRIPT = """
import json, sys
from importlib import import_module

def loaded(*prefixes):
    return sorted(
        m for m in sys.modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    )

def stage(**out):
    print(json.dumps(out), flush=True)

import repro
stage(after_import_repro=loaded(*[f"repro.{p}" for p in SUBPACKAGES]))

import repro.api
from repro.schedulers import available
registry_after_api = sorted(available())

import repro.cli
from repro.api import run_experiment

run = run_experiment(
    scheduler="hare_online", gpus=6, jobs=5, seed=0, rounds_scale=0.05,
    trace=False,
)
stage(scipy_after_fluid=loaded("scipy"))

from repro.cluster import testbed_cluster

allox = run_experiment(
    scheduler="sched_allox", cluster=testbed_cluster(), jobs=40, seed=1,
    simulate=True, trace=False,
)
stage(allox_jct=allox.weighted_jct, scipy_after_allox=loaded("scipy"))

run_experiment(
    scheduler="hare", gpus=15, jobs=8, seed=0, rounds_scale=0.05,
    simulate=False, trace=False,
)
stage(unused_after_runs=loaded(*UNUSED_BY_A_RUN))

from repro.schedulers import relaxation

objectives = {}
if relaxation._highs() is not None:
    objectives["highs"] = relaxation.ExactRelaxationSolver().solve(
        run.instance
    ).objective
relaxation._highs = lambda: None  # the cut loop falls back to linprog
objectives["linprog"] = relaxation.ExactRelaxationSolver().solve(
    run.instance
).objective
stage(objectives=objectives, after_exact="scipy.optimize" in sys.modules)

problems = []
for name in ["repro", "repro.api"] + [f"repro.{p}" for p in SUBPACKAGES]:
    module = import_module(name)
    listed = set(dir(module))
    problems += [f"{name}: dir lacks {n}" for n in module.__all__
                 if n not in listed]
    problems += [f"{name}: {n} unresolved" for n in module.__all__
                 if getattr(module, n, None) is None]
    star = {}
    exec(f"from {name} import *", star)
    problems += [f"{name}: * lacks {n}" for n in module.__all__
                 if n not in star]
stage(
    export_problems=problems,
    registry_after_api=registry_after_api,
    registry_at_end=sorted(available()),
)
"""


@pytest.fixture(scope="module")
def cold_start() -> tuple[dict, str]:
    """Every stage's output of one fresh interpreter, and its stderr."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
        "OPENBLAS_NUM_THREADS": "1",
    }
    prelude = (
        f"SUBPACKAGES = {SUBPACKAGES!r}\n"
        f"UNUSED_BY_A_RUN = {UNUSED_BY_A_RUN!r}\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", prelude + SCRIPT], env=env,
        capture_output=True, text=True, timeout=120,
    )
    out = {"returncode": proc.returncode}
    for line in proc.stdout.splitlines():
        out.update(json.loads(line))
    return out, proc.stderr


def test_fluid_run_loads_no_scipy_and_exact_lp_still_runs(cold_start):
    out, stderr = cold_start
    assert out.get("scipy_after_fluid") == [], "a fluid run loaded scipy"
    assert out["returncode"] == 0, stderr
    assert out["after_exact"]
    objectives = list(out["objectives"].values())
    assert all(v > 0 for v in objectives)
    assert max(objectives) - min(objectives) <= 1e-6 * max(objectives)


def test_allox_run_loads_no_scipy(cold_start):
    out, stderr = cold_start
    assert out.get("scipy_after_allox") == [], "an AlloX run loaded scipy"
    assert out["returncode"] == 0, stderr
    assert out["allox_jct"] > 0


def test_a_run_loads_only_what_it_uses(cold_start):
    out, stderr = cold_start
    assert out.get("after_import_repro") == [], (
        "import repro loaded a subpackage", stderr
    )
    assert out.get("unused_after_runs") == [], "a plain run loaded these"
    assert out["returncode"] == 0, stderr
    assert out["export_problems"] == []
    assert out["registry_after_api"] == out["registry_at_end"]
