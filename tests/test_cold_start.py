"""Import footprint: scipy loads only when the exact LP or AlloX runs.

``scipy.optimize`` costs more than half of a cold ``import repro``, so no
module that ``import repro`` or ``import repro.cli`` loads may import it
at the top. One fresh interpreter checks that a fluid ``hare_online`` run
leaves no ``scipy`` module behind, then that the exact LP (both cut-loop
backends) and ``sched_allox`` still import it on first use and run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import repro, repro.cli
from repro.api import run_experiment

run = run_experiment(
    scheduler="hare_online", gpus=6, jobs=5, seed=0, rounds_scale=0.05,
    trace=False,
)
print(json.dumps(scipy_modules()), flush=True)

from repro.schedulers.relaxation import ExactRelaxationSolver, _highs

backends = ["linprog"] + (["highs"] if _highs() is not None else [])
out = {"objectives": {
    b: ExactRelaxationSolver(lp_backend=b).solve(run.instance).objective
    for b in backends
}}
allox = run_experiment(
    scheduler="sched_allox", gpus=6, jobs=5, seed=0, rounds_scale=0.05,
    trace=False,
)
out["allox_jct"] = allox.weighted_jct
out["after_exact"] = "scipy.optimize" in sys.modules
print(json.dumps(out))
"""


def test_fluid_run_loads_no_scipy_and_exact_lp_still_runs():
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
        "OPENBLAS_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120,
    )
    lines = proc.stdout.splitlines()
    assert lines and json.loads(lines[0]) == [], "a fluid run loaded scipy"
    assert proc.returncode == 0, proc.stderr
    out = json.loads(lines[-1])
    assert out["after_exact"]
    objectives = list(out["objectives"].values())
    assert all(v > 0 for v in objectives)
    assert max(objectives) - min(objectives) <= 1e-6 * max(objectives)
    assert out["allox_jct"] > 0
