"""Smoke tests: every example script runs to completion and says something.

Examples are user-facing documentation; a broken one is a broken promise.
Each is executed in-process (examples expose ``main()``), capturing stdout.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).parent.parent / "examples").glob("*.py")
)


def load_example(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys):
    module = load_example(path)
    assert hasattr(module, "main"), f"{path.name} must expose main()"
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 200, f"{path.name} produced almost no output"


def test_examples_exist():
    assert len(EXAMPLES) >= 3  # the deliverable: at least three examples


def test_quickstart_mentions_all_schedulers(capsys):
    module = load_example(
        Path(__file__).parent.parent / "examples" / "quickstart.py"
    )
    module.main()
    out = capsys.readouterr().out
    for name in ("Gavel_FIFO", "SRTF", "Sched_Homo", "Sched_Allox", "Hare"):
        assert name in out


def test_walkthrough_bill(capsys):
    """The Fig. 9 walkthrough's traffic bill and weighted JCT."""
    module = load_example(
        Path(__file__).parent.parent / "examples"
        / "control_plane_walkthrough.py"
    )
    module.main()
    out = capsys.readouterr().out
    bill = {
        "control messages": "293",
        "gradient pushes": "175",
        "model updates": "66",
        "bulk payload": "67.73 GB",
        "checkpoints written": "20",
        "checkpoint bytes": "4.80 GB",
        "profiler DB hits": "20",
        "profiler DB misses": "28",
    }
    for quantity, value in bill.items():
        assert re.search(rf"{quantity} \|\s+{value}\s*$", out, re.M), quantity
    assert "Weighted JCT 76.2 s" in out
