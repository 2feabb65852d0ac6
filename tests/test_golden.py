"""Every benchmark command against its recorded golden output.

`perfbench/golden.json` holds the sha256 of the stdout of each command
that any seed of any workload in `perfbench/workloads.py` can draw, and
the float literals that output contains.  A benchmark run checks only
the commands its seed draws, one per workload at seed 0; this runs every
one of them, in process through `cli.main`, with the benchmark's own
workload families, golden file and float-literal pattern, and changes
nothing under `perfbench/`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from skeindim.cli import main


def _benchmark_driver():
    """perfbench/run.py as a module; loading it puts perfbench/ on sys.path
    for its own `workloads` import."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _benchmark_driver()
GOLDEN = json.loads(RUN.GOLDEN.read_text())
COMMANDS = [command.args for name in RUN.WORKLOADS for command in RUN.family(name)]


def test_every_golden_command_is_a_workload_command():
    assert len(COMMANDS) == 24
    assert sorted(" ".join(args) for args in COMMANDS) == sorted(GOLDEN)


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_command_output_matches_its_golden_digest(capsys, args):
    assert main(list(args)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    expected = GOLDEN[" ".join(args)]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]
    assert RUN.float_literals(out) == expected["float_literals"]
