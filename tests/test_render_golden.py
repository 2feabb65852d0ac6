"""Every polynomial-render command against its recorded golden output.

`tests/render_golden.json` holds the sha256 of the stdout of `poly` (with
and without --odd), `decompose` (both kinds) for genus 1..8 and
`bernoulli --max-index 30` (plain and --polynomials), each in text and
JSON.  These outputs come from the two `render` methods of
`skeindim.exact`, which the benchmark digests in `perfbench/golden.json`
do not reach.  Each command runs in process through `cli.main`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from skeindim.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parent / "render_golden.json").read_text())

COMMANDS = [
    [*command, "--format", output_format]
    for output_format in ("text", "json")
    for command in (
        *(
            command
            for g in range(1, 9)
            for command in (
                ["poly", "--genus", str(g)],
                ["poly", "--genus", str(g), "--odd"],
                ["decompose", "--genus", str(g), "--kind", "even"],
                ["decompose", "--genus", str(g), "--kind", "odd"],
            )
        ),
        ["bernoulli", "--max-index", "30"],
        ["bernoulli", "--max-index", "30", "--polynomials"],
    )
]


def test_every_render_command_has_a_golden_digest():
    assert len(COMMANDS) == 68
    assert sorted(" ".join(args) for args in COMMANDS) == sorted(GOLDEN)


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_render_output_matches_its_golden_digest(capsys, args):
    assert main(list(args)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[" ".join(args)]
