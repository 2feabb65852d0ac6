"""The README's examples against what the package computes.

Each value the README shows in a comment of its Library or Command line
block is read from README.md and checked here, so the examples cannot
drift from the code.
"""

from __future__ import annotations

from pathlib import Path

from skeindim import build_certificate, dimension, level_dimensions, verlinde_polynomial
from skeindim.cli import main
from skeindim.cyclotomic import CyclotomicElement

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str) -> str:
    """The code of the first fenced block after the `## heading` line."""
    fenced = README.split(f"\n## {heading}\n", 1)[1].split("```", 2)[1]
    return fenced.split("\n", 1)[1]  # drop the language tag line


def _comments(block: str) -> dict[str, str]:
    """{code: comment} for the commented code of a block; a line that is
    only a comment belongs to the code line above it."""
    found, code = {}, None
    for line in block.splitlines():
        text, _, comment = line.partition("#")
        code = text.strip() or code
        if comment:
            found[code] = comment.strip()
    return found


def test_library_block_runs_and_its_values_hold():
    block = _block("Library")
    namespace: dict = {}
    exec(block, namespace)  # the block runs as written
    comments = _comments(block)

    # '<head> + ... + <tail>'   (canonical graded order)
    head, tail = comments["verlinde_polynomial(2).render()"].split("'")[1].split(" + ... + ")
    rendered = verlinde_polynomial(2).render()
    assert rendered.startswith(head + " + ") and rendered.endswith(" + " + tail)

    assert comments["dimension(2, 7, 0)"].startswith("14,")
    assert dimension(2, 7, 0) == 14
    assert comments["level_dimensions(2, 7, range(6))"].startswith("[14, 14, 21, 21, 14, 14],")
    assert level_dimensions(2, 7, range(6)) == [14, 14, 21, 21, 14, 14]
    assert comments["cert.valid, cert.lower_bound"] == "(True, 133)"
    cert = build_certificate(3)
    assert (cert.valid, cert.lower_bound) == (True, 133)

    assert comments["eval_nonseparating_curve(2, 3, field)"] == "exact element of Q(zeta_14)"
    value = namespace["eval_nonseparating_curve"](2, 3, namespace["field"])
    assert isinstance(value, CyclotomicElement) and value.field.p == 7


def test_command_line_values_hold(capsys):
    comments = _comments(_block("Command line"))
    assert comments["skeindim dim --genus 2 --p 7 --color 0"] == "one dimension value: 14"
    assert main(["dim", "--genus", "2", "--p", "7", "--color", "0"]) == 0
    assert capsys.readouterr().out == "14\n"
    assert comments["skeindim poly --genus 1"] == "-1/2 + 1/2*p - c"
    assert main(["poly", "--genus", "1"]) == 0
    assert capsys.readouterr().out == "-1/2 + 1/2*p - c\n"
