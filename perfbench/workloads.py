"""Workload families of the skeindim benchmark.

Each workload is a list of CLI commands, drawn from a small family by a
seed.  Seed 0 gives the reference inputs; any other seed draws another
member of the same family.  Family members were chosen to cost about the
same (measured within a few per cent of each other), so that a result from
one seed can be compared with a result from another:

* certify-genus: `certify --genus 18`; the seed picks the output format
  and whether the certificate goes to stdout or to an --output file.
  The genus stays fixed because the cost grows steeply with it.
* curve-level: `eval-curve --genus 3` at p = 61, 81 and 101; for each level
  the seed picks the reference color or the color one below it, which
  switches between the even- and odd-color sums with the same number of
  summands (within one).  The level stays fixed: levels of equal field
  degree cost up to 2.7x more (p = 77 against p = 61, both of degree 60).
* verify-all: `verify --suite all`; the seed picks format and destination.
* table-sweep: `table --genus 1:6 --p LO:HI --color 0:97`; the seed shifts
  the p window up by 2k levels and raises its low edge so that the number
  of table values stays within 1.2% of the reference 14,700.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("certify-genus", "curve-level", "verify-all", "table-sweep")
DEFAULT_SEED = 0

# Each tuple of options lists the reference option first.
CERTIFY_FORMATS = ("json", "text")
VERIFY_FORMATS = ("text", "json")
CURVE_FORMATS = ("text", "json")
CURVE_GENUS = 3
CURVE_LEVELS = ((61, 58), (81, 79), (101, 99))  # (p, reference color)
CURVE_COLOR_STEPS = (0, 1)  # reference color, or the one below it
TABLE_GENUS = "1:6"
TABLE_COLORS = (0, 97)
TABLE_REFERENCE = (3, 99)
TABLE_SHIFTS = 8  # k = 0..7


@dataclass(frozen=True)
class Command:
    """One CLI invocation: arguments after the program name, and whether
    its output goes to an --output file instead of stdout."""

    args: tuple[str, ...]
    to_file: bool = False
    properties: dict = field(default_factory=dict, compare=False)

    @property
    def golden_key(self) -> str:
        """The output does not depend on the destination, so goldens are
        keyed by the arguments alone."""
        return " ".join(self.args)


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def table_count(lo: int, hi: int) -> int:
    """Values the table command prints per genus for p in lo..hi."""
    top = TABLE_COLORS[1]
    return sum(min(p - 1, top + 1) for p in range(max(lo, 3), hi + 1, 2))


def table_window(k: int) -> tuple[int, int]:
    """p window shifted up by 2k levels, low edge chosen so the value count
    is closest to the reference window's."""
    reference = table_count(*TABLE_REFERENCE)
    hi = TABLE_REFERENCE[1] + 2 * k
    lo = min(range(3, hi, 2), key=lambda lo: abs(table_count(lo, hi) - reference))
    return lo, hi


def _certify(fmt: str) -> Command:
    args = ("certify", "--genus", "18") + (("--format", fmt) if fmt != "json" else ())
    return Command(args)


def _verify(fmt: str) -> Command:
    args = ("verify", "--suite", "all") + (("--format", fmt) if fmt != "text" else ())
    return Command(args)


def _curve(p: int, color: int, fmt: str) -> Command:
    args = ("eval-curve", "--genus", str(CURVE_GENUS), "--p", str(p), "--color", str(color))
    args += ("--format", fmt) if fmt != "text" else ()
    return Command(args, properties={"p": p, "color": color, "phi_2p": euler_phi(2 * p)})


def _table(k: int) -> Command:
    lo, hi = table_window(k)
    g_lo, g_hi = (int(x) for x in TABLE_GENUS.split(":"))
    args = ("table", "--genus", TABLE_GENUS, "--p", f"{lo}:{hi}",
            "--color", f"{TABLE_COLORS[0]}:{TABLE_COLORS[1]}")
    return Command(args, properties={"p_window": [lo, hi],
                                     "values": (g_hi - g_lo + 1) * table_count(lo, hi)})


def family(workload: str) -> list[Command]:
    """Every command any seed can draw for the workload (goldens cover these)."""
    if workload == "certify-genus":
        return [_certify(fmt) for fmt in CERTIFY_FORMATS]
    if workload == "verify-all":
        return [_verify(fmt) for fmt in VERIFY_FORMATS]
    if workload == "curve-level":
        return [_curve(p, m - step, fmt) for p, m in CURVE_LEVELS
                for step in CURVE_COLOR_STEPS for fmt in CURVE_FORMATS]
    if workload == "table-sweep":
        return [_table(k) for k in range(TABLE_SHIFTS)]
    raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands for one seed; seed 0 takes every reference
    option."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    pick = (lambda options: options[0]) if seed == DEFAULT_SEED else rng.choice
    if workload == "certify-genus":
        picked = [_certify(pick(CERTIFY_FORMATS))]
    elif workload == "verify-all":
        picked = [_verify(pick(VERIFY_FORMATS))]
    elif workload == "curve-level":
        picked = [_curve(p, m - pick(CURVE_COLOR_STEPS), pick(CURVE_FORMATS))
                  for p, m in CURVE_LEVELS]
    else:
        picked = [_table(pick(range(TABLE_SHIFTS)))]
    return [Command(c.args, pick((False, True)), c.properties) for c in picked]
