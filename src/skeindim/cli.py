"""Command-line front end.

Commands:

  dim         one dimension value
  poly        a dimension polynomial in canonical text order
  decompose   the p-power coefficient table with degrees
  bernoulli   Bernoulli numbers or polynomials up to an index
  eval-curve  exact curve evaluation in Q(zeta_2p), optional float embedding
  verify      run a named verification battery (exit 1 on any failure)
  certify     emit the lower-bound certificate for one genus
  table       CSV of dimensions over (genus, p, color) ranges

Each command builds one JSON payload and its text chunks; `_emit`, the
one writer, writes the form that --format selects, each chunk as soon as
it is produced.  `table` yields one chunk per level, so its memory does
not grow with the row count.  Exit codes: 0 success, 1 check failure
(a failed verify or certify check, or an internal consistency error),
2 usage or validation error, unwritable output included.  `main` alone
maps exceptions to these codes and prints the message as one JSON line
{"error": ...} on stderr.  The exceptions it maps live in
`skeindim.errors`, so this module imports no arithmetic; each command
imports the modules it runs.  A reader that closes the pipe early
(`| head`) ends the output quietly and the computation with it, and the
command keeps its exit code.

Exact-mode output never contains a floating-point number; floats appear
only under the explicit --embed flag of eval-curve.

Relative --output paths resolve against $SKEINDIM_OUTPUT_DIR when set.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from contextlib import nullcontext

from .errors import (
    FaulhaberInconsistency,
    IntegralityError,
    StructureViolation,
    VanishingDenominator,
)

OUTPUT_DIR_ENV = "SKEINDIM_OUTPUT_DIR"

#: The names of `suites.SUITES`, spelled out so that parsing the arguments
#: does not import the suites.
SUITE_NAMES = ("bernoulli", "verlinde", "skein", "certify")

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2


class _OutputError(Exception):
    """stdout or the --output path could not be written."""


def _emit(args: argparse.Namespace, payload: dict | None, chunks: Iterable[str]) -> None:
    """The payload as JSON under --format json, else each text chunk and a
    newline as soon as the chunk is produced, to stdout or --output."""
    if getattr(args, "format", "text") == "json":
        import json  # only here and in main's error line: text output skips it

        chunks = [json.dumps(payload, indent=2)]
    output = getattr(args, "output", None)
    if output is not None and not os.path.isabs(output):
        output = os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), output)
    try:
        # opened before the first chunk is pulled, so a bad path costs no work
        with (nullcontext(sys.stdout) if output is None
              else open(output, "w", encoding="utf-8")) as stream:
            for chunk in chunks:
                stream.write(chunk + "\n")
            stream.flush()
    except OSError as exc:  # the output's: exact arithmetic raises no OSError
        if output is None:
            # Point stdout at devnull so the flush at shutdown cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(exc, BrokenPipeError):
                # The reader stopped early (`| head`): pull no further chunk;
                # the command keeps its own exit code.
                return
        raise _OutputError(f"cannot write output: {exc}") from exc


def _check_lines(checks) -> list[str]:
    return [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks]


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive integer range 'a:b', or a single value 'a'."""
    if ":" in text:
        low_text, high_text = text.split(":", 1)
        low, high = int(low_text), int(high_text)
    else:
        low = high = int(text)
    if low > high:
        raise ValueError(f"empty range {text!r}")
    return low, high


# ---------------------------------------------------------------- commands
# Each command imports what it runs, so a launch compiles only those
# modules (see "Cold start" in the README).


def _cmd_dim(args: argparse.Namespace) -> int:
    from .verlinde import dimension

    _emit(args, None, [str(dimension(args.genus, args.p, args.color))])
    return EXIT_OK


def _cmd_poly(args: argparse.Namespace) -> int:
    from .verlinde import odd_color_polynomial, verlinde_polynomial

    poly = odd_color_polynomial(args.genus) if args.odd else verlinde_polynomial(args.genus)
    payload = {
        "genus": args.genus,
        "kind": "odd" if args.odd else "even",
        "variables": list(poly.variables),
        "polynomial": poly.render(),
    }
    _emit(args, payload, [payload["polynomial"]])
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .verlinde import decompose

    parts = decompose(args.genus, args.kind)
    var = "c" if args.kind == "even" else "s"
    rows = [
        {
            "power": j,
            "degree": int(parts[j].degree),
            "polynomial": parts[j].render(var),
        }
        for j in sorted(parts)
    ]
    lines = [f"p^{row['power']}  degree {row['degree']}  {row['polynomial']}" for row in rows]
    _emit(args, {"genus": args.genus, "kind": args.kind, "parts": rows}, lines)
    return EXIT_OK


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    from .bernoulli import bernoulli_numbers, bernoulli_polynomial

    if args.max_index < 0:
        raise ValueError("max index must be nonnegative")
    if args.polynomials:
        key, name = "polynomial", "B_{}(x)"
        values = [bernoulli_polynomial(m).render("x") for m in range(args.max_index + 1)]
    else:
        key, name = "value", "B_{}"
        values = [str(b) for b in bernoulli_numbers(args.max_index)]
    entries = [{"index": m, key: value} for m, value in enumerate(values)]
    lines = [f"{name.format(m)} = {value}" for m, value in enumerate(values)]
    _emit(args, {"max_index": args.max_index, "entries": entries}, lines)
    return EXIT_OK


def _cmd_eval_curve(args: argparse.Namespace) -> int:
    from .cyclotomic import cyclotomic_field
    from .skein import eval_nonseparating_curve

    # ahead of building the field, so a bad color is reported before a bad level
    if args.color < 0:
        raise ValueError("color must be nonnegative")
    field = cyclotomic_field(args.p)
    value = eval_nonseparating_curve(
        args.genus, args.color, field, alternate_form=args.alternate_form
    )
    coefficients = [str(c) for c in value.coefficients]
    payload = {
        "genus": args.genus,
        "p": args.p,
        "color": args.color,
        "basis": "powers of a primitive 2p-th root of unity",
        "coefficients": coefficients,
    }
    lines = [f"coefficients [{', '.join(coefficients)}]"]
    if args.embed:
        embedded = value.embed(1)
        payload["embedding"] = {"re": embedded.real, "im": embedded.imag}
        lines.append(f"embedding {embedded.real:+.12f}{embedded.imag:+.12f}i")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .suites import run_suite

    results = run_suite(args.suite)
    passed = all(r.passed for r in results)
    payload = {
        "suite": args.suite,
        "passed": passed,
        "checks": [r._asdict() for r in results],
    }
    lines = _check_lines(results)
    lines.append(
        f"{'all checks passed' if passed else 'CHECK FAILURES PRESENT'}"
        f" ({sum(r.passed for r in results)}/{len(results)})"
    )
    _emit(args, payload, lines)
    return EXIT_OK if passed else EXIT_CHECK_FAILURE


def _cmd_certify(args: argparse.Namespace) -> int:
    from .certify import build_certificate

    certificate = build_certificate(args.genus)
    lines = [
        f"genus {certificate.genus}",
        f"lower bound {certificate.lower_bound}",
        f"valid {certificate.valid}",
        f"class (0,0) dimension >= {certificate.dim_00}",
        f"class (0,1) dimension >= {certificate.dim_01}",
        f"other classes {certificate.other_class_count} x >= {certificate.other_each}",
        *_check_lines(certificate.checks),
    ]
    _emit(args, certificate.to_dict(), lines)
    return EXIT_OK if certificate.valid else EXIT_CHECK_FAILURE


def _cmd_table(args: argparse.Namespace) -> int:
    from .verlinde import _level_dimensions, verlinde_polynomial

    genus_range = _parse_range(args.genus)
    p_range = _parse_range(args.p)
    color_range = _parse_range(args.color)
    if genus_range[0] < 1:
        raise ValueError("genus must be at least 1")

    def chunks():
        # one chunk per level, so a closed reader stops the computation
        yield "genus,p,color,dimension"
        for g in range(genus_range[0], genus_range[1] + 1):
            poly = None  # D_g, built at the first level with a color
            for p in range(max(p_range[0], 3) | 1, p_range[1] + 1, 2):  # odd levels
                colors = range(max(color_range[0], 0), min(color_range[1], p - 2) + 1)
                if colors:
                    poly = poly or verlinde_polynomial(g)
                    values = _level_dimensions(g, p, colors, poly)
                    yield "\n".join(f"{g},{p},{m},{value}" for m, value in zip(colors, values))

    _emit(args, None, chunks())
    return EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeindim",
        description="Exact Verlinde dimensions, skein identities, and "
        "skein-module lower-bound certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared arguments, one parent parser each.  certify declares its own
    # --format: set_defaults on a child rewrites the action all commands share.
    genus = argparse.ArgumentParser(add_help=False)
    genus.add_argument("--genus", "-g", type=int, required=True)
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--p", type=int, required=True, help="odd level >= 3")
    point.add_argument("--color", "-m", type=int, required=True)
    text_or_json = argparse.ArgumentParser(add_help=False)
    text_or_json.add_argument("--format", choices=["text", "json"], default="text")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write to this path instead of stdout")

    def add(name, func, summary, *parents):
        command = sub.add_parser(name, help=summary, parents=list(parents))
        command.set_defaults(func=func)
        return command

    add("dim", _cmd_dim, "one dimension value", genus, point)

    p_poly = add("poly", _cmd_poly, "dimension polynomial", genus, text_or_json, output)
    p_poly.add_argument(
        "--odd", action="store_true", help="odd-color polynomial in (p, s)"
    )

    p_dec = add("decompose", _cmd_decompose, "p-power coefficient table",
                genus, text_or_json, output)
    p_dec.add_argument("--kind", choices=["even", "odd"], default="even")

    p_ber = add("bernoulli", _cmd_bernoulli, "Bernoulli numbers or polynomials",
                text_or_json, output)
    p_ber.add_argument("--max-index", "-n", type=int, required=True)
    p_ber.add_argument("--polynomials", action="store_true")

    p_ev = add("eval-curve", _cmd_eval_curve, "exact curve evaluation",
               genus, point, text_or_json, output)
    p_ev.add_argument(
        "--embed", action="store_true", help="also print a floating embedding"
    )
    p_ev.add_argument(
        "--alternate-form",
        action="store_true",
        help="use the alternative odd-denominator exponent (audit only)",
    )

    p_ver = add("verify", _cmd_verify, "run a verification battery", text_or_json, output)
    p_ver.add_argument("--suite", choices=[*SUITE_NAMES, "all"], default="all")

    p_cert = add("certify", _cmd_certify, "emit a lower-bound certificate", genus, output)
    p_cert.add_argument("--format", choices=["json", "text"], default="json")

    p_tab = add("table", _cmd_table, "CSV of dimensions over ranges", output)
    p_tab.add_argument("--genus", required=True, help="range a:b or single value")
    p_tab.add_argument("--p", required=True, help="range a:b (even levels skipped)")
    p_tab.add_argument("--color", required=True, help="range a:b (clipped to p-2)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # table's --genus is a range string, checked by the command itself
        if isinstance(getattr(args, "genus", None), int) and args.genus < 1:
            raise ValueError("genus must be at least 1")
        return args.func(args)
    # StructureViolation is a ValueError: catch it first
    except (StructureViolation, IntegralityError, FaulhaberInconsistency,
            AssertionError) as exc:
        code, error = EXIT_CHECK_FAILURE, exc
    except (ValueError, VanishingDenominator, _OutputError) as exc:
        code, error = EXIT_USAGE, exc
    import json

    print(json.dumps({"error": str(error)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
