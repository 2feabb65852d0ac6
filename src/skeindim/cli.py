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

Exit codes: 0 success, 1 check failure, 2 usage or validation error.
Exact-mode output never contains a floating-point number; floats appear
only under the explicit --embed flag of eval-curve.

Relative --output paths resolve against $SKEINDIM_OUTPUT_DIR when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bernoulli import bernoulli_numbers, bernoulli_polynomial
from .certify import build_certificate
from .cyclotomic import cyclotomic_field
from .skein import VanishingDenominator, eval_nonseparating_curve
from .suites import SUITES, run_suite
from .verlinde import (
    IntegralityError,
    StructureViolation,
    decompose,
    dimension,
    level_dimensions,
    odd_color_polynomial,
    verlinde_polynomial,
)

OUTPUT_DIR_ENV = "SKEINDIM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2


def _error(message: str, code: int) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


class _OutputError(Exception):
    """The --output path could not be written."""


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
        return
    if not os.path.isabs(output):
        output = os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), output)
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise _OutputError(f"cannot write output: {exc}") from exc


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2)


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


def _cmd_dim(args: argparse.Namespace) -> int:
    try:
        value = dimension(args.genus, args.p, args.color)
    except ValueError as exc:
        return _error(str(exc), EXIT_USAGE)
    except IntegralityError as exc:
        return _error(str(exc), EXIT_CHECK_FAILURE)
    print(value)
    return EXIT_OK


def _cmd_poly(args: argparse.Namespace) -> int:
    if args.genus < 1:
        return _error("genus must be at least 1", EXIT_USAGE)
    kind = "odd" if args.odd else "even"
    poly = odd_color_polynomial(args.genus) if args.odd else verlinde_polynomial(args.genus)
    if args.format == "json":
        payload = {
            "genus": args.genus,
            "kind": kind,
            "variables": list(poly.variables),
            "polynomial": poly.render(),
        }
        _emit(_json_text(payload), args.output)
    else:
        _emit(poly.render(), args.output)
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.genus < 1:
        return _error("genus must be at least 1", EXIT_USAGE)
    try:
        parts = decompose(args.genus, args.kind)
    except StructureViolation as exc:
        return _error(str(exc), EXIT_CHECK_FAILURE)
    var = "c" if args.kind == "even" else "s"
    rows = [
        {
            "power": j,
            "degree": int(parts[j].degree),
            "polynomial": parts[j].render(var),
        }
        for j in sorted(parts)
    ]
    if args.format == "json":
        payload = {"genus": args.genus, "kind": args.kind, "parts": rows}
        _emit(_json_text(payload), args.output)
    else:
        lines = [f"p^{row['power']}  degree {row['degree']}  {row['polynomial']}" for row in rows]
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    if args.max_index < 0:
        return _error("max index must be nonnegative", EXIT_USAGE)
    if args.polynomials:
        entries = [
            {"index": m, "polynomial": bernoulli_polynomial(m).render("x")}
            for m in range(args.max_index + 1)
        ]
        text_lines = [f"B_{e['index']}(x) = {e['polynomial']}" for e in entries]
    else:
        table = bernoulli_numbers(args.max_index)
        entries = [
            {"index": m, "value": str(table[m])} for m in range(args.max_index + 1)
        ]
        text_lines = [f"B_{e['index']} = {e['value']}" for e in entries]
    if args.format == "json":
        _emit(_json_text({"max_index": args.max_index, "entries": entries}), args.output)
    else:
        _emit("\n".join(text_lines), args.output)
    return EXIT_OK


def _cmd_eval_curve(args: argparse.Namespace) -> int:
    if args.genus < 1:
        return _error("genus must be at least 1", EXIT_USAGE)
    if args.color < 0:
        return _error("color must be nonnegative", EXIT_USAGE)
    try:
        field = cyclotomic_field(args.p)
    except ValueError as exc:
        return _error(str(exc), EXIT_USAGE)
    try:
        value = eval_nonseparating_curve(
            args.genus, args.color, field, alternate_form=args.alternate_form
        )
    except VanishingDenominator as exc:
        return _error(str(exc), EXIT_USAGE)
    coefficients = [str(c) for c in value.coefficients]
    if args.format == "json":
        payload = {
            "genus": args.genus,
            "p": args.p,
            "color": args.color,
            "basis": "powers of a primitive 2p-th root of unity",
            "coefficients": coefficients,
        }
        if args.embed:
            embedded = value.embed(1)
            payload["embedding"] = {"re": embedded.real, "im": embedded.imag}
        _emit(_json_text(payload), args.output)
    else:
        lines = [f"coefficients [{', '.join(coefficients)}]"]
        if args.embed:
            embedded = value.embed(1)
            lines.append(f"embedding {embedded.real:+.12f}{embedded.imag:+.12f}i")
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    passed = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "passed": passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        }
        _emit(_json_text(payload), args.output)
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
        ]
        lines.append(
            f"{'all checks passed' if passed else 'CHECK FAILURES PRESENT'}"
            f" ({sum(r.passed for r in results)}/{len(results)})"
        )
        _emit("\n".join(lines), args.output)
    return EXIT_OK if passed else EXIT_CHECK_FAILURE


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.genus < 1:
        return _error("genus must be at least 1", EXIT_USAGE)
    certificate = build_certificate(args.genus)
    if args.format == "text":
        lines = [
            f"genus {certificate.genus}",
            f"lower bound {certificate.lower_bound}",
            f"valid {certificate.valid}",
            f"class (0,0) dimension >= {certificate.dim_00}",
            f"class (0,1) dimension >= {certificate.dim_01}",
            f"other classes {certificate.other_class_count} x >= {certificate.other_each}",
        ]
        lines += [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}"
            for c in certificate.checks
        ]
        _emit("\n".join(lines), args.output)
    else:
        _emit(certificate.to_json(), args.output)
    return EXIT_OK if certificate.valid else EXIT_CHECK_FAILURE


def _cmd_table(args: argparse.Namespace) -> int:
    try:
        genus_range = _parse_range(args.genus)
        p_range = _parse_range(args.p)
        color_range = _parse_range(args.color)
    except ValueError as exc:
        return _error(str(exc), EXIT_USAGE)
    if genus_range[0] < 1:
        return _error("genus must be at least 1", EXIT_USAGE)
    lines = ["genus,p,color,dimension"]
    for g in range(genus_range[0], genus_range[1] + 1):
        for p in range(max(p_range[0], 3), p_range[1] + 1):
            if p % 2 == 0:
                continue
            colors = range(max(color_range[0], 0), min(color_range[1], p - 2) + 1)
            try:
                values = level_dimensions(g, p, colors)
            except IntegralityError as exc:
                return _error(str(exc), EXIT_CHECK_FAILURE)
            lines += [f"{g},{p},{m},{value}" for m, value in zip(colors, values)]
    _emit("\n".join(lines), args.output)
    return EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeindim",
        description="Exact Verlinde dimensions, skein identities, and "
        "skein-module lower-bound certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write to this path instead of stdout")

    p_dim = sub.add_parser("dim", help="one dimension value")
    p_dim.add_argument("--genus", "-g", type=int, required=True)
    p_dim.add_argument("--p", type=int, required=True, help="odd level >= 3")
    p_dim.add_argument("--color", "-m", type=int, required=True)
    p_dim.set_defaults(func=_cmd_dim)

    p_poly = sub.add_parser("poly", help="dimension polynomial")
    p_poly.add_argument("--genus", "-g", type=int, required=True)
    p_poly.add_argument(
        "--odd", action="store_true", help="odd-color polynomial in (p, s)"
    )
    p_poly.add_argument("--format", choices=["text", "json"], default="text")
    add_output(p_poly)
    p_poly.set_defaults(func=_cmd_poly)

    p_dec = sub.add_parser("decompose", help="p-power coefficient table")
    p_dec.add_argument("--genus", "-g", type=int, required=True)
    p_dec.add_argument("--kind", choices=["even", "odd"], default="even")
    p_dec.add_argument("--format", choices=["text", "json"], default="text")
    add_output(p_dec)
    p_dec.set_defaults(func=_cmd_decompose)

    p_ber = sub.add_parser("bernoulli", help="Bernoulli numbers or polynomials")
    p_ber.add_argument("--max-index", "-n", type=int, required=True)
    p_ber.add_argument("--polynomials", action="store_true")
    p_ber.add_argument("--format", choices=["text", "json"], default="text")
    add_output(p_ber)
    p_ber.set_defaults(func=_cmd_bernoulli)

    p_ev = sub.add_parser("eval-curve", help="exact curve evaluation")
    p_ev.add_argument("--genus", "-g", type=int, required=True)
    p_ev.add_argument("--p", type=int, required=True, help="odd level >= 3")
    p_ev.add_argument("--color", "-m", type=int, required=True)
    p_ev.add_argument(
        "--embed", action="store_true", help="also print a floating embedding"
    )
    p_ev.add_argument(
        "--alternate-form",
        action="store_true",
        help="use the alternative odd-denominator exponent (audit only)",
    )
    p_ev.add_argument("--format", choices=["text", "json"], default="text")
    add_output(p_ev)
    p_ev.set_defaults(func=_cmd_eval_curve)

    p_ver = sub.add_parser("verify", help="run a verification battery")
    p_ver.add_argument(
        "--suite", choices=[*SUITES, "all"], default="all"
    )
    p_ver.add_argument("--format", choices=["text", "json"], default="text")
    add_output(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    p_cert = sub.add_parser("certify", help="emit a lower-bound certificate")
    p_cert.add_argument("--genus", "-g", type=int, required=True)
    p_cert.add_argument("--format", choices=["json", "text"], default="json")
    add_output(p_cert)
    p_cert.set_defaults(func=_cmd_certify)

    p_tab = sub.add_parser("table", help="CSV of dimensions over ranges")
    p_tab.add_argument("--genus", required=True, help="range a:b or single value")
    p_tab.add_argument("--p", required=True, help="range a:b (even levels skipped)")
    p_tab.add_argument("--color", required=True, help="range a:b (clipped to p-2)")
    add_output(p_tab)
    p_tab.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _OutputError as exc:
        return _error(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(main())
