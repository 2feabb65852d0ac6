"""Command-line interface tests, driven through main() with captured output."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from skeindim import bernoulli, suites, verlinde
from skeindim.cli import main
from skeindim.errors import FaulhaberInconsistency
from skeindim.exact import BivariatePolynomial, UnivariatePolynomial
from skeindim.verlinde import StructureViolation, verlinde_polynomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim(capsys):
    code, out, _ = run_cli(capsys, "dim", "--genus", "1", "--p", "7", "--color", "0")
    assert code == 0
    assert out.strip() == "3"


def test_dim_invalid_color_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "dim", "--genus", "1", "--p", "5", "--color", "9")
    assert code == 2
    assert "error" in json.loads(err.strip())


def test_dim_even_level_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "dim", "--genus", "1", "--p", "6", "--color", "0")
    assert code == 2


def test_poly_genus_one_golden(capsys):
    code, out, _ = run_cli(capsys, "poly", "--genus", "1")
    assert code == 0
    assert out.strip() == "-1/2 + 1/2*p - c"


def test_poly_odd_genus_one(capsys):
    code, out, _ = run_cli(capsys, "poly", "--genus", "1", "--odd")
    assert code == 0
    assert out.strip() == "s"


def test_poly_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "poly", "--genus", "2", "--format", "json")
    assert code == 0
    text = out.rstrip("\n")
    assert json.dumps(json.loads(text), indent=2) == text


def test_decompose_text(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--genus", "1", "--kind", "even")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p^0  degree 1  -1/2 - c"
    assert lines[1] == "p^1  degree 0  1/2"


def test_decompose_json(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--genus", "2", "--kind", "odd", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [part["power"] for part in payload["parts"]] == [1, 3]
    assert payload["parts"][0]["degree"] == 3


# stdout sha256 of outputs recorded before the CLI's single dispatch path;
# eval-curve runs without --embed, whose float digits depend on libm
OUTPUT_DIGESTS = [
    (
        ["decompose", "--genus", "4", "--kind", "even", "--format", "text"],
        "50ef556ee08d784db155c9a87badaa1908a342515cd51db4470d0ab705d08e5d",
    ),
    (
        ["decompose", "--genus", "4", "--kind", "even", "--format", "json"],
        "decd2e33a5f947d1d167355ca1c8d55f5749be70726dc08f26472c393e251623",
    ),
    (
        ["decompose", "--genus", "4", "--kind", "odd", "--format", "text"],
        "9408dbc3d6b795a5ae581b423b95d5f965c78e7d4f9b3740ded7c5f0750108de",
    ),
    (
        ["decompose", "--genus", "4", "--kind", "odd", "--format", "json"],
        "52fe28a088e5c643ea03b0960a9bb9aaadaf1706754975ff27035becf116839f",
    ),
    (
        ["poly", "--genus", "4"],
        "b8b57b61241b2ad2eefb617cfc7cbb17c9b3d11a1a5b5cf84ee2d761d287801e",
    ),
    (
        ["poly", "--genus", "4", "--odd"],
        "7cf7780635064641a68c9997f2f4836524c92b50e127e2db5764c60e4f2e096c",
    ),
    (
        ["bernoulli", "--max-index", "12"],
        "65b47f717ba41b8ff30a1fefec07fad2dff49e01a5141c2aa713fd2f78da59ea",
    ),
    (
        ["bernoulli", "--max-index", "12", "--format", "json"],
        "f9035c745015a5a6d296025686ff8958f12fe24522ca38ad40ad903844cda975",
    ),
    (
        ["bernoulli", "--max-index", "12", "--polynomials"],
        "bc9ec0e2a6fb2ce349007055b5845e75487d97157811d37aeaf5a13da020db85",
    ),
    (
        ["bernoulli", "--max-index", "12", "--polynomials", "--format", "json"],
        "12161014f09e87e1c69f5b9ecd10afeaac356a0c641431d0b79f264da3505d47",
    ),
    (
        ["dim", "--genus", "3", "--p", "11", "--color", "4"],
        "55462c2cf7626d1afa2015394d41068db1a377c5871b3406f1b7ff0246fd548d",
    ),
    (
        ["verify", "--suite", "bernoulli", "--format", "json"],
        "646f7a434e7f70264e59994efa8f431e02b3b3cbbe384dd1e6a90d2c3e9851ce",
    ),
    (
        ["eval-curve", "--genus", "2", "--p", "7", "--color", "3", "--format", "json"],
        "a9fd947d8a4a4526e22305e34f6ea7e14b3053fead96aaa2046b8081789e82cb",
    ),
    (
        ["table", "--genus", "1:2", "--p", "3:9", "--color", "0:4"],
        "cd58aa99bab27c9596690200352541f7d7675ca0f0432af68ff98736d09e20f5",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", OUTPUT_DIGESTS, ids=[" ".join(argv) for argv, _ in OUTPUT_DIGESTS]
)
def test_genus_four_output_digests(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_decompose_structure_violation_is_check_failure(monkeypatch, capsys):
    def planted(g, kind):
        raise StructureViolation(f"planted violation (genus {g}, kind {kind})")

    monkeypatch.setattr(verlinde, "decompose", planted)
    code, out, err = run_cli(capsys, "decompose", "--genus", "3", "--kind", "odd")
    assert code == 1
    assert out == ""
    assert err == json.dumps({"error": "planted violation (genus 3, kind odd)"}) + "\n"


def _plus_one(poly):
    """poly + 1, built from its coefficients."""
    first, *rest = poly.coefficients
    return UnivariatePolynomial([first + 1, *rest])


def _with_high_y_term(integer_parts):
    """`_integer_parts` with u^(2g-1) added to Y, which `_polynomial` places
    at p^g: a term of total degree 3g - 1."""
    def planted(g):
        scale, x_part, y_part = integer_parts(g)
        return scale, x_part, (*y_part, ((0, 2 * g - 1), 1))

    return planted


HIGH_Y_TERM_AT_GENUS_3 = "part at p^3 has degree 5, expected 4 (genus 3, kind even)"


@pytest.fixture
def high_y_term(monkeypatch):
    """Every D_g built with the extra term of `_with_high_y_term`."""
    monkeypatch.setattr(verlinde, "_integer_parts", _with_high_y_term(verlinde._integer_parts))


def test_broken_polynomial_fails_the_certificate(high_y_term, capsys):
    # the structure check reports the broken D_g; the certificate is
    # written, invalid, instead of the command aborting
    code, out, err = run_cli(capsys, "certify", "--genus", "3", "--format", "text")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[:3] == ["genus 3", "lower bound 133", "valid False"]
    assert f"FAIL decomposition_structure: {HIGH_Y_TERM_AT_GENUS_3}" in lines


@pytest.mark.parametrize("suite, failure", [
    ("verlinde", "FAIL decomposition_structure: g=1: part at p^1 has degree 1, expected 0"),
    ("certify", "FAIL certificates_valid: g=1: decomposition_structure, phi_rank_even"),
])
def test_broken_polynomial_fails_verify(high_y_term, capsys, suite, failure):
    code, out, err = run_cli(capsys, "verify", "--suite", suite)
    assert (code, err) == (1, "")
    *checks, summary = out.splitlines()
    assert any(line.startswith(failure) for line in checks)
    passed = sum(line.startswith("PASS ") for line in checks)
    assert summary == f"CHECK FAILURES PRESENT ({passed}/{len(checks)})"


@pytest.mark.parametrize("argv", [
    ["poly", "--genus", "3"],
    ["dim", "--genus", "3", "--p", "5", "--color", "0"],
    ["decompose", "--genus", "3"],
    ["table", "--genus", "3", "--p", "5", "--color", "0"],
])
def test_broken_polynomial_is_a_typed_check_failure(high_y_term, capsys, argv):
    # D_g is validated as it is built: a StructureViolation, exit 1
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ("genus,p,color,dimension\n" if argv[0] == "table" else "")
    assert err == json.dumps({"error": HIGH_Y_TERM_AT_GENUS_3}) + "\n"


def _horner_plus_one(real):
    return lambda values, x, scale: real(values, x, scale) + 1


# Internal consistency errors that end a command outside `verify`: (argv,
# module, name, plant applied to the real function, error message).
INTERNAL_ERRORS = {
    "integrality": (
        ["dim", "--genus", "1", "--p", "3", "--color", "0"],
        verlinde, "_horner", _horner_plus_one,
        "dimension at genus 1, p=3, color 0 evaluated to 5/4",
    ),
}


@pytest.mark.parametrize("case", INTERNAL_ERRORS)
def test_internal_consistency_error_is_check_failure(monkeypatch, capsys, case):
    argv, module, name, plant, message = INTERNAL_ERRORS[case]
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == json.dumps({"error": message}) + "\n"


def _genus_two_plus_a_third(real):
    """`genus_data` with 1/3 added to the p c^0 term of D_2, inside the
    proven support, so that no structure check sees it."""
    def planted(g):
        data = real(g)
        if g != 2:
            return data
        terms = dict(data.even.terms())
        terms[(1, 0)] = terms.get((1, 0), 0) + Fraction(1, 3)
        return data._replace(even=BivariatePolynomial(terms, data.even.variables))

    return planted


def _inconsistent_at_seven(real):
    def planted(m):
        if m == 7:
            raise FaulhaberInconsistency("planted disagreement at exponent 7")
        return real(m)

    return planted


# Internal consistency errors raised inside a `verify` check, each reported
# as a FAIL of that check while the battery runs on: (suite, module, name,
# plant applied to the real function, start of the one FAIL line).
VERIFY_ERRORS = {
    "faulhaber": (
        "bernoulli", bernoulli, "_faulhaber_via_polynomial_difference",
        lambda real: lambda m: _plus_one(real(m)) if m == 3 else real(m),
        "FAIL power_sum_closed_forms: m=3: power-sum closed forms disagree at exponent 3: "
        "1/4*N^2 + 1/2*N^3 + 1/4*N^4 vs 1 + 1/4*N^2 + 1/2*N^3 + 1/4*N^4",
    ),
    "faulhaber_poly": (
        "bernoulli", suites, "faulhaber_poly", _inconsistent_at_seven,
        "FAIL power_sum_closed_forms: m=7: planted disagreement at exponent 7",
    ),
    "integrality": (
        "verlinde", verlinde, "_horner", _horner_plus_one,
        "FAIL all_colors_integral: g=1 p=3: dimension at genus 1, p=3, color 0 evaluated to 5/4",
    ),
    "genus_data": (
        "verlinde", suites, "genus_data", _genus_two_plus_a_third,
        "FAIL all_colors_integral: g=2 p=3 m=0; g=2 p=3 m=1; "
        "g=2 p=5: dimension at genus 2, p=5, color 0 evaluated to 20/3",
    ),
}


@pytest.mark.parametrize("case", VERIFY_ERRORS)
def test_verify_reports_internal_consistency_error(monkeypatch, capsys, case):
    suite, module, name, plant, failure = VERIFY_ERRORS[case]
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    code, out, err = run_cli(capsys, "verify", "--suite", suite)
    assert code == 1
    assert err == ""
    *checks, summary = out.splitlines()
    [failed] = [line for line in checks if not line.startswith("PASS ")]
    assert failed.startswith(failure)
    assert summary == f"CHECK FAILURES PRESENT ({len(checks) - 1}/{len(checks)})"


def test_bernoulli_numbers(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "--max-index", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "B_0 = 1"
    assert lines[1] == "B_1 = -1/2"
    assert lines[4] == "B_4 = -1/30"


def test_bernoulli_polynomials(capsys):
    code, out, _ = run_cli(
        capsys, "bernoulli", "--max-index", "2", "--polynomials"
    )
    assert code == 0
    assert "B_2(x) = 1/6 - x + x^2" in out


def test_eval_curve_exact_has_no_floats(capsys):
    code, out, _ = run_cli(
        capsys, "eval-curve", "--genus", "2", "--p", "5", "--color", "1"
    )
    assert code == 0
    assert out.startswith("coefficients [")
    assert "." not in out  # rationals only in exact mode


def test_eval_curve_embed_flag_adds_float(capsys):
    code, out, _ = run_cli(
        capsys, "eval-curve", "--genus", "2", "--p", "5", "--color", "1", "--embed"
    )
    assert code == 0
    assert "embedding" in out
    assert "." in out


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_eval_curve_embed_overflow_is_usage_error(capsys, output_format):
    # the genus-600 invariant at p = 5 has coefficients beyond the float range
    code, out, err = run_cli(
        capsys, "eval-curve", "--genus", "600", "--p", "5", "--color", "3",
        "--embed", "--format", output_format,
    )
    assert code == 2
    assert out == ""
    assert err == json.dumps({"error": "embedding at s = 1 is not a finite float"}) + "\n"


def test_eval_curve_color_zero_matches_dim(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval-curve", "--genus", "2", "--p", "5", "--color", "0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    # all degree(Q(zeta_10)) = 4 power-basis coefficients, zeros included
    assert payload["coefficients"] == ["5", "0", "0", "0"]


def test_eval_curve_vanishing_denominator_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "eval-curve", "--genus", "1", "--p", "3", "--color", "3"
    )
    assert code == 2
    assert "vanishing" in json.loads(err.strip())["error"]


def test_eval_curve_color_above_range_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "eval-curve", "--genus", "2", "--p", "7", "--color", "6"
    )
    assert code == 2
    assert out == ""
    assert "vanishing quantum denominator" in json.loads(err.strip())["error"]


def test_verify_bernoulli_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bernoulli")
    assert code == 0
    assert "PASS half_value_identity" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "certify", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(check["passed"] for check in payload["checks"])


def test_certify_json(capsys):
    code, out, _ = run_cli(capsys, "certify", "--genus", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower_bound"] == 9
    assert payload["valid"] is True
    text = out.rstrip("\n")
    assert json.dumps(json.loads(text), indent=2) == text


def test_certify_text(capsys):
    code, out, _ = run_cli(capsys, "certify", "--genus", "2", "--format", "text")
    assert code == 0
    assert "lower bound 35" in out
    assert "valid True" in out


def test_certify_output_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SKEINDIM_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(
        capsys, "certify", "--genus", "1", "--output", "cert.json"
    )
    assert code == 0
    assert out == ""
    payload = json.loads((tmp_path / "cert.json").read_text())
    assert payload["genus"] == 1


def test_certify_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "cert.json"
    code, out, err = run_cli(
        capsys, "certify", "--genus", "2", "--output", str(target)
    )
    assert code == 2
    assert out == ""
    assert "cannot write output" in json.loads(err.strip())["error"]
    assert not target.exists()


def test_table_output_to_directory_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "table", "--genus", "1", "--p", "3", "--color", "0",
        "--output", str(tmp_path),
    )
    assert code == 2
    assert "error" in json.loads(err.strip())


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--genus", "1:2", "--p", "3:7", "--color", "0:2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "genus,p,color,dimension"
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    assert rows == sorted(rows)
    assert (1, 7, 0, 3) in rows
    # even levels skipped, colors above p-2 clipped
    assert all(p % 2 == 1 for _, p, _, _ in rows)
    assert all(m <= p - 2 for _, p, m, _ in rows)
    assert "." not in out


def _per_value_table(genus, levels, colors):
    """The earlier table loop, one evaluation per value, each value a
    term-by-term Fraction sum of D_g at c = m/2 after recoloring."""
    lines = ["genus,p,color,dimension"]
    for g in range(genus[0], genus[1] + 1):
        for p in range(levels[0], levels[1] + 1):
            if p < 3 or p % 2 == 0:
                continue
            for m in range(colors[0], colors[1] + 1):
                if not 0 <= m <= p - 2:
                    continue
                c = Fraction(p - m - 2 if m % 2 else m, 2)
                value = sum(
                    coeff * p**i * c**j for (i, j), coeff in verlinde_polynomial(g).terms()
                )
                assert value.denominator == 1 and value >= 0
                lines.append(f"{g},{p},{m},{value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "genus, levels, colors",
    [
        ((1, 3), (3, 15), (-4, 3)),  # colors start below 0
        ((2, 2), (3, 11), (5, 40)),  # colors run past p - 2
        ((1, 2), (-3, 12), (0, 9)),  # even levels and levels below 3
        ((1, 3), (5, 9), (8, 20)),  # some levels hold no admissible color
        ((1, 4), (3, 9), (30, 40)),  # no admissible color at all
        ((1, 2), (-1, 2), (0, 5)),  # no odd level >= 3
        ((4, 4), (21, 21), (0, 19)),  # one composite level, every color
    ],
)
def test_table_windows_match_per_value_loop(capsys, genus, levels, colors):
    # flag=value, so that a range starting below 0 is not read as a flag
    argv = [
        f"{flag}={low}:{high}"
        for flag, (low, high) in (("--genus", genus), ("--p", levels), ("--color", colors))
    ]
    code, out, _ = run_cli(capsys, "table", *argv)
    assert code == 0
    assert out == _per_value_table(genus, levels, colors)


NON_INTEGRAL = BivariatePolynomial({(0, 1): 1, (0, 0): Fraction(1, 3)}, ("p", "c"))
HEADER = "genus,p,color,dimension\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--genus", "2", "--p", "7", "--color", "3"],
        ["table", "--genus", "2", "--p", "7", "--color", "2:3"],
    ],
)
def test_integrality_error_is_check_failure(monkeypatch, capsys, argv):
    monkeypatch.setattr(verlinde, "verlinde_polynomial", lambda g: NON_INTEGRAL)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    # the table streams: its header is out before the first level fails
    assert out == (HEADER if argv[0] == "table" else "")
    assert json.loads(err) == {
        "error": "dimension at genus 2, p=7, color 2 evaluated to 4/3"
    }


def test_table_error_keeps_the_finished_levels(monkeypatch, capsys):
    real = verlinde._level_dimensions

    def fails_at_nine(g, p, colors, poly):
        if p == 9:
            raise verlinde.IntegralityError("planted at p=9")
        return real(g, p, colors, poly)

    monkeypatch.setattr(verlinde, "_level_dimensions", fails_at_nine)
    code, out, err = run_cli(capsys, "table", "--genus", "2", "--p", "3:13", "--color", "0:4")
    assert code == 1
    # every row of p = 3, 5, 7 and none of the failing level
    assert out == _per_value_table((2, 2), (3, 7), (0, 4))
    assert json.loads(err) == {"error": "planted at p=9"}


def test_table_deterministic(capsys):
    _, first, _ = run_cli(capsys, "table", "--genus", "1:3", "--p", "3:9", "--color", "0:7")
    _, second, _ = run_cli(capsys, "table", "--genus", "1:3", "--p", "3:9", "--color", "0:7")
    assert first == second


def test_usage_error_exit_code_on_unknown_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_usage_error_on_bad_range(capsys):
    code, out, _ = run_cli(capsys, "table", "--genus", "3:1", "--p", "5", "--color", "0")
    assert code == 2
    # every range is checked before the header
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["poly", "--genus", "0"], "genus must be at least 1"),
        (["decompose", "--genus", "0"], "genus must be at least 1"),
        (["eval-curve", "--genus", "0", "--p", "5", "--color", "1"], "genus must be at least 1"),
        (["certify", "--genus", "0"], "genus must be at least 1"),
        (["table", "--genus", "0:2", "--p", "5", "--color", "0"], "genus must be at least 1"),
        (["eval-curve", "--genus", "2", "--p", "5", "--color", "-1"], "color must be nonnegative"),
        (["bernoulli", "--max-index", "-1"], "max index must be nonnegative"),
    ],
)
def test_usage_error_branches(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == json.dumps({"error": message}) + "\n"
