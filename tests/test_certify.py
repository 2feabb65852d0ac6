"""Certificate assembly tests."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from skeindim import certify, suites, verlinde
from skeindim.certify import (
    POWER_BASIS_ASSUMPTION,
    Certificate,
    build_certificate,
    check_witness,
    lower_bound,
)
from skeindim.cli import main
from skeindim.exact import BivariatePolynomial, _horner, _scaled
from skeindim.verlinde import StructureViolation, decompose, genus_data
import rank_oracle
from rank_oracle import RANK_COLUMN_SLACK, WITNESS_PRIMES, phi_rank, rank, rank_mod, value_rows
from ring_oracle import RingPolynomial, ring

# The value-matrix rank of `rank_oracle` is the reference the certificate's
# degree-count ranks are tested against.


def test_phi_rank_genus_one_even():
    # the first two columns [[-1/2, -3/2], [1/2, 1/2]] have determinant 1/2
    assert phi_rank(1, "even") == 2


def test_phi_rank_genus_one_odd():
    # single row (1, 2, 3) from the polynomial s at s = 1, 2, 3
    assert phi_rank(1, "odd") == 1


def test_phi_rank_genus_two_even():
    assert phi_rank(2, "even") == 3


@pytest.mark.parametrize("kind", ["mixed", "Even", ""])
def test_phi_rank_rejects_unknown_kind(kind):
    with pytest.raises(ValueError, match="kind must be 'even' or 'odd'"):
        phi_rank(2, kind)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_phi_rank_saturates_at_row_count(g):
    assert rank([row[: g + 1] for row in value_rows(decompose(g, "even"), "even")]) == g + 1
    assert rank([row[:g] for row in value_rows(decompose(g, "odd"), "odd")]) == g


@pytest.mark.parametrize("kind", ["even", "odd"])
@pytest.mark.parametrize("g", range(1, 25))
def test_witness_rank_matches_bareiss(g, kind, monkeypatch):
    rows = value_rows(decompose(g, kind), kind)
    # the witness decides these matrices at every prime, so the rank
    # below is the witness's
    assert all(rank_mod(rows, q) == len(rows) for q in WITNESS_PRIMES)
    witnessed = rank(rows)
    monkeypatch.setattr(rank_oracle, "WITNESS_PRIMES", ())
    assert witnessed == rank(rows) == g + (kind == "even")


def test_rank_falls_back_to_bareiss_when_every_prime_falls_short():
    q1, q2 = WITNESS_PRIMES
    # full rank over Q, but rank 1 modulo each prime
    assert [rank_mod([[1, 0], [0, q1 * q2]], q) for q in WITNESS_PRIMES] == [1, 1]
    assert rank([[1, 0], [0, q1 * q2]]) == 2
    # short modulo the first prime only: the second one witnesses
    assert rank([[1, 0], [0, q1]]) == 2
    # a deficient matrix with large entries: rank 2 over Q and modulo each
    # prime, so Bareiss decides it
    a, b, c = 3**90 + 1, -(7**70), 2**200 + 11
    deficient = [[a, b, c, 1], [5 * a, 5 * b, 5 * c, 5], [b, c, a, q1 * q2]]
    assert [rank_mod(deficient, q) for q in WITNESS_PRIMES] == [2, 2]
    assert rank(deficient) == 2


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2)])
def test_rank_rejects_a_fraction_entry_before_the_witness(entry):
    # the reduction modulo q would accept a Fraction and misrank it
    with pytest.raises(TypeError):
        rank([[entry, 0], [0, 1]])


def _fraction_value_rows(g, kind, columns):
    """The value matrix by the earlier route: one Fraction evaluation of
    the part per entry."""
    parts = decompose(g, kind)
    arguments = range(columns) if kind == "even" else range(1, columns + 1)
    return [[parts[j](a) for a in arguments] for j in sorted(parts)]


@pytest.mark.parametrize("kind", ["even", "odd"])
@pytest.mark.parametrize("g", range(1, 13))
def test_value_rows_are_scaled_fraction_rows(g, kind):
    columns = g + (kind == "even") + RANK_COLUMN_SLACK
    rows = value_rows(decompose(g, kind), kind)
    expected = _fraction_value_rows(g, kind, columns)
    parts = decompose(g, kind)
    assert len(rows) == len(expected)
    for row, fractions, j in zip(rows, expected, sorted(parts)):
        scale = math.lcm(*[c.denominator for c in parts[j].coefficients])
        assert row == [scale * value for value in fractions]
        assert all(type(value) is int for value in row)
    assert phi_rank(g, kind) == rank([_scaled(row)[1] for row in expected])


@pytest.mark.parametrize("kind", ["even", "odd"])
@pytest.mark.parametrize("g", range(1, 9))
def test_value_rows_equal_the_rows_of_the_scaled_coefficients(g, kind):
    # the earlier rows: each part's Fraction coefficients scaled by the lcm
    # of their denominators, then evaluated by Horner's rule
    parts = decompose(g, kind)
    columns = g + (kind == "even") + RANK_COLUMN_SLACK
    arguments = range(columns) if kind == "even" else range(1, columns + 1)
    expected = []
    for j in sorted(parts):
        _, values = _scaled(parts[j].coefficients)
        expected.append([_horner(values, a, 1) for a in arguments])
    assert value_rows(decompose(g, kind), kind) == expected


@pytest.mark.parametrize("g", range(1, 21))
def test_certificate_ranks_equal_the_value_matrix_rank(g):
    cert = build_certificate(g)
    data = genus_data(g)
    assert cert.dim_00 == rank(value_rows(data.even.split_by_first(), "even")) == g + 1
    assert cert.dim_01 == rank(value_rows(data.odd.split_by_first(), "odd")) == g


def test_check_records_serialize_in_field_order():
    record = certify.CheckResult("parity", True, "holds")
    assert list(record._asdict().items()) == [
        ("name", "parity"), ("passed", True), ("detail", "holds")
    ]
    assert certify.CheckResult("planted", False).detail == ""
    data = build_certificate(1).to_dict()
    assert [list(check) for check in data["checks"]] == [["name", "passed", "detail"]] * 7


def test_lower_bound_known_values():
    assert lower_bound(0) == 1
    assert lower_bound(1) == 9
    assert lower_bound(2) == 35


def test_lower_bound_formula():
    for g in range(21):
        assert lower_bound(g) == 2 ** (2 * g + 1) + 2 * g - 1
    with pytest.raises(ValueError):
        lower_bound(-1)


@pytest.mark.parametrize("g", [2.5, 2.0, Fraction(5, 2)], ids=["2.5", "2.0", "5/2"])
def test_lower_bound_rejects_non_integer_genus(g):
    with pytest.raises(TypeError):
        lower_bound(g)


def test_certificate_genus_one():
    cert = build_certificate(1)
    assert cert.valid
    assert cert.lower_bound == 9
    assert cert.dim_00 == 2
    assert cert.dim_01 == 1
    assert cert.other_class_count == 6


def test_certificate_genus_two():
    cert = build_certificate(2)
    assert cert.valid
    assert cert.lower_bound == 35
    assert cert.dim_00 == 3
    assert cert.dim_01 == 2


def test_certificate_genus_four_value():
    assert build_certificate(4).lower_bound == 519


@pytest.mark.parametrize("g", [1, 2, 3])
def test_certificate_sum_identity(g):
    cert = build_certificate(g)
    assert cert.valid
    assert (
        cert.lower_bound
        == cert.dim_00 + cert.dim_01 + cert.other_class_count * cert.other_each
    )


def test_certificate_rejects_genus_zero():
    with pytest.raises(ValueError):
        build_certificate(0)


def test_certificate_at_the_smallest_witness_level():
    witness = check_witness(2, (3,))
    assert witness.passed
    assert witness.detail.endswith("for p in [3]")


# ------------------------------------------------- failing shared checks


def _raises(exc):
    def fake(*args):
        raise exc

    return fake


_ZERO = BivariatePolynomial({})

# (name patched in certify, fake, verify suite, verify check, certificate
# check, certificate detail).  A fake `genus_data` is patched in suites
# too, as the verlinde suite builds its own records.
FAILING_CHECKS = {
    "decompose": (
        "_validated", _raises(StructureViolation("planted violation")),
        "verlinde", "decomposition_structure", "decomposition_structure", "planted violation",
    ),
    "leading_term": (
        "leading_term_closed_form", lambda g: _ZERO,
        "verlinde", "leading_term_identity", "leading_term", "top homogeneous part mismatch",
    ),
    "parity": (
        "genus_data", lambda g: genus_data(g)._replace(scale=1, x_part=(((1, 0), 1),), y_part=()),
        "verlinde", "parity_structure", "parity",
        "residue component has odd power of p: 1*p^1*u^0",
    ),
    "flat_curve_unequal": (
        "flat_curve_check", lambda g, field: (field.from_rational(1), field.from_rational(0)),
        "skein", "flat_curve_two_forms", "nonseparating_curve_witness",
        "closed forms differ at p=3",
    ),
    "flat_curve_vanishing": (
        "flat_curve_check", lambda g, field: (field.from_rational(0), field.from_rational(0)),
        "skein", "flat_curve_two_forms", "nonseparating_curve_witness",
        "invariant vanishes at p=3",
    ),
}


@pytest.mark.parametrize("case", FAILING_CHECKS)
def test_failing_shared_check_fails_certificate_and_verify(monkeypatch, capsys, case):
    name, fake, suite, verify_check, cert_check, detail = FAILING_CHECKS[case]
    monkeypatch.setattr(certify, name, fake)
    if name == "genus_data":
        monkeypatch.setattr(suites, name, fake)

    cert = build_certificate(2)
    assert not cert.valid
    assert [(c.name, c.detail) for c in cert.checks if not c.passed] == [(cert_check, detail)]

    assert main(["certify", "--genus", "2", "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "valid False" in out
    assert f"FAIL {cert_check}: {detail}" in out.splitlines()

    assert main(["verify", "--suite", suite]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith(f"FAIL {verify_check}: g=1: {detail}")
    assert lines[-1].startswith("CHECK FAILURES PRESENT")

    assert main(["verify", "--suite", "certify"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL certificates_valid: g=1: {cert_check}" in out


def _with_monomial(field, key):
    """A plant for a record: the monomial 1*p^i*u^b, key (i, b), added to
    its X (field "x_part") or Y (field "y_part")."""
    return lambda data: data._replace(**{field: getattr(data, field) + ((key, data.scale),)})


def _with_odd(change):
    """A plant for a record: its odd-color polynomial odd replaced by
    change(odd)."""
    def plant(data):
        return data._replace(odd=change(data.odd))

    return plant


def _with_rows(poly, rows):
    """The polynomial with the p-rows {i: numerators} over the denominator
    and in the variables of poly, built by the public constructor."""
    terms = {(i, j): n for i, row in rows.items() for j, n in enumerate(row)}
    return BivariatePolynomial(terms, poly.variables, poly.denominator)


# Each parity violation, planted in the genus-2 record that `check_parity`
# reads: (plant applied to the real record, detail).
PARITY_VIOLATIONS = {
    "residue_odd_in_p": (
        _with_monomial("x_part", (1, 0)),
        "residue component has odd power of p: 1*p^1*u^0",
    ),
    "binomial_has_p": (
        _with_monomial("y_part", (1, 1)),
        "binomial component depends on p: 1*p^1*u^1",
    ),
    "odd_not_divisible": (
        _with_odd(lambda odd: ring(odd) + 1),
        "odd-color polynomial not divisible by p^1",
    ),
    "odd_in_p_after_division": (
        _with_odd(lambda odd: odd + RingPolynomial({(2, 1): 1}, ("p", "s"))),
        "odd-color polynomial / p^1 has odd power of p: 1*p^1*s^1",
    ),
    "even_in_s_after_division": (
        _with_odd(lambda odd: odd + RingPolynomial.first(("p", "s"))),
        "odd-color polynomial / p^1 has even power of s: 1*p^0*s^0",
    ),
}


@pytest.mark.parametrize("case", PARITY_VIOLATIONS)
def test_parity_violation_is_reported_not_raised(case):
    plant, detail = PARITY_VIOLATIONS[case]
    assert certify.check_parity(plant(genus_data(2))) == ("parity", False, detail)


def _with_even_rows(change):
    """A plant for `genus_data`: the genus-2 record with the p-rows
    {j: numerators of the part at p^j} of D_2 replaced by change(rows),
    other genera as built."""
    def plant(real):
        def planted(g):
            data = real(g)
            if g != 2:
                return data
            return data._replace(even=_with_rows(data.even, change(data.even.rows)))

        return planted

    return plant


_EVEN_RANK_SHORT = ("phi_rank_even", "rank 2, required 3")
_LEADING_TERM_CHANGED = ("leading_term", "top homogeneous part mismatch")

# Checks that only the certificate runs per genus: (name the certificate
# reads from `certify`, plant applied to the real function, first genus
# whose certificate fails, failed checks at genus 2 with their details).
# The crosscheck mismatch is planted in the fusion walk, at
# (g, p, s) = (1, 3, 1), which `check_crosscheck` reads for both `certify`
# and `verify`.  The rank shortfall is a doctored genus-2 record whose
# even-color parts keep only two distinct exact degrees: the part at p^3
# dropped, or given the degree of the part at p^2.  The structure check
# names the defect and the degree count falls short of g + 1; the part at
# p^3 carries a term of D_2's top degree, so the leading term fails too.
CERTIFICATE_ONLY_FAILURES = {
    "residue_vs_fusion": (
        "_fusion_walk",
        lambda real: lambda p: (
            (v[0] + 1, *v[1:]) if (g, p) == (1, 3) else v for g, v in enumerate(real(p), 1)
        ),
        1,
        [("residue_vs_fusion", "42 dimension values compared, 1 mismatches (g=1 p=3 s=1)")],
    ),
    "phi_rank_even": (
        "genus_data",
        _with_even_rows(lambda rows: {j: row for j, row in rows.items() if j != 3}),
        2,
        [
            ("decomposition_structure", "missing part at p^3 (genus 2, kind even)"),
            _EVEN_RANK_SHORT,
            _LEADING_TERM_CHANGED,
        ],
    ),
    "phi_rank_even_repeated_degree": (
        "genus_data",
        _with_even_rows(lambda rows: {**rows, 3: rows[2]}),
        2,
        [
            ("decomposition_structure", "part at p^3 has degree 2, expected 1 (genus 2, kind even)"),
            _EVEN_RANK_SHORT,
            _LEADING_TERM_CHANGED,
        ],
    ),
}


@pytest.mark.parametrize("check", CERTIFICATE_ONLY_FAILURES)
def test_failing_certificate_check_fails_certify(monkeypatch, capsys, check):
    name, plant, genus, failed = CERTIFICATE_ONLY_FAILURES[check]
    monkeypatch.setattr(certify, name, plant(getattr(certify, name)))

    cert = build_certificate(2)
    assert not cert.valid
    assert [(c.name, c.detail) for c in cert.checks if not c.passed] == failed

    assert main(["certify", "--genus", "2", "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "valid False" in out
    for failed_check, detail in failed:
        assert f"FAIL {failed_check}: {detail}" in out.splitlines()

    assert main(["verify", "--suite", "certify"]) == 1
    names = ", ".join(failed_check for failed_check, _ in failed)
    assert f"FAIL certificates_valid: g={genus}: {names}" in capsys.readouterr().out


def test_planted_crosscheck_mismatch_fails_verlinde_suite(monkeypatch, capsys):
    name, plant, _, _ = CERTIFICATE_ONLY_FAILURES["residue_vs_fusion"]
    monkeypatch.setattr(certify, name, plant(getattr(certify, name)))
    assert main(["verify", "--suite", "verlinde"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed == ["FAIL residue_vs_fusion: 105 values compared, 1 mismatches (g=1 p=3 s=1)"]
    assert lines[-1].startswith("CHECK FAILURES PRESENT")


def test_planted_oracle_crosscheck_fails_certificate_and_verlinde_suite(monkeypatch, capsys):
    # both report through `check_crosscheck`, which reads the odd-color
    # polynomials each caller passes it in genus order; the plant makes
    # the genus-one polynomial wrong on the way in, off at every value of
    # that genus, and leaves the records the other checks read alone
    real = certify.check_crosscheck

    def planted(odd_polynomials, counted):
        wrong = (ring(poly) + (g == 1) for g, poly in enumerate(odd_polynomials, 1))
        return real(wrong, counted)

    monkeypatch.setattr(certify, "check_crosscheck", planted)
    monkeypatch.setattr(suites, "check_crosscheck", planted)
    named = "21 mismatches (g=1 p=3 s=1; g=1 p=5 s=1; g=1 p=5 s=2)"

    cert = build_certificate(2)
    assert [(c.name, c.detail) for c in cert.checks if not c.passed] == [
        ("residue_vs_fusion", f"42 dimension values compared, {named}")
    ]

    assert main(["verify", "--suite", "verlinde"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL residue_vs_fusion: 105 values compared, {named}"]


def test_each_odd_color_polynomial_is_built_once(monkeypatch):
    # the certificate's record gives the crosscheck genus g's polynomial,
    # and the verlinde suite gives it its five records' polynomials
    real = verlinde._polynomial
    built = []

    def counted(g, parts, odd):
        if odd:
            built.append(g)
        return real(g, parts, odd)

    monkeypatch.setattr(verlinde, "_polynomial", counted)
    assert build_certificate(6).valid
    assert sorted(built) == [1, 2, 3, 4, 5, 6]
    built.clear()
    assert all(check.passed for check in suites.verlinde_suite())
    assert sorted(built) == [1, 2, 3, 4, 5]


def test_wrong_even_leading_coefficient_fails_verlinde_suite(monkeypatch, capsys):
    real = suites._validated

    def planted(g, kind, poly):
        poly = real(g, kind, poly)
        if (g, kind) == (2, "even"):
            poly = _with_rows(poly, {**poly.rows, 3: [2 * n for n in poly.rows[3]]})
        return poly

    monkeypatch.setattr(suites, "_validated", planted)
    assert main(["verify", "--suite", "verlinde"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL leading_coefficient_bernoulli_multiples: even g=2 j=3"]


def test_missing_part_fails_verlinde_suite_without_aborting(monkeypatch, capsys):
    # the genus-2 record without its even part at p^3: each check that
    # reads D_2 reports it, and the report is still written
    def planted(g):
        data = genus_data(g)
        if g == 2:
            rows = {j: row for j, row in data.even.rows.items() if j != 3}
            data = data._replace(even=_with_rows(data.even, rows))
        return data

    monkeypatch.setattr(suites, "genus_data", planted)
    assert main(["verify", "--suite", "verlinde"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    violation = "g=2: missing part at p^3 (genus 2, kind even)"
    assert failed == [
        f"FAIL decomposition_structure: {violation}",
        f"FAIL leading_coefficient_bernoulli_multiples: {violation}",
        "FAIL leading_term_identity: g=2: top homogeneous part mismatch",
        "FAIL all_colors_integral: g=2 p=3: dimension at genus 2, p=3, color 0 evaluated to -1/8; "
        "g=2 p=5: dimension at genus 2, p=5, color 0 evaluated to -5/24; "
        "g=2 p=7: dimension at genus 2, p=7, color 0 evaluated to -7/24",
    ]
    assert out.splitlines()[-1].startswith("CHECK FAILURES PRESENT")


def test_certificate_schema_fields():
    payload = build_certificate(2).to_dict()
    assert set(payload) == {
        "genus",
        "lower_bound",
        "valid",
        "components",
        "checks",
        "assumptions",
    }
    assert set(payload["components"]) == {"class_00", "class_01", "other_classes"}
    assert set(payload["components"]["other_classes"]) == {"count", "each_at_least"}
    for check in payload["checks"]:
        assert set(check) == {"name", "passed", "detail"}
    assert POWER_BASIS_ASSUMPTION in payload["assumptions"]


def test_certificate_serialization_deterministic():
    first = json.dumps(build_certificate(3).to_dict(), indent=2)
    second = json.dumps(build_certificate(3).to_dict(), indent=2)
    assert first == second
    # round trip through the JSON parser is byte identical
    assert json.dumps(json.loads(first), indent=2) == first


def test_certificate_never_claims_equality():
    payload = build_certificate(2).to_dict()
    flat = json.dumps(payload)
    assert "upper_bound" not in flat
    assert "exact_dimension" not in flat
