"""Bernoulli machinery tests.

Brute-force power sums and hand-expanded polynomials serve as the
independent oracles for the closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from skeindim import bernoulli, suites
from skeindim.bernoulli import (
    FaulhaberInconsistency,
    bernoulli_half_value,
    bernoulli_number,
    bernoulli_numbers,
    bernoulli_polynomial,
    faulhaber_poly,
)
from skeindim.exact import UnivariatePolynomial
from ring_oracle import RingPolynomial
from series_oracle import series_inverse, series_mul
from substitution_oracle import compose
from table_oracle import fraction_bernoulli_numbers

XY = ("x", "y")


def test_first_values():
    table = bernoulli_numbers(4)
    assert table[0] == 1
    assert table[1] == Fraction(-1, 2)
    assert table[2] == Fraction(1, 6)
    assert table[3] == 0
    assert table[4] == Fraction(-1, 30)


def test_convention_is_minus_one_half():
    # the +1/2 convention would break every identity below; pin it down
    assert bernoulli_number(1) == Fraction(-1, 2)


def test_odd_values_vanish_and_even_do_not():
    table = bernoulli_numbers(41)
    for k in range(3, 42, 2):
        assert table[k] == 0
    for k in range(0, 42, 2):
        assert table[k] != 0


def test_numbers_match_series_inversion():
    # independent route: t/(e^t - 1) as the series inverse of
    # sum_k t^k/(k+1)!, coefficient k times k!
    order = 60
    inverse = series_inverse([Fraction(1, math.factorial(k + 1)) for k in range(order + 1)])
    table = bernoulli_numbers(order)
    for k in range(order + 1):
        assert table[k] == inverse[k] * math.factorial(k)


def test_large_index_value():
    # B_40 as printed in standard tables
    assert bernoulli_number(40) == Fraction(
        -261082718496449122051, 13530
    )


def test_polynomial_small_degrees():
    assert bernoulli_polynomial(0) == UnivariatePolynomial([1])
    assert bernoulli_polynomial(1) == UnivariatePolynomial([Fraction(-1, 2), 1])
    assert bernoulli_polynomial(2) == UnivariatePolynomial([Fraction(1, 6), -1, 1])


@pytest.mark.parametrize("m", range(0, 13))
def test_polynomial_is_monic(m):
    assert bernoulli_polynomial(m).leading_coefficient == 1


def test_half_values():
    assert bernoulli_half_value(0) == 1
    assert bernoulli_half_value(1) == 0
    assert bernoulli_half_value(2) == Fraction(-1, 12)


def test_half_value_identity_up_to_40():
    table = bernoulli_numbers(40)
    for m in range(41):
        assert bernoulli_half_value(m) == (Fraction(2) ** (1 - m) - 1) * table[m]


def test_faulhaber_linear():
    # sum_{y<=N} y = N(N+1)/2
    assert faulhaber_poly(1) == UnivariatePolynomial([0, Fraction(1, 2), Fraction(1, 2)])


def test_faulhaber_point_values():
    assert faulhaber_poly(2)(3) == 14  # 1 + 4 + 9
    assert faulhaber_poly(3)(2) == 9  # 1 + 8


def test_faulhaber_against_brute_force():
    for m in range(1, 21):
        poly = faulhaber_poly(m)
        for n in range(1, 51):
            assert poly(n) == sum(y**m for y in range(1, n + 1))


def test_polynomial_difference_matches_the_composition_route():
    # the Taylor shift against (B_(m+1)(1 + N) - B_(m+1)) / (m + 1) with
    # B_(m+1)(1 + N) by the composition oracle
    for m in range(31):
        composed = compose(bernoulli_polynomial(m + 1), UnivariatePolynomial((1, 1)))
        composed = list(composed.coefficients)
        composed[0] -= bernoulli_number(m + 1)
        expected = UnivariatePolynomial(c / (m + 1) for c in composed)
        assert bernoulli._faulhaber_via_polynomial_difference(m) == expected, m


def test_faulhaber_rejects_zero_exponent():
    with pytest.raises(ValueError):
        faulhaber_poly(0)


def test_faulhaber_inconsistency_is_raisable():
    assert issubclass(FaulhaberInconsistency, ArithmeticError)


def test_generating_function_of_polynomials():
    # coefficients of t e^{tx}/(e^t - 1) through t^12 must equal B_n(x)/n!,
    # the series coefficients held as ring-oracle polynomials in x
    order = 12
    exp_tx = [
        RingPolynomial({(k, 0): Fraction(1, math.factorial(k))}, XY) for k in range(order + 1)
    ]
    forward = [Fraction(1, math.factorial(k + 1)) for k in range(order + 1)]
    series = series_mul(series_inverse(forward), exp_tx)

    for n in range(order + 1):
        coefficients = bernoulli_polynomial(n).coefficients
        expected = {(k, 0): c / math.factorial(n) for k, c in enumerate(coefficients)}
        assert series[n] == RingPolynomial(expected, XY)


@pytest.mark.parametrize("beta", range(0, 9))
def test_half_shift_parity(beta):
    # B_{2b}((p+1)/2) contains only even powers of p, B_{2b+1}((p+1)/2)
    # only odd powers; by the composition oracle, a route independent of
    # the suite's Taylor shift
    shift = UnivariatePolynomial([Fraction(1, 2), Fraction(1, 2)])  # (p+1)/2
    even_case = compose(bernoulli_polynomial(2 * beta), shift)
    odd_case = compose(bernoulli_polynomial(2 * beta + 1), shift)
    assert all(e % 2 == 0 for e, n in enumerate(even_case.numerators) if n)
    assert all(e % 2 == 1 for e, n in enumerate(odd_case.numerators) if n)


def test_half_shift_parity_check_reports_a_planted_term(monkeypatch):
    # x added to B_2 and to B_5 puts p/2 into B_2((p+1)/2) and 1/2 into
    # B_5((p+1)/2): one power of the wrong parity each
    real = suites.bernoulli_polynomial

    def planted(m):
        coefficients = list(real(m).coefficients)
        if m in (2, 5):
            coefficients[1] += 1
        return UnivariatePolynomial(coefficients)

    monkeypatch.setattr(suites, "bernoulli_polynomial", planted)
    result = next(c for c in suites.bernoulli_suite() if c.name == "half_shift_parity")
    assert result == ("half_shift_parity", False, "even case beta=1; odd case beta=2")



@pytest.mark.parametrize(
    "order",
    [(0, 3, 12, 30, 45), (45, 30, 12, 3, 0), (45, 0, 12, 3, 30), (3, 45, 0, 12, 30)],
)
def test_numbers_do_not_depend_on_call_order(order, monkeypatch):
    # the numbers come from one shared table that calls extend; start each
    # order from B_0 alone and compare with tables built alone
    reference = {}
    for n in order:
        monkeypatch.setattr(bernoulli, "_NUMBERS", (Fraction(1),))
        reference[n] = bernoulli_numbers(n)
    monkeypatch.setattr(bernoulli, "_NUMBERS", (Fraction(1),))
    for n in order:
        table = bernoulli_numbers(n)
        assert type(table) is tuple and len(table) == n + 1
        assert table == reference[n]
    assert reference[45][:31] == reference[30]
    assert reference[3] == (Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0))


def test_integer_recurrence_matches_the_fraction_recurrence(monkeypatch):
    monkeypatch.setattr(bernoulli, "_NUMBERS", (Fraction(1),))
    assert bernoulli_numbers(300) == fraction_bernoulli_numbers(300)


def test_table_only_grows(monkeypatch):
    # a short call extends the table to its own length, a long call extends
    # it from there, and a later short call reads a prefix of the long table
    expected = fraction_bernoulli_numbers(120)
    monkeypatch.setattr(bernoulli, "_NUMBERS", (Fraction(1),))
    assert bernoulli_numbers(7) == expected[:8]
    assert bernoulli._NUMBERS == expected[:8]
    assert bernoulli_numbers(120) == expected
    long_table = bernoulli._NUMBERS
    assert long_table == expected
    assert bernoulli_numbers(7) == expected[:8]
    assert bernoulli._NUMBERS is long_table
