"""Skein algebra and curve-evaluation tests.

The z-power route through the annulus algebra serves as the independent
oracle for the closed-form e-basis product; numeric embeddings at honest
roots of unity double-check the exact field identities.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import pytest
from euclid_oracle import euclid_inverse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeindim.cyclotomic import cyclotomic_field
from skeindim.exact import _scaled
from skeindim.skein import (
    AnnulusSkein,
    VanishingDenominator,
    _e_to_z,
    _flat_curve_bases,
    _z_to_e,
    bracket_e,
    d_squared,
    e_product,
    eval_nonseparating_curve,
    flat_curve_check,
    quantum_integer,
    recoloring_check,
)
from skeindim.verlinde import dimension

ODD_P = [3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31]


# --------------------------------------------------------- quantum integers


def test_quantum_integer_base_cases():
    field = cyclotomic_field(7)
    assert quantum_integer(0, field) == field.from_rational(0)
    assert quantum_integer(1, field) == field.from_rational(1)


def test_quantum_integer_two():
    field = cyclotomic_field(7)
    a = field.gen_power(1)
    assert field.gen_power(-2) * a**2 == field.from_rational(1)
    assert quantum_integer(2, field) == a**2 + field.gen_power(-2)


@pytest.mark.parametrize("p", ODD_P)
def test_quantum_p_vanishes(p):
    field = cyclotomic_field(p)
    assert quantum_integer(p, field) == field.from_rational(0)


@pytest.mark.parametrize("p", ODD_P)
def test_quantum_reflection(p):
    field = cyclotomic_field(p)
    for n in range(1, p):
        assert quantum_integer(p - n, field) == -quantum_integer(n, field)


def test_quantum_negation():
    field = cyclotomic_field(9)
    for n in range(0, 12):
        assert quantum_integer(-n, field) == -quantum_integer(n, field)


# ------------------------------------------------------------------ brackets


def test_bracket_base_cases():
    field = cyclotomic_field(5)
    assert bracket_e(0, field) == field.from_rational(1)
    assert bracket_e(1, field) == -quantum_integer(2, field)


# ----------------------------------------------------------- annulus algebra


def test_e_product_unit():
    for j in range(6):
        assert e_product(0, j) == AnnulusSkein.basis_element(j)


def test_e_product_square_of_z():
    # z^2 = e_2 + e_0 from the defining recursion
    assert e_product(1, 1) == AnnulusSkein([1, 0, 1])


def test_e_product_two_three():
    assert e_product(2, 3) == AnnulusSkein([0, 1, 0, 1, 0, 1])


def _to_z(skein):
    """z-power coefficients of a skein, as Fractions, by `_e_to_z`."""
    return tuple(Fraction(n, skein.denominator) for n in _e_to_z(skein.numerators))


def _from_z(z_coefficients):
    """The skein with the given z-power coefficients, by `_z_to_e`."""
    scale, values = _scaled([Fraction(c) for c in z_coefficients])
    return AnnulusSkein(_z_to_e(values), scale)


def test_z_conversion_round_trip():
    skein = AnnulusSkein([Fraction(1, 2), 0, -3, 1])
    assert _from_z(_to_z(skein)) == skein
    assert _z_to_e(_e_to_z([1, 0, -6, 2])) == [1, 0, -6, 2]


def test_e_product_matches_z_route_and_commutes():
    for i in range(0, 21):
        for j in range(0, 21):
            closed = e_product(i, j)
            via_z = AnnulusSkein.basis_element(i) * AnnulusSkein.basis_element(j)
            assert closed == via_z
            assert closed == e_product(j, i)


def _fraction_e_in_z(i):
    """e_i in powers of z, by e_(i+1) = z e_i - e_(i-1) over Fractions."""
    rows = [(Fraction(1),), (Fraction(0), Fraction(1))]
    while len(rows) <= i:
        prev, prev2 = rows[-1], rows[-2]
        out = [Fraction(0)] + list(prev)
        for k, c in enumerate(prev2):
            out[k] -= c
        rows.append(tuple(out))
    return rows[i]


def _fraction_z_power_in_e(k):
    """z^k in the e-basis, by z e_i = e_(i+1) + e_(i-1) over Fractions."""
    row = (Fraction(1),)
    for _ in range(k):
        out = [Fraction(0)] * (len(row) + 1)
        for i, c in enumerate(row):
            out[i + 1] += c
            if i >= 1:
                out[i - 1] += c
        row = tuple(out)
    return row


def _fraction_to_z(e_coefficients):
    """The term-by-term Fraction route from the e-basis to z-powers."""
    out = [Fraction(0)] * len(e_coefficients)
    for i, c in enumerate(e_coefficients):
        for k, w in enumerate(_fraction_e_in_z(i)):
            out[k] += c * w
    return tuple(out)


def _fraction_from_z(z_coefficients):
    """The term-by-term Fraction route from z-powers to the e-basis."""
    out = [Fraction(0)] * len(z_coefficients)
    for k, c in enumerate(z_coefficients):
        for i, w in enumerate(_fraction_z_power_in_e(k)):
            out[i] += Fraction(c) * w
    return AnnulusSkein(out)


def _fraction_product(a, b):
    za, zb = _fraction_to_z(a.e_coefficients), _fraction_to_z(b.e_coefficients)
    prod = [Fraction(0)] * max(len(za) + len(zb) - 1, 0)
    for i, x in enumerate(za):
        for j, y in enumerate(zb):
            prod[i + j] += x * y
    return _fraction_from_z(prod)


fraction_lists = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=12), max_size=9
)
skeins = fraction_lists.map(AnnulusSkein)


@settings(max_examples=150, deadline=None)
@given(skeins, skeins)
def test_annulus_product_matches_fraction_route(a, b):
    assert a * b == _fraction_product(a, b)


@settings(max_examples=150, deadline=None)
@given(skeins, fraction_lists)
def test_annulus_conversions_match_fraction_route(skein, z_coefficients):
    assert _to_z(skein) == _fraction_to_z(skein.e_coefficients)
    assert _from_z(z_coefficients) == _fraction_from_z(z_coefficients)


def test_annulus_zero_and_scalar_products():
    skein = AnnulusSkein([Fraction(1, 3), 0, Fraction(-5, 2)])
    assert skein * AnnulusSkein(()) == AnnulusSkein(())
    assert _to_z(AnnulusSkein(())) == ()
    assert _from_z([0, 0, 0]) == AnnulusSkein(())
    # a scalar multiplies as the constant skein, a multiple of e_0 = 1
    assert skein * AnnulusSkein([Fraction(6, 5)]) == AnnulusSkein([Fraction(2, 5), 0, -3])
    with pytest.raises(TypeError):
        skein * Fraction(6, 5)


def test_annulus_sum_with_a_scalar_is_a_type_error():
    skein = AnnulusSkein([1])
    with pytest.raises(TypeError):
        skein + 1
    with pytest.raises(TypeError):
        1 + skein
    with pytest.raises(TypeError):
        skein + Fraction(1, 2)


@pytest.mark.parametrize(
    "first, second",
    [
        ([Fraction(2, 4), -1], [Fraction(1, 2), Fraction(-3, 3)]),
        ([3, 0, 0], [Fraction(6, 2)]),
        ([0, 0], []),
        ([-Fraction(1, 3), Fraction(2, 3)], [Fraction(-2, 6), Fraction(4, 6), 0]),
    ],
)
def test_equal_skeins_from_different_inputs_store_the_same_ints(first, second):
    a, b = AnnulusSkein(first), AnnulusSkein(second)
    assert a == b and hash(a) == hash(b)
    assert (a.numerators, a.denominator) == (b.numerators, b.denominator)
    assert math.gcd(a.denominator, *a.numerators) == 1 and a.denominator > 0


def test_large_basis_product_has_no_recursion_limit():
    product = AnnulusSkein.basis_element(1200) * AnnulusSkein.basis_element(1)
    assert product == e_product(1200, 1)


def test_large_z_power_matches_ballot_numbers():
    # z^k = sum_j (C(k, (k-j)/2) - C(k, (k-j)/2 - 1)) e_j over j = k mod 2
    k = 1500
    expected = [0] * (k + 1)
    for j in range(k % 2, k + 1, 2):
        half = (k - j) // 2
        expected[j] = math.comb(k, half) - (math.comb(k, half - 1) if half else 0)
    skein = _from_z([0] * k + [1])
    assert skein.e_coefficients == tuple(expected)


@pytest.mark.parametrize("i", range(41))
def test_e_to_z_matches_the_chebyshev_closed_form(i):
    # e_i = sum_k (-1)^k C(i - k, k) z^(i - 2k)
    expected = [0] * (i + 1)
    for k in range(i // 2 + 1):
        expected[i - 2 * k] = (-1) ** k * math.comb(i - k, k)
    assert _e_to_z([0] * i + [1]) == expected


@pytest.mark.parametrize("k", range(41))
def test_z_to_e_matches_the_ballot_numbers(k):
    # z^k = sum_j (C(k, (k-j)/2) - C(k, (k-j)/2 - 1)) e_j over j = k mod 2
    expected = [0] * (k + 1)
    for j in range(k % 2, k + 1, 2):
        half = (k - j) // 2
        expected[j] = math.comb(k, half) - (math.comb(k, half - 1) if half else 0)
    assert _z_to_e([0] * k + [1]) == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=12))
@example([])
@example([7])
@example([3, -1, 0, 0])
@example([0, 0, 0])
def test_basis_changes_are_inverse_on_int_lists(values):
    # each keeps the length, trailing zeros included, and undoes the other
    z = _e_to_z(values)
    e = _z_to_e(values)
    assert len(z) == len(e) == len(values)
    assert _z_to_e(z) == values and _e_to_z(e) == values


# ------------------------------------------------------------- normalization


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_d_squared_defining_relation(p):
    field = cyclotomic_field(p)
    delta = field.gen_power(2) - field.gen_power(-2)
    assert delta * delta * d_squared(field) == field.from_rational(-p)


@pytest.mark.parametrize("p", ODD_P)
def test_d_squared_matches_euclid_route(p):
    # -p/(A^2 - A^-2)^2 is the genus-two summand with (u, v) = (2, -2)
    assert d_squared(cyclotomic_field(p)) == _summand_by_euclid(2, p, 2, -2)


def test_d_squared_numeric_embedding_p5():
    field = cyclotomic_field(5)
    value = d_squared(field).embed(1)
    expected = -5 / (2j * math.sin(2 * math.pi / 5)) ** 2
    assert abs(value - expected) < 1e-10


# ------------------------------------------------------- flat curve identity


def test_flat_curve_genus_one_both_sides_one():
    for p in [3, 7, 15]:
        field = cyclotomic_field(p)
        assert flat_curve_check(1, field) == (field.from_rational(1), field.from_rational(1))


def test_flat_curve_genus_two_p3_value():
    # at p=3 the embedded value is 1 since (A - A^-1)^2 = -3 at A=e^{i pi/3}
    field = cyclotomic_field(3)
    lhs, rhs = flat_curve_check(2, field)
    assert lhs == rhs
    assert abs(lhs.embed(1) - 1) < 1e-10


def test_flat_curve_genus_three_p7():
    lhs, rhs = flat_curve_check(3, cyclotomic_field(7))
    assert lhs == rhs


@pytest.mark.parametrize("p", ODD_P)
@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_flat_curve_all_small_levels(p, g):
    lhs, rhs = flat_curve_check(g, cyclotomic_field(p))
    assert lhs == rhs
    assert lhs  # nonvanishing witness


def test_flat_curve_bases_cache_stays_within_its_bound():
    maxsize = _flat_curve_bases.cache_info().maxsize
    assert maxsize is not None
    levels = range(3, 2 * maxsize + 14, 2)  # maxsize + 6 fields
    for p in levels:
        _flat_curve_bases(cyclotomic_field(p))
        assert _flat_curve_bases.cache_info().currsize <= maxsize


def _flat_rhs_by_euclid(g, field):
    """(D^2/<e_{d-1}>^2)^(g-1) with the bracket from its Laurent sum and
    both inverses from the general (Euclidean) inverse."""
    edge = bracket_e((field.p - 1) // 2 - 1, field)
    base = _summand_by_euclid(2, field.p, 2, -2) * euclid_inverse(edge * edge)
    return base ** (g - 1)


@pytest.mark.parametrize("p", ODD_P)
def test_flat_curve_sides_match_euclid_routes(p):
    field = cyclotomic_field(p)
    for g in range(1, 6):
        lhs, rhs = flat_curve_check(g, field)
        assert lhs == _summand_by_euclid(g, p, 1, -1)
        assert rhs == _flat_rhs_by_euclid(g, field)


# ------------------------------------------------------------- recoloring


def test_recoloring_p7_s1_explicit():
    field = cyclotomic_field(7)
    assert bracket_e(1, field) == -quantum_integer(2, field)
    assert bracket_e(4, field) == quantum_integer(5, field)
    assert recoloring_check(1, field)


def test_recoloring_p5_s2():
    field = cyclotomic_field(5)
    assert bracket_e(3, field) == bracket_e(0, field)
    assert recoloring_check(2, field)


def test_recoloring_p3_s1():
    assert recoloring_check(1, cyclotomic_field(3))


@pytest.mark.parametrize("p", ODD_P)
def test_recoloring_all_admissible(p):
    field = cyclotomic_field(p)
    for s in range(1, (p - 1) // 2 + 1):
        assert recoloring_check(s, field)


def test_recoloring_rejects_out_of_range():
    with pytest.raises(ValueError):
        recoloring_check(3, cyclotomic_field(5))


# --------------------------------------------------------- curve evaluation


@pytest.mark.parametrize(
    "g, p",
    [(1, 5), (2, 7), (3, 5)] + [(g, p) for p in (101, 105, 401, 945) for g in (2, 3, 6)],
)
def test_curve_end_colors_are_closed_dimension(g, p):
    # color 0 and the top color p - 2 both sum every orbit, so each equals
    # D_g(p, 0) from the residue polynomial at any level
    field = cyclotomic_field(p)
    expected = field.from_rational(dimension(g, p, 0))
    assert eval_nonseparating_curve(g, 0, field) == expected
    assert eval_nonseparating_curve(g, p - 2, field) == expected


def test_curve_color_one_matches_flat_curve_value():
    for g, p in [(1, 5), (2, 7), (3, 11), (4, 9)]:
        field = cyclotomic_field(p)
        assert eval_nonseparating_curve(g, 1, field) == flat_curve_check(g, field)[0]


def test_curve_genus_one_color_three():
    # two summands, each (-p)^0 / (...)^0 = 1
    field = cyclotomic_field(7)
    assert eval_nonseparating_curve(1, 3, field) == field.from_rational(2)


def test_curve_vanishing_denominator():
    # at p = 3 the odd color 3 hits the summand with index 2i-1 = 3 = p
    with pytest.raises(VanishingDenominator):
        eval_nonseparating_curve(1, 3, cyclotomic_field(3))
    # at p = 5 the even color 10 lies above p - 2 and has no recolored color
    with pytest.raises(VanishingDenominator):
        eval_nonseparating_curve(2, 10, cyclotomic_field(5))


@functools.lru_cache(maxsize=None)
def _summand_by_euclid(g, p, u, v):
    field = cyclotomic_field(p)
    prefactor = field.from_rational(Fraction((-p) ** (g - 1)))
    denominator = field.gen_power(u) - field.gen_power(v)
    assert denominator
    return prefactor * euclid_inverse(denominator ** (2 * g - 2))


@functools.lru_cache(maxsize=None)
def _summand_by_closed_form(g, p, u, v):
    field = cyclotomic_field(p)
    return (-p) ** (g - 1) * field.root_difference_inverse(u, v) ** (2 * g - 2)


def _curve_by_euclid(g, m, field, alternate_form, summand=_summand_by_euclid):
    """The curve evaluation summed one summand at a time, with no use of
    the Galois action; by default every summand is inverted by the general
    (Euclidean) inverse instead of the closed form.  An even color is
    D_g(0) minus its partial sum, not the library's recoloring.  Summands
    are memoised because colors share them."""
    p = field.p
    if m % 2 == 0:
        total = field.from_rational(dimension(g, p, 0))
        for i in range(1, m // 2 + 1):
            total = total - summand(g, p, 2 * i, -2 * i)
        return total
    total = field.from_rational(0)
    for i in range(1, (m + 1) // 2 + 1):
        low = -(2 * i + 1) if alternate_form else -(2 * i - 1)
        total = total + summand(g, p, 2 * i - 1, low)
    return total


@pytest.mark.parametrize("p", ODD_P)
def test_curve_matches_euclid_route(p):
    field = cyclotomic_field(p)
    for g in (1, 2, 3):
        for m in range(p - 1):
            for alternate_form in (False, True):
                expected = _curve_by_euclid(g, m, field, alternate_form)
                assert eval_nonseparating_curve(g, m, field, alternate_form) == expected


@pytest.mark.parametrize("p", ODD_P)
def test_curve_matches_euclid_route_at_genus_four(p):
    field = cyclotomic_field(p)
    for m in range(p - 1):
        for alternate_form in (False, True):
            expected = _curve_by_euclid(4, m, field, alternate_form)
            assert eval_nonseparating_curve(4, m, field, alternate_form) == expected


@pytest.mark.parametrize("p", [45, 63, 75, 81, 105])
def test_curve_matches_per_summand_route_at_composite_levels(p):
    # several divisor classes h = gcd(e, 2p), each with its own power; the
    # summands use the closed-form inverse, as Euclid takes seconds per
    # level here
    field = cyclotomic_field(p)
    for g in (2, 3):
        for m in (p - 2, p - 3, (p - 1) // 2):
            for alternate_form in (False, True):
                expected = _curve_by_euclid(
                    g, m, field, alternate_form, summand=_summand_by_closed_form
                )
                assert eval_nonseparating_curve(g, m, field, alternate_form) == expected


@pytest.mark.parametrize("p", ODD_P)
def test_curve_rejects_colors_above_p_minus_two(p):
    field = cyclotomic_field(p)
    for m in range(p - 1, p + 3):
        with pytest.raises(VanishingDenominator, match="vanishing quantum denominator"):
            eval_nonseparating_curve(2, m, field)
    # an even color above the range used to sum to a plausible-looking value
    with pytest.raises(VanishingDenominator):
        eval_nonseparating_curve(2, 6, cyclotomic_field(7))


def test_alternate_form_flag_changes_odd_case():
    # the alternative denominator reading disagrees with the flat-curve
    # closed form already at m = 1
    field = cyclotomic_field(7)
    standard = eval_nonseparating_curve(2, 1, field)
    alternative = eval_nonseparating_curve(2, 1, field, alternate_form=True)
    assert standard == flat_curve_check(2, field)[0]
    assert alternative != standard


# ------------------------------------------------------- numeric embedding


def _primitive_exponents(p):
    return [s for s in range(1, 2 * p) if math.gcd(s, 2 * p) == 1]


@pytest.mark.parametrize("p", [3, 5, 7, 9, 11, 13])
def test_embedding_consistency(p):
    field = cyclotomic_field(p)
    d = (p - 1) // 2
    lhs, rhs = flat_curve_check(3, field)
    for s in _primitive_exponents(p):
        root = cmath.exp(1j * cmath.pi * s / p)
        assert abs(root ** (2 * p) - 1) < 1e-9
        assert abs(quantum_integer(p, field).embed(s)) < 1e-9
        assert abs(lhs.embed(s) - rhs.embed(s)) < 1e-9
        for color in range(1, d + 1):
            delta = (
                bracket_e(2 * color - 1, field)
                - bracket_e(p - 2 * color - 1, field)
            )
            assert abs(delta.embed(s)) < 1e-9
