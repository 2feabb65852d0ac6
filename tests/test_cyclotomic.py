"""Cyclotomic field arithmetic tests."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import pytest
from euclid_oracle import euclid_inverse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skeindim.cyclotomic import cyclotomic_field
from skeindim.skein import quantum_integer

ODD_P = [3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31]


# ------------------------------------- modulus: recursive division oracle


def _int_poly_divide(num, den):
    """Exact division of integer polynomials (ascending) by a monic divisor."""
    assert den[-1] == 1
    remainder = list(num)
    quotient = [0] * (len(num) - len(den) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        coeff = remainder[k + len(den) - 1]
        quotient[k] = coeff
        if coeff:
            for i, d in enumerate(den):
                remainder[k + i] -= coeff * d
    assert not any(remainder), "division not exact"
    while quotient and quotient[-1] == 0:
        quotient.pop()
    return tuple(quotient)


@functools.lru_cache(maxsize=None)
def _cyclotomic_by_division(n):
    """Phi_n as x^n - 1 divided by Phi_d for every proper divisor d of n,
    the route the field used before the Mobius product."""
    poly = tuple([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_divide(poly, _cyclotomic_by_division(d))
    return poly


def test_sixth_cyclotomic_polynomial():
    # p = 3: x^2 - x + 1
    assert cyclotomic_field(3).modulus == (1, -1, 1)


def test_tenth_cyclotomic_polynomial():
    # p = 5: x^4 - x^3 + x^2 - x + 1
    assert cyclotomic_field(5).modulus == (1, -1, 1, -1, 1)


@pytest.mark.parametrize("p", [*range(3, 302, 2), 615, 945, 1001])
def test_modulus_matches_division_oracle(p):
    field = cyclotomic_field(p)
    assert field.modulus == _cyclotomic_by_division(2 * p)
    assert field.degree == len(field.modulus) - 1


@pytest.mark.parametrize("p", ODD_P)
def test_modulus_divides_x_2p_minus_one(p):
    modulus = cyclotomic_field(p).modulus
    full = tuple([-1] + [0] * (2 * p - 1) + [1])
    _int_poly_divide(full, modulus)  # fails if not exact


@pytest.mark.parametrize("p", ODD_P)
def test_even_index_from_odd_by_sign_flip(p):
    # for odd n, the 2n-th cyclotomic polynomial is the n-th at -x
    odd = _cyclotomic_by_division(p)
    even = cyclotomic_field(p).modulus
    flipped = tuple(c if k % 2 == 0 else -c for k, c in enumerate(odd))
    # normalize sign so the polynomial is monic
    if flipped[-1] < 0:
        flipped = tuple(-c for c in flipped)
    assert even == flipped


@pytest.mark.parametrize("bad", [1, 2, 4, 6, -3, 0])
def test_field_rejects_bad_p(bad):
    with pytest.raises(ValueError):
        cyclotomic_field(bad)


@pytest.mark.parametrize("p", ODD_P)
def test_gen_is_primitive_2p_th_root(p):
    field = cyclotomic_field(p)
    a = field.gen_power(1)
    assert a**p == field.from_rational(-1)
    assert a ** (2 * p) == field.from_rational(1)
    assert a**p + field.from_rational(1) == field.from_rational(0)


def test_gen_power_handles_negative_exponents():
    field = cyclotomic_field(7)
    assert field.gen_power(-3) == euclid_inverse(field.gen_power(1) ** 3)
    assert field.gen_power(-3) * field.gen_power(1) ** 3 == field.from_rational(1)
    assert field.gen_power(-3) * field.gen_power(3) == field.from_rational(1)


@pytest.mark.parametrize("p", [9, 15, 31])
def test_power_sum_folds_exponents(p):
    field = cyclotomic_field(p)
    a = field.gen_power(1)
    # exponents that agree modulo 2p accumulate; A^p = -1 cancels A^0
    assert field.power_sum({1: 2, 1 + 2 * p: 3, -1: -1}) == a * 5 - field.gen_power(-1)
    assert field.gen_power(-1) * a == field.from_rational(1)
    assert field.power_sum({0: 4, p: 4}) == field.from_rational(0)


def test_inverse_round_trip():
    field = cyclotomic_field(5)
    x = field.gen_power(1) + field.from_rational(Fraction(2, 3))
    assert x * euclid_inverse(x) == field.from_rational(1)
    with pytest.raises(ZeroDivisionError):
        euclid_inverse(field.from_rational(0))


def test_division_and_power():
    field = cyclotomic_field(7)
    a = field.gen_power(1)
    assert field.from_rational(1) * euclid_inverse(a) == field.gen_power(-1)
    assert a**3 * euclid_inverse(a) == a**2


def test_only_rational_divisors_and_nonnegative_powers():
    # an element has no division: a rational divisor is a multiplication
    # by its reciprocal, and an element divisor a closed-form inverse
    field = cyclotomic_field(7)
    x, y = field.gen_power(1) + 2, field.gen_power(3) - Fraction(1, 2)
    for divisor in (y, 3, Fraction(1, 2)):
        with pytest.raises(TypeError):
            x / divisor
    with pytest.raises(TypeError):
        3 / x
    with pytest.raises(TypeError):
        Fraction(1, 2) / x
    with pytest.raises(ValueError, match="exponent must be nonnegative"):
        x ** -1


@pytest.mark.parametrize("divisor", [3, -7, Fraction(2, 5), Fraction(-9, 4)])
def test_scalar_division_is_multiplication_by_the_reciprocal(divisor):
    field = cyclotomic_field(9)
    x = field.gen_power(1) * Fraction(2, 3) + field.gen_power(4) - 5
    reciprocal = 1 / Fraction(divisor)
    assert x * divisor * reciprocal == x and hash(x * divisor * reciprocal) == hash(x)
    assert reciprocal * (divisor * x) == x
    assert field.from_rational(6) * reciprocal == Fraction(6) / divisor
    assert hash(field.from_rational(6) * reciprocal) == hash(Fraction(6) / divisor)
    assert x * 0 == 0 and (x * 0).denominator == 1


small_fracs = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def field_elements(draw, field):
    coeffs = [draw(small_fracs) for _ in range(field.degree)]
    return field.element(coeffs)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7, 9, 11, 13, 21, 31]), st.data())
def test_field_axioms(p, data):
    field = cyclotomic_field(p)
    x = data.draw(field_elements(field))
    y = data.draw(field_elements(field))
    z = data.draw(field_elements(field))
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    if x:
        assert x * euclid_inverse(x) == field.from_rational(1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7, 9, 15, 21, 25]), st.data())
def test_euclid_oracle_inverts_every_nonzero_element(p, data):
    field = cyclotomic_field(p)
    x = data.draw(field_elements(field))
    assume(x)
    inverse = euclid_inverse(x)
    assert x * inverse == field.from_rational(1)
    assert inverse * x == field.from_rational(1)
    assert euclid_inverse(inverse) == x


@pytest.mark.parametrize("p", [3, 9, 15])
def test_euclid_oracle_rejects_zero(p):
    with pytest.raises(ZeroDivisionError):
        euclid_inverse(cyclotomic_field(p).from_rational(0))


def test_embedding_sends_gen_to_unit_root():
    field = cyclotomic_field(5)
    value = field.gen_power(1).embed(1)
    assert abs(value ** (2 * 5) - 1) < 1e-12
    assert abs(field.gen_power(5).embed(1) + 1) < 1e-12


@pytest.mark.parametrize("p", [7, 9])
def test_embedding_rejects_non_units(p):
    x = cyclotomic_field(p).gen_power(1) + 1
    for s in (0, 2, p, 2 * p):
        with pytest.raises(ValueError, match="not coprime"):
            x.embed(s)


def test_embedding_rejects_values_beyond_the_float_range():
    field = cyclotomic_field(7)
    with pytest.raises(ValueError, match="not a finite float"):
        field.from_rational(10**400).embed(1)  # one term overflows
    with pytest.raises(ValueError, match="not a finite float"):
        ((field.gen_power(1) + 1) * 10**308).embed(1)  # two finite terms, infinite sum


def test_laurent_quantum_integers():
    # [n] is the Laurent sum A^(2n-2) + A^(2n-6) + ... + A^(2-2n)
    for p in (3, 5, 7, 9, 15, 21):
        field = cyclotomic_field(p)
        a = field.gen_power(1)
        assert quantum_integer(0, field) == field.from_rational(0)
        assert quantum_integer(1, field) == field.from_rational(1)
        for k in (2, 4):
            assert field.gen_power(-k) * a**k == field.from_rational(1)
        assert quantum_integer(2, field) == a**2 + field.gen_power(-2)
        assert quantum_integer(-2, field) == -(a**2) - field.gen_power(-2)
        assert quantum_integer(3, field) == a**4 + 1 + field.gen_power(-4)


def test_laurent_specialization_matches_field_arithmetic():
    # [n] = (A^2n - A^-2n)/(A^2 - A^-2) computed by honest field division,
    # the divisor inverted by the extended-Euclid oracle
    for p in (5, 7, 9, 11, 15, 25):
        field = cyclotomic_field(p)
        a = field.gen_power(1)
        assert field.gen_power(-2) * a**2 == field.from_rational(1)
        delta = a**2 - field.gen_power(-2)
        for n in (0, 1, -2, 2, 3):
            direct = (field.gen_power(2 * n) - field.gen_power(-2 * n)) * euclid_inverse(delta)
            assert quantum_integer(n, field) == direct, (p, n)


@pytest.mark.parametrize("p", ODD_P)
def test_root_difference_inverse_matches_euclid(p):
    field = cyclotomic_field(p)
    for u in range(2 * p):
        for v in range(-3, 4):
            if (u - v) % 2:
                continue
            if ((u - v) // 2) % p == 0:
                with pytest.raises(ZeroDivisionError):
                    field.root_difference_inverse(u, v)
                continue
            euclid = euclid_inverse(field.gen_power(u) - field.gen_power(v))
            assert field.root_difference_inverse(u, v) == euclid


def test_root_difference_inverse_rejects_odd_gap():
    with pytest.raises(ValueError):
        cyclotomic_field(7).root_difference_inverse(3, 0)


def test_rational_elements_hash_like_the_rational():
    field = cyclotomic_field(7)
    for value in [0, 3, -5, Fraction(2, 3), Fraction(-7, 4)]:
        element = field.from_rational(value)
        assert element == value
        assert hash(element) == hash(value)
    assert {field.from_rational(3): "three"}[3] == "three"


def test_equal_elements_hash_equal():
    field = cyclotomic_field(9)
    a = field.gen_power(1)
    x = (a + 1) * (a - 1)
    y = a**2 - 1
    assert x == y and hash(x) == hash(y)
    # the same element reached with a common factor cancelled
    z = (a * Fraction(6, 4) + Fraction(1, 2)) * 2
    w = field.element([1, 3])
    assert z == w and hash(z) == hash(w)
    assert (a * Fraction(1, 3)) * 3 == a and hash((a * Fraction(1, 3)) * 3) == hash(a)


@pytest.mark.parametrize("p", [7, 9, 15])
def test_separately_built_fields_interoperate(p):
    first, second = cyclotomic_field(p), cyclotomic_field(p)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    a, b = first.gen_power(1), second.gen_power(1)
    assert a == b and hash(a) == hash(b)
    x = a * Fraction(2, 3) + 1
    y = b**2 - Fraction(1, 5)
    assert x + y == b * Fraction(2, 3) + b**2 + Fraction(4, 5)
    assert x * y == y * x == b**3 * Fraction(2, 3) + b**2 - b * Fraction(2, 15) - Fraction(1, 5)
    assert (x * y) * euclid_inverse(y) == x
    k = 2 * p - 1
    assert first.conjugate_sum([(y, k), (x, 1)]) == second.conjugate_sum([(y, k), (x, 1)])
    assert second.gen_power(-2) * b**2 == second.from_rational(1)
    assert first.conjugate_sum([(y, k)]) == second.gen_power(-2) - Fraction(1, 5)


# ------------------------------------------------------ Galois conjugates


def _units(p):
    return [k for k in range(1, 2 * p) if math.gcd(k, 2 * p) == 1]


def _sigma(x, k):
    return x.field.conjugate_sum([(x, k)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([7, 9, 15, 21]), st.data())
def test_conjugation_is_a_ring_automorphism(p, data):
    field = cyclotomic_field(p)
    x = data.draw(field_elements(field))
    y = data.draw(field_elements(field))
    k = data.draw(st.sampled_from(_units(p)))
    assert _sigma(x, 1) == x
    assert _sigma(x + y, k) == _sigma(x, k) + _sigma(y, k)
    assert field.conjugate_sum([(x, k), (y, k)]) == _sigma(x + y, k)
    assert _sigma(x * y, k) == _sigma(x, k) * _sigma(y, k)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([7, 9, 15, 21]), st.data())
def test_conjugations_compose_by_multiplying_exponents(p, data):
    field = cyclotomic_field(p)
    x = data.draw(field_elements(field))
    k = data.draw(st.sampled_from(_units(p)))
    l = data.draw(st.sampled_from(_units(p)))
    # an exponent k + 2p names the same automorphism as k
    assert _sigma(_sigma(x, l), k + 2 * p) == _sigma(x, k * l % (2 * p))


@pytest.mark.parametrize("p", [3, 9, 15, 21, 25])
def test_conjugation_permutes_root_powers(p):
    field = cyclotomic_field(p)
    for k in _units(p):
        for j in range(-2, 2 * p + 2):
            assert _sigma(field.gen_power(j), k) == field.gen_power(j * k)


@pytest.mark.parametrize("p", [5, 9, 15])
def test_conjugate_embeds_at_the_conjugate_root(p):
    field = cyclotomic_field(p)
    x = field.element([Fraction(1, 3), -2, 0, Fraction(5, 7)])
    for k in _units(p):
        assert abs(_sigma(x, k).embed(1) - x.embed(k)) < 1e-9


@pytest.mark.parametrize("p", [3, 9, 15])
def test_conjugate_sum_rejects_non_units_and_foreign_elements(p):
    field = cyclotomic_field(p)
    x = field.gen_power(1) + 1
    for k in (0, 2, p, 2 * p, -4):
        with pytest.raises(ValueError, match="not coprime"):
            field.conjugate_sum([(x, 1), (x, k)])
    with pytest.raises(ValueError, match="different field"):
        field.conjugate_sum([(cyclotomic_field(p + 2).gen_power(1), 1)])


@pytest.mark.parametrize("p", [7, 9, 15])
def test_conjugate_sums_hash_like_equal_elements(p):
    field = cyclotomic_field(p)
    a = field.gen_power(1)
    x = a * Fraction(3, 4) + a**3 * Fraction(1, 6) - 2
    y = a**2 * Fraction(1, 5)
    k = _units(p)[-1]
    split = field.conjugate_sum([(x, k), (y, k), (y, 1)])
    joined = field.conjugate_sum([(x + y, k), (y, 1)])
    assert split == joined and hash(split) == hash(joined)
    # summed over the whole Galois group the result is the rational trace
    trace = field.conjugate_sum((x, k) for k in _units(p))
    assert not any(trace.numerators[1:])
    assert hash(trace) == hash(trace.coefficients[0])
    assert field.conjugate_sum([]) == field.from_rational(0)
