"""Exact-arithmetic kernel tests.

Derived expected values are computed by independent means stated inline
(hand expansion, brute-force minors, integer binomials) and frozen here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeindim.cyclotomic import CyclotomicElement, cyclotomic_field
from skeindim.exact import (
    NEG_INFINITY,
    BivariatePolynomial,
    UnivariatePolynomial,
    _convolve,
    _lowest,
    _scaled,
    _shift,
)
from skeindim.skein import AnnulusSkein
from rank_oracle import rank
from ring_oracle import RingPolynomial, ring
from series_oracle import series_inverse, series_mul
from substitution_oracle import binomial_poly_in_c, compose, substitute_affine, substitute_half

PC = ("p", "c")

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def bipoly(terms, variables=PC):
    return BivariatePolynomial(terms, variables)


def sinh_over_t_series(order):
    """s(t) = sinh(t)/t = sum t^(2k)/(2k+1)!, through t^order."""
    import math

    return [Fraction(1, math.factorial(k + 1)) if k % 2 == 0 else 0 for k in range(order + 1)]


def series_one(order):
    return [1] + [0] * order


# ----------------------------------------------------- binomial_poly_in_c


def test_binomial_poly_genus_one_is_constant_one():
    assert binomial_poly_in_c(1) == RingPolynomial.constant(1, PC)


def test_binomial_poly_genus_two_hand_expansion():
    # binom(c+1, 2) = c(c+1)/2 by hand
    expected = bipoly({(0, 2): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    assert binomial_poly_in_c(2) == expected


def test_binomial_poly_genus_three_numeric_spot_check():
    # at c = 2 the value must match the integer binomial binom(4, 4) = 1
    assert binomial_poly_in_c(3)(0, 2) == 1


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_binomial_poly_matches_integer_binomials(g):
    import math

    for c in range(0, 12):
        assert binomial_poly_in_c(g)(0, c) == math.comb(c + g - 1, 2 * g - 2)


# ---------------------------------------------------------- polynomials


def test_univariate_zero_degree_sentinel():
    zero = UnivariatePolynomial(())
    assert zero.degree == NEG_INFINITY
    assert not zero.degree == -1
    assert zero.leading_coefficient == 0


def test_univariate_strips_trailing_zeros():
    poly = UnivariatePolynomial([1, 2, 0, 0])
    assert poly.degree == 1
    assert poly.coefficients == (Fraction(1), Fraction(2))


def test_univariate_compose():
    # composition is a test oracle: (x^2 + 1) at (N + 1) = N^2 + 2N + 2,
    # which the Taylor shift gives too; the library evaluates only
    poly = UnivariatePolynomial([1, 0, 1])
    assert compose(poly, UnivariatePolynomial([1, 1])) == UnivariatePolynomial([2, 2, 1])
    values = list(poly.numerators)
    _shift(values)
    assert values == [2, 2, 1]
    assert compose(poly, UnivariatePolynomial([Fraction(1, 2), 3])) == UnivariatePolynomial(
        [Fraction(5, 4), 3, 9]
    )
    with pytest.raises(TypeError, match="expected an exact rational"):
        poly(UnivariatePolynomial([1, 1]))


def test_bivariate_total_degree_and_parts():
    poly = bipoly({(1, 0): Fraction(1, 2), (0, 1): -1, (0, 0): Fraction(-1, 2)})
    assert poly.total_degree == 1
    assert poly.homogeneous_part(1) == bipoly({(1, 0): Fraction(1, 2), (0, 1): -1})
    assert poly.homogeneous_part(5) == bipoly({})


def test_homogeneous_parts_partition():
    poly = bipoly({(2, 1): 3, (1, 1): Fraction(1, 3), (0, 0): -2, (0, 3): 1})
    total = RingPolynomial.zero(PC)
    for n in range(0, 4):
        total = total + poly.homogeneous_part(n)
    assert total == poly


def test_split_by_first():
    poly = bipoly({(1, 0): Fraction(1, 2), (0, 1): -1, (0, 0): Fraction(-1, 2)})
    parts = poly.split_by_first()
    assert parts[0] == UnivariatePolynomial([Fraction(-1, 2), -1])
    assert parts[1] == UnivariatePolynomial([Fraction(1, 2)])


def test_variable_mismatch_rejected():
    with pytest.raises(ValueError):
        ring(bipoly({(0, 0): 1}, ("p", "c"))) + bipoly({(0, 0): 1}, ("p", "s"))


# ------------------------------------------------------------- rendering


def test_render_genus_one_golden():
    poly = bipoly({(0, 0): Fraction(-1, 2), (1, 0): Fraction(1, 2), (0, 1): -1})
    assert poly.render() == "-1/2 + 1/2*p - c"


def test_render_zero():
    assert bipoly({}).render() == "0"


def test_render_higher_powers():
    poly = bipoly({(2, 1): Fraction(3, 4), (0, 2): -1})
    assert poly.render() == "-c^2 + 3/4*p^2*c"


def test_render_univariate():
    poly = UnivariatePolynomial([Fraction(-1, 2), -1])
    assert poly.render("c") == "-1/2 - c"
    assert UnivariatePolynomial([0, 1]).render("s") == "s"


# ---------------------------------------------------------------- series


def test_series_inverse_of_one_is_one():
    assert series_inverse(series_one(4)) == series_one(4)


def test_series_inverse_of_sinh_over_t_through_order_two():
    # inverting 1 + t^2/6 by hand through order 2 gives 1 - t^2/6
    assert series_inverse(sinh_over_t_series(2)) == [1, 0, Fraction(-1, 6)]


def test_series_times_inverse_is_one():
    s = sinh_over_t_series(12)
    assert series_mul(s, series_inverse(s)) == series_one(12)


def test_series_mul_identity():
    s = sinh_over_t_series(6)
    assert series_mul(s, series_one(6)) == s


def test_series_square_one_plus_t():
    assert series_mul([1, 1, 0], [1, 1, 0]) == [1, 2, 1]


def test_series_pow_square_of_sinh_over_t():
    # (1 + t^2/6 + ...)^2 has t^2 coefficient 1/3 by hand expansion
    s = sinh_over_t_series(2)
    assert series_mul(s, s)[2] == Fraction(1, 3)


def test_coefficient_of_sinh_over_t():
    s = sinh_over_t_series(4)
    assert s[0] == 1
    assert s[2] == Fraction(1, 6)


def test_exponential_kernel_linear_coefficient():
    # 2pt/(e^{2pt}-1) is the inverse of sum_k (2p)^k t^k/(k+1)!; its t^1
    # coefficient is -p (the generating-function value B_1 * 2p / 1!).
    import math

    forward = [
        RingPolynomial({(k, 0): Fraction(2**k, math.factorial(k + 1))}, PC) for k in range(4)
    ]
    kernel = series_inverse(forward)
    assert kernel[1] == bipoly({(1, 0): -1})


@st.composite
def unit_constant_series(draw):
    order = draw(st.integers(min_value=0, max_value=12))
    coeffs = [RingPolynomial.constant(1, PC)]
    for _ in range(order):
        terms = {}
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            i = draw(st.integers(min_value=0, max_value=2))
            j = draw(st.integers(min_value=0, max_value=2))
            terms[(i, j)] = draw(rationals)
        coeffs.append(RingPolynomial(terms, PC))
    return coeffs


@settings(max_examples=25, deadline=None)
@given(unit_constant_series())
def test_series_inverse_round_trip(series):
    assert series_mul(series, series_inverse(series)) == series_one(len(series) - 1)


# ------------------------------------------------------------- convolve


def test_convolve_is_the_ascending_product():
    # (1 + 2x^2)(3 + 4x) = 3 + 4x + 6x^2 + 8x^3
    assert _convolve([1, 0, 2], [3, 4]) == [3, 4, 6, 8]
    assert _convolve([3, 4], [1, 0, 2]) == [3, 4, 6, 8]
    assert _convolve([0, 0, 5], [Fraction(1, 5), 1]) == [0, 0, 1, 5]
    assert _convolve([], []) == []


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=6),
    st.lists(st.integers(-3, 3), min_size=1, max_size=6),
)
def test_convolve_matches_the_double_sum(a, b):
    expected = [
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    ]
    assert _convolve(a, b) == expected


# ----------------------------------------------------------- Taylor shift


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(10**30), 10**30), max_size=24))
@example([])
@example([7])
@example([3, -1, 0, 0])
def test_shift_matches_the_binomial_sums(values):
    # f(x + 1) = sum_b f_b (x + 1)^b has coefficient sum_b C(b, k) f_b at x^k
    expected = [sum(math.comb(b, k) * f for b, f in enumerate(values)) for k in range(len(values))]
    shifted = list(values)
    assert _shift(shifted) is None
    assert shifted == expected


# ------------------------------------------------------- substitute_half


def test_substitute_half_examples():
    two_c_plus_one = bipoly({(0, 1): 2, (0, 0): 1})
    assert substitute_half(two_c_plus_one) == bipoly({(1, 0): 1, (0, 1): -2}, ("p", "s"))

    p_only = bipoly({(1, 0): 1})
    assert substitute_half(p_only) == bipoly({(1, 0): 1}, ("p", "s"))

    genus_one = bipoly({(1, 0): Fraction(1, 2), (0, 1): -1, (0, 0): Fraction(-1, 2)})
    assert substitute_half(genus_one) == bipoly({(0, 1): 1}, ("p", "s"))


@st.composite
def small_bipolys(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=3))
        j = draw(st.integers(min_value=0, max_value=3))
        terms[(i, j)] = draw(rationals)
    return RingPolynomial(terms, PC)


@settings(max_examples=60, deadline=None)
@given(small_bipolys(), small_bipolys())
def test_substitute_half_is_ring_homomorphism(a, b):
    assert substitute_half(a * b) == substitute_half(a) * substitute_half(b)
    assert substitute_half(a + b) == substitute_half(a) + substitute_half(b)


def _power_cache_substitute(poly, replacement):
    """The earlier route: expand every term against cached powers of the
    replacement polynomial, one polynomial product per term."""
    target = replacement.variables
    powers = [RingPolynomial.constant(1, target)]
    max_j = max((j for (_, j), _ in poly.terms()), default=0)
    while len(powers) <= max_j:
        powers.append(powers[-1] * replacement)
    result = RingPolynomial.zero(target)
    for (i, j), coeff in poly.terms():
        result = result + RingPolynomial({(i, 0): coeff}, target) * powers[j]
    return result


HALF_REPLACEMENT = RingPolynomial(
    {(1, 0): Fraction(1, 2), (0, 0): Fraction(-1, 2), (0, 1): -1}, ("p", "s")
)


@settings(max_examples=80, deadline=None)
@given(small_bipolys())
def test_substitute_half_matches_power_cache_route(poly):
    assert substitute_half(poly) == _power_cache_substitute(poly, HALF_REPLACEMENT)


@settings(max_examples=60, deadline=None)
@given(
    small_bipolys(),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-4, max_value=4).filter(bool),
)
def test_substitute_affine_matches_power_cache_route(poly, alpha, beta, gamma, delta):
    replacement = RingPolynomial(
        {(1, 0): Fraction(alpha, delta), (0, 0): Fraction(beta, delta),
         (0, 1): Fraction(gamma, delta)},
        ("p", "u"),
    )
    assert substitute_affine(poly, alpha, beta, gamma, delta, "u") == (
        _power_cache_substitute(poly, replacement)
    )


def test_substitute_affine_zero_and_bad_denominator():
    assert substitute_affine(bipoly({}), 1, 2, 3, 4, "s") == bipoly({}, ("p", "s"))
    with pytest.raises(ZeroDivisionError):
        substitute_affine(bipoly({(0, 1): 1}), 1, 0, 1, 0, "s")


# -------------------------------------------------------------- evaluation


def _naive_value(poly, x, y):
    return sum(
        (coeff * Fraction(x) ** i * Fraction(y) ** j for (i, j), coeff in poly.terms()),
        Fraction(0),
    )


points = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@settings(max_examples=120, deadline=None)
@given(small_bipolys(), points, points)
def test_call_matches_termwise_sum(poly, x, y):
    value = poly(x, y)
    assert isinstance(value, Fraction)
    assert value == _naive_value(poly, x, y)


@pytest.mark.parametrize(
    "x, y",
    [(0, 0), (-3, 2), (Fraction(7, 2), Fraction(-5, 3)), (Fraction(-1, 4), 0), (13, 6)],
)
def test_call_at_negative_and_fractional_points(x, y):
    poly = RingPolynomial(
        {(3, 1): Fraction(1, 12), (0, 2): Fraction(-2, 9), (2, 0): 5, (0, 0): Fraction(-1, 7)}, PC
    )
    assert poly(x, y) == _naive_value(poly, x, y)


@settings(max_examples=80, deadline=None)
@given(small_bipolys(), points, points)
def test_fold_first_gives_integer_coefficients_of_the_value(poly, x, y):
    denominator, values = poly.fold_first(x)
    assert all(isinstance(v, int) for v in [denominator, *values]) and denominator > 0
    folded = sum((v * y**j for j, v in enumerate(values)), Fraction(0)) / denominator
    assert folded == _naive_value(poly, x, y)


def test_fold_first_zero_polynomial():
    assert bipoly({}).fold_first(Fraction(-5, 3)) == (1, [0])


def test_call_zero_and_constant_polynomials():
    zero = RingPolynomial.zero(PC)
    assert zero(Fraction(3, 5), -2) == 0
    assert isinstance(zero(1, 1), Fraction)
    constant = RingPolynomial.constant(Fraction(-2, 3), PC)
    assert constant(Fraction(9, 4), Fraction(-1, 8)) == Fraction(-2, 3)


def _naive_univariate_value(poly, x):
    return sum(
        (c * Fraction(x) ** k for k, c in enumerate(poly.coefficients)), Fraction(0)
    )


small_unipolys = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=12), max_size=7
).map(UnivariatePolynomial)


@settings(max_examples=120, deadline=None)
@given(small_unipolys, points)
def test_univariate_call_matches_termwise_sum(poly, x):
    value = poly(x)
    assert isinstance(value, Fraction)
    assert value == _naive_univariate_value(poly, x)


@pytest.mark.parametrize("x", [0, 1, -1, -4, Fraction(2, 3), Fraction(-7, 5), 11])
def test_univariate_call_at_negative_and_fractional_points(x):
    poly = UnivariatePolynomial([Fraction(-1, 7), 0, Fraction(5, 6), Fraction(-2, 9), 3])
    assert poly(x) == _naive_univariate_value(poly, x)


def test_univariate_call_zero_and_constant_polynomials():
    zero = UnivariatePolynomial(())
    assert zero(Fraction(3, 5)) == 0 and isinstance(zero(-2), Fraction)
    assert UnivariatePolynomial((Fraction(-2, 3),))(Fraction(-9, 4)) == Fraction(-2, 3)
    assert isinstance(UnivariatePolynomial((4,))(7), Fraction)


# ----------------------------------------------- one-denominator storage
# Every container keeps int numerators over one positive denominator in
# lowest terms; the references below work on plain Fraction lists.


def _stored_form_is_canonical(numerators, denominator):
    return (
        denominator > 0
        and math.gcd(denominator, *numerators) == 1
        and (numerators or denominator == 1)
    )


@settings(max_examples=120, deadline=None)
@given(small_unipolys, small_unipolys, points)
def test_univariate_kernels_match_fraction_list_reference(a, b, x):
    # a univariate polynomial is only evaluated; the composition oracle
    # agrees with evaluating twice, and the library refuses to compose
    fa = list(a.coefficients)
    assert a(x) == sum((c * x**k for k, c in enumerate(fa)), Fraction(0))
    assert compose(a, b)(x) == a(b(x))
    with pytest.raises(TypeError):
        a(b)
    for poly in (a, b, compose(a, b)):
        assert _stored_form_is_canonical(poly.numerators, poly.denominator)


@settings(max_examples=120, deadline=None)
@given(small_bipolys(), small_bipolys())
def test_bivariate_kernels_match_fraction_dict_reference(a, b):
    fa, fb = dict(a.terms()), dict(b.terms())
    total = {key: fa.get(key, 0) + fb.get(key, 0) for key in fa.keys() | fb.keys()}
    product: dict = {}
    for (i1, j1), x in fa.items():
        for (i2, j2), y in fb.items():
            key = (i1 + i2, j1 + j2)
            product[key] = product.get(key, 0) + x * y
    assert a + b == bipoly(total)
    assert a * b == bipoly(product)
    for poly in (a + b, a * b, a.homogeneous_part(2)):
        assert _stored_form_is_canonical(tuple(poly._terms.values()), poly.denominator)
    for part in a.split_by_first().values():
        assert _stored_form_is_canonical(part.numerators, part.denominator)


@pytest.mark.parametrize(
    "first, second",
    [
        ([Fraction(2, 4), 3], [Fraction(1, 2), Fraction(6, 2)]),
        ([1, 2, 0, 0], [1, 2]),
        ([0, 0, 0], []),
        ([Fraction(-1, 3), Fraction(2, -3)], [Fraction(-2, 6), Fraction(-4, 6), 0]),
    ],
)
def test_equal_values_from_different_inputs_store_the_same_ints(first, second):
    a, b = UnivariatePolynomial(first), UnivariatePolynomial(second)
    assert a == b and hash(a) == hash(b)
    assert (a.numerators, a.denominator) == (b.numerators, b.denominator)
    c = bipoly({(k, 1): v for k, v in enumerate(first)})
    d = bipoly({(k, 1): v for k, v in enumerate(second)})
    assert c == d and hash(c) == hash(d)


@pytest.mark.parametrize(
    "numerators, denominator, expected",
    [
        ([1, -2, 0, 0], 3, ((1, -2), 3)),  # gcd 1: stripped, nothing divided
        ([5], 1, ((5,), 1)),
        ([4, -6, 0], 10, ((2, -3), 5)),  # gcd 2
        ([-9, 0, 3], 6, ((-3, 0, 1), 2)),  # gcd 3, a zero kept inside
        ([7], 7, ((1,), 1)),
        ([0, 0, 0], 4, ((), 1)),  # all zero: zero over 1
        ([], 9, ((), 1)),
    ],
)
def test_lowest_strips_then_divides_by_the_gcd(numerators, denominator, expected):
    assert _lowest(numerators, denominator) == expected
    assert _lowest(iter(numerators), denominator) == expected


def test_arithmetic_lands_in_lowest_terms():
    field = cyclotomic_field(9)
    half = field.element([Fraction(1, 2), Fraction(1, 2)])
    doubled = half + half
    assert (doubled.numerators, doubled.denominator) == ((1, 1), 1)
    assert doubled == field.element([1, 1]) and hash(doubled) == hash(field.element([1, 1]))
    zero = half - half
    assert (zero.numerators, zero.denominator) == ((), 1)
    assert zero == 0 and hash(zero) == hash(0)
    p = RingPolynomial.first(PC)
    assert p / 3 * 3 == p and hash(p / 3 * 3) == hash(p)
    assert (p / 3 - p / 3) == 0 and (p / 3 - p / 3).denominator == 1


@pytest.mark.parametrize("value", [Fraction(4, 6), Fraction(-9, 3), -7])
def test_computed_constants_hash_like_their_value(value):
    a = cyclotomic_field(9).gen_power(1)
    element = (a + value) - a
    p = RingPolynomial.first(PC)
    bi = (p + value) - p
    assert element == value and bi == value
    assert hash(element) == hash(value) and hash(bi) == hash(value)


# ------------------------------------------------ the shared dense format

DENSE_FIELD = cyclotomic_field(9)  # degree 6, so inputs of 7 or 8 entries get reduced

# the three dense kinds, each built from a list of rationals
DENSE_KINDS = {
    "univariate": UnivariatePolynomial,
    "annulus": AnnulusSkein,
    "cyclotomic": DENSE_FIELD.element,
}

dense_inputs = st.builds(
    lambda numerators, denominator: [Fraction(n, denominator) for n in numerators],
    st.lists(st.integers(-6, 6), max_size=8),
    st.integers(1, 6),
)
nonzero_scalars = st.one_of(st.integers(-5, 5), rationals).filter(bool)


@pytest.mark.parametrize("kind", DENSE_KINDS)
@settings(max_examples=60, deadline=None)
@given(a=dense_inputs, b=dense_inputs, scalar=nonzero_scalars)
def test_dense_kinds_keep_the_stored_form(kind, a, b, scalar):
    # every kind holds the format; only a field element has ring
    # arithmetic, and an annulus skein only its product of two skeins
    make = DENSE_KINDS[kind]
    x, y = make(a), make(b)
    arithmetic = (
        lambda: x + y, lambda: x - y, lambda: -x, lambda: x * scalar, lambda: scalar * x,
        lambda: x**2,
    )
    values = [x, y]
    if kind == "cyclotomic":
        values += [op() for op in arithmetic] + [x * y]
    else:
        for op in arithmetic:
            with pytest.raises(TypeError):
                op()
        if kind == "annulus":
            values.append(x * y)
        else:
            with pytest.raises(TypeError):
                x * y
    for value in values:
        assert type(value) is type(x)
        assert value.denominator > 0
        assert math.gcd(value.denominator, *value.numerators) == 1
        assert not value.numerators or value.numerators[-1] != 0
    if kind == "cyclotomic":
        twins = ((x, (x + y) - y), (x, x * scalar * (1 / Fraction(scalar))), (x * x, x**2))
        for value, twin in twins:
            assert value == twin and hash(value) == hash(twin)
        with pytest.raises(ValueError, match="exponent must be nonnegative"):
            x ** -1
    for divisor in (y, scalar):
        with pytest.raises(TypeError):
            x / divisor
    with pytest.raises(TypeError):
        3 / x
    # every stored form, the sparse one too, refuses a denominator <= 0
    for denominator in (0, -1):
        with pytest.raises(ValueError, match="denominator must be positive"):
            x._like(x.numerators, denominator)
        with pytest.raises(ValueError, match="denominator must be positive"):
            BivariatePolynomial({(0, 0): 1}, PC, denominator)
    if kind == "cyclotomic":
        with pytest.raises(ValueError, match="denominator must be positive"):
            CyclotomicElement(DENSE_FIELD, x.numerators, 0)
        other = cyclotomic_field(7).element(a)
        assert x != other
        with pytest.raises(ValueError, match="different fields"):
            x + other


@pytest.mark.parametrize("kind", ["cyclotomic"])  # the one dense kind with powers
def test_power_counts_its_products(monkeypatch, kind):
    # square-and-multiply from the lowest set bit's power of x: x^n takes
    # bit_length(n) + popcount(n) - 2 products for n >= 1, and x^0 none
    x = DENSE_KINDS[kind]([1, -2, Fraction(1, 3), 4])
    real = type(x).__mul__
    expected = [x ** 0]
    for _ in range(9):
        expected.append(real(expected[-1], x))
    products = 0

    def counted(self, other):
        nonlocal products
        products += 1
        return real(self, other)

    monkeypatch.setattr(type(x), "__mul__", counted)
    for n in range(10):
        products = 0
        assert x**n == expected[n]
        assert products == (n.bit_length() + bin(n).count("1") - 2 if n else 0), n


# ------------------------------------------------------------ hash contract


@pytest.mark.parametrize("value", [0, 3, -7, Fraction(5, 2)])
def test_constant_polynomials_hash_like_their_value(value):
    uni = UnivariatePolynomial((value,))
    bi = BivariatePolynomial({(0, 0): value}, PC)
    ring_bi = RingPolynomial.constant(value, PC)
    assert uni == value and bi == value and ring_bi == value
    assert hash(uni) == hash(value) and hash(bi) == hash(value) == hash(ring_bi)
    assert len({value, uni, bi, ring_bi}) == 1


def test_zero_polynomials_hash_like_zero():
    assert hash(UnivariatePolynomial(())) == hash(0)
    assert hash(BivariatePolynomial({}, PC)) == hash(0)
    assert hash(RingPolynomial.zero(PC)) == hash(0)
    assert {0: "zero"}[UnivariatePolynomial(())] == "zero"
    assert {0: "zero"}[BivariatePolynomial({}, ("x", "y"))] == "zero"


def test_nonconstant_polynomial_hashes_stay_structural():
    a = UnivariatePolynomial((1, 2))
    b = BivariatePolynomial({(1, 0): 1, (0, 0): 2}, PC)
    assert hash(a) == hash(UnivariatePolynomial((1, 2)))
    assert hash(b) == hash(BivariatePolynomial({(0, 0): 2, (1, 0): 1}, PC))


# ------------------------------------------------------------ field axioms


@settings(max_examples=100, deadline=None)
@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if a != 0:
        assert a * (Fraction(1) / a) == 1


# ---------------------------------------------------------------- matrices
# `rank` is the value-matrix rank of `rank_oracle`, the reference for the
# certificate's degree-count ranks; the tests of its modular witness and
# its Bareiss fallback are in test_certify.


def _rational_rank(rows):
    """Rank of rational rows, each scaled to integers first."""
    return rank([_scaled(row)[1] for row in rows])


def test_rank_identity():
    assert _rational_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_proportional_rows():
    assert _rational_rank([[1, 2], [2, 4]]) == 1


def test_rank_genus_one_value_matrix():
    # 2x2 value matrix with determinant 1/2 (hand computation), so rank 2
    matrix = [[Fraction(-1, 2), Fraction(-3, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    assert _rational_rank(matrix) == 2


def test_rank_rectangular():
    assert _rational_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert _rational_rank([[0, 1], [1, 0], [1, 1]]) == 2


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "at least one row"),
        ([[]], "at least one row"),
        ([[1, 2], [3]], "same length"),
        ([[1], [2, 3]], "same length"),
    ],
)
def test_rank_rejects_empty_or_ragged(rows, message):
    with pytest.raises(ValueError, match=message):
        rank(rows)


def test_rank_rejects_non_integer_entries():
    # floor division in the elimination would misrank a Fraction entry
    with pytest.raises(TypeError):
        rank([[Fraction(1, 2), 1], [1, 2]])


def _minor_rank(rows):
    """Brute-force rank: largest k with a nonzero k x k minor determinant."""

    def det(sub):
        n = len(sub)
        total = Fraction(0)
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = Fraction(1)
            for i in range(n):
                prod *= sub[i][perm[i]]
            total += sign * prod
        return total

    n_rows, n_cols = len(rows), len(rows[0])
    for k in range(min(n_rows, n_cols), 0, -1):
        for rs in itertools.combinations(range(n_rows), k):
            for cs in itertools.combinations(range(n_cols), k):
                sub = [[rows[r][c] for c in cs] for r in rs]
                if det(sub) != 0:
                    return k
    return 0


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_rank_matches_minor_rank(n_rows, n_cols, data):
    rows = [
        [data.draw(rationals) for _ in range(n_cols)] for _ in range(n_rows)
    ]
    assert _rational_rank(rows) == _minor_rank(rows)
