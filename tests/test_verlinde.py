"""Verlinde dimension tests.

The fusion recursion over integer weights is the independent oracle for
the residue-formula polynomial; genus-two expected values below were
expanded by hand from the defining series product.
"""

from __future__ import annotations

import gc
import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeindim.bernoulli import bernoulli_half_value, bernoulli_number, bernoulli_numbers
from skeindim.exact import BivariatePolynomial, UnivariatePolynomial
from skeindim import verlinde
from skeindim.certify import (
    CHECK_LEVELS,
    build_certificate,
    check_crosscheck,
    check_leading_term,
    check_parity,
    check_structure,
    leading_term_closed_form,
)
from skeindim.verlinde import (
    _exponential_coefficients,
    _fusion_walk,
    _integer_parts,
    _polynomial,
    _residue_coefficient,
    _substitute,
    IntegralityError,
    decompose,
    dimension,
    exponent_support,
    fusion_dimension,
    fusion_table,
    genus_data,
    level_dimensions,
    odd_color_polynomial,
    verlinde_polynomial,
)
from rank_oracle import rank
from ring_oracle import RingPolynomial, ring
from series_oracle import series_inverse, series_mul
from table_oracle import fraction_exponential_coefficients
from substitution_oracle import binomial_poly_in_c, substitute_affine, substitute_half

PC = ("p", "c")
PS = ("p", "s")

GENUS_ONE = BivariatePolynomial(
    {(1, 0): Fraction(1, 2), (0, 1): -1, (0, 0): Fraction(-1, 2)}, PC
)

# hand expansion of the residue formula at genus 2:
# p^3(2c+1)/24 - p^2 c(c+1)/4 + p(2c+1)^3/48 - p(2c+1)/16
GENUS_TWO = BivariatePolynomial(
    {
        (1, 3): Fraction(1, 6),
        (1, 2): Fraction(1, 4),
        (2, 2): Fraction(-1, 4),
        (3, 1): Fraction(1, 12),
        (2, 1): Fraction(-1, 4),
        (3, 0): Fraction(1, 24),
        (1, 0): Fraction(-1, 24),
    },
    PC,
)

# the same polynomial after c = (p-1)/2 - s, collected by hand
GENUS_TWO_ODD = BivariatePolynomial(
    {(3, 1): Fraction(1, 24), (1, 3): Fraction(-1, 6), (1, 1): Fraction(1, 8)}, PS
)


def test_genus_one_closed_form():
    assert verlinde_polynomial(1) == GENUS_ONE
    assert verlinde_polynomial(1).render() == "-1/2 + 1/2*p - c"


def test_genus_one_odd_substitution_is_s():
    assert odd_color_polynomial(1) == BivariatePolynomial({(0, 1): 1}, PS)


def test_genus_one_point_value():
    assert ring(verlinde_polynomial(1))(5, 0) == 2


def test_genus_two_hand_expansion():
    assert verlinde_polynomial(2) == GENUS_TWO
    assert odd_color_polynomial(2) == GENUS_TWO_ODD


def test_genus_two_point_value():
    assert ring(verlinde_polynomial(2))(5, 0) == 5


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_total_degree(g):
    assert verlinde_polynomial(g).total_degree == 3 * g - 2


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_homogeneous_parts_partition(g):
    poly = verlinde_polynomial(g)
    total = RingPolynomial.zero(PC)
    for n in range(0, 3 * g - 1):
        total = total + poly.homogeneous_part(n)
    assert total == poly


# ------------------------------------------------------------ decomposition


def test_decompose_genus_one_even():
    parts = decompose(1, "even")
    assert set(parts) == {0, 1}
    assert parts[0] == UnivariatePolynomial([Fraction(-1, 2), -1])
    assert parts[1] == UnivariatePolynomial([Fraction(1, 2)])


def test_decompose_genus_one_odd():
    parts = decompose(1, "odd")
    assert set(parts) == {0}
    assert parts[0] == UnivariatePolynomial([0, 1])


def test_decompose_genus_two_support_and_degrees():
    parts = decompose(2, "even")
    assert set(parts) == {1, 2, 3} == exponent_support(2, "even")
    assert parts[1].degree == 3
    assert parts[2].degree == 2
    assert parts[3].degree == 1


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["even", "odd"])
def test_decompose_reconstructs(g, kind):
    source = verlinde_polynomial(g) if kind == "even" else odd_color_polynomial(g)
    p = RingPolynomial.first(source.variables)
    total = RingPolynomial.zero(source.variables)
    for j, part in decompose(g, kind).items():
        terms = {(0, k): coeff for k, coeff in enumerate(part.coefficients) if coeff}
        total = total + p**j * BivariatePolynomial(terms, source.variables)
    assert total == source


def test_decompose_rejects_bad_arguments():
    with pytest.raises(ValueError):
        decompose(0, "even")
    with pytest.raises(ValueError):
        decompose(1, "mixed")


# ------------------------------------------------------------- leading term


def test_leading_term_genus_one():
    assert check_leading_term(genus_data(1)).passed
    # F_1 = p/2 - c
    assert leading_term_closed_form(1) == BivariatePolynomial(
        {(1, 0): Fraction(1, 2), (0, 1): -1}, PC
    )


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_leading_term_small_genera(g):
    assert check_leading_term(genus_data(g)).passed


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_leading_coefficient_bernoulli_links(g):
    import math

    even = decompose(g, "even")
    for k in range(g):
        j = g - 1 + 2 * k
        expected = (
            Fraction((-1) ** g)
            * bernoulli_number(2 * k)
            / (math.factorial(2 * k) * math.factorial(2 * g - 1 - 2 * k))
        )
        assert even[j].leading_coefficient == expected
        assert expected != 0
    expected_mid = (
        Fraction((-1) ** g) * bernoulli_number(1) / math.factorial(2 * g - 2)
    )
    assert even[g].leading_coefficient == expected_mid

    odd = decompose(g, "odd")
    for k in range(g):
        j = g - 1 + 2 * k
        expected = (
            Fraction((-1) ** (g + 1))
            * bernoulli_half_value(2 * k)
            / (math.factorial(2 * g - 1 - 2 * k) * math.factorial(2 * k))
        )
        assert odd[j].leading_coefficient == expected
        assert expected != 0


# ------------------------------------------------------------------- parity


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_parity_checks_pass(g):
    assert check_parity(genus_data(g)).passed


def test_genus_two_reduced_odd_polynomial_structure():
    # odd polynomial / p = p^2 s/24 - s^3/6 + s/8: even in p, odd in s
    assert odd_color_polynomial(2) == BivariatePolynomial(
        {(3, 1): Fraction(1, 24), (1, 3): Fraction(-1, 6), (1, 1): Fraction(1, 8)}, PS
    )
    parts = genus_data(2).parts["odd"]
    assert {i: part.exponents() for i, part in parts.items()} == {1: {1, 3}, 3: {1}}


def test_genus_two_residue_component_p_support():
    # the residue component X of D_2 = p X + p^2 Y carries only p^0 and
    # p^2 monomials: X = u p^2/24 + u^3/48 - u/16 by hand, u = 2c + 1
    scale, x_part, y_part = _integer_parts(2)
    assert {i for (i, _), _ in y_part} == {0}
    assert {key: Fraction(n, scale) for key, n in x_part} == {
        (2, 1): Fraction(1, 24),
        (0, 3): Fraction(1, 48),
        (0, 1): Fraction(-1, 16),
    }


# ------------------------------------------------------------------- fusion


def test_fusion_table_p5():
    assert fusion_table(5) == ((3, 1), (1, 2))


@pytest.mark.parametrize("p", [3, 5, 7, 9, 11, 13])
def test_fusion_table_symmetric_and_positive(p):
    table = fusion_table(p)
    assert len(table) == (p - 1) // 2
    for row, column in zip(table, zip(*table)):
        assert row == column
        assert min(row) >= 1


def test_fusion_genus_one_base_case():
    for p in [3, 5, 7, 11, 13]:
        for s in range(1, (p - 1) // 2 + 1):
            assert fusion_dimension(1, p, s) == s


def test_fusion_genus_two_hand_values():
    # K[1][1]*1 + K[1][2]*2 = 3 + 2 and K[2][1]*1 + K[2][2]*2 = 1 + 4
    assert fusion_dimension(2, 5, 1) == 5
    assert fusion_dimension(2, 5, 2) == 5


def test_fusion_genus_three_hand_values():
    assert fusion_dimension(3, 5, 1) == 20
    assert fusion_dimension(3, 5, 2) == 15


def test_fusion_rejects_out_of_range():
    with pytest.raises(ValueError):
        fusion_dimension(2, 5, 0)
    with pytest.raises(ValueError):
        fusion_dimension(2, 5, 3)
    with pytest.raises(ValueError):
        fusion_dimension(2, 4, 1)


# --------------------------------------------------------------- dimensions


def test_dimension_examples():
    assert dimension(1, 7, 0) == 3
    assert dimension(2, 5, 0) == 5
    assert dimension(2, 5, 1) == 5  # recolored to color 2


def test_dimension_rejects_out_of_range_color():
    with pytest.raises(ValueError):
        dimension(1, 5, 4)
    with pytest.raises(ValueError):
        dimension(1, 5, -1)


def test_dimension_matches_fusion_through_recoloring():
    for g in [1, 2, 3]:
        for p in [3, 5, 7, 9]:
            d = (p - 1) // 2
            for s in range(1, d + 1):
                odd_color = 2 * s - 1
                even_color = p - 2 * s - 1
                expected = fusion_dimension(g, p, s)
                assert dimension(g, p, odd_color) == expected
                assert dimension(g, p, even_color) == expected


def test_integrality_error_exists():
    assert issubclass(IntegralityError, ArithmeticError)


# ------------------------------------------------- per-level evaluation


def _row_per_call_value(poly, x, y):
    """poly(x, y) by the earlier evaluation: integer rows rebuilt on every
    call, Horner in the second variable inside and the first outside."""
    x, y = Fraction(x), Fraction(y)
    terms = dict(poly.terms())
    scale = math.lcm(*[c.denominator for c in terms.values()])
    width = max(j for _, j in terms) + 1
    rows = [[0] * width for _ in range(max(i for i, _ in terms) + 1)]
    for (i, j), c in terms.items():
        rows[i][j] = c.numerator * (scale // c.denominator)

    def horner(values, num, den):
        total, den_power = 0, 1
        for value in reversed(values):
            total = total * num + value * den_power
            den_power *= den
        return total

    inner = [horner(row, y.numerator, y.denominator) for row in rows]
    total = horner(inner, x.numerator, x.denominator)
    n, m = len(rows) - 1, width - 1
    return Fraction(total, scale * x.denominator**n * y.denominator**m)


def _row_per_call_dimension(g, p, m):
    if m % 2 == 1:
        m = p - m - 2
    value = _row_per_call_value(verlinde_polynomial(g), p, Fraction(m, 2))
    assert value.denominator == 1 and value >= 0
    return int(value)


@pytest.mark.parametrize("g", range(1, 9))
def test_level_dimensions_match_row_per_call_route(g):
    # every odd level through 61, composite 9, 15, 21, ... included
    for p in range(3, 62, 2):
        colors = range(p - 1)
        expected = [_row_per_call_dimension(g, p, m) for m in colors]
        assert level_dimensions(g, p, colors) == expected
        assert [dimension(g, p, m) for m in colors] == expected


def test_level_dimensions_keep_order_and_repeats():
    colors = [7, 0, 7, 3, 4, 0]
    assert level_dimensions(3, 9, colors) == [dimension(3, 9, m) for m in colors]
    assert level_dimensions(3, 9, []) == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: dimension(2, 7, 0.0),
        lambda: dimension(2, 7, Fraction(1, 2)),
        lambda: dimension(2, 7, Fraction(2)),
        lambda: level_dimensions(2, 7, [2.0, 3.0]),
        lambda: level_dimensions(2, 7, [0, 1.5]),
    ],
    ids=["float", "fraction", "integral-fraction", "floats", "float-among-ints"],
)
def test_non_integer_colors_are_type_errors(call):
    # a color is an index: past the Horner evaluation a float would give a
    # float dimension and a fraction an IntegralityError, the bug signal
    with pytest.raises(TypeError):
        call()


def test_level_dimensions_reject_bad_arguments():
    with pytest.raises(ValueError, match="genus"):
        level_dimensions(0, 5, [0])
    with pytest.raises(ValueError, match="odd"):
        level_dimensions(1, 6, [0])
    with pytest.raises(ValueError, match=r"color must lie in 0\.\.3, got 4"):
        level_dimensions(1, 5, [0, 4])
    with pytest.raises(ValueError, match="got -1"):
        level_dimensions(1, 5, [-1])


@pytest.mark.parametrize(
    "poly, color, message",
    [
        # c + 1/3 at c = 1; the odd color 3 recolors to 2 at p = 7
        (BivariatePolynomial({(0, 1): 1, (0, 0): Fraction(1, 3)}, PC), 3, "color 2 evaluated to 4/3"),
        (BivariatePolynomial({(0, 1): -2, (0, 0): 1}, PC), 2, "color 2 evaluated to -1"),
    ],
)
def test_level_dimensions_raise_integrality_error(monkeypatch, poly, color, message):
    monkeypatch.setattr(verlinde, "verlinde_polynomial", lambda g: poly)
    with pytest.raises(IntegralityError, match=f"dimension at genus 2, p=7, {message}$"):
        level_dimensions(2, 7, [color])
    with pytest.raises(IntegralityError, match=message):
        dimension(2, 7, color)


@pytest.mark.parametrize("g", range(1, 9))
def test_dimension_polynomials_at_negative_and_fractional_points(g):
    points = [(-3, Fraction(-5, 2)), (Fraction(7, 3), Fraction(-1, 4)),
              (Fraction(-11, 6), 9), (0, Fraction(2, 7)), (Fraction(1, 2), -4)]
    for poly in (verlinde_polynomial(g), odd_color_polynomial(g)):
        for x, y in points:
            expected = sum(
                (c * Fraction(x) ** i * Fraction(y) ** j for (i, j), c in poly.terms()),
                Fraction(0),
            )
            assert ring(poly)(x, y) == expected


# --------------------------------------------------------------- crosscheck


def _odd_through(g_max):
    """The odd-color polynomials of genus 1..g_max, built as they are read."""
    return map(odd_color_polynomial, range(1, g_max + 1))


def test_crosscheck_genus_one():
    assert CHECK_LEVELS == (3, 5, 7, 9, 11, 13)
    assert sum((p - 1) // 2 for p in CHECK_LEVELS) == 21
    expected = ("residue_vs_fusion", True, "21 values compared")
    assert check_crosscheck(_odd_through(1), "values") == expected


def test_crosscheck_through_genus_three():
    expected = ("residue_vs_fusion", True, "63 values compared")
    assert check_crosscheck(_odd_through(3), "values") == expected


def test_crosscheck_reports_a_wrong_polynomial():
    # s + 1/3 against D_1 = s: every value is off, the first three named
    wrong = BivariatePolynomial({(0, 1): 1, (0, 0): Fraction(1, 3)}, PS)
    assert check_crosscheck([wrong], "values") == (
        "residue_vs_fusion",
        False,
        "21 values compared, 21 mismatches (g=1 p=3 s=1; g=1 p=5 s=1; g=1 p=5 s=2)",
    )


def test_crosscheck_matches_a_reference_loop_over_fusion_dimension():
    # p - 5 added at genus 2 and (s - 1)/2 at genus 3: mismatches at every
    # level but 5, then at every s >= 2, counted and named in (g, p, s)
    # order
    real = odd_color_polynomial
    extra = {
        2: RingPolynomial({(1, 0): 1, (0, 0): -5}, PS),
        3: RingPolynomial({(0, 1): Fraction(1, 2), (0, 0): Fraction(-1, 2)}, PS),
    }

    def planted(g):
        return real(g) + extra[g] if g in extra else real(g)

    checked, mismatches = 0, []
    for g in range(1, 4):
        for p in CHECK_LEVELS:
            for s in range(1, (p - 1) // 2 + 1):
                checked += 1
                if ring(planted(g))(p, s) != fusion_dimension(g, p, s):
                    mismatches.append(f"g={g} p={p} s={s}")
    assert len(mismatches) == 21 - 2 + 21 - 6
    assert mismatches[:3] == ["g=2 p=3 s=1", "g=2 p=7 s=1", "g=2 p=7 s=2"]
    assert check_crosscheck(map(planted, range(1, 4)), "values") == (
        "residue_vs_fusion",
        False,
        f"{checked} values compared, {len(mismatches)} mismatches ({'; '.join(mismatches[:3])})",
    )


@pytest.mark.parametrize("g", range(1, 8))
def test_crosscheck_points_determine_the_parity_form_through_genus_six(g):
    # with `check_parity` passed and total degree 3g - 2, the odd-color
    # polynomial is a combination of p^(g-1+2i) s^(2j+1), i + j <= g - 1.
    # Their values at the 21 crosscheck points are independent for g <= 6
    # (1, 3, 6, 10, 15, 21 columns), so the compared values fix the
    # polynomial; at g = 7 they span 21 of 28, and the check is a sample
    points = [(p, s) for p in CHECK_LEVELS for s in range(1, (p - 1) // 2 + 1)]
    monomials = [(g - 1 + 2 * i, 2 * j + 1) for i in range(g) for j in range(g - i)]
    assert {key for key, _ in odd_color_polynomial(g).terms()} <= set(monomials)
    rows = [[p**a * s**b for p, s in points] for a, b in monomials]
    assert len(points) == 21 and len(monomials) == g * (g + 1) // 2
    assert rank(rows) == (len(monomials) if g <= 6 else 21)


# --------------------------------------------------------------- records


@pytest.mark.parametrize("g", range(1, 9))
def test_record_matches_the_public_builders(g):
    data = genus_data(g)
    assert data.genus == g
    assert data[1:4] == _integer_parts(g)
    assert data.even == verlinde_polynomial(g)
    assert data.odd == odd_color_polynomial(g)
    assert data.parts == {kind: decompose(g, kind) for kind in ("even", "odd")}


def test_certificate_leaves_no_polynomial_behind():
    # nothing keeps a genus once its certificate is built: the record is
    # let go, and the crosscheck lets each odd-color polynomial go in turn
    def live():
        gc.collect()
        return sum(isinstance(obj, BivariatePolynomial) for obj in gc.get_objects())

    before = live()
    assert build_certificate(12).valid
    assert live() == before


# ----------------------------------- construction: earlier Fraction route


def _series_power(coefficients, alpha):
    """f^alpha by J.C.P. Miller's recurrence on Fractions, f_0 = 1."""
    power = [Fraction(1)]
    for m in range(1, len(coefficients)):
        acc = sum(
            ((alpha + 1) * k - m) * coefficients[k] * power[m - k]
            for k in range(1, m + 1)
        )
        power.append(acc / m)
    return power


def _fraction_residue_at(g, order):
    """R in (p, u) by the earlier Fraction sum, kernels truncated at t^order."""
    target = 2 * g - 2
    inverse = _series_power(
        [Fraction(1, math.factorial(k + 1)) for k in range(order + 1)], -1
    )
    half = order // 2
    sinh_power = _series_power(
        [Fraction(1, math.factorial(2 * k + 1)) for k in range(half + 1)], -(2 * g - 1)
    )
    terms = {}
    for a in range(min(order, target) + 1):
        e_a = 2**a * inverse[a]
        if not e_a:
            continue
        for b in range(0, min(order, target - a) + 1, 2):
            k, odd = divmod(target - a - b, 2)
            if not odd and k <= half:
                terms[(a, b)] = e_a * sinh_power[k] / math.factorial(b + 1)
    return BivariatePolynomial(terms, ("p", "u"))


def _residue_part(g):
    """R(p, c): the guarded Fraction sum moved to (p, c) by u = 2c + 1."""
    value = _fraction_residue_at(g, 2 * g - 2)
    assert _fraction_residue_at(g, 2 * g - 1) == value
    return substitute_affine(value, 0, 1, 2, 1, "c")


def _fraction_formula_parts(g):
    half_sign = Fraction((-1) ** g, 2)
    two_c_plus_one = RingPolynomial({(0, 1): 2, (0, 0): 1}, PC)
    x_part = (Fraction(4) ** (1 - g) * half_sign) * two_c_plus_one * _residue_part(g)
    return x_part, -half_sign * binomial_poly_in_c(g)


def _fraction_route_polynomials(g):
    """(D_g in (p, c), its odd-color polynomial in (p, s)) by bivariate
    products and `substitute_half`."""
    x_part, y_part = _fraction_formula_parts(g)
    p = RingPolynomial.first(PC)
    even = p ** (g - 1) * x_part + p**g * y_part
    return even, substitute_half(even)


@pytest.mark.parametrize("g", [*range(1, 25), 40])
def test_polynomials_match_fraction_route(g):
    even, odd = _fraction_route_polynomials(g)
    assert verlinde_polynomial(g) == even
    assert odd_color_polynomial(g) == odd


def _affine_in_c(scale, pairs):
    """sum n p^i u^b / scale over the pairs ((i, b), n), moved to (p, c)
    by the affine substitution u = 2c + 1 instead of the Taylor shift."""
    in_u = BivariatePolynomial({key: Fraction(n, scale) for key, n in pairs}, ("p", "u"))
    return substitute_affine(in_u, 0, 1, 2, 1, "c")


@pytest.mark.parametrize("g", range(1, 13))
def test_formula_parts_match_fraction_route(g):
    # X and Y of the integer parts, each against the Fraction route
    scale, x_part, y_part = _integer_parts(g)
    parts = _affine_in_c(scale, x_part), _affine_in_c(scale, y_part)
    assert parts == _fraction_formula_parts(g)


@pytest.mark.parametrize("g", range(1, 13))
def test_part_p_exponents_agree_in_u_and_c(g):
    # `check_parity` reads the p-exponents of X and Y in (p, u): u = 2c + 1
    # acts on each p-row alone and is invertible, so they are those in (p, c)
    scale, *parts = _integer_parts(g)
    for part in parts:
        assert {i for (i, _), _ in part} == set(_affine_in_c(scale, part).split_by_first())


@pytest.mark.parametrize("g", range(1, 13))
def test_integer_form_is_the_polynomial_in_u(g):
    # X at p^(g-1) plus Y at p^g, summed here over Fractions and moved to
    # (p, c) by the affine substitution, is D_g
    scale, x_part, y_part = _integer_parts(g)
    assert scale > 0 and all(n for _, n in x_part + y_part)
    form = {}
    for shift, part in ((g - 1, x_part), (g, y_part)):
        for (i, b), n in part:
            form[i + shift, b] = form.get((i + shift, b), 0) + Fraction(n, scale)
    in_u = BivariatePolynomial(form, ("p", "u"))
    assert substitute_affine(in_u, 0, 1, 2, 1, "c") == verlinde_polynomial(g)


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(-(10**6), 10**6), max_size=16
    ),
    st.integers(1, 10**4),
)
@example({}, 1)  # the empty form
@example({(2, 3): -5}, 6)  # a single term
@example({(0, 0): 4, (1, 0): 2, (3, 0): -1}, 3)  # only b = 0 rows
@example({(5, 0): 1, (2, 3): -2, (0, 5): 7}, 1)  # one degree-5 group with gaps in b
def test_substitutions_match_affine_oracle(terms, scale):
    # any integer (p, u) form, not only a genus-shaped one: the Taylor
    # shifts against u = 2c + 1 and u = p - 2s substituted into the form
    in_u = BivariatePolynomial({key: Fraction(n, scale) for key, n in terms.items()}, ("p", "u"))
    assert _substitute(scale, terms.items(), odd=False) == substitute_affine(in_u, 0, 1, 2, 1, "c")
    assert _substitute(scale, terms.items(), odd=True) == substitute_affine(in_u, 1, 0, -2, 1, "s")


@pytest.mark.parametrize("g", [2, 5, 9])
def test_residue_integer_sum_matches_fraction_sum(g):
    scale, terms = _residue_coefficient(g)
    assert math.gcd(scale, *terms.values()) == 1
    assert BivariatePolynomial(
        {key: Fraction(n, scale) for key, n in terms.items()}, ("p", "u")
    ) == _fraction_residue_at(g, 2 * g - 2)


@pytest.mark.parametrize(
    "entry",
    [
        verlinde_polynomial,
        odd_color_polynomial,
        _integer_parts,
        # the shifts, the checks and the rank rows take a genus through
        # the parts or the record it is built from
        pytest.param(lambda g: _polynomial(g, _integer_parts(g), False), id="_polynomial"),
        pytest.param(lambda g: check_structure(genus_data(g)), id="check_structure"),
        pytest.param(lambda g: check_parity(genus_data(g)), id="parity_checks"),
        pytest.param(lambda g: check_leading_term(genus_data(g)), id="leading_term_check"),
        genus_data,
        lambda g: decompose(g, "even"),
        lambda g: decompose(g, "odd"),
        lambda g: dimension(g, 5, 0),
        lambda g: level_dimensions(g, 5, [0]),
        lambda g: check_crosscheck(_odd_through(g), "values"),
    ],
)
@pytest.mark.parametrize("g", [0, -1, -7])
def test_genus_below_one_is_rejected(entry, g):
    with pytest.raises(ValueError, match="genus must be at least 1"):
        entry(g)


def test_exponential_table_is_independent_of_call_order(monkeypatch):
    # e_a = 2^a B_a / a!, checked against the Bernoulli recurrence
    table = bernoulli_numbers(40)
    expected = tuple(2**a * table[a] / math.factorial(a) for a in range(41))
    for orders in ([40], [3, 40], [40, 3, 17], [0, 1, 2, 25, 9, 40], [17, 17, 40]):
        monkeypatch.setattr(verlinde, "_EXPONENTIAL", (Fraction(1),))
        for order in orders:
            assert _exponential_coefficients(order) == expected[: order + 1]
        assert verlinde._EXPONENTIAL == expected[: max(orders) + 1]


def test_exponential_integer_recurrence_matches_the_fraction_recurrence(monkeypatch):
    monkeypatch.setattr(verlinde, "_EXPONENTIAL", (Fraction(1),))
    assert _exponential_coefficients(300) == fraction_exponential_coefficients(300)


def test_exponential_table_only_grows(monkeypatch):
    # a short call extends the table to its own length, a long call extends
    # it from there (with the lcm of the short table as its start), and a
    # later short call reads a prefix of the long table
    expected = fraction_exponential_coefficients(120)
    monkeypatch.setattr(verlinde, "_EXPONENTIAL", (Fraction(1),))
    assert _exponential_coefficients(7) == expected[:8]
    assert verlinde._EXPONENTIAL == expected[:8]
    assert _exponential_coefficients(120) == expected
    long_table = verlinde._EXPONENTIAL
    assert long_table == expected
    assert _exponential_coefficients(7) == expected[:8]
    assert verlinde._EXPONENTIAL is long_table


# ------------------------------------------ residue: earlier series route


def _series_route_residue(g):
    """R(p, c) as the t^(2g-2) coefficient of the full bivariate series
    product [2pt/(e^(2pt)-1)] s((2c+1)t) s(t)^-(2g-1), the earlier route."""
    terms = range(2 * g - 1)
    exponential = series_inverse(
        [RingPolynomial({(k, 0): Fraction(2**k, math.factorial(k + 1))}, PC) for k in terms]
    )
    two_c_plus_one = RingPolynomial({(0, 1): 2, (0, 0): 1}, PC)
    width = [two_c_plus_one**k / math.factorial(k + 1) if k % 2 == 0 else 0 for k in terms]
    sinh_inverse = series_inverse(
        [Fraction(1, math.factorial(k + 1)) if k % 2 == 0 else 0 for k in terms]
    )
    product = series_mul(exponential, width)
    for _ in range(2 * g - 1):
        product = series_mul(product, sinh_inverse)
    return product[-1]


def _series_route_polynomial(g):
    half_sign = Fraction((-1) ** g, 2)
    two_c_plus_one = RingPolynomial({(0, 1): 2, (0, 0): 1}, PC)
    p = RingPolynomial.first(PC)
    return (
        p ** (g - 1) * (Fraction(4) ** (1 - g) * half_sign) * two_c_plus_one
        * _series_route_residue(g)
        - p**g * half_sign * binomial_poly_in_c(g)
    )


@pytest.mark.parametrize("g", range(1, 11))
def test_residue_matches_series_route(g):
    assert _residue_part(g) == _series_route_residue(g)
    assert verlinde_polynomial(g) == _series_route_polynomial(g)
    assert odd_color_polynomial(g) == substitute_half(_series_route_polynomial(g))


# ------------------------------------------------ fusion: iteration depth


def _fusion_matrix_power_route(g, p):
    """D_g at s = 1..d as K^(g-1) applied to (1..d), K^(g-1) built by
    square-and-multiply of the integer fusion matrix."""
    d = (p - 1) // 2
    table = fusion_table(p)

    def matmul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(d)) for j in range(d)] for i in range(d)]

    result = [[int(i == j) for j in range(d)] for i in range(d)]
    base, e = [list(row) for row in table], g - 1
    while e:
        if e & 1:
            result = matmul(result, base)
        base = matmul(base, base)
        e >>= 1
    return tuple(sum(result[s][y] * (y + 1) for y in range(d)) for s in range(d))


@pytest.mark.parametrize("g, p", [(1, 5), (2, 5), (7, 5), (40, 5), (1500, 5), (1200, 7)])
def test_fusion_deep_genus_matches_matrix_power(g, p):
    # genus 1500 overflowed the recursion limit when each genus recursed
    # into the one below
    expected = _fusion_matrix_power_route(g, p)
    assert tuple(fusion_dimension(g, p, s) for s in range(1, (p + 1) // 2)) == expected


@pytest.mark.parametrize("p", CHECK_LEVELS)
def test_fusion_walk_matches_matrix_power_at_every_genus(p):
    walk = list(islice(_fusion_walk(p), 12))
    assert walk == [_fusion_matrix_power_route(g, p) for g in range(1, 13)]
