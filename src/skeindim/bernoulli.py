"""Bernoulli numbers, Bernoulli polynomials, and Faulhaber power sums.

Conventions are fixed by the generating function t/(e^t - 1):

    B_0 = 1,  B_1 = -1/2,  B_n = 0 for odd n >= 3,  B_{2n} != 0.

The alternative B_1 = +1/2 convention is deliberately not supported; the
sign shows up in every downstream identity (half-value identity, Faulhaber
sums, leading-term coefficients), so a convention slip would surface as a
cascade of exact-equality failures.

The numbers live in one module-level table that the recurrence extends on
demand, in integer arithmetic over the lcm of the denominators so far;
each call returns a slice of it, so a table of any length costs only the
numbers not yet computed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import FaulhaberInconsistency
from .exact import UnivariatePolynomial, _shift


#: B_0, B_1, ... as far as any call has needed.  Calls replace it with a
#: longer tuple and never change one in place, so a racing call can only
#: redo work.
_NUMBERS: tuple[Fraction, ...] = (Fraction(1),)


def bernoulli_numbers(max_index: int) -> tuple[Fraction, ...]:
    """The tuple (B_0, ..., B_max_index) by the recurrence
    B_n = -1/(n+1) * sum_{k<n} binom(n+1, k) B_k,  B_0 = 1,
    which is sum_{k<=n} binom(n+1, k) B_k = 0, the coefficient of t^(n+1)
    in (e^t - 1) * t/(e^t - 1) = t.  The sum runs on ints: the nonzero
    B_k as numerators over L, the lcm of their denominators, so each new
    B_n is one Fraction, and L grows with it.  The one module-level table
    grows to max_index on demand, and the result is a slice of it.
    """
    global _NUMBERS
    if max_index < 0:
        raise ValueError("max_index must be nonnegative")
    numbers = _NUMBERS
    if len(numbers) <= max_index:
        values = list(numbers)
        scale = math.lcm(*[v.denominator for v in values])
        scaled = [(k, v.numerator * (scale // v.denominator)) for k, v in enumerate(values) if v]
        for n in range(len(values), max_index + 1):
            value = Fraction(-sum(math.comb(n + 1, k) * v for k, v in scaled), (n + 1) * scale)
            values.append(value)
            if value:
                grown = math.lcm(scale, value.denominator)
                if grown != scale:
                    scaled = [(k, v * (grown // scale)) for k, v in scaled]
                    scale = grown
                scaled.append((n, value.numerator * (scale // value.denominator)))
        numbers = _NUMBERS = tuple(values)
    return numbers[: max_index + 1]


def bernoulli_number(k: int) -> Fraction:
    return bernoulli_numbers(k)[k]


def bernoulli_polynomial(m: int) -> UnivariatePolynomial:
    """B_m(x) = sum_l binom(m, l) x^(m-l) B_l; monic of degree m."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    table = bernoulli_numbers(m)
    coeffs = [Fraction(0)] * (m + 1)
    for ell in range(m + 1):
        coeffs[m - ell] = math.comb(m, ell) * table[ell]
    return UnivariatePolynomial(coeffs)


def bernoulli_half_value(m: int) -> Fraction:
    """B_m evaluated at 1/2 via the explicit polynomial.

    Satisfies B_m(1/2) = (2^(1-m) - 1) B_m; the test suite pins this
    identity rather than this function assuming it.
    """
    return bernoulli_polynomial(m)(Fraction(1, 2))


def _faulhaber_via_bernoulli_sum(m: int) -> UnivariatePolynomial:
    # N^m/2 + (1/(m+1)) * sum_j binom(m+1, 2j) B_{2j} N^(m+1-2j): the
    # exponents m + 1 - 2j are distinct and never m, so each is one entry
    table = bernoulli_numbers(m + 1)
    coeffs = [Fraction(0)] * (m + 2)
    coeffs[m] = Fraction(1, 2)
    for j in range(m // 2 + 1):
        coeffs[m + 1 - 2 * j] = math.comb(m + 1, 2 * j) * table[2 * j] / (m + 1)
    return UnivariatePolynomial(coeffs)


def _faulhaber_via_polynomial_difference(m: int) -> UnivariatePolynomial:
    # (B_{m+1}(N+1) - B_{m+1}) / (m+1), with B_{m+1}(N+1) by the Taylor
    # shift of the numerators and B_{m+1} their constant term
    b_poly = bernoulli_polynomial(m + 1)
    shifted = list(b_poly.numerators)
    _shift(shifted)
    shifted[0] -= b_poly.numerators[0]
    return UnivariatePolynomial(shifted, (m + 1) * b_poly.denominator)


def faulhaber_poly(m: int) -> UnivariatePolynomial:
    """The polynomial in N equal to 1^m + 2^m + ... + N^m.

    Computed by two independent routes (even-Bernoulli sum and Bernoulli
    polynomial difference) which must agree exactly; disagreement raises
    FaulhaberInconsistency instead of returning either candidate.
    """
    if m < 1:
        raise ValueError("exponent must be at least 1")
    first = _faulhaber_via_bernoulli_sum(m)
    second = _faulhaber_via_polynomial_difference(m)
    if first != second:
        raise FaulhaberInconsistency(
            f"power-sum closed forms disagree at exponent {m}: "
            f"{first.render('N')} vs {second.render('N')}"
        )
    return first
