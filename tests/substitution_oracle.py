"""Affine substitution, composition and the binomial part of D_g, for
test oracles.

The package builds D_g and the odd-color polynomial from one integer
(p, u) form by Taylor shifts, of each p-row and of each total-degree
group; these routes reach the same polynomials by substituting into
bivariate polynomials.  It changes the variable of a univariate
polynomial only by the same shift, and `compose` reaches those results
by substituting one univariate polynomial into another.
"""

import math
from fractions import Fraction

from ring_oracle import RingPolynomial
from skeindim.exact import UnivariatePolynomial


def compose(outer, inner):
    """outer(inner) for two UnivariatePolynomials, by Horner's rule on
    Fraction lists: acc <- acc * inner + c for the coefficients c of
    outer, highest first."""
    acc = []
    for c in reversed(outer.coefficients):
        product = [Fraction(0)] * max(len(acc) + len(inner.coefficients) - 1, 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(inner.coefficients):
                product[i + j] += a * b
        product[0] += c
        acc = product
    return UnivariatePolynomial(acc)


def _integer_rows(terms):
    """(L, rows) with L the lcm of the coefficient denominators and
    rows[i][j] = L * coeff(i, j), ints dense over 0..max i by 0..max j."""
    scale = math.lcm(*[coeff.denominator for coeff in terms.values()])
    width = max(j for _, j in terms) + 1
    rows = [[0] * width for _ in range(max(i for i, _ in terms) + 1)]
    for (i, j), coeff in terms.items():
        rows[i][j] = coeff.numerator * (scale // coeff.denominator)
    return scale, rows


def substitute_affine(poly, alpha, beta, gamma, delta, new_second):
    """Exact substitution second <- (alpha*first + beta + gamma*new) / delta,
    into the variable pair (first, new).

    Horner's rule in the second variable builds the integer numerator
    sum_j L*q_j delta^(n-j) (alpha*first + beta + gamma*new)^j, with q_j the
    coefficient of second^j and L the lcm of all coefficient denominators;
    the one division by L delta^n comes last.
    """
    target = (poly.variables[0], new_second)
    if not poly:
        return RingPolynomial.zero(target)
    scale, rows = _integer_rows(dict(poly.terms()))
    n = len(rows[0]) - 1
    acc = {}
    for j in range(n, -1, -1):
        step = {(i, 0): row[j] * delta ** (n - j) for i, row in enumerate(rows) if row[j]}
        for (i, k), value in acc.items():
            for key, factor in (((i + 1, k), alpha), ((i, k), beta), ((i, k + 1), gamma)):
                if factor:
                    step[key] = step.get(key, 0) + value * factor
        acc = step
    return RingPolynomial(
        {key: Fraction(value, scale * delta**n) for key, value in acc.items()}, target
    )


def substitute_half(poly, new_second="s"):
    """Exact substitution second <- (first - 1)/2 - new_second, the passage
    from the even-color variable c to the odd-color variable s."""
    return substitute_affine(poly, 1, -1, -2, 2, new_second)


def binomial_poly_in_c(g, variables=("p", "c")):
    """binom(c + g - 1, 2g - 2) expanded as a polynomial in c (no p terms):
    (c+g-1)(c+g-2)...(c-g+2) / (2g-2)!, the empty product 1 at g = 1."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    k = 2 * g - 2
    c = RingPolynomial({(0, 1): 1}, variables)
    product = RingPolynomial.constant(1, variables)
    for t in range(k):
        product = product * (c + (g - 1 - t))
    return product / Fraction(math.factorial(k))
