"""Skein algebra of the solid torus and exact root-of-unity evaluations.

The solid-torus skein algebra is the polynomial ring in the core curve z.
Its standard basis {e_i} is Chebyshev-like:

    e_0 = 1 (the empty skein),  e_1 = z,  e_{i+1} = z e_i - e_{i-1},

with bracket values <e_i> = (-1)^i [i+1] in terms of quantum integers
[n] = (A^2n - A^-2n)/(A^2 - A^-2).  The surgery element at level p is
omega_p = sum_{i<d} <e_i> e_i with d = (p-1)/2, and the normalization
constant satisfies D^2 = -p/(A^2 - A^-2)^2.  Only D^2 is ever used here
(products of circles have odd first Betti number, so the choice of square
root never enters).

An annulus skein stores its e-coefficients in the dense format of
`exact._Dense`, which gives it equality and hashing; its one operation
is the product of two skeins, which checks the closed-form e-products
of `e_product` against an independent route.  Products in this algebra
convert to z-powers, multiply, and convert back, on the
stored integer numerators over the product of the two denominators:
Clenshaw's rule for sum c_i e_i and Horner's rule with
z e_i = e_(i+1) + e_(i-1) for the way back, so no table is stored and no
recursion depth grows with the index.  Each step of either rule builds
one list, the accumulator shifted up by one power, and adds the other
neighbour into it in place.

Evaluations of curves in a surface times a circle land in Q(zeta_2p) and
are computed exactly through the cyclotomic module.  Every quantum
denominator they need, D^2 and both flat-curve closed forms included, is
a root difference A^u - A^v with an even exponent gap, inverted by the
field's closed form R(u, v) = 1/(A^u - A^v).

The curve summands R(e, -e)^(2g-2) fall into Galois orbits: with
h = gcd(e, 2p) and k = e/h (mod 2p/h) lifted to a unit mod 2p, kh = e
(mod 2p), so sigma_k: A -> A^k maps R(h, -h) to R(e, -e).  One power is
built per divisor h of 2p and its conjugates are summed by
`CyclotomicField.conjugate_sum`, reduced modulo Phi_2p once; that is
sound because Phi_2p(x) divides Phi_2p(x^k) for k coprime to 2p.  An
even color m is recolored to the odd color p - 2 - m (BHMV), so every
color is one orbit sum.  The audit variant (`alternate_form=True`,
`--alternate-form`) runs the same route: its odd summands R(e, -(e+2))
are A R(e+1, -(e+1)).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .cyclotomic import CyclotomicElement, CyclotomicField
from .errors import VanishingDenominator
from .exact import _convolve, _Dense


def quantum_integer(n: int, field: CyclotomicField) -> CyclotomicElement:
    """The quantum integer [n] = (A^2n - A^-2n)/(A^2 - A^-2) in Q(zeta_2p),
    as the root-power sum A^(2n-2) + A^(2n-6) + ... + A^(2-2n); [-n] = -[n]."""
    sign = -1 if n < 0 else 1
    return field.power_sum({2 * abs(n) - 2 - 4 * k: sign for k in range(abs(n))})


def bracket_e(i: int, field: CyclotomicField) -> CyclotomicElement:
    """Bracket of the basis skein e_i: (-1)^i [i+1]."""
    if i < 0:
        raise ValueError("color must be nonnegative")
    value = quantum_integer(i + 1, field)
    return -value if i % 2 else value


def d_squared(field: CyclotomicField) -> CyclotomicElement:
    """The squared normalization constant -p/(A^2 - A^-2)^2, from the
    closed-form inverse of A^2 - A^-2."""
    inverse = field.root_difference_inverse(2, -2)
    return inverse * inverse * -field.p


# ------------------------------------------------------- annulus algebra


def _e_to_z(values: Sequence[int]) -> list[int]:
    """z-power coefficients of sum values[i] e_i, by Clenshaw's rule
    b_i = values[i] + z b_(i+1) - b_(i+2); the sum is b_0.  Each step
    builds values[i] + z b_(i+1) and subtracts b_(i+2) in place."""
    later: list[int] = []  # b_(i+1)
    last: list[int] = []  # b_(i+2), one entry shorter
    for value in reversed(values):
        step = [value, *later]
        for k, b in enumerate(last):
            step[k] -= b
        later, last = step, later
    return later


def _z_to_e(values: Sequence[int]) -> list[int]:
    """e-basis coefficients of sum values[k] z^k, by Horner's rule with
    z e_i = e_(i+1) + e_(i-1) (and z e_0 = e_1).  Each step builds
    values[k] + sum acc[i] e_(i+1) and adds acc[i] to e_(i-1) in place."""
    acc: list[int] = []
    for value in reversed(values):
        step = [value, *acc]
        for i in range(1, len(acc)):
            step[i - 1] += acc[i]
        acc = step
    return acc


class AnnulusSkein(_Dense):
    """A skein in the solid torus written in the e-basis: the numerators of
    its e-coefficients over one denominator, in the format of
    `exact._Dense`; `AnnulusSkein(values)` is sum values[i] e_i.  It
    multiplies only by another skein; a constant skein equals its value.

    Multiplication converts to the z-power basis, multiplies there, and
    converts back; the two conversions are mutually inverse.  All three
    steps run on the stored integers, over the product of the denominators.
    """

    __slots__ = ()

    @classmethod
    def basis_element(cls, i: int) -> AnnulusSkein:
        if i < 0:
            raise ValueError("basis index must be nonnegative")
        return cls((0,) * i + (1,), 1)

    e_coefficients = _Dense.coefficients

    def __mul__(self, other: object) -> AnnulusSkein:
        if not isinstance(other, AnnulusSkein):
            return NotImplemented
        prod = _convolve(_e_to_z(self.numerators), _e_to_z(other.numerators))
        return AnnulusSkein(_z_to_e(prod), self.denominator * other.denominator)

    def __repr__(self) -> str:
        body = " + ".join(
            f"{c}*e_{i}" for i, c in enumerate(self.e_coefficients) if c != 0
        )
        return f"AnnulusSkein({body or '0'})"


def e_product(i: int, j: int) -> AnnulusSkein:
    """The product e_i e_j in closed form: sum of e_k for k from |i - j|
    up to i + j in steps of two."""
    if i < 0 or j < 0:
        raise ValueError("basis indices must be nonnegative")
    coeffs = [0] * (i + j + 1)
    for k in range(abs(i - j), i + j + 1, 2):
        coeffs[k] = 1
    return AnnulusSkein(coeffs, 1)


# ------------------------------------------------- curve-evaluation checks


def flat_curve_check(
    g: int, field: CyclotomicField
) -> tuple[CyclotomicElement, CyclotomicElement]:
    """The two closed forms (lhs, rhs) for the invariant of a flat
    nonseparating curve colored 1, (-p/(A - A^-1)^2)^(g-1) and
    (D^2/<e_{d-1}>^2)^(g-1), each from its own root-difference inverse.

    lhs: 1/(A - A^-1), exponent gap 2.  rhs: D^2 from 1/(A^2 - A^-2) and
    1/<e_{d-1}>^2 = 1/[d]^2 with 1/[d] = (A^2 - A^-2)/(A^2d - A^-2d),
    exponent gap 4d = 2p - 2 (so z = A^-2).  The sign of <e_{d-1}> drops
    out of the square.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    lhs, rhs = _flat_curve_bases(field)
    return lhs ** (g - 1), rhs ** (g - 1)


@lru_cache(maxsize=64)
def _flat_curve_bases(
    field: CyclotomicField,
) -> tuple[CyclotomicElement, CyclotomicElement]:
    """The bases -p/(A - A^-1)^2 and D^2/<e_{d-1}>^2 of the two flat-curve
    closed forms, built once per level (fields compare and hash by p)."""
    inverse = field.root_difference_inverse(1, -1)
    d = (field.p - 1) // 2
    edge_inverse = (field.gen_power(2) - field.gen_power(-2)) * (
        field.root_difference_inverse(2 * d, -2 * d)
    )
    return inverse * inverse * -field.p, d_squared(field) * edge_inverse * edge_inverse


def recoloring_check(s: int, field: CyclotomicField) -> bool:
    """Bracket-level shadow of the recoloring rule: the odd color 2s - 1
    and the even color p - 2s - 1 have equal basis brackets."""
    d = (field.p - 1) // 2
    if not 1 <= s <= d:
        raise ValueError(f"s must lie in 1..{d}, got {s}")
    return bracket_e(2 * s - 1, field) == bracket_e(field.p - 2 * s - 1, field)


def eval_nonseparating_curve(
    g: int,
    m: int,
    field: CyclotomicField,
    alternate_form: bool = False,
) -> CyclotomicElement:
    """Invariant of a flat nonseparating curve colored m in a genus-g
    surface times a circle, as an exact element of Q(zeta_2p).

    Odd m:   sum_{i=1..(m+1)/2} (-p)^(g-1) R(2i-1, -(2i-1))^(2g-2).
    Even m:  the odd formula at the recolored color p - 2 - m (BHMV).

    Here R(u, v) = 1/(A^u - A^v), the closed-form root-difference inverse
    of the field (every gap u - v is even).
    The odd case at m = 1 reduces to the flat-curve closed form, which
    pins the sign of the inner exponent.

    The even value D_g(0) - sum_{i=1..m/2} (-p)^(g-1) R(2i, -2i)^(2g-2)
    sums the exponents 2i = m+2..p-1, since D_g(0) sums all d of them,
    and A^p = -1 gives R(p - e, -(p - e)) = R(e, -e).

    The summands form Galois orbits.  Write e for an exponent and
    h = gcd(e, 2p).  Lift e/h, a unit modulo 2p/h, to the smallest
    k = e/h (mod 2p/h) coprime to 2p; then kh = e (mod 2p), so the
    automorphism sigma_k: A -> A^k sends R(h, -h) to R(e, -e), and it
    fixes the rational (-p)^(g-1).  So one power R(h, -h)^(2g-2) is built
    per divisor h of 2p, and `CyclotomicField.conjugate_sum` adds all its
    conjugates with a single reduction modulo Phi_2p.

    `alternate_form=True` is for audit only: it reads the second exponent
    of the odd denominator as -(2i+1) (that variant does not match the
    m = 1 closed form).  Since A^e - A^-(e+2) = A^-1 (A^(e+1) - A^-(e+1)),
    each such summand is A^(2g-2) R(e+1, -(e+1))^(2g-2), so the variant
    sums the orbits of the even exponents 2..m+1 and multiplies by
    A^(2g-2).  For even m the flag changes nothing.

    Raises VanishingDenominator for a color above p - 2 (the colors that
    `dimension` rejects), before any summand is built; no quantum
    denominator vanishes at colors 0..p-2.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    if m < 0:
        raise ValueError("color must be nonnegative")

    p = field.p
    if m > p - 2:
        raise VanishingDenominator(
            f"vanishing quantum denominator at p={p}, color {m} "
            f"(colors run 0..{p - 2})"
        )
    if m % 2 == 0:  # recolor; the alternate reading is for odd colors
        m, alternate_form = p - 2 - m, False
    # e runs up to m + 1 <= p - 1, so no half-gap e is a multiple of p
    exponents = range(2, m + 2, 2) if alternate_form else range(1, m + 1, 2)
    period = 2 * p
    powers: dict[int, CyclotomicElement] = {}
    pairs = []
    for e in exponents:
        h = math.gcd(e, period)
        if h not in powers:
            powers[h] = field.root_difference_inverse(h, -h) ** (2 * g - 2)
        k = e // h  # a unit mod 2p/h, lifted to a unit mod 2p
        while math.gcd(k, period) != 1:
            k += period // h
        pairs.append((powers[h], k))
    total = field.conjugate_sum(pairs)
    if alternate_form:
        total = total * field.gen_power(2 * g - 2)
    return total * (-p) ** (g - 1)
