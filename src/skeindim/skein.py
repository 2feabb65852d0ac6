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

Evaluations of curves in a surface times a circle land in Q(zeta_2p) and
are computed exactly through the cyclotomic module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from dataclasses import dataclass
from typing import Iterable, Union

from .cyclotomic import (
    CyclotomicElement,
    CyclotomicField,
    cyclotomic_field,
    quantum_integer_laurent,
)
from .exact import RationalLike, _q


class VanishingDenominator(ZeroDivisionError):
    """A curve-evaluation summand has a vanishing quantum denominator;
    the color is too large for the level p."""


def quantum_integer(n: int, field: CyclotomicField) -> CyclotomicElement:
    """The quantum integer [n] evaluated in Q(zeta_2p); [-n] = -[n]."""
    return quantum_integer_laurent(n).specialize(field)


def bracket_e(i: int, field: CyclotomicField) -> CyclotomicElement:
    """Bracket of the basis skein e_i: (-1)^i [i+1]."""
    if i < 0:
        raise ValueError("color must be nonnegative")
    value = quantum_integer(i + 1, field)
    return -value if i % 2 else value


def omega_coefficients(p: int) -> tuple[CyclotomicElement, ...]:
    """Coefficients (<e_0>, ..., <e_{d-1}>) of the surgery element at
    level p, with d = (p-1)/2."""
    field = cyclotomic_field(p)
    d = (p - 1) // 2
    return tuple(bracket_e(i, field) for i in range(d))


def d_squared(field: CyclotomicField) -> CyclotomicElement:
    """The squared normalization constant -p/(A^2 - A^-2)^2."""
    delta = field.gen_power(2) - field.gen_power(-2)
    return field.from_rational(-field.p) * (delta * delta).inverse()


# ------------------------------------------------------- annulus algebra


@lru_cache(maxsize=None)
def _e_in_z(i: int) -> tuple[Fraction, ...]:
    """e_i expanded in powers of z (integer coefficients)."""
    if i == 0:
        return (Fraction(1),)
    if i == 1:
        return (Fraction(0), Fraction(1))
    prev, prev2 = _e_in_z(i - 1), _e_in_z(i - 2)
    out = [Fraction(0)] * (i + 1)
    for k, c in enumerate(prev):
        out[k + 1] += c
    for k, c in enumerate(prev2):
        out[k] -= c
    return tuple(out)


@lru_cache(maxsize=None)
def _z_power_in_e(k: int) -> tuple[Fraction, ...]:
    """z^k expanded in the e-basis, via z e_i = e_{i+1} + e_{i-1}."""
    if k == 0:
        return (Fraction(1),)
    prev = _z_power_in_e(k - 1)
    out = [Fraction(0)] * (k + 1)
    for i, c in enumerate(prev):
        if c == 0:
            continue
        out[i + 1] += c
        if i >= 1:
            out[i - 1] += c
    return tuple(out)


class AnnulusSkein:
    """A skein in the solid torus written in the e-basis.

    Multiplication converts to the z-power basis, multiplies there, and
    converts back; the two conversions are mutually inverse.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, e_coefficients: Iterable[RationalLike] = ()):
        coeffs = [_q(c) for c in e_coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> AnnulusSkein:
        return cls(())

    @classmethod
    def basis_element(cls, i: int) -> AnnulusSkein:
        if i < 0:
            raise ValueError("basis index must be nonnegative")
        return cls((0,) * i + (1,))

    @classmethod
    def from_z_coefficients(cls, z_coefficients: Iterable[RationalLike]) -> AnnulusSkein:
        total: dict[int, Fraction] = {}
        for k, c in enumerate(z_coefficients):
            c = _q(c)
            if c == 0:
                continue
            for i, w in enumerate(_z_power_in_e(k)):
                if w != 0:
                    total[i] = total.get(i, Fraction(0)) + c * w
        size = max(total, default=-1) + 1
        out = [Fraction(0)] * size
        for i, c in total.items():
            out[i] = c
        return cls(out)

    @property
    def e_coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def to_z_coefficients(self) -> tuple[Fraction, ...]:
        total: dict[int, Fraction] = {}
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            for k, w in enumerate(_e_in_z(i)):
                if w != 0:
                    total[k] = total.get(k, Fraction(0)) + c * w
        size = max(total, default=-1) + 1
        out = [Fraction(0)] * size
        for k, c in total.items():
            out[k] = c
        return tuple(out)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnnulusSkein):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: AnnulusSkein) -> AnnulusSkein:
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return AnnulusSkein(out)

    def __mul__(self, other: Union[AnnulusSkein, RationalLike]) -> AnnulusSkein:
        if isinstance(other, (int, Fraction)):
            scalar = _q(other)
            return AnnulusSkein(c * scalar for c in self._coeffs)
        if not isinstance(other, AnnulusSkein):
            return NotImplemented
        za, zb = self.to_z_coefficients(), other.to_z_coefficients()
        if not za or not zb:
            return AnnulusSkein.zero()
        prod = [Fraction(0)] * (len(za) + len(zb) - 1)
        for i, a in enumerate(za):
            if a == 0:
                continue
            for j, b in enumerate(zb):
                prod[i + j] += a * b
        return AnnulusSkein.from_z_coefficients(prod)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = " + ".join(
            f"{c}*e_{i}" for i, c in enumerate(self._coeffs) if c != 0
        )
        return f"AnnulusSkein({body or '0'})"


def e_product(i: int, j: int) -> AnnulusSkein:
    """The product e_i e_j in closed form: sum of e_k for k from |i - j|
    up to i + j in steps of two."""
    if i < 0 or j < 0:
        raise ValueError("basis indices must be nonnegative")
    coeffs = [Fraction(0)] * (i + j + 1)
    for k in range(abs(i - j), i + j + 1, 2):
        coeffs[k] = Fraction(1)
    return AnnulusSkein(coeffs)


# ------------------------------------------------- curve-evaluation checks


@dataclass(frozen=True)
class FlatCurveCheck:
    """Two closed forms for the invariant of a flat nonseparating curve
    colored 1: (-p/(A - A^-1)^2)^(g-1) and (D^2/<e_{d-1}>^2)^(g-1)."""

    lhs: CyclotomicElement
    rhs: CyclotomicElement

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def flat_curve_check(g: int, field: CyclotomicField) -> FlatCurveCheck:
    if g < 1:
        raise ValueError("genus must be at least 1")
    delta = field.gen_power(1) - field.gen_power(-1)
    lhs_base = field.from_rational(-field.p) * (delta * delta).inverse()
    lhs = lhs_base ** (g - 1)
    d = (field.p - 1) // 2
    edge = bracket_e(d - 1, field)
    rhs_base = d_squared(field) * (edge * edge).inverse()
    rhs = rhs_base ** (g - 1)
    return FlatCurveCheck(lhs=lhs, rhs=rhs)


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

    Even m:  D_g(0) - sum_{i=1..m/2} (-p)^(g-1) / (A^2i - A^-2i)^(2g-2).
    Odd m:   sum_{i=1..(m+1)/2} (-p)^(g-1) / (A^(2i-1) - A^-(2i-1))^(2g-2).

    The odd case at m = 1 reduces to the flat-curve closed form, which
    pins the sign of the inner exponent; `alternate_form=True` switches
    the second exponent of the odd denominator to -(2i+1) for audit
    comparison (that variant does not match the m = 1 closed form).

    Every denominator A^u - A^v has an even exponent gap, so each summand
    is built from the closed-form root-difference inverse of the field,
    without a general (Euclidean) inverse.

    Raises VanishingDenominator for a color above p - 2 (the colors that
    `dimension` rejects), before any summand is built; no quantum
    denominator vanishes at colors 0..p-2.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    if m < 0:
        raise ValueError("color must be nonnegative")
    from .verlinde import dimension  # deferred to avoid a module cycle

    p = field.p
    if m > p - 2:
        raise VanishingDenominator(
            f"vanishing quantum denominator at p={p}, color {m} "
            f"(colors run 0..{p - 2})"
        )
    prefactor = (-p) ** (g - 1)

    def summand(u: int, v: int) -> CyclotomicElement:
        # the gap (u - v)/2 lies in 1..m+1 <= p-1, so p never divides it
        return prefactor * field.root_difference_inverse(u, v) ** (2 * g - 2)

    if m % 2 == 0:
        total = field.from_rational(dimension(g, p, 0))
        for i in range(1, m // 2 + 1):
            total = total - summand(2 * i, -2 * i)
        return total
    total = field.zero()
    for i in range(1, (m + 1) // 2 + 1):
        low = -(2 * i + 1) if alternate_form else -(2 * i - 1)
        total = total + summand(2 * i - 1, low)
    return total
