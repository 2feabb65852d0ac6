"""Exact arithmetic in the cyclotomic field Q(zeta_2p) for odd p >= 3.

An element is an integer coefficient vector reduced modulo the monic
integer 2p-th cyclotomic polynomial Phi_2p, stored over one positive
denominator in the dense format of `exact._Dense`, which gives it
equality and hashing.  Its class holds the only ring arithmetic on the
package's values: negation, sums, differences, products, rational
multiples and nonnegative powers, all in integers, with a reduction
after each product.  The residue class of x, written A below, is a
primitive 2p-th root of unity: A^(2p) = 1 and A^p = -1.

The modulus is built from the Mobius form of Phi_p (Washington, ch. 2):
for odd p, Phi_2p(x) = Phi_p(-x) = prod_{d | p} (x^d + 1)^mu(p/d), each
factor two-term, so one sparse pass multiplies or exactly divides by it.
Reduction folds x^p to -1 before dividing by Phi_2p; that is sound since
Phi_2p divides x^p + 1 = prod_{d | p} Phi_2d.

Phi_2p is irreducible over Q, so every nonzero element is invertible,
but the field inverts only a difference of two roots with an even
exponent gap u - v = 2a, p not dividing a, and does so in closed form:

    1/(A^u - A^v) = A^-v (sum_{k=1..p-1} k A^(2ak)) / p,

since z = A^(2a) satisfies z^p = 1 and z != 1, so (z - 1) sum k z^k = p.
The quantum denominators of the skein module all have this shape: the
curve evaluations, D^2 = -p/(A^2 - A^-2)^2 and both flat-curve closed
forms.  So an element is only ever scaled by a rational and takes only
nonnegative powers; the tests hold a general extended-Euclid inverse as
the oracle for the closed form.

A sum of root powers sum c A^e with integer exponents of any sign, such
as a quantum integer, is built in one pass by `power_sum`.

The Galois group acts by sigma_k: A -> A^k for k coprime to 2p, an
exponent permutation.  `conjugate_sum` adds conjugates sigma_k(x) without
reducing each one: it maps the representative f(x) to f(x^k) with
exponents taken mod 2p, accumulates over one lcm denominator, and
reduces once.  The result does not depend on the representative, because
Phi_2p(x) divides Phi_2p(x^k) when k is coprime to 2p (sigma_k permutes
the primitive 2p-th roots of unity).  The curve evaluations use it to
sum whole Galois orbits of one power.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Mapping, Sequence

from .exact import RationalLike, _convolve, _Dense, _power, _q, _scaled

_IntPoly = tuple[int, ...]  # ascending integer coefficients


def _phi_2p(p: int) -> _IntPoly:
    """Integer coefficients (ascending) of Phi_2p(x), odd p >= 3, as the
    product of (x^d + 1)^mu(p/d) over the divisors d of p: the mu = +1
    factors multiply in, then each mu = -1 factor divides out exactly."""
    factors, rest = [(p, 1)], p  # (d, mu(p/d)) over squarefree p/d
    for q in range(3, p + 1, 2):
        if rest % q == 0:  # prime: every smaller prime is divided out
            factors += [(d // q, -mu) for d, mu in factors]
            while rest % q == 0:
                rest //= q
    poly = [1]
    for d, mu in sorted(factors, key=lambda factor: -factor[1]):
        if mu == 1:  # times x^d + 1, in place
            poly += [0] * d
            for i in range(len(poly) - 1, d - 1, -1):
                poly[i] += poly[i - d]
        else:  # divided by x^d + 1: the quotient overwrites poly
            for i in range(d, len(poly)):
                poly[i] -= poly[i - d]
            if any(poly[-d:]):
                raise AssertionError(f"x^{d} + 1 does not divide the product for p={p}")
            del poly[-d:]
    return tuple(poly)


def cyclotomic_field(p: int) -> CyclotomicField:
    """The field Q(zeta_2p) for odd p >= 3, built afresh on each call;
    fields compare and hash by p, so elements of separate builds mix."""
    return CyclotomicField(p)


class CyclotomicField:
    """Q(zeta_2p), represented as Q[x] modulo the 2p-th cyclotomic polynomial."""

    __slots__ = ("p", "modulus", "degree", "_modulus_tail")

    def __init__(self, p: int):
        if p < 3 or p % 2 == 0:
            raise ValueError("p must be an odd integer >= 3")
        self.p = p
        self.modulus: _IntPoly = _phi_2p(p)
        self.degree: int = len(self.modulus) - 1
        self._modulus_tail = tuple(
            (i, c) for i, c in enumerate(self.modulus[:-1]) if c
        )

    def _reduce(self, coeffs: Sequence[int]) -> list[int]:
        """Residue of an integer coefficient list modulo Phi_2p, at most
        `degree` ints.  Phi_2p divides x^p + 1, so x^p is first folded
        to -1; long division by the monic Phi_2p finishes the job."""
        p, degree = self.p, self.degree
        out = list(coeffs)
        for k in range(len(out) - 1, p - 1, -1):
            out[k - p] -= out[k]
        del out[p:]
        for k in range(len(out) - 1, degree - 1, -1):
            lead = out[k]
            if lead:
                offset = k - degree
                for i, c in self._modulus_tail:
                    out[offset + i] -= lead * c
        del out[degree:]
        return out

    def element(self, coefficients: Sequence[RationalLike]) -> CyclotomicElement:
        denominator, numerators = _scaled([_q(c) for c in coefficients])
        return CyclotomicElement(self, self._reduce(numerators), denominator)

    def from_rational(self, value: RationalLike) -> CyclotomicElement:
        return self.element((value,))

    def gen_power(self, k: int) -> CyclotomicElement:
        """A^k for any integer k (negative exponents use A^(2p) = 1)."""
        return self.power_sum({k: 1})

    def power_sum(self, terms: Mapping[int, int]) -> CyclotomicElement:
        """The element sum c A^e over the items (e, c) of terms, for any
        integer exponents e and integer coefficients c."""
        period = 2 * self.p
        coeffs = [0] * period
        for e, c in terms.items():
            coeffs[e % period] += c
        return CyclotomicElement(self, self._reduce(coeffs))

    def root_difference_inverse(self, u: int, v: int) -> CyclotomicElement:
        """1/(A^u - A^v) in closed form, for an even exponent gap u - v = 2a.

        z = A^(2a) satisfies z^p = 1, and z != 1 exactly when p does not
        divide a; then (z - 1) sum_{k=1..p-1} k z^k = p, so
        1/(A^u - A^v) = A^-v (sum_{k=1..p-1} k A^(2ak)) / p.
        Raises ZeroDivisionError when p divides a (A^u - A^v is zero) and
        ValueError for an odd gap, where the identity does not apply.
        """
        if (u - v) % 2:
            raise ValueError(f"exponent gap {u} - ({v}) is odd")
        p = self.p
        a = (u - v) // 2
        if a % p == 0:
            raise ZeroDivisionError(f"A^{u} - A^{v} vanishes at p={p}")
        numerator = self.power_sum({2 * a * k - v: k for k in range(1, p)})
        return numerator * Fraction(1, p)

    def conjugate_sum(
        self, pairs: Iterable[tuple[CyclotomicElement, int]]
    ) -> CyclotomicElement:
        """The sum of sigma_k(x) over the pairs (x, k), where sigma_k is the
        automorphism A -> A^k; raises ValueError unless gcd(k, 2p) = 1.

        sigma_k permutes exponents: the representative f(x) of x becomes
        f(x^k), with exponents taken mod 2p.  The conjugates accumulate
        over one lcm denominator and are reduced modulo Phi_2p once.
        That is sound because Phi_2p(x) divides Phi_2p(x^k) for k coprime
        to 2p, so f(x^k) mod Phi_2p does not depend on the representative.
        """
        period = 2 * self.p
        pairs = list(pairs)
        for element, k in pairs:
            if element.field != self:
                raise ValueError("element belongs to a different field")
            if math.gcd(k, period) != 1:
                raise ValueError(f"k = {k} is not coprime to 2p = {period}")
        denominator = math.lcm(*(element.denominator for element, _ in pairs))
        coeffs = [0] * period
        for element, k in pairs:
            scale = denominator // element.denominator
            for j, n in enumerate(element.numerators):
                if n:
                    coeffs[j * k % period] += n * scale
        return CyclotomicElement(self, self._reduce(coeffs), denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicField):
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash(("CyclotomicField", self.p))

    def __repr__(self) -> str:
        return f"CyclotomicField(p={self.p}, degree={self.degree})"


class CyclotomicElement(_Dense):
    """An element of Q(zeta_2p): integer numerators, already reduced modulo
    Phi_2p, over one positive denominator.  It mixes with ints and
    Fractions; elements of different fields compare unequal, and any
    arithmetic between them raises ValueError.  Sums run over the lcm of
    the two denominators, products over their product, and powers by
    `exact._power`."""

    __slots__ = ("field",)

    def __init__(
        self, field: CyclotomicField, numerators: Sequence[int], denominator: int = 1
    ):
        self.field = field
        super().__init__(numerators, denominator)

    def _like(self, numerators: Sequence[int], denominator: int) -> CyclotomicElement:
        return CyclotomicElement(self.field, numerators, denominator)

    def _coerce(self, other: object) -> CyclotomicElement | None:
        if isinstance(other, CyclotomicElement) and other.field != self.field:
            raise ValueError("elements belong to different fields")
        return super()._coerce(other)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Rational coefficients in the power basis 1, A, ..., A^(degree-1)."""
        return super().coefficients + (Fraction(0),) * (self.field.degree - len(self.numerators))

    def __mul__(self, other: object) -> CyclotomicElement:
        if isinstance(other, (int, Fraction)):
            scaled = [n * other.numerator for n in self.numerators]
            return self._like(scaled, self.denominator * other.denominator)
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        a, b = self.numerators, coerced.numerators
        if a.count(0) > b.count(0):  # loop over the sparser factor
            a, b = b, a
        return CyclotomicElement(
            self.field,
            self.field._reduce(_convolve(a, b)),
            self.denominator * coerced.denominator,
        )

    __rmul__ = __mul__

    def __neg__(self) -> CyclotomicElement:
        return self._like([-n for n in self.numerators], self.denominator)

    def __add__(self, other: object) -> CyclotomicElement:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        den = math.lcm(self.denominator, coerced.denominator)
        s, t = den // self.denominator, den // coerced.denominator
        pairs = zip_longest(self.numerators, coerced.numerators, fillvalue=0)
        return self._like([a * s + b * t for a, b in pairs], den)

    __radd__ = __add__

    def __sub__(self, other: object) -> CyclotomicElement:
        return self + (-other)

    def __pow__(self, exponent: int) -> CyclotomicElement:
        return _power(self, exponent, lambda: self._like((1,), 1))

    def embed(self, s: int = 1) -> complex:
        """Numerical image under A -> exp(i pi s / p); raises ValueError
        unless gcd(s, 2p) = 1 (a field embedding) and it is a finite float."""
        if math.gcd(s, 2 * self.field.p) != 1:
            raise ValueError(f"s = {s} is not coprime to 2p = {2 * self.field.p}")
        root = cmath.exp(1j * cmath.pi * s / self.field.p)
        message = f"embedding at s = {s} is not a finite float"
        value = 0j
        try:
            for k, n in enumerate(self.numerators):
                if n:
                    value += n / self.denominator * root**k
        except OverflowError:
            raise ValueError(message) from None
        if not cmath.isfinite(value):
            raise ValueError(message)
        return value

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coefficients)
        return f"CyclotomicElement(p={self.field.p}, [{body}])"
