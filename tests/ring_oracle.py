"""Sparse ring arithmetic on bivariate polynomials, for test oracles.

The package builds each `BivariatePolynomial` from an integer form and
then only reads it.  The tests build expected polynomials by sums,
products and powers, and evaluate them at rational points; that
arithmetic lives here.  `RingPolynomial` is the library class with the
ring operations added, and `ring(poly)` lifts a library polynomial into
it.  Equality and hashing are the library's, so a `RingPolynomial` equals
the `BivariatePolynomial` with the same terms.
"""

import math
from fractions import Fraction
from typing import Union

from skeindim.exact import BivariatePolynomial, RationalLike, _horner, _power, _q


class RingPolynomial(BivariatePolynomial):
    """A `BivariatePolynomial` with +, -, *, / by a scalar, ** and
    evaluation.  Arithmetic between two polynomials requires identical
    variable pairs; every result is a `RingPolynomial`."""

    __slots__ = ()

    @classmethod
    def zero(cls, variables: tuple[str, str] = ("p", "c")) -> "RingPolynomial":
        return cls({}, variables)

    @classmethod
    def constant(cls, value: RationalLike, variables: tuple[str, str] = ("p", "c")) -> "RingPolynomial":
        return cls({(0, 0): value}, variables)

    @classmethod
    def first(cls, variables: tuple[str, str] = ("p", "c")) -> "RingPolynomial":
        return cls({(1, 0): 1}, variables)

    def _check_compatible(self, other: BivariatePolynomial) -> None:
        if self._vars != other._vars:
            raise ValueError(f"variable mismatch: {self._vars} vs {other._vars}")

    def __add__(self, other: Union[BivariatePolynomial, RationalLike]) -> "RingPolynomial":
        if isinstance(other, (int, Fraction)):
            other = RingPolynomial.constant(other, self._vars)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        self._check_compatible(other)
        den = math.lcm(self.denominator, other.denominator)
        s, t = den // self.denominator, den // other.denominator
        out = {key: n * s for key, n in self._terms.items()}
        for key, n in other._terms.items():
            out[key] = out.get(key, 0) + n * t
        return RingPolynomial(out, self._vars, den)

    __radd__ = __add__

    def __mul__(self, other: Union[BivariatePolynomial, RationalLike]) -> "RingPolynomial":
        if isinstance(other, (int, Fraction)):
            other = RingPolynomial.constant(other, self._vars)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        self._check_compatible(other)
        out: dict = {}
        for (i1, j1), a in self._terms.items():
            for (i2, j2), b in other._terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + a * b
        return RingPolynomial(out, self._vars, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __neg__(self) -> "RingPolynomial":
        return self * -1

    def __sub__(self, other) -> "RingPolynomial":
        return self + (-other)

    def __rsub__(self, other) -> "RingPolynomial":
        return (-self) + other

    def __truediv__(self, scalar: RationalLike) -> "RingPolynomial":
        return self * (Fraction(1) / _q(scalar))

    def __pow__(self, exponent: int) -> "RingPolynomial":
        return _power(self, exponent, lambda: self * 0 + 1)

    def __call__(self, first: RationalLike, second: RationalLike) -> Fraction:
        """Value at (first, c/d): fold_first, then the integer Horner rule
        at c/d over the denominator D d^m."""
        denominator, values = self.fold_first(first)
        y = _q(second)
        return Fraction(
            _horner(values, y.numerator, y.denominator),
            denominator * y.denominator ** (len(values) - 1),
        )


def ring(poly: BivariatePolynomial) -> RingPolynomial:
    """The same polynomial as a `RingPolynomial`."""
    return RingPolynomial(poly._terms, poly.variables, poly.denominator)
