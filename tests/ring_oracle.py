"""Sparse ring arithmetic on bivariate polynomials, for test oracles.

The package builds each `BivariatePolynomial` from an integer form and
then only reads it.  The tests build expected polynomials by sums,
products and powers, and evaluate them at rational points, where the
library folds only at integer levels; that arithmetic lives here, on
plain dicts {(i, j): Fraction}.  It reads a library polynomial only
through `terms()` and builds one only through the public constructor,
so it shares no code with the library's stored form.  `RingPolynomial`
is the library class with the ring operations added, and `ring(poly)`
lifts a library polynomial into it.  Equality and hashing are the
library's, so a `RingPolynomial` equals the `BivariatePolynomial` with
the same terms.
"""

from fractions import Fraction
from typing import Union

from skeindim.exact import BivariatePolynomial, RationalLike, _power, _q


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

    def _operand(self, other) -> Union[dict, None]:
        """The terms of `other`, an int or Fraction taken as a constant;
        None if it is no polynomial or scalar."""
        if isinstance(other, (int, Fraction)):
            return {(0, 0): other}
        if not isinstance(other, BivariatePolynomial):
            return None
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")
        return dict(other.terms())

    def __add__(self, other: Union[BivariatePolynomial, RationalLike]) -> "RingPolynomial":
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        out = dict(self.terms())
        for key, value in terms.items():
            out[key] = out.get(key, 0) + value
        return RingPolynomial(out, self.variables)

    __radd__ = __add__

    def __mul__(self, other: Union[BivariatePolynomial, RationalLike]) -> "RingPolynomial":
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        out: dict = {}
        for (i1, j1), a in self.terms():
            for (i2, j2), b in terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + a * b
        return RingPolynomial(out, self.variables)

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
        """Value at (x, y), the sum of the terms c x^i y^j in Fractions (the
        library's `fold_first` takes integer levels only)."""
        x, y = _q(first), _q(second)
        return sum((c * x**i * y**j for (i, j), c in self.terms()), Fraction(0))


def ring(poly: BivariatePolynomial) -> RingPolynomial:
    """The same polynomial as a `RingPolynomial`."""
    return RingPolynomial(dict(poly.terms()), poly.variables)
