"""Exact arithmetic kernel: rationals, polynomials and exact matrix rank.

Every stored scalar is a `fractions.Fraction`; no floating point enters
any computation.  Polynomials keep canonical forms (no stored zero
coefficients, stripped trailing zeros), so structural predicates such as
"degree exactly n" or "only even powers of p" are decided exactly.

Dense products of ascending coefficient lists, whether Fractions or ints,
go through one convolution, `_convolve`; it serves the univariate
polynomials here, the cyclotomic elements and the annulus skeins.

Evaluation runs on integers over one common denominator (the lcm L of
the coefficient denominators) and builds a Fraction only at the end:
fold_first(a/b) fixes the first variable, giving the integer polynomial
sum_i L*coeff a^i b^(n-i) in the second over L b^n.
BivariatePolynomial(a/b, c/d) is that fold, then Horner at c/d;
UnivariatePolynomial(a/b) is the same rule.

Representations:

  UnivariatePolynomial  dense coefficient tuple, lowest degree first.
  BivariatePolynomial   sparse dict {(i, j): coeff} with a named variable
                        pair such as ("p", "c"); many of the polynomials
                        produced downstream are structurally sparse.
  integer rows          the input of `rank` (Bareiss); rational rows are
                        scaled to integers first with `_scaled`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

RationalLike = Union[Fraction, int]

#: Degree of the zero polynomial.  A float sentinel, never an int, so a
#: check like ``poly.degree == 0`` is unambiguously false for it.
NEG_INFINITY = float("-inf")


def _q(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _scaled(values: Sequence[Fraction]):
    """The pair (L, [L*v for v in values]) of an int and a list of ints,
    with L the lcm of the denominators."""
    scale = math.lcm(*[v.denominator for v in values])
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _format_terms(terms: Sequence[tuple[Fraction, str]]) -> str:
    """Join (coefficient, monomial) pairs into the canonical text form.

    The first term carries its own sign ("-1/2"); later terms are joined
    with " + " or " - ".  A coefficient of magnitude one is dropped in
    front of a nonempty monomial.
    """
    if not terms:
        return "0"
    parts: list[str] = []
    for index, (coeff, mono) in enumerate(terms):
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        if mono and magnitude == 1:
            body = mono
        elif mono:
            body = f"{magnitude}*{mono}"
        else:
            body = str(magnitude)
        if index == 0:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def _convolve(a: Sequence, b: Sequence) -> list:
    """Ascending coefficients of the product of two ascending coefficient
    lists, skipping the zero entries of a (pass the sparser factor as a)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _power(base, exponent: int, one):
    """base^exponent by square-and-multiply, starting from `one`."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


class UnivariatePolynomial:
    """Dense univariate polynomial over the rationals.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial has an empty coefficient tuple and degree ``NEG_INFINITY``.
    Instances are immutable and hashable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [_q(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(coeffs)

    @classmethod
    def zero(cls) -> UnivariatePolynomial:
        return cls(())

    @classmethod
    def constant(cls, value: RationalLike) -> UnivariatePolynomial:
        return cls((value,))

    @classmethod
    def monomial(cls, degree: int, coefficient: RationalLike = 1) -> UnivariatePolynomial:
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coefficient,))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> Union[int, float]:
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    @property
    def leading_coefficient(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def coefficient(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("coefficient index must be nonnegative")
        return self._coeffs[k] if k < len(self._coeffs) else Fraction(0)

    def exponents(self) -> set[int]:
        return {k for k, c in enumerate(self._coeffs) if c != 0}

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UnivariatePolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == UnivariatePolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        # A constant polynomial equals its value, so it must hash like it.
        if len(self._coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(self._coeffs)

    def __neg__(self) -> UnivariatePolynomial:
        return UnivariatePolynomial(-c for c in self._coeffs)

    def __add__(self, other: Union[UnivariatePolynomial, RationalLike]) -> UnivariatePolynomial:
        if isinstance(other, (int, Fraction)):
            other = UnivariatePolynomial.constant(other)
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return UnivariatePolynomial(out)

    __radd__ = __add__

    def __sub__(self, other: Union[UnivariatePolynomial, RationalLike]) -> UnivariatePolynomial:
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> UnivariatePolynomial:
        return (-self) + other

    def __mul__(self, other: Union[UnivariatePolynomial, RationalLike]) -> UnivariatePolynomial:
        if isinstance(other, (int, Fraction)):
            scalar = _q(other)
            return UnivariatePolynomial(c * scalar for c in self._coeffs)
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return UnivariatePolynomial(_convolve(self._coeffs, other._coeffs))

    __rmul__ = __mul__

    def __truediv__(self, scalar: RationalLike) -> UnivariatePolynomial:
        return self * (Fraction(1) / _q(scalar))

    def __pow__(self, exponent: int) -> UnivariatePolynomial:
        return _power(self, exponent, UnivariatePolynomial.constant(1))

    def __call__(
        self, point: Union[RationalLike, UnivariatePolynomial]
    ) -> Union[Fraction, UnivariatePolynomial]:
        """Evaluate at a rational point, or compose with another polynomial."""
        if isinstance(point, UnivariatePolynomial):
            acc: UnivariatePolynomial = UnivariatePolynomial.zero()
            for c in reversed(self._coeffs):
                acc = acc * point + c
            return acc
        x = _q(point)
        scale, values = _scaled(self._coeffs or (0,))
        total = _horner(values, x.numerator, x.denominator)
        return Fraction(total, scale * x.denominator ** (len(values) - 1))

    def render(self, var: str = "x") -> str:
        terms = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if k == 0:
                mono = ""
            elif k == 1:
                mono = var
            else:
                mono = f"{var}^{k}"
            terms.append((c, mono))
        return _format_terms(terms)

    def __repr__(self) -> str:
        return f"UnivariatePolynomial({self.render()})"


class BivariatePolynomial:
    """Sparse exact polynomial in two named variables.

    Terms map exponent pairs (i, j) to nonzero rational coefficients where
    i is the power of the first variable and j of the second.  Arithmetic
    between two polynomials requires identical variable pairs.
    """

    __slots__ = ("_terms", "_vars")

    def __init__(
        self,
        terms: Mapping[tuple[int, int], RationalLike] | None = None,
        variables: tuple[str, str] = ("p", "c"),
    ):
        if len(variables) != 2 or variables[0] == variables[1]:
            raise ValueError("need two distinct variable names")
        cleaned: dict[tuple[int, int], Fraction] = {}
        for (i, j), value in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            coeff = _q(value)
            if coeff != 0:
                cleaned[(i, j)] = coeff
        self._terms = cleaned
        self._vars = (str(variables[0]), str(variables[1]))

    @classmethod
    def zero(cls, variables: tuple[str, str] = ("p", "c")) -> BivariatePolynomial:
        return cls({}, variables)

    @classmethod
    def constant(cls, value: RationalLike, variables: tuple[str, str] = ("p", "c")) -> BivariatePolynomial:
        return cls({(0, 0): value}, variables)

    @classmethod
    def first(cls, variables: tuple[str, str] = ("p", "c")) -> BivariatePolynomial:
        return cls({(1, 0): 1}, variables)

    @classmethod
    def second(cls, variables: tuple[str, str] = ("p", "c")) -> BivariatePolynomial:
        return cls({(0, 1): 1}, variables)

    @property
    def variables(self) -> tuple[str, str]:
        return self._vars

    @property
    def total_degree(self) -> Union[int, float]:
        if not self._terms:
            return NEG_INFINITY
        return max(i + j for i, j in self._terms)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def terms(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Terms in graded order: total degree ascending, then powers of the
        first variable descending (so p precedes c within a degree)."""
        for key in sorted(self._terms, key=lambda ij: (ij[0] + ij[1], ij[1])):
            yield key, self._terms[key]

    def exponents(self, axis: int) -> set[int]:
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        return {key[axis] for key in self._terms}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivariatePolynomial):
            return self._vars == other._vars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == BivariatePolynomial.constant(other, self._vars)
        return NotImplemented

    def __hash__(self) -> int:
        # A constant polynomial equals its value, so it must hash like it.
        if self._terms.keys() <= {(0, 0)}:
            return hash(self.coefficient(0, 0))
        return hash((self._vars, frozenset(self._terms.items())))

    def _check_compatible(self, other: BivariatePolynomial) -> None:
        if self._vars != other._vars:
            raise ValueError(f"variable mismatch: {self._vars} vs {other._vars}")

    def __neg__(self) -> BivariatePolynomial:
        return BivariatePolynomial({k: -v for k, v in self._terms.items()}, self._vars)

    def __add__(self, other: Union[BivariatePolynomial, RationalLike]) -> BivariatePolynomial:
        if isinstance(other, (int, Fraction)):
            other = BivariatePolynomial.constant(other, self._vars)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for key, value in other._terms.items():
            out[key] = out.get(key, Fraction(0)) + value
        return BivariatePolynomial(out, self._vars)

    __radd__ = __add__

    def __sub__(self, other: Union[BivariatePolynomial, RationalLike]) -> BivariatePolynomial:
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> BivariatePolynomial:
        return (-self) + other

    def __mul__(self, other: Union[BivariatePolynomial, RationalLike]) -> BivariatePolynomial:
        if isinstance(other, (int, Fraction)):
            scalar = _q(other)
            return BivariatePolynomial(
                {k: v * scalar for k, v in self._terms.items()}, self._vars
            )
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        self._check_compatible(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), a in self._terms.items():
            for (i2, j2), b in other._terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + a * b
        return BivariatePolynomial(out, self._vars)

    __rmul__ = __mul__

    def __truediv__(self, scalar: RationalLike) -> BivariatePolynomial:
        return self * (Fraction(1) / _q(scalar))

    def __pow__(self, exponent: int) -> BivariatePolynomial:
        return _power(self, exponent, BivariatePolynomial.constant(1, self._vars))

    def __call__(self, first: RationalLike, second: RationalLike) -> Fraction:
        """Value at (first, c/d): fold_first, then the integer Horner rule
        at c/d over the denominator D d^m."""
        denominator, values = self.fold_first(first)
        y = _q(second)
        return Fraction(
            _horner(values, y.numerator, y.denominator),
            denominator * y.denominator ** (len(values) - 1),
        )

    def fold_first(self, first: RationalLike):
        """(D, values), ints, with self(first, y) = sum_j values[j] y^j / D.

        At first = a/b, values[j] = sum_i L*coeff(i, j) a^i b^(n-i) by
        homogenized Horner down each column, and D = L b^n with L the lcm
        of the coefficient denominators.
        """
        x = _q(first)
        if not self._terms:
            return 1, [0]
        scale, rows = _integer_rows(self._terms)
        values = [_horner(column, x.numerator, x.denominator) for column in zip(*rows)]
        return scale * x.denominator ** (len(rows) - 1), values

    def homogeneous_part(self, n: int) -> BivariatePolynomial:
        """Sum of the terms of total degree exactly n."""
        return BivariatePolynomial(
            {key: v for key, v in self._terms.items() if key[0] + key[1] == n},
            self._vars,
        )

    def split_by_first(self) -> dict[int, UnivariatePolynomial]:
        """Group terms by the power of the first variable.

        Returns {i: q_i} with self == sum_i first^i * q_i(second); only
        nonzero q_i appear.
        """
        buckets: dict[int, dict[int, Fraction]] = {}
        for (i, j), coeff in self._terms.items():
            buckets.setdefault(i, {})[j] = coeff
        return {
            i: UnivariatePolynomial(bucket.get(j, 0) for j in range(max(bucket) + 1))
            for i, bucket in buckets.items()
        }

    def divide_by_first_power(self, k: int) -> BivariatePolynomial:
        """Exact division by first^k; fails if some term has a lower power."""
        if k < 0:
            raise ValueError("power must be nonnegative")
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), coeff in self._terms.items():
            if i < k:
                raise ValueError(
                    f"not divisible by {self._vars[0]}^{k}: term with exponent {i}"
                )
            out[(i - k, j)] = coeff
        return BivariatePolynomial(out, self._vars)

    def render(self) -> str:
        v1, v2 = self._vars
        rendered = []
        for (i, j), coeff in self.terms():
            pieces = []
            if i == 1:
                pieces.append(v1)
            elif i > 1:
                pieces.append(f"{v1}^{i}")
            if j == 1:
                pieces.append(v2)
            elif j > 1:
                pieces.append(f"{v2}^{j}")
            rendered.append((coeff, "*".join(pieces)))
        return _format_terms(rendered)

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self.render()}; vars={self._vars})"


def _integer_rows(terms):
    """(L, rows) with L the lcm of the coefficient denominators and
    rows[i][j] = L * coeff(i, j), ints dense over 0..max i by 0..max j."""
    scale = math.lcm(*[coeff.denominator for coeff in terms.values()])
    width = max(j for _, j in terms) + 1
    rows = [[0] * width for _ in range(max(i for i, _ in terms) + 1)]
    for (i, j), coeff in terms.items():
        rows[i][j] = coeff.numerator * (scale // coeff.denominator)
    return scale, rows


def _horner(values: list[int], num: int, den: int) -> int:
    """sum_k values[k] num^k den^(n-k) with n = len(values) - 1."""
    total = 0
    den_power = 1
    for value in reversed(values):
        total = total * num + value * den_power
        den_power *= den
    return total


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of a matrix of integer rows, by fraction-free (Bareiss)
    elimination: each step divides by the previous pivot, so intermediate
    entries stay minors of the input.  A non-int entry raises TypeError,
    as the floor division would silently misrank Fractions.
    """
    m = [[operator.index(x) for x in row] for row in rows]
    if not m or not m[0]:
        raise ValueError("matrix must have at least one row and one column")
    n_rows, n_cols = len(m), len(m[0])
    if any(len(row) != n_cols for row in m):
        raise ValueError("all rows must have the same length")
    rank = 0
    prev_pivot = 1
    for col in range(n_cols):
        pivot_row = next(
            (i for i in range(rank, n_rows) if m[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, n_rows):
            factor = m[i][col]
            for j in range(col + 1, n_cols):
                m[i][j] = (m[i][j] * pivot - factor * m[rank][j]) // prev_pivot
            m[i][col] = 0
        prev_pivot = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank
