"""Exact arithmetic kernel: rationals and polynomials.

No floating point enters any computation.  Exact values store int
numerators over one positive denominator, divided through by the gcd of
all of them (zero has denominator 1), so equal values have identical
ints and `__eq__` and `__hash__` compare them directly; `coefficients`,
`terms()` and evaluation return Fractions.  No numerator tuple ends in
zero and no row is empty, so structural predicates such as "degree
exactly n" or "only even powers of p" are decided exactly.  Every
constructor normalizes through one helper, `_normalized`: rationals are
scaled by the lcm of their denominators, or ints come over a given
positive denominator, and `_lowest` divides through, handing back the
stripped ints and the denominator without a division pass when the gcd
is already 1.  Text comes from one monomial printer, `_power_text`, and
one joiner, `_format_terms`.

The dense form of that format, a numerator tuple lowest index first,
lives in one private base, `_Dense`, which holds the format only:
normalization, coefficients, truth, equality and hashing, with an int
or a Fraction equal to the constant of its value.  Ring arithmetic lives
on `cyclotomic.CyclotomicElement` alone, the one kind whose values any
command adds, subtracts or raises to a power; `skein.AnnulusSkein` has
only its product of two skeins, and `UnivariatePolynomial` here only
evaluation at a rational point.  Dense products of ascending integer
lists go through one convolution, `_convolve`, and the one change of
variable, the Taylor shift f(x) -> f(x + 1), through one loop of
additions, `_shift`.  Powers are square-and-multiply (`_power`) started
from the power of the exponent's lowest set bit, so no product by one is
ever made.

Evaluation is on the stored ints, with one Fraction at the end:
UnivariatePolynomial(a/b) is the homogenized Horner rule `_horner`.
fold_first(level) fixes the first variable at an integer level by Horner's
rule over the rows, giving sum_i n_ij level^i in the second over L, which
the callers evaluate by `_horner`.

Representations:

  UnivariatePolynomial  dense numerator tuple, lowest degree first; built
                        from coefficients, evaluated and read, with no
                        ring arithmetic.
  BivariatePolynomial   rows {i: numerator tuple in the second variable},
                        sorted by the power i of the first, of a named pair
                        such as ("p", "c"): a dimension polynomial's p-parts.
                        The package builds them from integer forms and only
                        reads them (fold, split, homogeneous parts,
                        render); their ring arithmetic is a test oracle.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Iterator, Mapping, Sequence, Union

RationalLike = Union[Fraction, int]

#: Degree of the zero polynomial.  A float sentinel, never an int, so a
#: check like ``poly.degree == 0`` is unambiguously false for it.
NEG_INFINITY = float("-inf")


def _q(value: RationalLike) -> RationalLike:
    """The value itself if it is an exact rational (an int or a Fraction)."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _scaled(values: Sequence[RationalLike]):
    """The pair (L, [L*v for v in values]) of an int and a list of ints,
    with L the lcm of the denominators."""
    scale = math.lcm(*[v.denominator for v in values])
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _normalized(values, denominator: int | None):
    """`_lowest` of `values`: exact rationals scaled by the lcm of their
    denominators when `denominator` is None, else int numerators over
    that positive int."""
    if denominator is None:
        denominator, values = _scaled([_q(v) for v in values])
    elif denominator <= 0:
        raise ValueError("denominator must be positive")
    return _lowest(values, denominator)


def _lowest(numerators, denominator):
    """(tuple, denominator) for the values n / denominator, denominator > 0:
    trailing zeros stripped, then all divided by their gcd, so that equal
    values give identical ints and zero gets denominator 1."""
    nums = list(numerators)
    while nums and not nums[-1]:
        nums.pop()
    common = math.gcd(denominator, *nums)
    if common == 1:
        return tuple(nums), denominator
    return tuple(n // common for n in nums), denominator // common


def _format_terms(terms: Sequence[tuple[Fraction, str]]) -> str:
    """Join (coefficient, monomial) pairs into the canonical text form.

    The first term carries its own sign ("-1/2"); later terms are joined
    with " + " or " - ".  A coefficient of magnitude one is dropped in
    front of a nonempty monomial.
    """
    parts: list[str] = []
    for coeff, mono in terms:
        magnitude = abs(coeff)
        body = f"{magnitude}*{mono}" if mono and magnitude != 1 else mono or str(magnitude)
        if parts:
            parts.append(("- " if coeff < 0 else "+ ") + body)
        else:
            parts.append(("-" if coeff < 0 else "") + body)
    return " ".join(parts) or "0"


def _power_text(var: str, k: int) -> str:
    """The monomial var^k as text: "" at k = 0 and var at k = 1."""
    return "" if k == 0 else var if k == 1 else f"{var}^{k}"


def _convolve(a: Sequence, b: Sequence) -> list:
    """Ascending coefficients of the product of two ascending coefficient
    lists, skipping the zero entries of a (pass the sparser factor as a)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _shift(values: list) -> None:
    """Replace the ascending coefficients of f(x) in `values` by those of
    f(x + 1), in place and with additions only: each pass is one
    synthetic division by x - 1, and pass `start` fixes the coefficient
    of x^start."""
    for start in range(len(values) - 1):
        for k in range(len(values) - 2, start - 1, -1):
            values[k] += values[k + 1]


def _power(base, exponent: int, one):
    """base^exponent by square-and-multiply, starting from the lowest set
    bit's power of base, so n >= 1 takes bit_length(n) + popcount(n) - 2
    products; `one()` builds the value of exponent 0."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    if not exponent:
        return one()
    while not exponent & 1:
        base = base * base
        exponent >>= 1
    result = base
    exponent >>= 1
    while exponent:
        base = base * base
        if exponent & 1:
            result = result * base
        exponent >>= 1
    return result


class _Dense:
    """A dense exact value: the int `numerators`, lowest index first, over
    the positive int `denominator`, in lowest terms as `_normalized`
    leaves them.  Immutable, hashable, and equal to an int or a Fraction
    when it is that constant; it holds the format and has no arithmetic.
    A subclass adds what its kind needs, and its own `_like` and `_coerce`
    where its values carry more than the numerators."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, coefficients: Iterable[RationalLike] = (), denominator: int | None = None):
        self.numerators, self.denominator = _normalized(coefficients, denominator)

    def _like(self, numerators, denominator: int):
        """The value numerators / denominator, of the same kind as self."""
        return type(self)(numerators, denominator)

    def _coerce(self, other):
        """other as a value of self's kind, an int or Fraction as a
        constant; None if it is neither.  Raises ValueError for a value of
        the kind that cannot mix with self."""
        if isinstance(other, (int, Fraction)):
            return self._like((other.numerator,), other.denominator)
        return other if isinstance(other, type(self)) else None

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other: object) -> bool:
        try:
            other = self._coerce(other)
        except ValueError:  # of self's kind, but it cannot mix: unequal
            return False
        if other is None:
            return NotImplemented
        return (self.numerators, self.denominator) == (other.numerators, other.denominator)

    def __hash__(self) -> int:
        if len(self.numerators) <= 1:  # a constant equals its value: hash like it
            return hash(Fraction((self.numerators or (0,))[0], self.denominator))
        return hash((self.numerators, self.denominator))


class UnivariatePolynomial(_Dense):
    """Dense univariate polynomial over the rationals, lowest degree first;
    the zero polynomial has no numerators and degree ``NEG_INFINITY``."""

    __slots__ = ()

    @property
    def degree(self) -> Union[int, float]:
        return len(self.numerators) - 1 if self.numerators else NEG_INFINITY

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self.numerators[-1] if self.numerators else 0, self.denominator)

    def __call__(self, point: RationalLike) -> Fraction:
        """The value at a rational point; any other argument raises TypeError."""
        nums, x = self.numerators or (0,), _q(point)
        return Fraction(_horner(nums, x.numerator, x.denominator),
                        self.denominator * x.denominator ** (len(nums) - 1))

    def render(self, var: str = "x") -> str:
        terms = [(c, _power_text(var, k)) for k, c in enumerate(self.coefficients) if c]
        return _format_terms(terms)

    def __repr__(self) -> str:
        return f"UnivariatePolynomial({self.render()})"


class BivariatePolynomial:
    """Exact polynomial in two named variables, built from its terms
    {(i, j): coefficient}, i the power of the first variable and j of the
    second, and stored as its rows: `rows` maps each i, ascending, to the
    tuple of int numerators of its coefficients in the second, lowest power
    first, none empty or ending in zero, over the int `denominator`.  Built
    and read, with no ring arithmetic; it equals an int or a Fraction when
    it is that constant."""

    __slots__ = ("rows", "denominator", "_vars")

    def __init__(self, terms: Mapping[tuple[int, int], RationalLike] | None = None,
                 variables: tuple[str, str] = ("p", "c"), denominator: int | None = None):
        """With a positive int `denominator`, the values of `terms` are int
        numerators over it, and the checks and the scaling are skipped."""
        terms = terms or {}
        if denominator is None:
            if len(variables) != 2 or variables[0] == variables[1]:
                raise ValueError("need two distinct variable names")
            if any(i < 0 or j < 0 for i, j in terms):
                raise ValueError("exponents must be nonnegative")
            variables = tuple(map(str, variables))
        values, self.denominator = _normalized(terms.values(), denominator)
        rows: dict[int, dict[int, int]] = {}
        # `_lowest` strips trailing zeros, so zip drops only zero terms
        for (i, j), n in zip(terms, values):
            if n:
                rows.setdefault(i, {})[j] = n
        self.rows = {i: tuple(row.get(j, 0) for j in range(max(row) + 1))
                     for i, row in sorted(rows.items())}
        self._vars = variables

    @property
    def variables(self) -> tuple[str, str]:
        return self._vars

    @property
    def total_degree(self) -> Union[int, float]:
        return max((i + len(row) - 1 for i, row in self.rows.items()), default=NEG_INFINITY)

    def terms(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Terms in graded order: total degree ascending, then powers of the
        first variable descending (so p precedes c within a degree)."""
        keys = [(i + j, j, i) for i, row in self.rows.items() for j, n in enumerate(row) if n]
        for _, j, i in sorted(keys):
            yield (i, j), Fraction(self.rows[i][j], self.denominator)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BivariatePolynomial({(0, 0): other}, self._vars)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return (self._vars, self.denominator, self.rows) == (
            other._vars, other.denominator, other.rows
        )

    def __hash__(self) -> int:
        if self.total_degree <= 0:  # a constant equals its value: hash like it
            return hash(Fraction(self.rows.get(0, (0,))[0], self.denominator))
        # the rows are sorted by i, so equal polynomials give equal tuples
        return hash((self._vars, tuple(self.rows.items()), self.denominator))

    def fold_first(self, level: int):
        """(L, values), ints, with value sum_j values[j] y^j / L at (level, y):
        values[j] = sum_i n_ij level^i over the stored numerators n_ij, by
        Horner's rule over the rows from the highest, a gap of k between two
        rows a factor level^k; L is the stored denominator.  A level that
        is not an integer raises TypeError."""
        level, values = operator.index(level), [0]
        above = next(reversed(self.rows), 0)
        for i, row in reversed(self.rows.items()):
            factor = level ** (above - i)
            values = [v * factor + n for v, n in zip_longest(values, row, fillvalue=0)]
            above = i
        factor = level**above
        return self.denominator, [v * factor for v in values]

    def homogeneous_part(self, n: int) -> BivariatePolynomial:
        """Sum of the terms of total degree exactly n."""
        terms = {(i, n - i): row[n - i] for i, row in self.rows.items() if 0 <= n - i < len(row)}
        return BivariatePolynomial(terms, self._vars, self.denominator)

    def split_by_first(self) -> dict[int, UnivariatePolynomial]:
        """The rows as polynomials: {i: q_i} with self == sum_i first^i *
        q_i(second), only nonzero q_i appearing."""
        return {i: UnivariatePolynomial(row, self.denominator) for i, row in self.rows.items()}

    def render(self) -> str:
        v1, v2 = self._vars
        return _format_terms([
            (coeff, "*".join(filter(None, (_power_text(v1, i), _power_text(v2, j)))))
            for (i, j), coeff in self.terms()
        ])

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self.render()}; vars={self._vars})"


def _horner(values: Sequence[int], num: int, den: int) -> int:
    """sum_k values[k] num^k den^(n-k) with n = len(values) - 1."""
    total = 0
    den_power = 1
    for value in reversed(values):
        total = total * num + value * den_power
        den_power *= den
    return total

