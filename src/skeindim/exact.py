"""Exact arithmetic kernel: rationals and polynomials.

No floating point enters any computation.  Exact values store int
numerators over one positive denominator, divided through by the gcd of
all of them (zero has denominator 1), so equal values have identical
ints and `__eq__` and `__hash__` compare them directly; `coefficients`,
`terms()` and evaluation return Fractions.  No zero coefficient is
stored, so structural predicates such as "degree exactly n" or "only
even powers of p" are decided exactly.  One helper, `_lowest`,
normalizes; when the gcd is already 1 it hands back the stripped ints
and the denominator without a division pass.

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

Evaluation is a homogenized Horner rule on the stored ints, with one
Fraction at the end: fold_first(a/b) fixes the first variable, giving
the integer polynomial sum_i n_ij a^i b^(n-i) in the second over L b^n,
which the callers evaluate by `_horner`.  UnivariatePolynomial(a/b) is
the same rule.

Representations:

  UnivariatePolynomial  dense numerator tuple, lowest degree first; built
                        from coefficients, evaluated and read, with no
                        ring arithmetic.
  BivariatePolynomial   sparse dict {(i, j): numerator} with a named variable
                        pair such as ("p", "c"); many of the polynomials
                        produced downstream are structurally sparse.  The
                        package builds them from integer forms and only
                        reads them (fold, split, homogeneous parts,
                        render); their ring arithmetic is a test oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
    the positive int `denominator`, in lowest terms as `_lowest` leaves
    them.  Immutable, hashable, and equal to an int or a Fraction when it
    is that constant; it holds the format and has no arithmetic.  A
    subclass adds what its kind needs, and its own `_like` and `_coerce`
    where its values carry more than the numerators."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, coefficients: Iterable[RationalLike] = (), denominator: int | None = None):
        """The values coefficients[k]; with a positive int `denominator`,
        they are int numerators over it and skip the scaling."""
        if denominator is None:
            denominator, coefficients = _scaled([_q(c) for c in coefficients])
        elif denominator <= 0:
            raise ValueError("denominator must be positive")
        self.numerators, self.denominator = _lowest(coefficients, denominator)

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

    def exponents(self) -> set[int]:
        return {k for k, n in enumerate(self.numerators) if n}

    def __call__(self, point: RationalLike) -> Fraction:
        """The value at a rational point; any other argument raises TypeError."""
        nums = self.numerators or (0,)
        x = _q(point)
        return Fraction(
            _horner(nums, x.numerator, x.denominator),
            self.denominator * x.denominator ** (len(nums) - 1),
        )

    def render(self, var: str = "x") -> str:
        terms = []
        for k, c in enumerate(self.coefficients):
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
    """Sparse exact polynomial in two named variables: exponent pairs (i, j)
    map to nonzero int numerators over the int `denominator`, i the power
    of the first variable and j of the second.  Built and read, with no
    ring arithmetic; it equals an int or a Fraction when it is that
    constant."""

    __slots__ = ("_terms", "denominator", "_vars")

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
            denominator, values = _scaled([_q(v) for v in terms.values()])
            terms = dict(zip(terms, values))
            variables = tuple(map(str, variables))
        elif denominator <= 0:
            raise ValueError("denominator must be positive")
        terms = {key: n for key, n in terms.items() if n}
        values, self.denominator = _lowest(terms.values(), denominator)
        self._terms = dict(zip(terms, values))
        self._vars = variables

    @property
    def variables(self) -> tuple[str, str]:
        return self._vars

    @property
    def total_degree(self) -> Union[int, float]:
        if not self._terms:
            return NEG_INFINITY
        return max(i + j for i, j in self._terms)

    def terms(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Terms in graded order: total degree ascending, then powers of the
        first variable descending (so p precedes c within a degree)."""
        for key in sorted(self._terms, key=lambda ij: (ij[0] + ij[1], ij[1])):
            yield key, Fraction(self._terms[key], self.denominator)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BivariatePolynomial({(0, 0): other}, self._vars)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return (self._vars, self.denominator, self._terms) == (
            other._vars, other.denominator, other._terms
        )

    def __hash__(self) -> int:
        # A constant polynomial equals its value, so it must hash like it.
        if self._terms.keys() <= {(0, 0)}:
            return hash(Fraction(self._terms.get((0, 0), 0), self.denominator))
        return hash((self._vars, frozenset(self._terms.items()), self.denominator))

    def fold_first(self, first: RationalLike):
        """(D, values), ints, with value sum_j values[j] y^j / D at (first, y).

        At first = a/b, values[j] = sum_i n_ij a^i b^(n-i) over the stored
        numerators n_ij, and D = L b^n with L the stored denominator.
        """
        x = _q(first)
        n = max((i for i, _ in self._terms), default=0)
        weights = [x.numerator**i * x.denominator ** (n - i) for i in range(n + 1)]
        values = [0] * (max((j for _, j in self._terms), default=0) + 1)
        for (i, j), value in self._terms.items():
            values[j] += value * weights[i]
        return self.denominator * x.denominator**n, values

    def homogeneous_part(self, n: int) -> BivariatePolynomial:
        """Sum of the terms of total degree exactly n."""
        return BivariatePolynomial(
            {key: v for key, v in self._terms.items() if key[0] + key[1] == n},
            self._vars,
            self.denominator,
        )

    def split_by_first(self) -> dict[int, UnivariatePolynomial]:
        """Group terms by the power of the first variable.

        Returns {i: q_i} with self == sum_i first^i * q_i(second); only
        nonzero q_i appear.
        """
        rows: dict = {}
        for (i, j), value in self._terms.items():
            row = rows.setdefault(i, [])
            row += [0] * (j + 1 - len(row))
            row[j] = value
        return {i: UnivariatePolynomial(row, self.denominator) for i, row in rows.items()}

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


def _horner(values: Sequence[int], num: int, den: int) -> int:
    """sum_k values[k] num^k den^(n-k) with n = len(values) - 1."""
    total = 0
    den_power = 1
    for value in reversed(values):
        total = total * num + value * den_power
        den_power *= den
    return total

