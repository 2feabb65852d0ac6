"""Verlinde dimensions of SO(3) TQFT spaces, exactly.

The dimension of the TQFT vector space of a genus-g surface with one point
colored 2c, at an odd level p >= 3, is a polynomial D_g(p, c) of total
degree 3g - 2.  It is computed by residue extraction, and each genus is
built once, in u = 2c + 1, as integers over one denominator L:

    D_g(p, u) = p^(g-1) X + p^g Y = sum N_ib p^i u^b / L,
    X = (-1)^g 4^(1-g)/2 u R(p, u),
    Y = -(-1)^g/2 prod_{j=1..g-1} (u^2 - (2j-1)^2) / (2^(2g-2) (2g-2)!),

where Y is binom(c+g-1, 2g-2) written in u and R is the t^(2g-2)
coefficient of the product

    [2pt/(e^(2pt)-1)] * s(u t) * s(t)^-(2g-1),      s(t) = sinh(t)/t.

Only that one coefficient is computed, as a finite sum over
a + b + 2k = 2g - 2 (b even):

    R = sum e_a p^a u^b / (b+1)! * S_k,

with e_a = 2^a B_a / a! and S = s(t)^-(2g-1) = sum S_k t^(2k), both run
on integers; no bivariate series or polynomial is ever multiplied, and
X and Y are placed by exponent shifts.  The e_a are built here, not taken
from `bernoulli_numbers`, so the leading-term check of `certify` against
its Bernoulli closed form stays independent.

Two substitutions leave the integer form, both by one integer Taylor
shift h(t) -> h(t + 1), `exact._shift`, with additions only:

  even colors   u = 2c + 1: the shift of each p-row, a polynomial in u,
                gives one in u - 1 = 2c, hence D_g(p, c);
  odd colors    u = p - 2s, that is c = (p-1)/2 - s: the degree-d terms
                are p^d h_d(u/p) with u/p = 1 - 2s/p, so coefficient k of
                the shifted h_d is the numerator of (-2)^k p^(d-k) s^k,
                d - k >= 0 because b <= d; this gives the odd-color
                polynomial in (p, s).

Two completely independent routes to the same numbers exist: the residue
polynomial evaluated at integers, and the fusion-rule recursion over the
integer weights K[s][y] = (p - 2*max(s,y)) * min(s,y) starting from the
genus-one values D_1 = s.  `certify.check_crosscheck` compares them.
Nothing is cached: `genus_data` builds the record of one genus that the
certificate checks read, and it lives as long as its caller holds it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .errors import IntegralityError, StructureViolation
from .exact import BivariatePolynomial, UnivariatePolynomial, _convolve, _horner, _shift

PC = ("p", "c")
PS = ("p", "s")

#: Integer numerators {(i, j): n} of a polynomial over a separate denominator,
#: and the same as a tuple of ((i, j), n) pairs.
_Terms = dict[tuple[int, int], int]
_Pairs = tuple[tuple[tuple[int, int], int], ...]


def _sinh_power(alpha: int, count: int) -> list[tuple[int, int]]:
    """s^alpha for s = sinh(t)/t = sum x^m/(2m+1)!, x = t^2: the first
    `count` coefficients as pairs (H_m, W_m) of ints, the coefficient of
    x^m being H_m / W_m with W_m = (2m+1)! 2^m m! (m+1)!.

    J.C.P. Miller's recurrence m h_m = sum_{k=1..m} ((alpha+1) k - m)
    h_(m-k) / (2k+1)!, times (2m+1)! 2^m m! (m+1)!, reads
    H_m = sum_{k=1..m} ((alpha+1) k - m) C(2m+2, 2k+1) Q_k H_(m-k) with
    Q_k = prod_{j=m-k+1..m-1} 2j(j+1), all in integers.
    """
    power = [1]
    for m in range(1, count):
        acc, ratio = 0, 1
        for k in range(1, m + 1):
            weight = ((alpha + 1) * k - m) * math.comb(2 * m + 2, 2 * k + 1)
            acc += weight * ratio * power[m - k]
            ratio *= 2 * (m - k) * (m - k + 1)
        power.append(acc)
    return [
        (h, math.factorial(2 * m + 1) * math.factorial(m) * math.factorial(m + 1) << m)
        for m, h in enumerate(power)
    ]


#: e_0, e_1, ... with e_a = 2^a B_a / a!, as far as any call has needed.
#: Calls replace it with a longer tuple and never change one in place, so
#: a racing call can only redo work.
_EXPONENTIAL: tuple[Fraction, ...] = (Fraction(1),)


def _exponential_coefficients(order: int) -> tuple[Fraction, ...]:
    """e_0..e_order, the coefficients of 2x/(e^(2x)-1).

    That series inverts sum 2^k x^k/(k+1)!, so e_m = -sum_{k=1..m}
    2^k/(k+1)! e_(m-k).  With e_j = E_j / L for ints E_j over the running
    lcm L of the denominators so far, the sum times (m+1)! L is the int
    sum_k 2^k (m+1)!/(k+1)! E_(m-k), taken by Horner's rule in k, so each
    new e_m is one Fraction.  The one module-level table grows to `order`
    on demand.
    """
    global _EXPONENTIAL
    table = _EXPONENTIAL
    if len(table) <= order:
        values = list(table)
        scale = math.lcm(*[e.denominator for e in values])
        scaled = [e.numerator * (scale // e.denominator) for e in values]
        factorial = math.factorial(len(values))
        for m in range(len(values), order + 1):
            factorial *= m + 1
            acc = 0
            for k in range(1, m + 1):
                acc = acc * (k + 1) + (scaled[m - k] << k)
            value = Fraction(-acc, factorial * scale)
            values.append(value)
            grown = math.lcm(scale, value.denominator)
            if grown != scale:
                scaled = [n * (grown // scale) for n in scaled]
                scale = grown
            scaled.append(value.numerator * (scale // value.denominator))
        table = _EXPONENTIAL = tuple(values)
    return table[: order + 1]


def _residue_coefficient(g: int) -> tuple[int, _Terms]:
    """t^(2g-2) coefficient R of the kernel product, as (L, {(a, b): n}),
    ints in lowest terms, with R = sum n p^a u^b / L and u = 2c + 1.

    The finite sum over a + b + 2k = 2g - 2 of the module docstring is
    collected in integers over one denominator, lcm(e_a) times the largest
    W_k and (b+1)!, and reduced once.
    """
    target = 2 * g - 2
    exponential = _exponential_coefficients(target)
    sinh_power = _sinh_power(-(2 * g - 1), g)
    e_scale = math.lcm(*[e.denominator for e in exponential])
    w_top = sinh_power[-1][1]
    f_top = math.factorial(target + 1)
    sinh = [h * (w_top // w) for h, w in sinh_power]
    terms = {}
    for a, e_a in enumerate(exponential):
        if not e_a:
            continue
        e_int = e_a.numerator * (e_scale // e_a.denominator)
        for b in range(0, target - a + 1, 2):
            k, odd = divmod(target - a - b, 2)
            if not odd:
                terms[(a, b)] = e_int * sinh[k] * (f_top // math.factorial(b + 1))
    scale = e_scale * w_top * f_top
    divisor = math.gcd(scale, *terms.values())
    return scale // divisor, {key: n // divisor for key, n in terms.items()}


def _integer_parts(g: int) -> tuple[int, _Pairs, _Pairs]:
    """(L, X, Y) with D_g(p, u) = p^(g-1) X(p, u) + p^g Y(u), u = 2c + 1,
    where X and Y are tuples of pairs ((i, b), n), ints, meaning
    sum n p^i u^b / L, with X the residue component and Y the binomial
    one of the module docstring, both over L = 2 4^(g-1) lcm(L_R, (2g-2)!),
    L_R the denominator of R.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    residue_scale, residue = _residue_coefficient(g)
    product = [1]
    for j in range(1, g):
        product = _convolve((-(2 * j - 1) ** 2, 0, 1), product)
    factorial = math.factorial(2 * g - 2)
    common = math.lcm(residue_scale, factorial)
    sign = (-1) ** g
    x_factor = sign * (common // residue_scale)
    y_factor = -sign * (common // factorial)
    return (
        2 * 4 ** (g - 1) * common,
        tuple(((a, b + 1), x_factor * n) for (a, b), n in residue.items()),
        tuple(((0, b), y_factor * n) for b, n in enumerate(product) if n),
    )


def _substitute(
    scale: int, pairs: Iterable[tuple[tuple[int, int], int]], odd: bool
) -> BivariatePolynomial:
    """sum n p^i u^b / scale over the pairs ((i, b), n) as a polynomial in
    (p, c) at u = 2c + 1, or, with `odd`, in (p, s) at u = p - 2s.  The
    terms are grouped by i, or with `odd` by the total degree d = i + b,
    into lists h in b; coefficient k of h(t + 1) is the numerator of
    2^k p^i c^k, or of (-2)^k p^(d-k) s^k."""
    rows: dict[int, list[int]] = {}
    for (i, b), n in pairs:
        row = rows.setdefault(i + b if odd else i, [])
        row += [0] * (b + 1 - len(row))
        row[b] += n
    out = {}
    for top, row in rows.items():
        _shift(row)
        for k, n in enumerate(row):
            out[(top - k, k) if odd else (top, k)] = (-n if odd and k & 1 else n) << k
    return BivariatePolynomial(out, PS if odd else PC, scale)


def _polynomial(g: int, parts: tuple[int, _Pairs, _Pairs], odd: bool) -> BivariatePolynomial:
    """D_g in (p, c), or with `odd` the odd-color polynomial in (p, s), by
    `_substitute` from the parts (L, X, Y) of `_integer_parts`, X placed at
    p^(g-1) and Y at p^g; not validated."""
    scale, x_part, y_part = parts
    pairs = (((i + shift, b), n) for shift, part in ((g - 1, x_part), (g, y_part))
             for (i, b), n in part)
    return _substitute(scale, pairs, odd)


def verlinde_polynomial(g: int) -> BivariatePolynomial:
    """D_g in (p, c), from the integer parts by the Taylor shift of each
    p-row, checked by `_validated` (so of total degree exactly 3g - 2)."""
    return _validated(g, "even", _polynomial(g, _integer_parts(g), odd=False))


def odd_color_polynomial(g: int) -> BivariatePolynomial:
    """The odd-color dimension polynomial in (p, s): D_g at c = (p-1)/2 - s,
    that is u = p - 2s, from the integer parts by the Taylor shift of each
    total-degree group; not validated."""
    return _polynomial(g, _integer_parts(g), odd=True)


class GenusData(NamedTuple):
    """What the certificate checks read about one genus: (L, X, Y), D_g in
    (p, c) and the odd-color polynomial in (p, s), by kind ("even", "odd"),
    their p-rows the p-parts; unchecked, as `check_structure` reports them."""

    genus: int
    scale: int
    x_part: _Pairs
    y_part: _Pairs
    even: BivariatePolynomial
    odd: BivariatePolynomial


def genus_data(g: int) -> GenusData:
    """The GenusData record of genus g, from one `_integer_parts` call."""
    parts = _integer_parts(g)
    return GenusData(g, *parts, _polynomial(g, parts, False), _polynomial(g, parts, True))


def exponent_support(g: int, kind: str) -> set[int]:
    """Expected p-exponents: {g-1, g+1, ..., 3g-3}, plus {g} for the
    even-color kind."""
    base = {g - 1 + 2 * j for j in range(g)}
    return base | {g} if kind == "even" else base


def decompose(g: int, kind: str) -> dict[int, UnivariatePolynomial]:
    """{j: part at p^j} of the even- or odd-color dimension polynomial, in
    c or s; `_validated` checks their support and degrees and raises
    StructureViolation.  The parts sum back to the polynomial."""
    if kind not in ("even", "odd"):
        raise ValueError("kind must be 'even' or 'odd'")
    poly = _polynomial(g, _integer_parts(g), odd=kind == "odd")
    return _validated(g, kind, poly).split_by_first()


def _validated(g: int, kind: str, poly: BivariatePolynomial) -> BivariatePolynomial:
    """The polynomial of the kind, once the powers of p among its rows are
    exactly the expected exponent set and the part at p^j has degree
    exactly 3g - 2 - j (hence a nonzero leading coefficient, and total
    degree 3g - 2); any violation raises StructureViolation."""
    expected = exponent_support(g, kind)
    for j in sorted(poly.rows.keys() - expected):
        raise StructureViolation(f"unexpected nonzero part at p^{j} (genus {g}, kind {kind})")
    for j in sorted(expected - poly.rows.keys()):
        raise StructureViolation(f"missing part at p^{j} (genus {g}, kind {kind})")
    for j, row in poly.rows.items():
        if len(row) - 1 != 3 * g - 2 - j:
            raise StructureViolation(f"part at p^{j} has degree {len(row) - 1}, expected "
                                     f"{3 * g - 2 - j} (genus {g}, kind {kind})")
    return poly


# ------------------------------------------------------------------ fusion


def _check_level(p: int) -> int:
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd integer >= 3")
    return (p - 1) // 2


def fusion_table(p: int) -> tuple[tuple[int, ...], ...]:
    """Rows K[s-1][y-1] = (p - 2*max(s, y)) * min(s, y), 1 <= s, y <= (p-1)/2,
    as a tuple of tuples of ints; symmetric, all entries >= 1."""
    d = _check_level(p)
    return tuple(
        tuple((p - 2 * max(s, y)) * min(s, y) for y in range(1, d + 1))
        for s in range(1, d + 1)
    )


def _fusion_walk(p: int) -> Iterator[tuple[int, ...]]:
    """Yield D_1, D_2, ... at level p without end, each the odd-color
    dimensions at s = 1..d, by one walk of the fusion recursion
    D_(g+1)[s] = sum_y K[s][y] D_g[y] from D_1 = (1..d); a loop on exact
    ints, so any genus is reachable, holding one step at a time.  Callers
    take the genera they need with `islice`."""
    entries = fusion_table(p)
    vector = tuple(range(1, len(entries) + 1))
    while True:
        yield vector
        vector = tuple(sum(k * v for k, v in zip(row, vector)) for row in entries)


def fusion_dimension(g: int, p: int, s: int) -> int:
    """Odd-color dimension at genus g, read off the fusion walk;
    the independent integer route against the residue polynomial."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    d = _check_level(p)
    if not 1 <= s <= d:
        raise ValueError(f"s must lie in 1..{d}, got {s}")
    return next(islice(_fusion_walk(p), g - 1, None))[s - 1]


def level_dimensions(g: int, p: int, colors: Iterable[int]) -> list[int]:
    """Dimensions of the genus-g spaces at level p with one point colored
    m, for each integer m in `colors` (0 <= m <= p-2), in order.

    The dimension polynomial is folded at p once, so each distinct even
    color m costs one integer Horner evaluation at c = m/2 over the
    denominator D 2^deg; an odd color takes the value of its recolored
    even color p - m - 2.  Every value must be a nonnegative integer;
    anything else raises IntegralityError.  A color that is not an integer
    raises TypeError.
    """
    return _level_dimensions(g, p, colors, None)


def _level_dimensions(g: int, p: int, colors: Iterable[int],
                      poly: BivariatePolynomial | None) -> list[int]:
    """`level_dimensions` on poly = D_g, built after the checks if None."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    _check_level(p)
    evens = []
    for m in map(operator.index, colors):
        if not 0 <= m <= p - 2:
            raise ValueError(f"color must lie in 0..{p - 2}, got {m}")
        evens.append(p - m - 2 if m % 2 else m)
    if not evens:
        return []
    denominator, values = (poly or verlinde_polynomial(g)).fold_first(p)
    denominator <<= len(values) - 1
    found: dict[int, int] = {}
    for m in evens:
        if m not in found:
            numerator = _horner(values, m, 2)
            found[m], rest = divmod(numerator, denominator)
            if rest or numerator < 0:
                raise IntegralityError(f"dimension at genus {g}, p={p}, color {m} evaluated "
                                       f"to {Fraction(numerator, denominator)}")
    return [found[m] for m in evens]


def dimension(g: int, p: int, m: int) -> int:
    """Dimension of the genus-g space with one point colored m, 0 <= m <= p-2:
    `level_dimensions` of the one color."""
    return level_dimensions(g, p, (m,))[0]
