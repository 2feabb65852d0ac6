"""Lower-bound certificates for the skein module of a surface times a circle.

The certified quantity is dim K(Sigma_g x S^1) >= 2^(2g+1) + 2g - 1,
assembled from three ingredients:

  * g + 1 even-color p-parts that are linearly independent as polynomials
    in the color, giving that many independent classes in the trivial
    homology class;
  * g such odd-color parts, for the class wrapping the circle;
  * a nonvanishing curve invariant covers each of the remaining
    2^(2g+1) - 2 mod-2 homology classes with at least one dimension each.

Both ranks are read off the exact degrees that `check_structure` proves:
the part at p^j has degree exactly 3g - 2 - j, and polynomials of
distinct exact degrees are linearly independent, since the one of highest
degree cannot cancel.  So the number of distinct degrees among the parts,
all nonzero, is a proven lower bound on their rank, and it reaches g + 1
and g when the structure holds.  Independence as polynomials in the
color is what the bound uses: at level p the color variable runs over
c = 0..(p-3)/2 (s = 1..(p-1)/2 for odd colors), without bound as p grows.

The checks behind a certificate all live here, each returning one
CheckResult: the decomposition structure, the curve witness, the residue
polynomial against the fusion recursion (`check_crosscheck`), the leading
term against its Bernoulli closed form (`leading_term_closed_form`) and
the parity constraints; `verify` runs the same functions.  The per-genus
checks read one `verlinde.GenusData` record, which `build_certificate`
builds once and lets go, all but its odd-color polynomial, before the
crosscheck reads genera 1..g-1, each built in turn, and then that one;
so each genus's odd-color polynomial is built once per certificate.
The crosscheck and the curve witness run at the levels in CHECK_LEVELS.

One ingredient is taken as an assumption rather than computed: the family
of power functions p^j on the admissible roots of unity is linearly
independent over the scalar field.  Certificates record this assumption
explicitly; everything downstream of it is verified by exact computation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain
from typing import Iterable, NamedTuple

from .bernoulli import bernoulli_numbers
from .cyclotomic import cyclotomic_field
from .errors import StructureViolation
from .exact import BivariatePolynomial, _horner
from .skein import flat_curve_check
from .verlinde import (
    PC,
    GenusData,
    _fusion_walk,
    _validated,
    genus_data,
    odd_color_polynomial,
)

POWER_BASIS_ASSUMPTION = (
    "distinct power functions p^j on the admissible roots of unity are "
    "linearly independent over the scalar field"
)

#: The odd levels at which the residue polynomial is compared with the
#: fusion recursion and the curve witness is checked.
CHECK_LEVELS = tuple(range(3, 14, 2))


def lower_bound(g: int) -> int:
    """The certified lower bound 2^(2g+1) + 2g - 1.

    At g = 0 this equals the known one-dimensional answer, so no special
    residue machinery is needed there.  A genus that is not an integer
    raises TypeError.
    """
    g = operator.index(g)
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return 2 ** (2 * g + 1) + 2 * g - 1


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class Certificate(NamedTuple):
    """Audited lower bound for one genus.

    dim_00 and dim_01 hold the proven ranks of the even- and odd-color
    p-parts, the number of distinct exact degrees among them; when all
    checks pass they equal g + 1 and g, and the lower bound splits as
    dim_00 + dim_01 + other_class_count * other_each.
    """

    genus: int
    dim_00: int
    dim_01: int
    other_class_count: int
    other_each: int
    lower_bound: int
    checks: tuple[CheckResult, ...]

    @property
    def valid(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "lower_bound": self.lower_bound,
            "valid": self.valid,
            "components": {
                "class_00": self.dim_00,
                "class_01": self.dim_01,
                "other_classes": {
                    "count": self.other_class_count,
                    "each_at_least": self.other_each,
                },
            },
            "checks": [c._asdict() for c in self.checks],
            "assumptions": [POWER_BASIS_ASSUMPTION],
        }


# The checks below each return one CheckResult and never raise on a failed
# identity; `verify` runs the same functions, the per-genus ones on one
# record per genus.  A genus below one is a usage error and raises ValueError.


def check_structure(data: GenusData) -> CheckResult:
    try:
        for kind in ("even", "odd"):
            _validated(data.genus, kind, getattr(data, kind))
    except StructureViolation as exc:
        return CheckResult("decomposition_structure", False, str(exc))
    return CheckResult(
        "decomposition_structure",
        True,
        "p-power support and exact degrees hold for both color parities",
    )


def check_witness(g: int, p_values: tuple[int, ...]) -> CheckResult:
    for p in p_values:
        lhs, rhs = flat_curve_check(g, cyclotomic_field(p))
        if lhs != rhs:
            return CheckResult(
                "nonseparating_curve_witness", False, f"closed forms differ at p={p}"
            )
        if not lhs:
            return CheckResult(
                "nonseparating_curve_witness", False, f"invariant vanishes at p={p}"
            )
    return CheckResult(
        "nonseparating_curve_witness",
        True,
        f"curve invariant nonzero and consistent for p in {list(p_values)}",
    )


def check_crosscheck(odd_polynomials: Iterable[BivariatePolynomial], counted: str) -> CheckResult:
    """The odd-color polynomials of genus 1, 2, ..., in that order, against
    the fusion recursion at every (p, s) with p in CHECK_LEVELS,
    1 <= s <= (p-1)/2: one walk per level, stepped once per polynomial,
    one fold per (g, p) and one integer Horner evaluation per s.  Each
    polynomial is read as it comes, so a lazy iterable holds one genus at
    a time.  The detail counts the compared values as `counted` and names
    up to three mismatches; no polynomial at all raises ValueError.

    Once `check_parity` passes, the odd-color polynomial of genus g is a
    combination of the monomials p^(g-1+2i) s^(2j+1), i + j <= g - 1, and
    for g <= 6 their values at these 21 points are linearly independent,
    so the compared values determine the polynomial.  Above genus 6 they
    are a sample."""
    walks = {p: _fusion_walk(p) for p in CHECK_LEVELS}
    checked, mismatches = 0, []
    for g, poly in enumerate(odd_polynomials, 1):
        for p, walk in walks.items():
            denominator, values = poly.fold_first(p)
            for s, rhs in enumerate(next(walk), 1):
                checked += 1
                if _horner(values, s, 1) != rhs * denominator:
                    mismatches.append(f"g={g} p={p} s={s}")
    if not checked:
        raise ValueError("genus must be at least 1")
    detail = f"{checked} {counted} compared"
    if mismatches:
        detail += f", {len(mismatches)} mismatches ({'; '.join(mismatches[:3])})"
    return CheckResult("residue_vs_fusion", not mismatches, detail)


def leading_term_closed_form(g: int) -> BivariatePolynomial:
    """(-1)^g p^(g-1) sum_k B_k / (k! (2g-1-k)!) c^(2g-1-k) p^k."""
    table = bernoulli_numbers(2 * g - 1)
    terms = {}
    for k in range(2 * g):
        coeff = (
            Fraction((-1) ** g)
            * table[k]
            / (math.factorial(k) * math.factorial(2 * g - 1 - k))
        )
        if coeff != 0:
            terms[(g - 1 + k, 2 * g - 1 - k)] = coeff
    return BivariatePolynomial(terms, PC)


def check_leading_term(data: GenusData) -> CheckResult:
    """The degree-(3g-2) homogeneous part of the dimension polynomial
    against its Bernoulli closed form.  A nonzero part of higher degree is
    not compared here: it breaks the row degrees that `check_structure`
    proves, and fails that check."""
    g = data.genus
    if data.even.homogeneous_part(3 * g - 2) != leading_term_closed_form(g):
        return CheckResult("leading_term", False, "top homogeneous part mismatch")
    return CheckResult(
        "leading_term", True, "top homogeneous part matches its closed form"
    )


def check_parity(data: GenusData) -> CheckResult:
    """The two parity constraints of the dimension polynomial:

    (a) D_g = p^(g-1) X + p^g Y with X (the residue component) even in p
        and Y (the binomial component) free of p;
    (b) the odd-color polynomial divided by p^(g-1) is a polynomial, even
        in p and odd in s.

    Both parts read stored exponent keys of the record; a Fraction is
    built only to name a failure.  Part (a) reads X and Y in (p, u),
    u = 2c + 1: the substitution acts on each p-row alone and is
    invertible, so the p-exponents are those in (p, c).  D_g is built as
    p^(g-1) X + p^g Y, so that sum is not compared again; the leading_term,
    residue_vs_fusion and all_colors_integral checks cover what is built
    from it.  Part (b) reads the p-rows of the odd-color polynomial.

    The first violation fails the check, naming the offending monomial.
    """
    g, scale, x_part, y_part = data[:4]
    bad = [("residue component has odd power of p", key, n) for key, n in x_part if key[0] % 2]
    bad += [("binomial component depends on p", key, n) for key, n in y_part if key[0]]
    if bad:
        what, (i, b), n = bad[0]
        return CheckResult("parity", False, f"{what}: {Fraction(n, scale)}*p^{i}*u^{b}")

    for i, row in data.odd.rows.items():
        shift = i - (g - 1)
        if shift < 0:
            return CheckResult("parity", False, f"odd-color polynomial not divisible by p^{g-1}")
        bad = [j for j, n in enumerate(row) if n and (shift % 2 or j % 2 == 0)]
        if bad:
            kind = "odd power of p" if shift % 2 else "even power of s"
            j = bad[0]
            coeff = Fraction(row[j], data.odd.denominator)
            what = f"odd-color polynomial / p^{g-1} has {kind}"
            return CheckResult("parity", False, f"{what}: {coeff}*p^{shift}*s^{j}")
    return CheckResult("parity", True, "even-in-p and odd-in-s structure holds")


def build_certificate(g: int) -> Certificate:
    """Run every sub-check for one genus and assemble the certificate; the
    curve witness and the crosscheck run at the levels in CHECK_LEVELS.

    A failed sub-check never passes silently: it is recorded with detail
    and makes the certificate invalid.  The lower_bound field always
    carries the claimed bound, whether or not the checks passed.
    """
    data = genus_data(g)
    checks = [check_structure(data)]
    ranks = {}
    for kind, required in (("even", g + 1), ("odd", g)):
        # rows of distinct exact degrees are independent (each is nonzero)
        ranks[kind] = len({len(row) for row in getattr(data, kind).rows.values()})
        checks.append(
            CheckResult(
                f"phi_rank_{kind}",
                ranks[kind] == required,
                f"rank {ranks[kind]}, required {required}",
            )
        )

    record_checks = check_leading_term(data), check_parity(data)
    odd = data.odd
    del data  # keep only genus g's odd-color polynomial for the crosscheck
    checks.append(check_witness(g, CHECK_LEVELS))
    # genera 1..g-1 are built one at a time as the crosscheck reads them
    odd_polynomials = chain(map(odd_color_polynomial, range(1, g)), (odd,))
    checks.append(check_crosscheck(odd_polynomials, "dimension values"))
    checks.extend(record_checks)

    return Certificate(
        genus=g,
        dim_00=ranks["even"],
        dim_01=ranks["odd"],
        other_class_count=2 ** (2 * g + 1) - 2,
        other_each=1,
        lower_bound=lower_bound(g),
        checks=tuple(checks),
    )
