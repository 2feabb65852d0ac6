"""Named verification batteries behind `verify --suite ...`.

Each battery re-runs an exact identity family over its full documented
range and reports one CheckResult per family.  Batteries aggregate; the
detail string names up to three failing instances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Any, Callable, Iterable

from .bernoulli import (
    bernoulli_half_value,
    bernoulli_number,
    bernoulli_numbers,
    bernoulli_polynomial,
    faulhaber_poly,
)
from .certify import (
    CHECK_LEVELS,
    CheckResult,
    build_certificate,
    check_crosscheck,
    check_leading_term,
    check_parity,
    check_structure,
    check_witness,
    leading_term_closed_form,
    lower_bound,
)
from .cyclotomic import cyclotomic_field
from .errors import StructureViolation
from .exact import BivariatePolynomial, UnivariatePolynomial, _horner, _shift
from .skein import (
    AnnulusSkein,
    bracket_e,
    d_squared,
    e_product,
    flat_curve_check,
    quantum_integer,
    recoloring_check,
)
from .verlinde import (
    _exponential_coefficients,
    _fusion_walk,
    _level_dimensions,
    _validated,
    genus_data,
)

EMBED_TOLERANCE = 1e-9


def _aggregate(name: str, failures: list[str], detail_ok: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, "; ".join(failures[:3]))
    return CheckResult(name, True, detail_ok)


def _per_genus(
    name: str, check: Callable[[Any], CheckResult], inputs: Iterable, detail_ok: str
) -> CheckResult:
    """One certificate check run on the input of each genus g = 1, 2, ...,
    under the suite's name."""
    failures = []
    for g, item in enumerate(inputs, 1):
        result = check(item)
        if not result.passed:
            failures.append(f"g={g}: {result.detail}")
    return _aggregate(name, failures, detail_ok)


# ------------------------------------------------------------- bernoulli


def bernoulli_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    max_half_index, max_faulhaber = 40, 20

    failures = []
    table = bernoulli_numbers(max_half_index)
    for m in range(max_half_index + 1):
        if bernoulli_half_value(m) != (Fraction(2) ** (1 - m) - 1) * table[m]:
            failures.append(f"m={m}")
    checks.append(
        _aggregate(
            "half_value_identity",
            failures,
            f"B_m(1/2) = (2^(1-m)-1) B_m for m <= {max_half_index}",
        )
    )

    failures = []
    for m in range(1, max_faulhaber + 1):
        poly = faulhaber_poly(m)  # raises if the two closed forms disagree
        total = 0  # brute force: 1^m + ... + n^m, one term per n
        for n in range(1, 51):
            total += n**m
            # poly(n) = total, on the stored ints: numerators at n over the denominator
            if _horner(poly.numerators, n, 1) != total * poly.denominator:
                failures.append(f"m={m}, N={n}")
                break
    checks.append(
        _aggregate(
            "power_sum_closed_forms",
            failures,
            f"both closed forms match brute force for m <= {max_faulhaber}, N <= 50",
        )
    )

    failures = []
    order = 12
    # t/(e^t - 1), the series inverse of sum_k t^k/(k+1)!, read off the
    # residue sum's table e_m = 2^m B_m / m! of 2x/(e^(2x) - 1) at x = t/2;
    # the t^n coefficient of t e^(xt)/(e^t - 1), times n!, is then
    # sum_k inverse[n-k] n!/k! x^k, which must be B_n(x).
    inverse = [e / 2**m for m, e in enumerate(_exponential_coefficients(order))]
    for n in range(order + 1):
        series = UnivariatePolynomial(
            inverse[n - k] * math.factorial(n) / math.factorial(k) for k in range(n + 1)
        )
        if series != bernoulli_polynomial(n):
            failures.append(f"t^{n}")
    checks.append(
        _aggregate(
            "generating_function",
            failures,
            f"series coefficients equal B_n(x)/n! through t^{order}",
        )
    )

    failures = []
    for m in range(18):
        # 2^m B_m((p+1)/2) = h(p + 1), numerator k of h being that of B_m
        # times 2^(m-k); the shift turns h's numerators into h(p + 1)'s
        values = [n << (m - k) for k, n in enumerate(bernoulli_polynomial(m).numerators)]
        _shift(values)
        if any(n and (k - m) % 2 for k, n in enumerate(values)):
            failures.append(f"{'odd' if m % 2 else 'even'} case beta={m // 2}")
    checks.append(
        _aggregate(
            "half_shift_parity",
            failures,
            "B_m((p+1)/2) is even/odd in p as m is even/odd, for m <= 17",
        )
    )

    checks.append(
        CheckResult(
            "sign_convention",
            bernoulli_number(1) == Fraction(-1, 2),
            "B_1 = -1/2 (the generating function t/(e^t - 1) fixes it)",
        )
    )
    return checks


# -------------------------------------------------------------- verlinde


def verlinde_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    g_max = 5
    records = [genus_data(g) for g in range(1, g_max + 1)]

    genus_one = BivariatePolynomial(
        {(1, 0): Fraction(1, 2), (0, 1): -1, (0, 0): Fraction(-1, 2)}, ("p", "c")
    )
    odd_one = BivariatePolynomial({(0, 1): 1}, ("p", "s"))
    checks.append(
        CheckResult(
            "genus_one_closed_form",
            records[0].even == genus_one and records[0].odd == odd_one,
            "p/2 - c - 1/2 and (after substitution) s",
        )
    )

    checks.append(
        _per_genus(
            "decomposition_structure",
            check_structure,
            records,
            f"support and exact degrees hold for g <= {g_max}",
        )
    )

    failures = []
    for g, data in enumerate(records, 1):
        try:
            even, odd = (_validated(g, kind, data.parts[kind]) for kind in ("even", "odd"))
        except StructureViolation as exc:  # a missing or wrong part: reported, not raised
            failures.append(f"g={g}: {exc}")
            continue
        # the even part at p^j leads with the c^(3g-2-j) term of the closed form
        closed = dict(leading_term_closed_form(g).terms())
        for k in range(g):
            j = g - 1 + 2 * k
            lead_odd = (
                Fraction((-1) ** (g + 1))
                * bernoulli_half_value(2 * k)
                / (math.factorial(2 * g - 1 - 2 * k) * math.factorial(2 * k))
            )
            if even[j].leading_coefficient != closed.get((j, 3 * g - 2 - j), 0):
                failures.append(f"even g={g} j={j}")
            if odd[j].leading_coefficient != lead_odd:
                failures.append(f"odd g={g} j={j}")
        if even[g].leading_coefficient != closed.get((g, 2 * g - 2), 0):
            failures.append(f"even g={g} j={g}")
    checks.append(
        _aggregate(
            "leading_coefficient_bernoulli_multiples",
            failures,
            "leading coefficients carry the expected Bernoulli values",
        )
    )

    checks.append(
        _per_genus(
            "leading_term_identity",
            check_leading_term,
            records,
            f"top homogeneous part matches its closed form for g <= {g_max}",
        )
    )
    checks.append(
        _per_genus(
            "parity_structure", check_parity, records, f"parity constraints hold for g <= {g_max}"
        )
    )

    checks.append(check_crosscheck((data.odd for data in records), "values"))

    failures = []
    walks = {p: list(islice(_fusion_walk(p), g_max)) for p in CHECK_LEVELS}
    for g, data in enumerate(records, 1):
        for p in CHECK_LEVELS:
            for m, value in enumerate(_level_dimensions(g, p, range(0, p - 1), data.even)):
                s = (m + 1) // 2 if m % 2 == 1 else (p - 1) // 2 - m // 2
                if value != walks[p][g - 1][s - 1]:
                    failures.append(f"g={g} p={p} m={m}")
    checks.append(
        _aggregate(
            "all_colors_integral",
            failures,
            f"every admissible color agrees with the fusion recursion, g <= {g_max}",
        )
    )
    return checks


# ----------------------------------------------------------------- skein


def skein_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    p_max, g_max, product_max = 31, 5, 20
    odd_levels = tuple(range(3, p_max + 1, 2))

    checks.append(
        _per_genus(
            "flat_curve_two_forms",
            lambda g: check_witness(g, odd_levels),
            range(1, g_max + 1),
            f"both closed forms agree and are nonzero for p <= {p_max}, g <= {g_max}",
        )
    )

    failures = []
    for p in odd_levels:
        field = cyclotomic_field(p)
        for s in range(1, (p - 1) // 2 + 1):
            if not recoloring_check(s, field):
                failures.append(f"p={p} s={s}")
    checks.append(
        _aggregate(
            "recoloring_brackets",
            failures,
            f"bracket recoloring identity holds for every s, p <= {p_max}",
        )
    )

    failures = [f"p={p}" for p in odd_levels if quantum_integer(p, cyclotomic_field(p))]
    checks.append(
        _aggregate("vanishing_quantum_level", failures, f"[p] = 0 for p <= {p_max}")
    )

    failures = []
    for p in odd_levels:
        field = cyclotomic_field(p)
        delta = field.gen_power(2) - field.gen_power(-2)
        if delta * delta * d_squared(field) != field.from_rational(-p):
            failures.append(f"p={p}")
    checks.append(
        _aggregate(
            "normalization_square",
            failures,
            "(A^2 - A^-2)^2 D^2 = -p for every level",
        )
    )

    failures = []
    for i in range(product_max + 1):
        for j in range(i, product_max + 1):
            closed = e_product(i, j)
            if closed != AnnulusSkein.basis_element(i) * AnnulusSkein.basis_element(j):
                failures.append(f"i={i} j={j}")
            if closed != e_product(j, i):
                failures.append(f"i={i} j={j} asymmetric")
    checks.append(
        _aggregate(
            "e_basis_product_law",
            failures,
            f"closed-form products match the z-power route for i, j <= {product_max}",
        )
    )

    failures = []
    for p in CHECK_LEVELS:
        field = cyclotomic_field(p)
        lhs, rhs = flat_curve_check(min(g_max, 3), field)
        quantum_p = quantum_integer(p, field)
        deltas = [
            bracket_e(2 * color - 1, field) - bracket_e(p - 2 * color - 1, field)
            for color in range(1, (p - 1) // 2 + 1)
        ]
        for s in range(1, 2 * p):
            if math.gcd(s, 2 * p) != 1:
                continue
            if abs(quantum_p.embed(s)) > EMBED_TOLERANCE:
                failures.append(f"p={p} s={s} [p]")
            if abs(lhs.embed(s) - rhs.embed(s)) > EMBED_TOLERANCE:
                failures.append(f"p={p} s={s} flat curve")
            for delta in deltas:
                if abs(delta.embed(s)) > EMBED_TOLERANCE:
                    failures.append(f"p={p} s={s} recoloring")
    checks.append(
        _aggregate(
            "numeric_embedding",
            failures,
            f"exact identities embed to floating identities within {EMBED_TOLERANCE}",
        )
    )
    return checks


# --------------------------------------------------------------- certify


def certify_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    g_max = 5
    known = {0: 1, 1: 9, 2: 35}
    failures = [
        f"g={g}: {lower_bound(g)} != {value}"
        for g, value in known.items()
        if lower_bound(g) != value
    ]
    checks.append(
        _aggregate("lower_bound_values", failures, "bounds 1, 9, 35 at g = 0, 1, 2")
    )

    failures = []
    for g in range(1, g_max + 1):
        certificate = build_certificate(g)
        if not certificate.valid:
            bad = [c.name for c in certificate.checks if not c.passed]
            failures.append(f"g={g}: {', '.join(bad)}")
    checks.append(
        _aggregate(
            "certificates_valid",
            failures,
            f"certificates valid with ranks g+1 and g for g <= {g_max}",
        )
    )
    return checks


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "bernoulli": bernoulli_suite,
    "verlinde": verlinde_suite,
    "skein": skein_suite,
    "certify": certify_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named battery, or all of them in a fixed order."""
    if name == "all":
        return [result for suite in SUITES.values() for result in suite()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    return SUITES[name]()
