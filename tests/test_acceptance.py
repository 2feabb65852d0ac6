"""End-to-end acceptance battery.

Every check here is exact (zero tolerance) except the explicitly
floating-point embedding consistency inside the cyclotomic battery
(1e-9).  Each criterion prints one PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s

to see the report even when everything passes.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

from euclid_oracle import euclid_inverse
from substitution_oracle import compose

from skeindim.bernoulli import (
    bernoulli_half_value,
    bernoulli_numbers,
    bernoulli_polynomial,
    faulhaber_poly,
)
from skeindim.certify import (
    build_certificate,
    check_crosscheck,
    check_leading_term,
    check_parity,
    lower_bound,
)
from skeindim.cyclotomic import cyclotomic_field
from skeindim.exact import BivariatePolynomial, UnivariatePolynomial
from skeindim.skein import (
    AnnulusSkein,
    e_product,
    eval_nonseparating_curve,
    flat_curve_check,
    quantum_integer,
    recoloring_check,
)
from skeindim.verlinde import (
    decompose,
    dimension,
    fusion_dimension,
    genus_data,
    odd_color_polynomial,
    verlinde_polynomial,
)

PC = ("p", "c")
PS = ("p", "s")


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_genus_one_closed_form():
    start = time.perf_counter()
    expected = BivariatePolynomial(
        {(1, 0): Fraction(1, 2), (0, 1): -1, (0, 0): Fraction(-1, 2)}, PC
    )
    even_ok = verlinde_polynomial(1) == expected
    odd_ok = odd_color_polynomial(1) == BivariatePolynomial({(0, 1): 1}, PS)
    elapsed = time.perf_counter() - start
    _report(
        "1 genus-one closed form",
        even_ok and odd_ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_02_residue_equals_fusion_every_color():
    start = time.perf_counter()
    mismatches = 0
    compared = 0
    for g in range(1, 6):
        for p in range(3, 14, 2):
            d = (p - 1) // 2
            for m in range(0, p - 1):
                s = (m + 1) // 2 if m % 2 == 1 else d - m // 2
                compared += 1
                if dimension(g, p, m) != fusion_dimension(g, p, s):
                    mismatches += 1
    direct = check_crosscheck(map(odd_color_polynomial, range(1, 6)), "direct")
    elapsed = time.perf_counter() - start
    _report(
        "2 residue formula vs fusion recursion",
        mismatches == 0 and direct.passed and elapsed < 30.0,
        f"{compared} colors + {direct.detail}, {elapsed:.2f}s",
    )


def test_criterion_03_decomposition_structure():
    ok = True
    detail = ""
    for g in range(1, 7):
        even = decompose(g, "even")  # raises on support/degree defects
        odd = decompose(g, "odd")
        for k in range(g):
            j = g - 1 + 2 * k
            lead_even = (
                Fraction((-1) ** g)
                * bernoulli_numbers(2 * k)[2 * k]
                / (math.factorial(2 * k) * math.factorial(2 * g - 1 - 2 * k))
            )
            lead_odd = (
                Fraction((-1) ** (g + 1))
                * bernoulli_half_value(2 * k)
                / (math.factorial(2 * g - 1 - 2 * k) * math.factorial(2 * k))
            )
            if even[j].leading_coefficient != lead_even or lead_even == 0:
                ok, detail = False, f"even lead at g={g}, j={j}"
            if odd[j].leading_coefficient != lead_odd or lead_odd == 0:
                ok, detail = False, f"odd lead at g={g}, j={j}"
        lead_mid = Fraction((-1) ** (g + 1), 2) / math.factorial(2 * g - 2)
        if even[g].leading_coefficient != lead_mid:
            ok, detail = False, f"middle lead at g={g}"
    _report("3 p-power decomposition structure", ok, detail or "g <= 6")


def test_criterion_04_leading_term_identity():
    ok = True
    detail = ""
    for g in range(1, 7):
        check = check_leading_term(genus_data(g))
        if not check.passed:
            ok, detail = False, f"g={g}: {check.detail}"
        for n in range(3 * g - 1, 3 * g + 3):
            if verlinde_polynomial(g).homogeneous_part(n):
                ok, detail = False, f"nonzero degree-{n} part at g={g}"
    _report("4 leading-term identity", ok, detail or "g <= 6")


def test_criterion_05_parity():
    ok = True
    detail = ""
    for g in range(1, 7):
        check = check_parity(genus_data(g))
        if not check.passed:
            ok, detail = False, f"g={g}: {check.detail}"
    _report("5 parity structure", ok, detail or "g <= 6")


def test_criterion_06_bernoulli_battery():
    ok = True
    detail = ""
    table = bernoulli_numbers(40)
    for m in range(41):
        if bernoulli_half_value(m) != (Fraction(2) ** (1 - m) - 1) * table[m]:
            ok, detail = False, f"half-value identity at m={m}"
    for m in range(1, 21):
        poly = faulhaber_poly(m)  # raises if the two closed forms differ
        for n in range(1, 51):
            if poly(n) != sum(y**m for y in range(1, n + 1)):
                ok, detail = False, f"power sum at m={m}, N={n}"
                break
    shift = UnivariatePolynomial([Fraction(1, 2), Fraction(1, 2)])
    for beta in range(0, 9):
        even_case = compose(bernoulli_polynomial(2 * beta), shift)
        odd_case = compose(bernoulli_polynomial(2 * beta + 1), shift)
        if not all(e % 2 == 0 for e, n in enumerate(even_case.numerators) if n):
            ok, detail = False, f"even half-shift parity at beta={beta}"
        if not all(e % 2 == 1 for e, n in enumerate(odd_case.numerators) if n):
            ok, detail = False, f"odd half-shift parity at beta={beta}"
    _report("6 Bernoulli battery", ok, detail or "m <= 40, N <= 50, beta <= 8")


def test_criterion_07_cyclotomic_battery():
    ok = True
    detail = ""
    for p in range(3, 32, 2):
        field = cyclotomic_field(p)
        if quantum_integer(p, field):
            ok, detail = False, f"[p] != 0 at p={p}"
        for g in range(1, 6):
            lhs, rhs = flat_curve_check(g, field)
            if lhs != rhs:
                ok, detail = False, f"flat-curve forms differ at p={p}, g={g}"
        for s in range(1, (p - 1) // 2 + 1):
            if not recoloring_check(s, field):
                ok, detail = False, f"recoloring fails at p={p}, s={s}"
    for i in range(21):
        for j in range(21):
            product = AnnulusSkein.basis_element(i) * AnnulusSkein.basis_element(j)
            if e_product(i, j) != product:
                ok, detail = False, f"product law at i={i}, j={j}"
    _report("7 cyclotomic battery", ok, detail or "p <= 31, g <= 5, i,j <= 20")


def test_criterion_08_curve_evaluation_consistency():
    ok = True
    detail = ""
    cases = [(1, 5), (2, 7), (3, 7), (4, 5), (5, 9)]
    for g, p in cases:
        field = cyclotomic_field(p)
        if eval_nonseparating_curve(g, 0, field) != field.from_rational(
            dimension(g, p, 0)
        ):
            ok, detail = False, f"color 0 at g={g}, p={p}"
        if eval_nonseparating_curve(g, 1, field) != flat_curve_check(g, field)[0]:
            ok, detail = False, f"color 1 at g={g}, p={p}"
        prefactor = field.from_rational(Fraction((-p) ** (g - 1)))
        for m in range(1, p - 1, 2):
            # independently resum the p-free part of the odd-color value
            span_witness = field.from_rational(0)
            for i in range(1, (m + 1) // 2 + 1):
                delta = field.gen_power(2 * i - 1) - field.gen_power(-(2 * i - 1))
                span_witness = span_witness + euclid_inverse(delta ** (2 * g - 2))
            if eval_nonseparating_curve(g, m, field) != prefactor * span_witness:
                ok, detail = False, f"odd span witness at g={g}, p={p}, m={m}"
    _report("8 curve-evaluation consistency", ok, detail or f"cases {cases}")


def test_criterion_09_certificates():
    start = time.perf_counter()
    ok = lower_bound(0) == 1 and lower_bound(1) == 9 and lower_bound(2) == 35
    detail = "" if ok else "known lower-bound values"
    for g in range(1, 6):
        cert = build_certificate(g)
        if not cert.valid:
            ok, detail = False, f"invalid certificate at g={g}"
        if cert.dim_00 != g + 1 or cert.dim_01 != g:
            ok, detail = False, f"ranks {cert.dim_00}, {cert.dim_01} at g={g}"
        if cert.lower_bound != 2 ** (2 * g + 1) + 2 * g - 1:
            ok, detail = False, f"bound value at g={g}"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report("9 certificates g <= 5", ok, detail or f"{elapsed:.2f}s")


def test_criterion_10_bound_semantics():
    ok = True
    detail = ""
    for g in range(0, 21):
        if lower_bound(g) != 2 ** (2 * g + 1) + 2 * g - 1:
            ok, detail = False, f"formula at g={g}"
    payload = build_certificate(2).to_dict()
    flat = json.dumps(payload)
    if "upper_bound" in flat or "exact_dimension" in flat:
        ok, detail = False, "certificate claims more than a lower bound"
    if not payload.get("assumptions"):
        ok, detail = False, "missing recorded assumption"
    if payload["lower_bound"] != (
        payload["components"]["class_00"]
        + payload["components"]["class_01"]
        + payload["components"]["other_classes"]["count"]
        * payload["components"]["other_classes"]["each_at_least"]
    ):
        ok, detail = False, "component sum does not reach the bound"
    _report("10 lower-bound semantics", ok, detail or "bound only, assumption recorded")
