"""Exact Verlinde dimension polynomials, solid-torus skein algebra
identities, and lower-bound certificates for the skein module of a
surface times a circle.  All arithmetic is exact rational or cyclotomic;
floating point appears only in optional numeric embeddings.

The public names below load lazily (PEP 562): `import skeindim` imports
no submodule, and each name imports its home module on first access.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "FaulhaberInconsistency": "errors",
    "IntegralityError": "errors",
    "StructureViolation": "errors",
    "VanishingDenominator": "errors",
    "bernoulli_half_value": "bernoulli",
    "bernoulli_number": "bernoulli",
    "bernoulli_numbers": "bernoulli",
    "bernoulli_polynomial": "bernoulli",
    "faulhaber_poly": "bernoulli",
    "Certificate": "certify",
    "CheckResult": "certify",
    "build_certificate": "certify",
    "lower_bound": "certify",
    "CyclotomicElement": "cyclotomic",
    "CyclotomicField": "cyclotomic",
    "cyclotomic_field": "cyclotomic",
    "BivariatePolynomial": "exact",
    "UnivariatePolynomial": "exact",
    "AnnulusSkein": "skein",
    "bracket_e": "skein",
    "d_squared": "skein",
    "e_product": "skein",
    "eval_nonseparating_curve": "skein",
    "flat_curve_check": "skein",
    "quantum_integer": "skein",
    "recoloring_check": "skein",
    "decompose": "verlinde",
    "dimension": "verlinde",
    "fusion_dimension": "verlinde",
    "fusion_table": "verlinde",
    "level_dimensions": "verlinde",
    "odd_color_polynomial": "verlinde",
    "verlinde_polynomial": "verlinde",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
