"""Exact Verlinde dimension polynomials, solid-torus skein algebra
identities, and lower-bound certificates for the skein module of a
surface times a circle.  All arithmetic is exact rational or cyclotomic;
floating point appears only in optional numeric embeddings.
"""

from .bernoulli import (
    FaulhaberInconsistency,
    bernoulli_half_value,
    bernoulli_number,
    bernoulli_numbers,
    bernoulli_polynomial,
    faulhaber_poly,
)
from .certify import (
    Certificate,
    CheckResult,
    build_certificate,
    lower_bound,
    phi_rank,
)
from .cyclotomic import (
    CyclotomicElement,
    CyclotomicField,
    cyclotomic_field,
)
from .exact import (
    BivariatePolynomial,
    UnivariatePolynomial,
)
from .skein import (
    AnnulusSkein,
    VanishingDenominator,
    bracket_e,
    d_squared,
    e_product,
    eval_nonseparating_curve,
    flat_curve_check,
    omega_coefficients,
    quantum_integer,
    recoloring_check,
)
from .verlinde import (
    IntegralityError,
    ParityViolation,
    StructureViolation,
    decompose,
    dimension,
    fusion_dimension,
    fusion_table,
    level_dimensions,
    odd_color_polynomial,
    oracle_crosscheck,
    parity_checks,
    verlinde_polynomial,
)

__version__ = "0.1.0"
