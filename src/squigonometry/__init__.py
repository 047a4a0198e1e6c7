"""Squigonometry: exact and floating-point computation on the unit p-circle.

The squine and cosquine generalize sine and cosine to |x|^p + |y|^p = 1.
This package computes their derivative coefficient triangles exactly, builds
and evaluates their MacLaurin series, locates the interior zeros
of their derivatives with algebraic values attached, and produces the
constants pi_p and Beta values, all behind a CSV-emitting command line tool.
"""

from __future__ import annotations

from .constants import (
    MAX_PI_TERMS,
    PiRecord,
    beta_gamma,
    beta_quadrature_oracle,
    beta_value,
    compute_pi,
    pi_gamma,
)
from .derivpoly import (
    DerivPolynomial,
    RootSet,
    algebraic_values,
    critical_value,
    interlacing_check,
    kth_derivative_value,
    polynomial_step,
    q_polynomial,
    real_roots,
    root_ladder,
)
from .errors import (
    ConvergenceError,
    CostGuardError,
    DomainError,
    ParameterError,
    PoleError,
    RootCountError,
    SquigError,
    ZeroDenominatorError,
)
from .evalcore import (
    EvalContext,
    QuadrantReduction,
    arcsq_oracle,
    build_context,
    cq,
    horner_sparse,
    pow_general,
    reduce_argument,
    sq,
)
from .explicit import (
    MAX_COROLLARY_CHOICES,
    MAX_COROLLARY_ORDER,
    MAX_ENUMERATION_ORDER,
    MAX_EXPLICIT_ORDER,
    corollary_coefficient,
    count_lower_bound,
    enumerate_nonzero,
    explicit_coefficient,
    filter_nonzero_brute,
    matrix_factorial_row,
)
from .factors import (
    FactorSequence,
    continued_fraction,
    eval_factor_expansion,
    evaluate_integer_cf,
    factor_sequence,
    integer_cf_terms,
    pi_from_factors,
)
from .series import (
    EPS_DEFAULT,
    MacLaurinTable,
    estimate_terms,
    integer_maclaurin,
    maclaurin,
    radius,
)
from .triangle import (
    CoeffTriangle,
    SquigParams,
    band_limits,
    build_triangle,
    coefficient,
    falling_factorial,
    triangle_from_json,
    triangle_to_json,
    verify_structure,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffTriangle",
    "ConvergenceError",
    "CostGuardError",
    "DerivPolynomial",
    "DomainError",
    "EPS_DEFAULT",
    "EvalContext",
    "FactorSequence",
    "MAX_COROLLARY_CHOICES",
    "MAX_COROLLARY_ORDER",
    "MAX_ENUMERATION_ORDER",
    "MAX_EXPLICIT_ORDER",
    "MAX_PI_TERMS",
    "MacLaurinTable",
    "ParameterError",
    "PiRecord",
    "PoleError",
    "QuadrantReduction",
    "RootCountError",
    "RootSet",
    "SquigError",
    "SquigParams",
    "ZeroDenominatorError",
    "algebraic_values",
    "arcsq_oracle",
    "band_limits",
    "beta_gamma",
    "beta_quadrature_oracle",
    "beta_value",
    "build_context",
    "build_triangle",
    "coefficient",
    "compute_pi",
    "continued_fraction",
    "corollary_coefficient",
    "count_lower_bound",
    "cq",
    "critical_value",
    "enumerate_nonzero",
    "estimate_terms",
    "eval_factor_expansion",
    "evaluate_integer_cf",
    "explicit_coefficient",
    "factor_sequence",
    "falling_factorial",
    "filter_nonzero_brute",
    "horner_sparse",
    "integer_cf_terms",
    "integer_maclaurin",
    "interlacing_check",
    "kth_derivative_value",
    "maclaurin",
    "matrix_factorial_row",
    "pi_from_factors",
    "pi_gamma",
    "polynomial_step",
    "pow_general",
    "q_polynomial",
    "radius",
    "real_roots",
    "reduce_argument",
    "root_ladder",
    "sq",
    "triangle_from_json",
    "triangle_to_json",
    "verify_structure",
]
