"""Bad-input contract: every public entry point rejects malformed values alike.

Structural parameters (degrees, powers, orders, sizes, tolerances) raise
ParameterError; numeric arguments (evaluation points, pi_p, polynomial
roots) raise DomainError.  Both derive from SquigError.
"""

from __future__ import annotations

import math
import os
import tempfile
from decimal import Decimal

import pytest

import squigonometry as sg
from squigonometry import CostGuardError, DomainError, ParameterError
from squigonometry import SquigParams, cli

# Decimal("sNaN") raises a bare ValueError where math converts it to float.
BAD_VALUES = (True, math.nan, math.inf, "x", None, Decimal("sNaN"))

P = SquigParams(p=4, m=1, n=0)
Q = SquigParams(p=4, m=0, n=2)


def _fs():
    return sg.factor_sequence(sg.integer_maclaurin(P, 6), P)


def _icf():
    return sg.integer_cf_terms(sg.integer_maclaurin(P, 6), P)


def _load(p, epsilon):
    # load_context on a file that holds a good p = 4 entry, so only the
    # argument itself can be at fault.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, cli.CACHE_BASENAME)
        cli.save_tables(path, 4)
        return cli.load_context(path, p, epsilon)


# name -> (call taking (ctx4, ctx3, bad value), expected error).  Each call
# is valid except for the one parameter fed the bad value.
CASES = {
    "compute_pi.p": (lambda c4, c3, v: sg.compute_pi(v), ParameterError),
    "compute_pi.epsilon": (lambda c4, c3, v: sg.compute_pi(4, v), ParameterError),
    "build_context.p": (lambda c4, c3, v: sg.build_context(v), ParameterError),
    "build_context.epsilon": (lambda c4, c3, v: sg.build_context(4, v), ParameterError),
    "load_context.p": (lambda c4, c3, v: _load(v, sg.EPS_DEFAULT), ParameterError),
    "load_context.epsilon": (lambda c4, c3, v: _load(4, v), ParameterError),
    "sq.t": (lambda c4, c3, v: sg.sq(c4, v), DomainError),
    "cq.t": (lambda c4, c3, v: sg.cq(c4, v), DomainError),
    "reduce_argument.t": (lambda c4, c3, v: sg.reduce_argument(c4, v), DomainError),
    "horner_sparse.t": (lambda c4, c3, v: sg.horner_sparse(c4.sq_table, v), DomainError),
    "pow_general.m": (lambda c4, c3, v: sg.pow_general(c4, v, 1, 0.5), ParameterError),
    "pow_general.n": (lambda c4, c3, v: sg.pow_general(c4, 2, v, 0.5), ParameterError),
    "pow_general.t": (lambda c4, c3, v: sg.pow_general(c4, 2, 1, v), DomainError),
    "pow_general.t_odd_p": (lambda c4, c3, v: sg.pow_general(c3, -1, 1, v), DomainError),
    "beta_value.p": (lambda c4, c3, v: sg.beta_value(v, 1, 0), ParameterError),
    "beta_value.m": (lambda c4, c3, v: sg.beta_value(4, v, 0), ParameterError),
    "beta_value.n": (lambda c4, c3, v: sg.beta_value(4, 1, v), ParameterError),
    "beta_value.epsilon": (lambda c4, c3, v: sg.beta_value(4, 1, 0, v), ParameterError),
    "beta_gamma.p": (lambda c4, c3, v: sg.beta_gamma(v, 1, 0), ParameterError),
    "beta_gamma.m": (lambda c4, c3, v: sg.beta_gamma(4, v, 0), ParameterError),
    "beta_gamma.n": (lambda c4, c3, v: sg.beta_gamma(4, 1, v), ParameterError),
    "pi_gamma.p": (lambda c4, c3, v: sg.pi_gamma(v), ParameterError),
    "estimate_terms.p": (lambda c4, c3, v: sg.estimate_terms(v, 3.7, 1e-10), ParameterError),
    "estimate_terms.pi_p": (lambda c4, c3, v: sg.estimate_terms(4, v, 1e-10), DomainError),
    "estimate_terms.epsilon": (lambda c4, c3, v: sg.estimate_terms(4, 3.7, v), ParameterError),
    "radius.p": (lambda c4, c3, v: sg.radius(v, 3.7), ParameterError),
    "radius.pi_p": (lambda c4, c3, v: sg.radius(4, v), DomainError),
    "maclaurin.J": (lambda c4, c3, v: sg.maclaurin(P, v), ParameterError),
    "integer_maclaurin.J": (lambda c4, c3, v: sg.integer_maclaurin(P, v), ParameterError),
    "build_triangle.K": (lambda c4, c3, v: sg.build_triangle(P, v), ParameterError),
    "root_ladder.k_max": (lambda c4, c3, v: sg.root_ladder(P, v), ParameterError),
    "explicit_coefficient.k": (lambda c4, c3, v: sg.explicit_coefficient(P, v, 1), ParameterError),
    "explicit_coefficient.j": (lambda c4, c3, v: sg.explicit_coefficient(P, 4, v), ParameterError),
    "matrix_factorial_row.k": (lambda c4, c3, v: sg.matrix_factorial_row(P, v, 8), ParameterError),
    "matrix_factorial_row.size": (
        lambda c4, c3, v: sg.matrix_factorial_row(P, 4, v), ParameterError,
    ),
    "corollary_coefficient.j": (lambda c4, c3, v: sg.corollary_coefficient(P, v), ParameterError),
    "continued_fraction.t": (lambda c4, c3, v: sg.continued_fraction(_fs(), v, 3), DomainError),
    "continued_fraction.depth": (
        lambda c4, c3, v: sg.continued_fraction(_fs(), 0.5, v), ParameterError,
    ),
    "arcsq_oracle.x": (lambda c4, c3, v: sg.arcsq_oracle(v, 4), DomainError),
    "arcsq_oracle.p": (lambda c4, c3, v: sg.arcsq_oracle(0.5, v), ParameterError),
    "arcsq_oracle.tol": (lambda c4, c3, v: sg.arcsq_oracle(0.5, 4, v), ParameterError),
    "algebraic_values.u": (lambda c4, c3, v: sg.algebraic_values(v, 4), DomainError),
    "algebraic_values.p": (lambda c4, c3, v: sg.algebraic_values(-1.0, v), ParameterError),
    "coefficient.k": (
        lambda c4, c3, v: sg.coefficient(sg.build_triangle(P, 6), v, 1), ParameterError,
    ),
    "coefficient.j": (
        lambda c4, c3, v: sg.coefficient(sg.build_triangle(P, 6), 4, v), ParameterError,
    ),
    "q_polynomial.k": (
        lambda c4, c3, v: sg.q_polynomial(sg.build_triangle(P, 6), v), ParameterError,
    ),
    "band_limits.k": (lambda c4, c3, v: sg.band_limits(P, v), ParameterError),
    "falling_factorial.x": (lambda c4, c3, v: sg.falling_factorial(v, 2), ParameterError),
    "falling_factorial.k": (lambda c4, c3, v: sg.falling_factorial(5, v), ParameterError),
    "beta_quadrature_oracle.p": (
        lambda c4, c3, v: sg.beta_quadrature_oracle(v, 1, 0), ParameterError,
    ),
    "beta_quadrature_oracle.m": (
        lambda c4, c3, v: sg.beta_quadrature_oracle(4, v, 0), ParameterError,
    ),
    "beta_quadrature_oracle.n": (
        lambda c4, c3, v: sg.beta_quadrature_oracle(4, 1, v), ParameterError,
    ),
    "beta_quadrature_oracle.tol": (
        lambda c4, c3, v: sg.beta_quadrature_oracle(4, 1, 0, v), ParameterError,
    ),
    "kth_derivative_value.k": (
        lambda c4, c3, v: sg.kth_derivative_value(c4, sg.build_triangle(P, 6), v, 0.5),
        ParameterError,
    ),
    "kth_derivative_value.t": (
        lambda c4, c3, v: sg.kth_derivative_value(c4, sg.build_triangle(P, 6), 2, v),
        DomainError,
    ),
    "eval_factor_expansion.t": (
        lambda c4, c3, v: sg.eval_factor_expansion(_fs(), v, 1e-10), DomainError,
    ),
    "eval_factor_expansion.epsilon": (
        lambda c4, c3, v: sg.eval_factor_expansion(_fs(), 0.5, v), ParameterError,
    ),
    "enumerate_nonzero.k": (lambda c4, c3, v: sg.enumerate_nonzero(P, v, 1), ParameterError),
    "enumerate_nonzero.j": (lambda c4, c3, v: sg.enumerate_nonzero(P, 4, v), ParameterError),
    "filter_nonzero_brute.k": (
        lambda c4, c3, v: sg.filter_nonzero_brute(P, v, 1), ParameterError,
    ),
    "filter_nonzero_brute.j": (
        lambda c4, c3, v: sg.filter_nonzero_brute(P, 4, v), ParameterError,
    ),
    "count_lower_bound.n": (lambda c4, c3, v: sg.count_lower_bound(v, 4, 2), ParameterError),
    "count_lower_bound.p": (lambda c4, c3, v: sg.count_lower_bound(0, v, 2), ParameterError),
    "count_lower_bound.j": (lambda c4, c3, v: sg.count_lower_bound(0, 4, v), ParameterError),
    "pi_from_factors.a_tail": (lambda c4, c3, v: sg.pi_from_factors(v, 4), DomainError),
    "pi_from_factors.p": (lambda c4, c3, v: sg.pi_from_factors(0.1, v), ParameterError),
    "factor_sequence.numerators": (
        lambda c4, c3, v: sg.factor_sequence((1, v, 2268), P), ParameterError,
    ),
    "integer_cf_terms.numerators": (
        lambda c4, c3, v: sg.integer_cf_terms((1, v, 2268), P), ParameterError,
    ),
    "evaluate_integer_cf.t": (
        lambda c4, c3, v: sg.evaluate_integer_cf(*_icf(), P, v, 3), DomainError,
    ),
    "evaluate_integer_cf.depth": (
        lambda c4, c3, v: sg.evaluate_integer_cf(*_icf(), P, 0.5, v), ParameterError,
    ),
}


PAIRS = [(case, bad) for case in sorted(CASES) for bad in BAD_VALUES]


@pytest.mark.parametrize("case,bad", PAIRS, ids=[f"{c}={b!r}" for c, b in PAIRS])
def test_bad_input_raises_typed_error(case, bad, ctx4, ctx3):
    call, expected = CASES[case]
    with pytest.raises(expected):
        call(ctx4, ctx3, bad)


# Finite arguments whose powers, coefficients or quadrature nodes overflow
# binary64: a typed SquigError, never a bare OverflowError.
OVERFLOWS = {
    "horner_sparse.t^p": (lambda c4: sg.horner_sparse(c4.sq_table, 1e78), DomainError),
    "horner_sparse.sum": (
        lambda c4: sg.horner_sparse(sg.compute_pi(4).sq_table, 1e20), DomainError,
    ),
    "eval_factor_expansion.t^p": (
        lambda c4: sg.eval_factor_expansion(_fs(), 1e200, 1e-10), DomainError,
    ),
    "continued_fraction.t^p": (lambda c4: sg.continued_fraction(_fs(), 1e200, 3), DomainError),
    "evaluate_integer_cf.t^p": (
        lambda c4: sg.evaluate_integer_cf(*_icf(), P, 1e200, 3), DomainError,
    ),
    "evaluate_integer_cf.t^n": (
        lambda c4: sg.evaluate_integer_cf(
            *sg.integer_cf_terms(sg.integer_maclaurin(Q, 1), Q), Q, 1e200, 0,
        ),
        DomainError,
    ),
    "evaluate_integer_cf.depth": (
        lambda c4: sg.evaluate_integer_cf(
            *sg.integer_cf_terms(sg.integer_maclaurin(P, 27), P), P, 0.5, 27,
        ),
        CostGuardError,
    ),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflow_raises_typed_error(case, ctx4):
    call, expected = OVERFLOWS[case]
    with pytest.raises(expected):
        call(ctx4)


def test_compute_pi_cache_rejects_float_degree():
    # The memo must not hand the int-4 record to a float degree.
    sg.compute_pi(4)
    with pytest.raises(ParameterError):
        sg.compute_pi(4.0)
