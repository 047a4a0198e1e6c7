"""Bad-input contract: every public entry point rejects malformed values alike.

Structural parameters (degrees, powers, orders, sizes, tolerances) raise
ParameterError; numeric arguments (evaluation points, pi_p, polynomial
roots) raise DomainError.  Both derive from SquigError.
"""

from __future__ import annotations

import math
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest

import squigonometry as sg
from squigonometry import ConvergenceError, CostGuardError, DomainError, ParameterError
from squigonometry import SquigError, SquigParams
from squigonometry.errors import shown

# Decimal("sNaN") raises a bare ValueError where math converts it to float.
BAD_VALUES = (True, math.nan, math.inf, "x", None, Decimal("sNaN"))

P = SquigParams(p=4, m=1, n=0)
Q = SquigParams(p=4, m=0, n=2)


def _fs():
    return sg.factor_sequence(sg.integer_maclaurin(P, 6), P)


def _icf():
    return sg.integer_cf_terms(sg.integer_maclaurin(P, 6), P)


# name -> (call taking (ctx4, ctx3, bad value), expected error).  Each call
# is valid except for the one parameter fed the bad value.
CASES = {
    "SquigParams.p": (lambda c4, c3, v: SquigParams(v, 1, 0), ParameterError),
    "SquigParams.m": (lambda c4, c3, v: SquigParams(4, v, 0), ParameterError),
    "SquigParams.n": (lambda c4, c3, v: SquigParams(4, 1, v), ParameterError),
    "compute_pi.p": (lambda c4, c3, v: sg.compute_pi(v), ParameterError),
    "compute_pi.epsilon": (lambda c4, c3, v: sg.compute_pi(4, v), ParameterError),
    "build_context.p": (lambda c4, c3, v: sg.build_context(v), ParameterError),
    "build_context.epsilon": (lambda c4, c3, v: sg.build_context(4, v), ParameterError),
    "EvalContext.p": (lambda c4, c3, v: sg.EvalContext(v), ParameterError),
    "EvalContext.epsilon": (lambda c4, c3, v: sg.EvalContext(4, v), ParameterError),
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
    # The message starts with the parameter as the signature spells it ("t",
    # "numerators[1]"): the case name after the dot, less a qualifier that
    # tells two cases of one parameter apart.
    call, expected = CASES[case]
    name = re.escape(case.split(".")[1].removesuffix("_odd_p"))
    with pytest.raises(expected, match=rf"^{name}(\[\d+\])? "):
        call(ctx4, ctx3, bad)


# Finite arguments whose powers, coefficients or quadrature nodes overflow
# binary64: a typed SquigError, never a bare OverflowError.
OVERFLOWS = {
    "horner_sparse.t^p": (lambda c4: sg.horner_sparse(c4.sq_table, 1e78), DomainError),
    "horner_sparse.sum": (
        lambda c4: sg.horner_sparse(c4.sq_table, 1e20), DomainError,
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
    "kth_derivative_value.row": (  # row 152 of (4, 1, 0) holds integers past binary64
        lambda c4: sg.kth_derivative_value(c4, sg.build_triangle(P, 152), 152, 0.5),
        CostGuardError,
    ),
    # Powers of a thousand bits and more, and a power of t past binary64.
    "maclaurin.m": (lambda c4: sg.maclaurin(SquigParams(4, 10 ** 400, 0), 3), ConvergenceError),
    "maclaurin.n": (lambda c4: sg.maclaurin(SquigParams(4, 0, 2 ** 1000), 3), ConvergenceError),
    "beta_value.power": (lambda c4: sg.beta_value(4, 10 ** 400, 0), CostGuardError),
    # Beta arguments (m + 1) / p past binary64, and a Gamma value past it.
    "beta_gamma.m": (lambda c4: sg.beta_gamma(4, 10 ** 400, 0), DomainError),
    "beta_gamma.n": (lambda c4: sg.beta_gamma(4, 0, 10 ** 400), DomainError),
    "beta_gamma.gamma": (lambda c4: sg.beta_gamma(4, 685, 0), DomainError),
    "beta_quadrature_oracle.m": (
        lambda c4: sg.beta_quadrature_oracle(4, 10 ** 400, 0), DomainError,
    ),
    "beta_quadrature_oracle.n": (
        lambda c4: sg.beta_quadrature_oracle(4, 0, 10 ** 400), DomainError,
    ),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflow_raises_typed_error(case, ctx4):
    call, expected = OVERFLOWS[case]
    with pytest.raises(expected):
        call(ctx4)


# Degrees p past binary64, or whose decay rate rounds to 1.0 (2^30): a typed
# SquigError, never a bare OverflowError from a float conversion of p.
HUGE_P = {
    "compute_pi": (lambda: sg.compute_pi(10 ** 400), CostGuardError),
    "compute_pi.rate_1": (lambda: sg.compute_pi(2 ** 30), CostGuardError),
    "build_context": (lambda: sg.build_context(2 ** 1100), CostGuardError),
    "EvalContext": (lambda: sg.EvalContext(2 ** 1100), CostGuardError),
    "maclaurin": (lambda: sg.maclaurin(SquigParams(10 ** 400, 0, 1), 3), ConvergenceError),
    "pi_gamma": (lambda: sg.pi_gamma(10 ** 400), DomainError),
    "pi_gamma.gamma": (lambda: sg.pi_gamma(10 ** 200), DomainError),
    "beta_gamma": (lambda: sg.beta_gamma(10 ** 400, 0, 0), DomainError),
    "beta_quadrature_oracle": (lambda: sg.beta_quadrature_oracle(10 ** 400, 0, 0), DomainError),
    "arcsq_oracle": (lambda: sg.arcsq_oracle(0.5, 10 ** 400), ParameterError),
    "estimate_terms": (lambda: sg.estimate_terms(10 ** 400, 4.0, 1e-6), ParameterError),
}


@pytest.mark.parametrize("case", sorted(HUGE_P))
def test_degree_past_binary64_raises_typed_error(case):
    call, expected = HUGE_P[case]
    with pytest.raises(expected):
        call()


def test_radius_takes_a_degree_past_binary64():
    # cos(pi / p) is 1.0 long before p leaves binary64, so R is pi_p / 4.
    assert sg.radius(10 ** 400, 4.0) == sg.radius(2 ** 64, 4.0) == 1.0
    assert sg.radius(2 ** 28, 4.0) > 1.0


# Orders whose islice bound or list length passes sys.maxsize: ParameterError
# naming the argument, not islice's ValueError or an OverflowError.
ORDERS = {
    "build_triangle.K": lambda: sg.build_triangle(P, 2 ** 63),
    "integer_maclaurin.J": lambda: sg.integer_maclaurin(P, 2 ** 63),
    "integer_maclaurin.n": lambda: sg.integer_maclaurin(SquigParams(4, 0, 2 ** 63), 1),
    "root_ladder.k_max": lambda: sg.root_ladder(P, 2 ** 63),
    "matrix_factorial_row.size": lambda: sg.matrix_factorial_row(P, 2, 2 ** 63),
    "real_roots.k": lambda: sg.real_roots(sg.DerivPolynomial(P, 2 ** 63, ())),
}


@pytest.mark.parametrize("case", sorted(ORDERS))
def test_order_past_sys_maxsize_raises_parameter_error(case):
    name = case.split(".")[1]
    with pytest.raises(ParameterError, match=rf"^{name} must be an int in \[\d+, \d+\], got {2 ** 63}$"):
        ORDERS[case]()


def _huge_fs(p: int, n: int) -> sg.FactorSequence:
    # The factors 1, 1/4 of cq at circle degree p, scaled by t^n.
    return sg.FactorSequence(SquigParams(p, 1, n), 1, (Fraction(1), Fraction(1, 4)), (1.0, 0.25))


# An int of 5001 digits, past the 4300 that CPython 3.11 converts to str: each
# refusal names it by its bit length, not by the conversion's bare ValueError.
HUGE = 10 ** 5000
HUGE_INTS = {
    "build_triangle.K": lambda c4: sg.build_triangle(P, HUGE),
    "integer_maclaurin.J": lambda c4: sg.integer_maclaurin(P, HUGE),
    "root_ladder.k_max": lambda c4: sg.root_ladder(P, HUGE),
    "coefficient.k": lambda c4: sg.coefficient(sg.build_triangle(P, 3), HUGE, 0),
    "q_polynomial.k": lambda c4: sg.q_polynomial(sg.build_triangle(P, 3), HUGE),
    "kth_derivative_value.k": lambda c4: sg.kth_derivative_value(c4, sg.build_triangle(P, 3), HUGE, 0.5),
    "continued_fraction.depth": lambda c4: sg.continued_fraction(_fs(), 0.5, HUGE),
    "explicit_coefficient.k": lambda c4: sg.explicit_coefficient(P, HUGE, 0),
    "enumerate_nonzero.k": lambda c4: sg.enumerate_nonzero(P, HUGE, 0),
    "corollary_coefficient.j": lambda c4: sg.corollary_coefficient(P, HUGE),
    "matrix_factorial_row.k": lambda c4: sg.matrix_factorial_row(P, HUGE, 3),
    "compute_pi.p": lambda c4: sg.compute_pi(HUGE),
    "build_context.p": lambda c4: sg.build_context(HUGE),
    "EvalContext.p": lambda c4: sg.EvalContext(HUGE),
    "estimate_terms.p": lambda c4: sg.estimate_terms(HUGE, 3.7, 1e-6),
    "pi_gamma.p": lambda c4: sg.pi_gamma(HUGE),
    "arcsq_oracle.p": lambda c4: sg.arcsq_oracle(0.5, HUGE),
    "beta_value.p": lambda c4: sg.beta_value(HUGE, 1, 1),
    "beta_value.m": lambda c4: sg.beta_value(4, HUGE, 1),
    "beta_gamma.m": lambda c4: sg.beta_gamma(4, HUGE, 1),
    "beta_quadrature_oracle.m": lambda c4: sg.beta_quadrature_oracle(4, HUGE, 1),
    # cq^HUGE at |cq| <= 1 has a limit, 0.0 or 1.0, so the message is the pole's.
    "pow_general.m": lambda c4: sg.pow_general(c4, HUGE, -1, 0.0),
    "maclaurin.m": lambda c4: sg.maclaurin(SquigParams(4, HUGE, 0), 3),
    "maclaurin.J": lambda c4: sg.maclaurin(P, HUGE),
    "critical_value.m": lambda c4: sg.critical_value(SquigParams(4, HUGE, 1)),
    "count_lower_bound.j": lambda c4: sg.count_lower_bound(1, 4, HUGE),
    # t^HUGE and t^p by checked_power overflow at t = 2.0.
    "horner_sparse.n": lambda c4, t=2.0: sg.horner_sparse(sg.MacLaurinTable(SquigParams(4, 0, HUGE), (1.0,)), t),
    "horner_sparse.p": lambda c4, t=2.0: sg.horner_sparse(sg.MacLaurinTable(SquigParams(HUGE, 0, 1), (1.0, 0.5)), t),
    "evaluate_integer_cf.n": lambda c4, t=2.0: sg.evaluate_integer_cf((1, 1), [], SquigParams(4, 0, HUGE), t, 0),
    "eval_factor_expansion.p": lambda c4, t=2.0: sg.eval_factor_expansion(_huge_fs(HUGE, 0), t, 0.5)[0],
    "continued_fraction.n": lambda c4, t=2.0: sg.continued_fraction(_huge_fs(4, HUGE), t, 0),
}
# Their values at t = 0.5, where t^HUGE is 0.0.
HUGE_POWERS = {
    "horner_sparse.n": 0.0, "horner_sparse.p": 0.5, "evaluate_integer_cf.n": 0.0,
    "eval_factor_expansion.p": 1.0, "continued_fraction.n": 0.0,
}


@pytest.mark.parametrize("case", sorted(HUGE_INTS))
def test_int_past_4300_digits_is_named_by_its_bit_length(case, ctx4):
    with pytest.raises(SquigError, match=r"<int of \d+ bits>"):
        HUGE_INTS[case](ctx4)


# Calls whose work grows with an int argument, and the largest int each
# accepts: (m + n) ceil(log2(m + n)) and (j - 1) ceil(log2(p - 1)) at the
# bit cap, J at the table cap.
CAPPED = {
    "critical_value.m": (lambda k: sg.critical_value(SquigParams(4, k, 1)), sg.MAX_BETA_BITS // 17 - 1),
    "count_lower_bound.j": (lambda k: sg.count_lower_bound(1, 4, k), sg.MAX_BETA_BITS // 2 + 1),
    "maclaurin.J": (lambda k: sg.maclaurin(SquigParams(2, 0, 1), k), sg.MAX_PI_TERMS),
}


@pytest.mark.parametrize("case", sorted(CAPPED))
def test_growing_int_is_refused_before_any_work(case):
    call, largest = CAPPED[case]
    start = time.perf_counter()
    with pytest.raises(CostGuardError, match=str(2 ** 63)):
        call(2 ** 63)
    assert time.perf_counter() - start < 0.1
    assert call(largest) is not None
    with pytest.raises(CostGuardError):
        call(largest + 1)


def test_shown_prints_small_ints_exactly():
    assert shown(10 ** 4300 - 1) == str(10 ** 4300 - 1)
    assert shown(10 ** 4300) == "<int of 14285 bits>"
    assert shown(-HUGE) == "<-int of 16610 bits>"
    assert shown(2.5) == "2.5" and shown("x") == "'x'"


def test_falling_factorial_stops_at_its_zero_factor():
    assert sg.falling_factorial(3, HUGE) == 0
    assert [sg.falling_factorial(x, 3) for x in (-1, 0, 2, 3, 5)] == [-6, 0, 0, 6, 60]


def test_pi_from_factors_takes_a_degree_past_binary64():
    # pi / min(p, 2^64) and 1 / p by int / int true division: no float(p).
    assert sg.pi_from_factors(0.1, 10 ** 400) == 4.0


def test_decimal_reals_are_taken_as_floats():
    # check_finite accepts a Decimal, so each entry point that takes a real
    # converts it, as the evaluators do, and answers as for the float.
    assert sg.radius(4, Decimal("3.7")) == sg.radius(4, 3.7)
    assert sg.estimate_terms(4, Decimal("3.7"), 1e-6) == sg.estimate_terms(4, 3.7, 1e-6)
    assert sg.arcsq_oracle(Decimal("0.5"), 4) == sg.arcsq_oracle(0.5, 4)
    assert sg.algebraic_values(Decimal("-1.5"), 4) == sg.algebraic_values(-1.5, 4)


def test_compute_pi_cache_rejects_float_degree():
    # The memo must not hand the int-4 record to a float degree.
    sg.compute_pi(4)
    with pytest.raises(ParameterError):
        sg.compute_pi(4.0)


# t^k by errors.checked_power, behind horner_sparse, eval_factor_expansion,
# continued_fraction and evaluate_integer_cf: t = +-0.0 to a negative power
# is a pole, and a power of any size names k as shown and keeps k's parity.
NEG_N = SquigParams(4, 0, -1)
POLES = {
    "horner_sparse.+0": lambda: sg.horner_sparse(sg.MacLaurinTable(NEG_N, (1.0, 0.5)), 0.0),
    "horner_sparse.-0": lambda: sg.horner_sparse(sg.MacLaurinTable(NEG_N, (1.0, 0.5)), -0.0),
    "evaluate_integer_cf.0": lambda: sg.evaluate_integer_cf((1, 1), [], NEG_N, 0.0, 0),
}


@pytest.mark.parametrize("case", sorted(POLES))
def test_negative_power_at_zero_is_a_pole(case):
    with pytest.raises(sg.PoleError, match=r"^t\^-1 has a pole at t=-?0\.0$"):
        POLES[case]()


def test_power_keeps_the_parity_and_limit_of_a_large_int(ctx4):
    # float ** int rounds 2^60 + 1 to the even 2^60, and fails to convert
    # 10^400 or 10^5000, where the power of 0.5 underflows to its limit 0.0.
    def power(k, t):
        return sg.horner_sparse(sg.MacLaurinTable(SquigParams(4, 0, k), (1.0,)), t)

    assert power(2 ** 60 + 1, -1.0) == -1.0 and power(2 ** 60, -1.0) == 1.0
    assert power(10 ** 400, 0.5) == 0.0 and repr(power(10 ** 400 + 1, -0.5)) == "-0.0"
    for call, value in HUGE_POWERS.items():
        assert HUGE_INTS[call](None, 0.5) == value, call
    with pytest.raises(DomainError, match=r"^t=1e\+100: t\^4 overflows binary64$"):
        sg.horner_sparse(ctx4.sq_table, 1e100)


# A MacLaurinTable holds SquigParams and a non-empty tuple of floats, so it
# hashes and compares as a value; NaN is a float and stays accepted.
BAD_TABLES = {
    "list": (P, [1.0, 0.5]),
    "str": (P, (1.0, "x")),
    "None": (P, (1.0, None)),
    "bool": (P, (True,)),
    "int": (P, (1, 0.5)),
    "empty": (P, ()),
    "params None": (None, (1.0,)),
    "params tuple": ((4, 1, 0), (1.0,)),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_malformed_table_is_refused(case):
    with pytest.raises(ParameterError, match="a MacLaurinTable needs SquigParams and a tuple of floats"):
        sg.MacLaurinTable(*BAD_TABLES[case])


# The evaluators' check on a context that folds node tables (p = 10): the
# same typed errors as on any other context.
NODE_CASES = {
    "sq.t": lambda ctx, v: sg.sq(ctx, v),
    "cq.t": lambda ctx, v: sg.cq(ctx, v),
    "reduce_argument.t": lambda ctx, v: sg.reduce_argument(ctx, v),
    "pow_general.t": lambda ctx, v: sg.pow_general(ctx, 2, 1, v),
}
NODE_PAIRS = [(case, bad) for case in sorted(NODE_CASES) for bad in BAD_VALUES]


@pytest.fixture(scope="module")
def ctx10() -> sg.EvalContext:
    ctx = sg.build_context(10)
    assert sg.evalcore._nodes(ctx).sq
    return ctx


@pytest.mark.parametrize("case,bad", NODE_PAIRS, ids=[f"{c}={b!r}" for c, b in NODE_PAIRS])
def test_bad_t_on_a_node_context_raises_typed_error(case, bad, ctx10):
    with pytest.raises(DomainError, match=r"^t must be a finite real"):
        NODE_CASES[case](ctx10, bad)
