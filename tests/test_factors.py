from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squigonometry as sg
from squigonometry import (
    ConvergenceError,
    DomainError,
    FactorSequence,
    ParameterError,
    SquigParams,
    ZeroDenominatorError,
)

# Leading factors of the p=4 cosquine expansion, frozen.
COSQUINE_P4_FACTORS = ("1", "1/4", "9/40", "149/540")


def make_sequence(params: SquigParams, J: int) -> FactorSequence:
    return sg.factor_sequence(sg.integer_maclaurin(params, J), params)


def test_cosquine_p4_factors_frozen():
    seq = make_sequence(SquigParams(p=4, m=1, n=0), 3)
    assert tuple(str(a) for a in seq.exact) == COSQUINE_P4_FACTORS
    assert seq.floats == tuple(float(a) for a in seq.exact)
    assert seq.J == 3


def test_first_factor_is_one():
    for p in (2, 3, 4, 6):
        for m, n in ((1, 0), (0, 1), (2, 1)):
            seq = make_sequence(SquigParams(p=p, m=m, n=n), 2)
            assert seq.exact[0] == 1


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=0, max_value=3),
    n=st.integers(min_value=0, max_value=3),
    J=st.integers(min_value=1, max_value=8),
)
def test_partial_products_rebuild_numerators(p, m, n, J):
    if m == 0 and n == 0:
        return
    params = SquigParams(p=p, m=m, n=n)
    nums = sg.integer_maclaurin(params, J)
    seq = sg.factor_sequence(nums, params)
    prod = Fraction(1)
    for j, a in enumerate(seq.exact):
        prod *= a
        assert prod * math.factorial(n + p * j) == nums[j]


def test_factor_expansion_matches_horner(pi4):
    # The full table: t = 1.0 lies past the quarter period the context's
    # prefix is cut for.
    params = SquigParams(p=4, m=1, n=0)
    seq = make_sequence(params, 50)
    table = sg.maclaurin(params, pi4.J_used)
    for t in (0.3, 0.7, 1.0):
        value, used = sg.eval_factor_expansion(seq, t, 2.0 ** -53)
        direct = sg.horner_sparse(table, t)
        assert value == pytest.approx(direct, abs=2e-15)
        assert 0 < used <= 51


def test_factor_expansion_t_zero():
    seq = make_sequence(SquigParams(p=4, m=1, n=0), 10)
    assert sg.eval_factor_expansion(seq, 0.0, 1e-12) == (1.0, 1)
    seq_s = make_sequence(SquigParams(p=4, m=0, n=1), 10)
    assert sg.eval_factor_expansion(seq_s, 0.0, 1e-12) == (0.0, 1)


def test_factor_expansion_drop_semantics():
    # The first update below epsilon is dropped, not added.
    seq = make_sequence(SquigParams(p=4, m=1, n=0), 30)
    value, used = sg.eval_factor_expansion(seq, 0.5, 1e-6)
    tighter, used_tight = sg.eval_factor_expansion(seq, 0.5, 2.0 ** -53)
    assert used < used_tight
    assert value == pytest.approx(tighter, abs=1e-5)
    # Reconstruct by hand: t^0 plus signed products while >= eps.
    by_hand = 1.0
    term = 1.0
    count = 1
    for j in range(1, seq.J + 1):
        term = -seq.floats[j] * 0.5 ** 4 * term
        if abs(term) < 1e-6:
            break
        by_hand += term
        count += 1
    assert (value, used) == (by_hand, count)


def test_factor_expansion_exhaustion():
    seq = make_sequence(SquigParams(p=4, m=1, n=0), 2)
    with pytest.raises(ConvergenceError):
        sg.eval_factor_expansion(seq, 1.0, 2.0 ** -53)


def test_factor_expansion_epsilon_validation():
    seq = make_sequence(SquigParams(p=4, m=1, n=0), 5)
    with pytest.raises(ParameterError):
        sg.eval_factor_expansion(seq, 0.5, 0.0)
    with pytest.raises(ParameterError):
        sg.eval_factor_expansion(seq, 0.5, -1e-9)


@pytest.mark.parametrize("p,m,n", [(2, 0, 1), (3, 1, 0), (4, 1, 0), (4, 0, 1), (6, 2, 1)])
def test_continued_fraction_equals_partial_sums(p, m, n):
    params = SquigParams(p=p, m=m, n=n)
    seq = make_sequence(params, 12)
    for t in (0.2, 0.5, 0.9):
        for depth in range(13):
            total = math.fsum(
                (-1.0) ** j * math.prod(seq.floats[: j + 1]) * t ** (n + p * j)
                for j in range(depth + 1)
            )
            cf = sg.continued_fraction(seq, t, depth)
            assert cf == pytest.approx(total, rel=1e-12, abs=1e-15)


def test_continued_fraction_depth_zero():
    seq = make_sequence(SquigParams(p=4, m=0, n=1), 5)
    assert sg.continued_fraction(seq, 0.7, 0) == 0.7
    seq_c = make_sequence(SquigParams(p=4, m=1, n=0), 5)
    assert sg.continued_fraction(seq_c, 0.7, 0) == 1.0


def test_continued_fraction_zero_denominator():
    fake = FactorSequence(
        params=SquigParams(p=4, m=1, n=0),
        J=1,
        exact=(Fraction(1), Fraction(1)),
        floats=(1.0, 1.0),
    )
    # Bottom level is 1 - 1 * 1^4 = 0.
    with pytest.raises(ZeroDenominatorError):
        sg.continued_fraction(fake, 1.0, 1)


def test_continued_fraction_validation():
    seq = make_sequence(SquigParams(p=4, m=1, n=0), 3)
    with pytest.raises(ParameterError):
        sg.continued_fraction(seq, 0.5, 4)
    with pytest.raises(ParameterError):
        sg.continued_fraction(seq, 0.5, -1)


def test_integer_cf_classical_sine_levels():
    params = SquigParams(p=2, m=0, n=1)
    lead, levels = sg.integer_cf_terms(sg.integer_maclaurin(params, 3), params)
    assert lead == (1, 1)
    assert levels == [(1, 6, 1), (6, 20, 1), (20, 42, 1)]
    assert all(f == 1 for _, _, f in levels)


def test_integer_cf_matches_float_cf():
    for p, m, n in ((2, 0, 1), (4, 1, 0), (4, 0, 1), (3, 2, 1)):
        params = SquigParams(p=p, m=m, n=n)
        nums = sg.integer_maclaurin(params, 8)
        seq = sg.factor_sequence(nums, params)
        lead, levels = sg.integer_cf_terms(nums, params)
        for t in (0.3, 0.8):
            for depth in (1, 4, 8):
                a = sg.continued_fraction(seq, t, depth)
                b = sg.evaluate_integer_cf(lead, levels, params, t, depth)
                assert b == pytest.approx(a, rel=1e-13, abs=1e-15)


def test_integer_cf_depth_zero():
    params = SquigParams(p=4, m=0, n=1)
    nums = sg.integer_maclaurin(params, 3)
    lead, levels = sg.integer_cf_terms(nums, params)
    assert sg.evaluate_integer_cf(lead, levels, params, 0.5, 0) == 0.5


def test_pi_from_factors_p4():
    # First-order tail estimate: rel error ~ 1/(2J), good to seed iteration.
    params = SquigParams(p=4, m=1, n=0)
    seq = make_sequence(params, 80)
    pi_p = sg.pi_gamma(4)
    est_coarse = sg.pi_from_factors(seq.floats[30], 4)
    est_fine = sg.pi_from_factors(seq.floats[80], 4)
    assert abs(est_coarse - pi_p) / pi_p < 0.005
    assert abs(est_fine - pi_p) < abs(est_coarse - pi_p)
    assert abs(est_fine - pi_p) / pi_p < 0.002


def test_pi_from_factors_p2_degenerate():
    # cos(pi/2) = 0 kills the formula's leverage; the estimate is useless.
    seq = make_sequence(SquigParams(p=2, m=1, n=0), 30)
    est = sg.pi_from_factors(seq.floats[30], 2)
    assert 0.0 <= est < 0.01


def test_pi_from_factors_validation():
    with pytest.raises(ParameterError):
        sg.pi_from_factors(0.25, 1)
    with pytest.raises(ParameterError):
        sg.pi_from_factors(0.0, 4)
    with pytest.raises(ParameterError):
        sg.pi_from_factors(-0.1, 4)


def test_factor_sequence_validation():
    with pytest.raises(ParameterError):
        sg.factor_sequence((1, 1), SquigParams(p=2, m=-1, n=1))
    with pytest.raises(ParameterError):
        sg.factor_sequence((), SquigParams(p=4, m=1, n=0))
    params = SquigParams(p=4, m=1, n=0)
    with pytest.raises(ParameterError):
        sg.integer_cf_terms((), params)


@pytest.mark.parametrize("bad", [0, -5])
def test_numerators_must_be_positive(bad):
    # F_j divides later factors and levels; a zero or negative one names
    # its index instead of dividing by zero or flipping signs.
    params = SquigParams(p=4, m=1, n=0)
    for build in (sg.factor_sequence, sg.integer_cf_terms):
        with pytest.raises(ParameterError, match=r"numerators\[1\]"):
            build((1, bad, 2268), params)


def test_constant_function_has_no_factors():
    # cq^0 sq^0 = 1 has numerators (1, 0, 0, ...): no term ratio exists.
    params = SquigParams(p=4, m=0, n=0)
    with pytest.raises(ParameterError):
        sg.factor_sequence(sg.integer_maclaurin(params, 3), params)


@pytest.mark.parametrize(
    "lead,levels,depth,level",
    [
        ((1, 1), [(1, 1, 1), (1, 1, 1)], 2, 2),
        ((1, -1), [(1, 2, 1)], 1, 0),
        ((1, 0), [(1, 1, 1)], 0, 0),
    ],
)
def test_integer_cf_vanishing_denominator_names_its_level(lead, levels, depth, level):
    # At t = 1 the level-2 denominator 1 - 1, the level-0 one -1 + 1 / (2 - 1)
    # and, at depth 0, a zero lead denominator are exactly zero.
    with pytest.raises(ZeroDenominatorError, match=f"at level {level}, t=1.0"):
        sg.evaluate_integer_cf(lead, levels, SquigParams(2, 1, 0), 1.0, depth)


def test_cf_refolds_a_denominator_that_cancels_in_binary64():
    # At p = 2, t = 1e100 the level-0 denominator n! + N_1 t^p / v rounds to
    # n! - n! = 0, though the depth-1 value t - a_1 t^3 is finite; the
    # exact refold rounds it once.  At depth 2 the value overflows binary64.
    params = SquigParams(2, 0, 1)
    numerators = sg.integer_maclaurin(params, 3)
    lead, levels = sg.integer_cf_terms(numerators, params)
    fs = sg.factor_sequence(numerators, params)
    t = Fraction(1e100)
    assert sg.evaluate_integer_cf(lead, levels, params, 1e100, 1) == float(t - t ** 3 / 6)
    assert sg.continued_fraction(fs, 1e100, 1) == float(t - t ** 3 * Fraction(fs.floats[1]))
    for evaluate in (lambda: sg.evaluate_integer_cf(lead, levels, params, 1e100, 2),
                     lambda: sg.continued_fraction(fs, 1e100, 2)):
        with pytest.raises(DomainError, match="depth-2 value overflows binary64"):
            evaluate()


@pytest.mark.parametrize("m,n", [(1, 0), (0, 1), (2, 1)])
def test_cf_refolds_a_binary64_fold_that_is_not_finite(m, n):
    # At p = 3, t = 1e100 a binary64 level overflows on the way and the fold
    # came out NaN from depth 4 or 5 on; the exact refold finds each value
    # past binary64.
    params = SquigParams(3, m, n)
    lead, levels = sg.integer_cf_terms(sg.integer_maclaurin(params, 12), params)
    fs = sg.factor_sequence(sg.integer_maclaurin(params, 12), params)
    for depth in range(4, 13):
        for evaluate in (lambda: sg.evaluate_integer_cf(lead, levels, params, 1e100, depth),
                         lambda: sg.continued_fraction(fs, 1e100, depth)):
            with pytest.raises(DomainError, match=f"depth-{depth} value overflows binary64"):
                evaluate()
