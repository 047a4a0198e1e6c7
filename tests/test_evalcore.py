from __future__ import annotations

import copy
import copyreg
import dataclasses
import io
import math
import pickle
import random
import struct
import sys
import threading
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squigonometry as sg
from decimal_reference import arcsq, sq_cq, ulps
from squigonometry import CostGuardError, DomainError, ParameterError, constants, evalcore


def test_context_fields(ctx4, pi4):
    assert ctx4.p == 4
    assert ctx4.quarter == pi4.value / 4.0
    assert ctx4.pi_p == pi4.value
    assert ctx4.sq_table.params.n == 1 and ctx4.sq_table.params.m == 0
    assert ctx4.cq_table.params.n == 0 and ctx4.cq_table.params.m == 1
    assert ctx4.epsilon == 2.0 ** -53


def test_context_precomputes_the_reduction_constants(ctx4):
    assert ctx4.pi_p == 4.0 * ctx4.quarter
    assert ctx4.half == 2.0 * ctx4.quarter
    assert ctx4.period == 2.0 * ctx4.pi_p
    # Derived from quarter: not fields, so not constructor arguments, not
    # part of equality, and recomputed by dataclasses.replace from (p, epsilon).
    same = sg.EvalContext(4, ctx4.epsilon)
    assert same == ctx4 and (same.pi_p, same.half, same.period) == (ctx4.pi_p, ctx4.half, ctx4.period)
    assert "period" not in repr(ctx4)
    moved = dataclasses.replace(ctx4, epsilon=1e-6)
    assert moved.pi_p == ctx4.pi_p and moved.period == ctx4.period
    with pytest.raises(TypeError, match="period"):
        dataclasses.replace(ctx4, period=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx4.period = 1.0


def test_context_table_size_matches_estimate(ctx4, pi4):
    # The record's J_used is sized for t = 1; the context's tables are prefixes
    # of the tables of that length.
    want = sg.estimate_terms(4, ctx4.pi_p, ctx4.epsilon)
    assert pi4.J_used == want == 34
    assert max(ctx4.sq_table.J, ctx4.cq_table.J) < want


def _deep_end_cut(table, top, epsilon):
    # The oracle of the trim rule: the table less the tail whose terms at
    # nextafter(top) are within epsilon / 64 of a_0, scanned from the deep
    # end, which stops at the first term it keeps, so only a tail is cut.
    floats, p = table.floats, table.params.p
    x = math.nextafter(top, math.inf)
    bound = epsilon / 64.0 * floats[0]
    keep = len(floats)
    while keep > 1 and floats[keep - 1] * x ** (p * (keep - 1)) <= bound:
        keep -= 1
    return sg.MacLaurinTable(table.params, floats[:keep])


def test_context_holds_the_cut_of_the_tables_pi_was_solved_on():
    # compute_pi rounds each table only up to its first term within the bound
    # at pi_p / 4, or to J_used; that is the deep-end scan of the J_used table,
    # on the grid of the output digest's build_context sweep and at tiny and
    # loose tolerances of its compute_pi sweep.
    grid = [(p, eps) for p in (*range(2, 17), 24, 32, 64) for eps in (2.0 ** -53, 1e-12, 1e-6, 1e-3, 0.1)]
    grid += [(3, 1e-300), (4, 1e-200), (6, 1e-100), (2, 5e-324), (3, 5e-324)]
    grid += [(p, eps) for p in (2, 3, 4, 10, 16) for eps in (0.3, 0.9)]
    for p, eps in grid:
        record = sg.compute_pi(p, eps)
        ctx = sg.build_context(p, eps)
        for table in (ctx.sq_table, ctx.cq_table):
            whole = sg.maclaurin(table.params, record.J_used)
            assert table == _deep_end_cut(whole, ctx.quarter, ctx.epsilon), (p, eps, table.params)
        assert "_quarter_tables" not in repr(record)


def test_context_takes_its_series_from_the_record_it_was_built_from():
    # The context reads its record once, when it is built: its first
    # evaluation makes its nodes with no second compute_pi, even once the
    # memo has dropped the record, and answers as a context evaluated with
    # the memo intact.
    ctx = sg.build_context(10)
    t = 0.9 * ctx.quarter
    want = sg.sq(sg.build_context(10), t)
    sg.compute_pi.cache_clear()
    got = sg.sq(ctx, t)
    assert sg.compute_pi.cache_info().misses == 0
    assert got.hex() == want.hex()


def test_context_has_no_table_length_override():
    with pytest.raises(TypeError):
        sg.build_context(4, J=40)


def test_build_context_validates_before_the_memo():
    # The memo hashes its arguments, so an unhashable value must be caught first.
    with pytest.raises(ParameterError):
        sg.build_context(4, [1])
    with pytest.raises(ParameterError):
        sg.build_context([4])


def test_reduction_identity_on_first_octant(ctx4):
    for t in (0.0, 0.3, ctx4.quarter):
        red = sg.reduce_argument(ctx4, t)
        assert red.t_reduced == t
        assert not red.use_co
        assert red.sign_sq == 1 and red.sign_cq == 1


def test_reduction_second_octant_swaps(ctx4):
    half = 2.0 * ctx4.quarter
    t = ctx4.quarter + 0.125
    red = sg.reduce_argument(ctx4, t)
    assert red.use_co
    assert red.t_reduced == pytest.approx(half - t, abs=0.0)
    assert red.sign_sq == 1 and red.sign_cq == 1


def test_reduction_second_quadrant_flips_cq(ctx4):
    half = 2.0 * ctx4.quarter
    t = half + 0.25
    red = sg.reduce_argument(ctx4, t)
    assert red.sign_cq == -1 and red.sign_sq == 1


def test_reduction_third_quadrant_flips_both(ctx4):
    t = 2.0 * ctx4.quarter * 2.0 + 0.125  # pi_p + 0.125
    red = sg.reduce_argument(ctx4, t)
    assert red.sign_sq == -1 and red.sign_cq == -1
    assert red.t_reduced == pytest.approx(0.125, abs=1e-16)


def test_reduction_rejects_non_finite(ctx4):
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            sg.reduce_argument(ctx4, bad)


def test_quarter_and_half_values(ctx4):
    half = 2.0 * ctx4.quarter
    v = 2.0 ** -0.25
    assert sg.sq(ctx4, ctx4.quarter) == pytest.approx(v, abs=1e-15)
    assert sg.cq(ctx4, ctx4.quarter) == pytest.approx(v, abs=1e-15)
    assert sg.sq(ctx4, half) == pytest.approx(1.0, abs=1e-14)
    assert sg.cq(ctx4, half) == pytest.approx(0.0, abs=1e-14)
    assert sg.sq(ctx4, 0.0) == 0.0
    assert sg.cq(ctx4, 0.0) == 1.0


def test_periodicity_bit_identical():
    # reduce_argument's contract: exact binary64 sums t0 + 2 k pi_p of one
    # sign reduce bit for bit like t0.  Each t is a binary64 near k / 4 plus
    # c periods, c of k's sign, and t0 = t - c periods, exact by Fraction
    # where |t0| < 8, a multiple of the period's ulp.
    for p in (2, 3, 4, 10):
        ctx = sg.build_context(p)
        period = Fraction(ctx.period)
        cases = 0
        for k in range(-32, 33):
            for cycles in (1, 2, 3, 4):
                c = cycles if k > 0 else -cycles
                t = k * 0.25 + c * ctx.period
                t0 = float(Fraction(t) - c * period)
                if k == 0 or Fraction(t0) + c * period != Fraction(t):
                    continue
                cases += 1
                assert (t0 > 0) == (t > 0)
                assert sg.reduce_argument(ctx, t) == sg.reduce_argument(ctx, t0)
                assert sg.sq(ctx, t) == sg.sq(ctx, t0)
                assert sg.cq(ctx, t) == sg.cq(ctx, t0)
        assert cases >= 195, p


def _drift_bound(ctx, t: float) -> float:
    return (abs(t) / ctx.period + 2) * math.ulp(ctx.pi_p) + 2.0 ** -52


@pytest.mark.parametrize("p", [2, 3, 4, 10, 64])
def test_large_t_drifts_at_most_an_ulp_of_pi_p_per_period(p):
    # The reduction's known limit, as a bound: ctx.period is 2 pi_p to within
    # ulp(pi_p) and fmod is exact, so each period in t moves the reduced point
    # by at most ulp(pi_p); the reflections add one more, |sq'| and |cq'| are
    # at most 1, and the fold adds under 2^-52.  The reference reduces exactly.
    ctx = sg.build_context(p)
    rng = random.Random(3200 + p)
    for decade in range(3, 16):
        for i in range(10):
            t = (-1) ** i * 10 ** rng.uniform(decade, decade + 1)
            bound = _drift_bound(ctx, t)
            for got, want in zip((sg.sq(ctx, t), sg.cq(ctx, t)), sq_cq(t, p)):
                assert abs(Decimal(got) - want) <= bound, (t, got, want)


@pytest.mark.parametrize("p", [2, 3, 4, 10, 64])
def test_near_zeros_the_error_stays_within_the_drift_bound(p):
    # The same bound past the quarter period, on seeded t in (q, 8q] and at
    # the zeros k pi_p / 2, k = 1..4, and a few ulps either side, where the
    # reflections subtract rounded constants: the absolute error stays
    # within it there, though the relative error near a zero does not
    # (README, "Near a zero").
    ctx = sg.build_context(p)
    rng = random.Random(3300 + p)
    points = [rng.uniform(ctx.quarter, 8.0 * ctx.quarter) for _ in range(200)]
    points += [k * ctx.half + d for k in range(1, 5) for d in (0.0, 1e-12, -1e-12, 3e-15, -3e-15)]
    for t in points:
        for got, want in zip((sg.sq(ctx, t), sg.cq(ctx, t)), sq_cq(t, p)):
            assert abs(Decimal(got) - want) <= _drift_bound(ctx, t), (t, got, want)


@pytest.mark.parametrize("p", [2, 3, 4, 10])
def test_negative_t_mirrors_bit_for_bit(p):
    # fmod(-t, y) == -fmod(t, y) exactly, so sq(-t) == -sq(t) and
    # cq(-t) == cq(t) hold bit for bit, tiny t included.
    ctx = sg.build_context(p)
    rng = random.Random(400 + p)
    ts = [5e-324, 1e-20, 1e-15, ctx.quarter, ctx.half, ctx.pi_p, ctx.period, 1e300]
    ts += [10.0 ** rng.uniform(-20.0, 15.0) for _ in range(200)]
    for t in ts:
        assert sg.sq(ctx, -t).hex() == (-sg.sq(ctx, t)).hex(), t
        assert sg.cq(ctx, -t).hex() == sg.cq(ctx, t).hex(), t
        red, mirror = sg.reduce_argument(ctx, t), sg.reduce_argument(ctx, -t)
        assert mirror == red._replace(sign_sq=-red.sign_sq)
    assert sg.sq(ctx, -1e-20) == -1e-20
    if p % 2 == 0:  # odd p takes pow_general on (0, pi_p / 2) only
        assert sg.pow_general(ctx, 1, 1, -1e-20) == -1e-20


def test_odd_symmetry(ctx4):
    for t in (0.1, 0.9, 2.3):
        assert sg.sq(ctx4, -t) == pytest.approx(-sg.sq(ctx4, t), abs=5e-16)
        assert sg.cq(ctx4, -t) == pytest.approx(sg.cq(ctx4, t), abs=5e-16)


def test_cofunction_identity(ctx4):
    half = 2.0 * ctx4.quarter
    for t in (0.0, 0.2, 0.8, 1.4):
        assert sg.cq(ctx4, t) == pytest.approx(sg.sq(ctx4, half - t), abs=5e-16)


@settings(max_examples=200, deadline=None)
@given(t=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_pythagorean_property(t):
    ctx = sg.build_context(4)
    s = sg.sq(ctx, t)
    c = sg.cq(ctx, t)
    assert abs(abs(s) ** 4 + abs(c) ** 4 - 1.0) <= 5e-14


@pytest.mark.parametrize("p", [2, 3, 6])
def test_pythagorean_other_p(p):
    ctx = sg.build_context(p)
    for k in range(-40, 41):
        t = 0.17 * k
        s = sg.sq(ctx, t)
        c = sg.cq(ctx, t)
        assert abs(abs(s) ** p + abs(c) ** p - 1.0) <= 5e-14


def test_p2_matches_libm(ctx2):
    for k in range(-40, 41):
        t = 0.19 * k
        assert sg.sq(ctx2, t) == pytest.approx(math.sin(t), abs=5e-16)
        assert sg.cq(ctx2, t) == pytest.approx(math.cos(t), abs=5e-16)


def test_pow_general_even_p_full_line(ctx4):
    for t in (-2.0, 0.0, 1.3, 5.0):
        want = sg.cq(ctx4, t) ** 2 * sg.sq(ctx4, t)
        assert sg.pow_general(ctx4, 2, 1, t) == want


def test_pow_general_reduces_once(ctx4, watch_evaluators):
    # pow_general reduces t once, through the context's pair evaluator.
    calls = watch_evaluators(ctx4)
    for t in (-2.0, 0.0, 1.3, 5.0):
        want = sg.cq(ctx4, t) ** 2 * sg.sq(ctx4, t)
        calls.clear()
        assert sg.pow_general(ctx4, 2, 1, t) == want
        assert calls == [("pair", t)]


def test_pow_general_tangent_vs_libm(ctx2):
    for t in (0.2, 0.7, 1.4):
        tan = sg.pow_general(ctx2, -1, 1, t)
        assert tan == pytest.approx(math.tan(t), rel=1e-13)


def test_pow_general_domain_guards(ctx2, ctx4):
    half2 = 2.0 * ctx2.quarter
    for bad in (0.0, -0.3, half2, half2 + 0.1):
        with pytest.raises(DomainError):
            sg.pow_general(ctx2, -1, 1, bad)
    ctx3 = sg.build_context(3)
    with pytest.raises(DomainError):
        sg.pow_general(ctx3, 1, 1, -0.2)
    assert sg.pow_general(ctx3, 1, 1, 0.4) > 0.0
    with pytest.raises(ParameterError):
        sg.pow_general(ctx4, 1.0, 1, 0.4)


def test_horner_sparse_degenerate_table(ctx4):
    # Horner on the raw table matches term summation at modest t.
    table = ctx4.cq_table
    t = 0.6
    direct = math.fsum(
        (-1.0) ** j * table.floats[j] * t ** (4 * j) for j in range(table.J + 1)
    )
    assert sg.horner_sparse(table, t) == pytest.approx(direct, abs=1e-15)


def test_arcsq_inverts_sq(ctx4):
    for x in (0.01, 0.1, 0.35, 0.62, 0.87, 0.99):
        t = sg.arcsq_oracle(x, 4)
        assert sg.sq(ctx4, t) == pytest.approx(x, abs=1e-10)


def test_arcsq_endpoints(ctx4, pi4):
    assert sg.arcsq_oracle(0.0, 4) == 0.0
    assert sg.arcsq_oracle(1.0, 4) == pytest.approx(pi4.value / 2.0, abs=1e-10)


def test_arcsq_answers_at_one_through_p25():
    assert sg.arcsq_oracle(1.0, 25) == pytest.approx(sg.pi_gamma(25) / 2.0, abs=1e-12)


@pytest.mark.parametrize("p", [2, 3, 4, 10, 25, 26, 64, 300, 1000])
def test_arcsq_within_32_u_of_decimal_reference(p):
    c = 2.0 ** (-1.0 / p)
    xs = [i / 32 for i in range(1, 33)] + [
        c, math.nextafter(c, 0.0), math.nextafter(c, 1.0),
        1.0 - 2.0 ** -40, math.nextafter(1.0, 0.0),
    ]
    for x in xs:
        want = arcsq(x, p)
        err = float(abs(Decimal(sg.arcsq_oracle(x, p)) - want) / want)
        assert err <= 32 * 2.0 ** -53, (x, err / 2.0 ** -53)


def test_arcsq_at_one_is_half_of_pi_gamma():
    for p in range(2, 1001):
        want = sg.pi_gamma(p) / 2.0
        assert abs(sg.arcsq_oracle(1.0, p) - want) <= 1e-14 * want, p


@pytest.mark.parametrize("p", [5000, 8000, 20000, 100000])
def test_quadrature_oracles_resolve_the_knee_at_large_p(p):
    # The integrands turn in a knee about 1/p wide just below 2^(-1/p); a
    # single first panel there let both Gauss rules miss it (1.4e-4 off at
    # p = 5000).
    want = sg.pi_gamma(p) / 2.0
    assert abs(sg.arcsq_oracle(1.0, p) - want) <= 1e-14 * want
    want = sg.beta_gamma(p, 0, 0)
    assert abs(sg.beta_quadrature_oracle(p, 0, 0) - want) <= 1e-14 * want


def test_arcsq_p2_is_asin():
    for x in (0.1, 0.5, 0.9):
        assert sg.arcsq_oracle(x, 2) == pytest.approx(math.asin(x), abs=1e-10)


def test_arcsq_domain():
    with pytest.raises(DomainError):
        sg.arcsq_oracle(-0.1, 4)
    with pytest.raises(DomainError):
        sg.arcsq_oracle(1.1, 4)


def test_build_context_validation():
    with pytest.raises(ParameterError):
        sg.build_context(1)
    with pytest.raises(ParameterError):
        sg.build_context(4, epsilon=0.0)


@pytest.mark.parametrize("p, eps", [(2000, 1e-3), (735, 0.1)])
def test_first_evaluation_refuses_where_the_default_tables_pass_the_cap(p, eps):
    # compute_pi answers at these loose tolerances, but a context folds the
    # node data of EPS_DEFAULT, whose tables compute_pi(p) refuses from p = 735:
    # the first evaluation refuses before any node (16,170 at p = 2000).
    ctx = sg.build_context(p, eps)
    with pytest.raises(CostGuardError, match="needs J=.* past the cap"):
        sg.compute_pi(p)
    start = time.perf_counter()
    with pytest.raises(CostGuardError, match=rf"^sq and cq at p={p} need J=\d+ terms at epsilon=.*, past the cap 8192"):
        sg.sq(ctx, 0.3)
    assert time.perf_counter() - start < 0.5
    assert "evaluators" not in vars(ctx)


# ---------------------------------------------------------------------------
# build_context holds a prefix of each record table, trimmed at epsilon / 64
# on [0, pi_p / 4]; at EPS_DEFAULT evaluation folds it or its prefixes.

EVAL_P = [2, 3, 4, 6, 10]


def _full(ctx):
    # The tables of length J_used the context's tables were cut from.
    J = sg.compute_pi(ctx.p, ctx.epsilon).J_used
    return tuple(sg.maclaurin(table.params, J) for table in (ctx.sq_table, ctx.cq_table))


def _kept(ctx):
    # Each record table with the coefficients the context kept of it.
    full_sq, full_cq = _full(ctx)
    return ((full_sq, ctx.sq_table.floats), (full_cq, ctx.cq_table.floats))


@pytest.mark.parametrize("p", EVAL_P)
def test_evaluation_tables_are_prefixes_of_the_record_tables(p):
    ctx = sg.build_context(p)
    for table, kept in _kept(ctx):
        assert 1 <= len(kept) < len(table.floats)
        assert kept == table.floats[: len(kept)]


@pytest.mark.parametrize("p", EVAL_P)
def test_evaluation_tables_drop_only_terms_below_epsilon_over_64(p):
    ctx = sg.build_context(p)
    x = math.nextafter(ctx.quarter, math.inf)
    for table, kept in _kept(ctx):
        bound = ctx.epsilon / 64.0 * table.floats[0]
        j = len(kept)
        # The first dropped term is within the bound, the last kept one is not.
        assert table.floats[j] * x ** (p * j) <= bound
        assert table.floats[j - 1] * x ** (p * (j - 1)) > bound


def test_evaluation_table_lengths():
    contexts = {p: sg.build_context(p) for p in EVAL_P}
    got = {p: [len(ctx.sq_table.floats), len(ctx.cq_table.floats)] for p, ctx in contexts.items()}
    assert got == {2: [9, 10], 3: [20, 20], 4: [28, 29], 6: [43, 43], 10: [71, 71]}


@pytest.mark.parametrize("p", EVAL_P)
def test_sq_cq_within_an_ulp_of_the_full_table(p):
    ctx = sg.build_context(p)
    full_sq, full_cq = _full(ctx)
    rng = random.Random(p)
    for _ in range(400):
        t = rng.uniform(0.0, ctx.quarter)
        assert ulps(sg.sq(ctx, t), sg.horner_sparse(full_sq, t)) <= 1.0
        assert ulps(sg.cq(ctx, t), sg.horner_sparse(full_cq, t)) <= 1.0


@pytest.mark.parametrize("p", EVAL_P)
def test_sq_cq_fold_exactly_the_context_tables(p):
    # Bit for bit wherever the context folds its prefixes, the tables cut
    # for [0, mid], and past the quarter, where the reflection swaps their
    # roles: below mid = q / 2, where node tables fold from q / 2 on.
    ctx = sg.build_context(p)
    nodes = evalcore._nodes(p)
    sq_table, cq_table = nodes.sq_prefix, nodes.cq_prefix
    mid = ctx.quarter / 2.0
    assert sq_table == _deep_end_cut(ctx.sq_table, mid, ctx.epsilon)
    assert cq_table == _deep_end_cut(ctx.cq_table, mid, ctx.epsilon)
    top = math.nextafter(mid, 0.0)
    rng = random.Random(200 + p)
    for s in [0.0, top] + [rng.uniform(0.0, top) for _ in range(300)]:
        assert sg.sq(ctx, s) == sg.horner_sparse(sq_table, s)
        assert sg.cq(ctx, s) == sg.horner_sparse(cq_table, s)
        u = ctx.half - s
        if u > ctx.quarter:
            r = ctx.half - u
            assert sg.sq(ctx, u) == sg.horner_sparse(cq_table, r)
            assert sg.cq(ctx, u) == sg.horner_sparse(sq_table, r)


# The worst point seen for p = 4 over 1500 seeded points per table: both the
# trimmed and the full table land 1.0019 ulp from the exact sum there, so one
# ulp bounds neither Horner path and the check allows 1.25.
_WORST_P4_SQ = 0.8725822845495224


@pytest.mark.parametrize("p", [3, 4, 10])
def test_sq_cq_against_the_exact_numerator_sum(p):
    ctx = sg.build_context(p)
    rng = random.Random(100 + p)
    points = [ctx.quarter, _WORST_P4_SQ if p == 4 else 0.5 * ctx.quarter]
    points += [rng.uniform(0.0, ctx.quarter) for _ in range(298)]
    with localcontext() as dec:
        dec.prec = 40
        for func, table in zip((sg.sq, sg.cq), _full(ctx)):
            params = table.params
            J = table.J + 10
            coeffs = [
                Decimal(F) / math.factorial(params.n + p * j)
                for j, F in enumerate(sg.integer_maclaurin(params, J))
            ]
            worst_trimmed = worst_full = 0.0
            for t in points:
                x = Decimal(t)
                xp = x ** p
                acc = Decimal(0)
                for a in reversed(coeffs):
                    acc = a - acc * xp
                exact = acc * x ** params.n
                worst_trimmed = max(worst_trimmed, ulps(func(ctx, t), exact))
                worst_full = max(worst_full, ulps(sg.horner_sparse(table, t), exact))
            assert worst_trimmed <= 1.25
            assert worst_trimmed <= worst_full


def test_replaced_context_folds_the_tables_it_holds(ctx4):
    # replace makes the context again from (p, epsilon): a looser epsilon
    # gives build_context's context at it, its tables cut for that epsilon,
    # with the evaluators of p that ctx4 has too.
    sg.sq(ctx4, 0.3)  # the evaluators of ctx4 exist before the replace
    looser, built = dataclasses.replace(ctx4, epsilon=1e-6), sg.build_context(4, 1e-6)
    assert looser == built and looser != ctx4
    assert (looser.sq_table, looser.cq_table) == (built.sq_table, built.cq_table)
    assert len(looser.sq_table.floats) < len(ctx4.sq_table.floats)
    assert looser.evaluators is ctx4.evaluators
    for t in (0.3, 0.9, 2.5, -7.0, 0.8 * ctx4.quarter):
        assert sg.sq(looser, t).hex() == sg.sq(built, t).hex()
        assert sg.cq(looser, t).hex() == sg.cq(built, t).hex()
        assert sg.reduce_argument(looser, t) == sg.reduce_argument(built, t)
    assert dataclasses.replace(ctx4) == ctx4


def test_pow_general_raises_pole_error_at_the_poles(ctx2, ctx4):
    # sq vanishes at 0 and cq at pi_p / 2: a negative power of the
    # vanishing factor is a pole.
    for ctx in (ctx2, ctx4, sg.build_context(3)):
        with pytest.raises(sg.PoleError):
            sg.pow_general(ctx, 1, -1, 0.0)
        with pytest.raises(sg.PoleError):
            sg.pow_general(ctx, 1, -2, -0.0)
        with pytest.raises(sg.PoleError):
            sg.pow_general(ctx, -1, 1, ctx.half)
        with pytest.raises(sg.PoleError):
            sg.pow_general(ctx, -2, -1, ctx.half)


def test_pow_general_off_pole_boundaries_stay_domain_errors(ctx2):
    # The other factor's power is negative, or the point is outside the
    # quadrant: no pole, so a plain DomainError.
    ctx3 = sg.build_context(3)
    for ctx, m, n, t in (
        (ctx2, -1, 1, 0.0),
        (ctx2, 1, -1, ctx2.half),
        (ctx2, -1, 1, -0.3),
        (ctx2, 1, -1, ctx2.half + 0.1),
        (ctx3, 1, 1, 0.0),
        (ctx3, 1, 1, ctx3.half),
    ):
        with pytest.raises(DomainError) as info:
            sg.pow_general(ctx, m, n, t)
        assert type(info.value) is DomainError


def test_pow_general_overflow_is_a_domain_error(ctx2, ctx4):
    # Near a pole a negative power leaves binary64: ** raises past it, and
    # the product of two large powers turns inf without raising.
    for ctx, m, n, t in (
        (ctx4, 0, -2, 1e-200),
        (ctx4, -200, 0, ctx4.half * (1 - 1e-15)),
        (ctx2, -1000, -1000, 0.6),
    ):
        with pytest.raises(DomainError, match="overflows binary64") as info:
            sg.pow_general(ctx, m, n, t)
        assert type(info.value) is DomainError
    assert sg.pow_general(ctx2, -1000, -1000, 0.7) < math.inf


def test_pow_general_takes_the_limit_of_a_power_past_binary64(ctx4):
    # ** raises OverflowError for an int power past binary64 whatever the
    # base; for a factor of magnitude < 1 or = 1 the limit is 0.0 or 1.0,
    # signed by the power's parity (cq(pi_p) is -1.0 exactly).
    big = 10 ** 400
    assert sg.cq(ctx4, ctx4.pi_p) == -1.0
    assert math.copysign(1.0, sg.pow_general(ctx4, big, 0, 0.5)) == 1.0
    assert sg.pow_general(ctx4, big, 0, 0.5) == 0.0
    assert sg.pow_general(ctx4, big, 0, 0.0) == 1.0
    assert sg.pow_general(ctx4, big + 1, 0, ctx4.pi_p) == -1.0
    assert sg.pow_general(ctx4, 0, big, 0.5) == 0.0
    assert math.copysign(1.0, sg.pow_general(ctx4, 0, big + 1, -0.5)) == -1.0
    # A negative power past binary64 still overflows.
    with pytest.raises(DomainError, match="overflows binary64"):
        sg.pow_general(ctx4, -big, 0, 0.5)


def test_pow_general_keeps_the_sign_of_an_odd_power_past_2_53(ctx4):
    # float ** int rounds a power from 2^53 on to a float, which is even
    # there, so cq(pi_p) = -1.0 to an odd power of that size must take its
    # sign from the int.
    for m in (2 ** 53 + 1, 2 ** 60 + 1, 2 ** 64 + 1):
        assert sg.pow_general(ctx4, m, 0, ctx4.pi_p) == -1.0, m
        assert sg.pow_general(ctx4, m, 0, 0.5) == 0.0, m
    assert sg.pow_general(ctx4, 2 ** 60, 0, ctx4.pi_p) == 1.0
    assert sg.pow_general(ctx4, 2 ** 60, 0, 0.5) == 0.0
    with pytest.raises(DomainError, match="overflows binary64"):
        sg.pow_general(ctx4, 0, -2 ** 60, 0.5)


# ---------------------------------------------------------------------------
# A context evaluates through generated straight-line code that checks,
# reduces and folds; the loop in horner_sparse stays the reference, bit for bit.

FOLD_EPS = (2.0 ** -53, 2.0 ** -30, 1e-6, 1e-3, 0.3)


def _fold_points(quarter: float) -> tuple[float, ...]:
    # Zeros, the least subnormal, q / 2 and q = pi_p / 4, and their neighbours.
    mid = quarter / 2.0
    return (0.0, -0.0, 5e-324, quarter, math.nextafter(quarter, 0.0),
            mid, math.nextafter(mid, 0.0), math.nextafter(mid, 1.0))


def _node_loop(entries, mid: float, scale: float, s: float) -> float:
    # The node fold as a loop, the reference of the generated node folds:
    # Horner in h = s - t0 over b_D..b_1, then the leading term hi + lo.
    t0, hi, lo, *b = entries[int((s - mid) * scale)]
    h = s - t0
    v = b[-1]
    for a in reversed(b[:-1]):
        v = a + v * h
    return hi + (lo + v * h)


def _loop_fold(ctx):
    # (sq, cq) at s in [0, pi_p / 4] by the reference loops: horner_sparse over
    # the prefixes below mid = q / 2 and the node loop from it.
    nodes, mid = evalcore._nodes(ctx.p), ctx.quarter / 2.0

    def fold(s):
        if s < mid:
            return evalcore.horner_sparse(nodes.sq_prefix, s), evalcore.horner_sparse(nodes.cq_prefix, s)
        return tuple(_node_loop(entries, mid, nodes.scale, s) for entries in (nodes.sq, nodes.cq))

    return fold


def _node_edges(ctx) -> tuple[float, ...]:
    # Each boundary between two nodes and its neighbours.
    nodes = evalcore._nodes(ctx.p)
    edges = [ctx.quarter / 2.0 + k / nodes.scale for k in range(1, len(nodes.sq) - 1)]
    return tuple(x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0)))


def _assert_bits(got, want, where) -> None:
    assert type(got) is type(want), where
    assert struct.pack("<d", got) == struct.pack("<d", want), (
        *where, float(got).hex(), float(want).hex()
    )


def _assert_folds_like_the_loop(ctx, points) -> None:
    # On [0, pi_p / 4] each evaluator folds its own table or node with sign
    # 1; past the quarter reflection sq and cq swap roles.
    ev, loop = ctx.evaluators, _loop_fold(ctx)
    for s in points:
        where = (ctx.sq_table.params, len(ctx.sq_table.floats), len(ctx.cq_table.floats), s)
        want_sq, want_cq = loop(s)
        _assert_bits(ev.sq(s), want_sq, where)
        _assert_bits(ev.cq(s), want_cq, where)
        c, v = ev.pair(s)
        _assert_bits(c, want_cq, where)
        _assert_bits(v, want_sq, where)
        u = ctx.half - s
        if u > ctx.quarter:
            r = ctx.half - u
            want_cq, want_sq = loop(r)
            _assert_bits(ev.sq(u), want_sq, where)
            _assert_bits(ev.cq(u), want_cq, where)
            c, v = ev.pair(u)
            _assert_bits(c, want_cq, where)
            _assert_bits(v, want_sq, where)


@pytest.mark.parametrize("p", range(2, 11))
def test_context_folds_match_the_loop_bit_for_bit(p):
    # The contexts fold the prefixes below q / 2 and node tables from it,
    # each like its loop; every epsilon shares these evaluators (the test
    # below).
    rng = random.Random(300 + p)
    ctx = sg.build_context(p)
    points = _fold_points(ctx.quarter) + _node_edges(ctx)
    points += tuple(rng.uniform(0.0, ctx.quarter) for _ in range(20))
    _assert_folds_like_the_loop(ctx, points)


@pytest.mark.parametrize("p", [*range(2, 11), 16, 64])
def test_one_source_per_p_at_every_epsilon(p):
    # Evaluation depends on p alone: at every epsilon, down to the least one
    # the table cap allows, a context's evaluators are the very ones of the
    # EPS_DEFAULT context, built from one source once per p.
    default = sg.build_context(p).evaluators
    for eps in FOLD_EPS + ((1e-300, 5e-324) if p < 64 else ()):
        assert sg.build_context(p, eps).evaluators is default, eps


@pytest.mark.parametrize("p", [*range(2, 11), 64])
def test_record_table_folds_match_the_loop_bit_for_bit(p):
    # The least epsilon cuts the longest tables a context holds, but its
    # folds are those of EPS_DEFAULT: prefixes below q / 2 of 7 coefficients
    # at p = 2 and of 10 (p = 3) down to 6 (p = 10).  At p = 64, where
    # 5e-324 passes the table cap, EPS_DEFAULT and 517 nodes.
    eps = sg.EPS_DEFAULT if p == 64 else 5e-324
    ctx = sg.build_context(p, eps)
    nodes = evalcore._nodes(p)
    rng = random.Random(400 + p)
    points = _fold_points(ctx.quarter) + tuple(rng.uniform(0.0, ctx.quarter) for _ in range(10))
    _assert_folds_like_the_loop(ctx, points)
    lengths = {2: 7, 3: 10, 10: 6, 64: 1}
    if p in lengths:
        assert len(nodes.sq_prefix.floats) == lengths[p]
    if p == 64:
        assert len(nodes.sq) == 518


@pytest.mark.parametrize("p", [2, 4, 10, 16])
def test_rebuilt_context_is_bit_identical(p):
    # Contexts are never stored: one built again, after the compute_pi memo
    # is cleared, equals the first, its tables float for float.
    epsilons = (2.0 ** -53, 1e-6, 0.3, 0.99)
    first = [sg.build_context(p, eps) for eps in epsilons]
    sg.compute_pi.cache_clear()
    assert [sg.build_context(p, eps) for eps in epsilons] == first


def test_threads_building_nodes_on_one_record_agree(cold_evaluators):
    # Equal contexts share one compute_pi record, and with the evaluators
    # memo cleared the first evaluation of each may build the nodes.  Six
    # threads started from one barrier each evaluate at once, with a switch
    # interval short enough to interleave them, in three trials: each thread
    # gets the node data of a single-thread build.
    sg.compute_pi.cache_clear()
    want = evalcore._nodes(10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            sg.compute_pi.cache_clear()
            evalcore._evaluators.cache_clear()
            contexts = [sg.build_context(10, 1e-6) for _ in range(6)]
            start, got, errors = threading.Barrier(len(contexts)), [], []

            def first(ctx):
                try:
                    start.wait(timeout=60)
                    got.append(sg.cq(ctx, 0.9 * ctx.quarter))
                except Exception as exc:  # collected, and asserted absent below
                    errors.append(exc)

            threads = [threading.Thread(target=first, args=(ctx,)) for ctx in contexts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == [] and len(set(got)) == 1
            for ctx in contexts:
                names = ctx.evaluators.sq.__globals__
                assert (names["SQN"], names["CQN"]) == (want.sq, want.cq)
    finally:
        sys.setswitchinterval(interval)


def _row_powers(x: int, p: int, degree: int) -> tuple[list[int], list[int]]:
    # x^r for r <= p and x^(pi) for i <= degree, in 128-bit fixed point:
    # x^e is low[e % p] * high[e // p] (256 fraction bits) for every
    # exponent a row of degree <= D takes.
    low, high = [1 << 128], [1 << 128]
    for _ in range(p):
        low.append(low[-1] * x >> 128)
    for _ in range(degree):
        high.append(high[-1] * low[p] >> 128)
    return low, high


def _row_coefficients(p: int, m: int, n: int, rows, cq_powers, sq_powers) -> tuple:
    # hi, lo, b_1, ..., b_D of cq^m sq^n about a node: b_k is triangle row k
    # (the k-th derivative, a polynomial in cq and sq) at the node's values
    # over k!, summed exactly in fixed point and rounded once; hi + lo is the
    # value itself to twice binary64's precision.
    (c_low, c_high), (s_low, s_high) = cq_powers, sq_powers
    sums = []
    for k, row in enumerate(rows):
        total = 0
        for j, q in row.items():
            a, b = m + k * (p - 1) - p * j, n - k + p * j
            term = q * c_low[a % p] * c_high[a // p] * s_low[b % p] * s_high[b // p]
            total += -term if j % 2 else term
        sums.append((total, math.factorial(k) << 512))
    (total, scale), *rest = sums
    hi = total / scale
    num, den = hi.as_integer_ratio()
    return (hi, (total * den - num * scale) / (scale * den), *(x / d for x, d in rest))


@pytest.mark.parametrize("p", [2, 3, 4, 6, 10, 16, 32, 64])
def test_node_data_are_the_triangle_rows_at_the_node(p, node_values):
    # The paper's central result is the oracle of the node coefficients that
    # the series' Taylor recurrence gives: the k-th derivative of cq^m sq^n is
    # triangle row k, a polynomial in (cq, sq), so b_k is that row at the
    # node's values over k!.  Formed from the node's own 128-bit values, read
    # as the nodes are made, summed exactly and rounded once, the rows give
    # every node entry bit for bit.
    degree = evalcore._NODE_DEGREE
    nodes = evalcore._nodes(p)
    rows = [sg.build_triangle(sg.SquigParams(p, m, 1 - m), degree).rows for m in (0, 1)]
    assert len(node_values) == len(nodes.sq) - 1  # the last node is listed twice
    for sq_node, cq_node, (t0, (cq0, sq0, *_)) in zip(nodes.sq, nodes.cq, node_values):
        assert sq_node[0] == cq_node[0] == t0
        powers = [_row_powers(v, p, degree) for v in (cq0, sq0)]
        for m, node in ((0, sq_node), (1, cq_node)):
            want = (t0, *_row_coefficients(p, m, 1 - m, rows[m], *powers))
            assert [x.hex() for x in node] == [x.hex() for x in want], (p, m, t0)


def test_hand_made_context_is_validated(ctx4):
    # A context is (p, epsilon): the derived attributes are no arguments, so
    # replace with one is the constructor's TypeError, as are the five
    # arguments a context once took; a bad p or epsilon fails as
    # build_context's does.
    for name, value in (("quarter", 1.0), ("sq_table", ctx4.cq_table), ("pi_p", 4.0)):
        with pytest.raises(TypeError, match=name):
            dataclasses.replace(ctx4, **{name: value})
    with pytest.raises(TypeError):
        sg.EvalContext(4, ctx4.quarter, ctx4.sq_table, ctx4.cq_table, ctx4.epsilon)
    with pytest.raises(TypeError):
        sg.EvalContext(4, quarter=ctx4.quarter)
    for p in (1, 0, -4, 4.0, True, "4", None):
        with pytest.raises(ParameterError, match="p must be an int"):
            sg.EvalContext(p)
    for eps in (0.0, 1.0, 2.0, math.nan, True, "1e-6"):
        with pytest.raises(ParameterError, match="epsilon must be a real in"):
            dataclasses.replace(ctx4, epsilon=eps)


@pytest.mark.parametrize("p", [2, 4, 10, 16])
def test_rebuilt_context_evaluates_bit_identically(p, cold_evaluators):
    # sq and cq of a context built again, after the compute_pi and
    # evaluators memos are cleared, repeat the first context's values bit
    # for bit.
    points = [-8.0 + 16.0 * i / 99.0 for i in range(100)]
    first = sg.build_context(p)
    want = [(sg.sq(first, t).hex(), sg.cq(first, t).hex()) for t in points]
    sg.compute_pi.cache_clear()
    evalcore._evaluators.cache_clear()
    again = sg.build_context(p)
    assert [(sg.sq(again, t).hex(), sg.cq(again, t).hex()) for t in points] == want


@pytest.mark.parametrize("eps", [2.0 ** -53, 1e-6, 0.3, 0.99])
def test_context_pi_p_meets_its_epsilon(eps):
    # Even at a loose epsilon the quarter period stays within epsilon of the
    # gamma form, so the period is finite and sq, cq stay bounded far out.
    for p in (2, 3, 4, 10, 16):
        ctx = sg.build_context(p, eps)
        want = sg.pi_gamma(p)
        assert abs(ctx.pi_p - want) <= max(eps, 5e-15) * want, p
        assert math.isfinite(ctx.period)
        for t in (1e3, -1e3, 1e15):
            assert abs(sg.sq(ctx, t)) <= 1.0 + eps and abs(sg.cq(ctx, t)) <= 1.0 + eps, (p, t)


def test_evaluated_context_pickles_without_its_evaluators():
    # A context pickles and copies as EvalContext(p, epsilon), whatever it
    # has made, so a copy rebuilds its tables and evaluators and answers bit
    # for bit alike.
    ctx = sg.build_context(5)
    assert "evaluators" not in vars(ctx)  # build_context makes no evaluators
    points = [0.3, -2.0, 7.5, 1e6]
    want = [(sg.sq(ctx, t), sg.cq(ctx, t)) for t in points]
    assert "evaluators" in vars(ctx)
    back = pickle.loads(pickle.dumps(ctx))
    assert back == ctx and "evaluators" not in vars(back)
    assert "evaluators" in vars(ctx)
    assert [(sg.sq(back, t), sg.cq(back, t)) for t in points] == want
    for copied in (copy.copy(ctx), copy.deepcopy(ctx)):
        assert copied == ctx and copied is not ctx and "evaluators" not in vars(copied)
        assert [(sg.sq(copied, t).hex(), sg.cq(copied, t).hex()) for t in points] == [
            (s.hex(), c.hex()) for s, c in want]
    big = sg.build_context(64)
    sg.sq(big, 0.3)
    assert len(pickle.dumps(big)) < 100


class _StatePickler(pickle.Pickler):
    # Writes a context as pickles held it before it reduced to (p, epsilon):
    # the class and its state dict, derived fields and tables included.
    def reducer_override(self, obj):
        if type(obj) is sg.EvalContext:
            return copyreg.__newobj__, (sg.EvalContext,), dict(vars(obj))
        return NotImplemented


def test_context_pickled_with_its_state_still_loads():
    ctx = sg.build_context(7, 1e-12)
    buffer = io.BytesIO()
    _StatePickler(buffer).dump(ctx)
    back = pickle.loads(buffer.getvalue())
    assert back == ctx and vars(back) == vars(ctx)
    points = [0.3, -2.0, 0.9 * ctx.quarter, 1e6]
    assert [(sg.sq(back, t).hex(), sg.cq(back, t).hex()) for t in points] == [
        (sg.sq(ctx, t).hex(), sg.cq(ctx, t).hex()) for t in points]


EVALUATOR_GLOBALS = {"fmod", "check_finite", "QuadrantReduction", "SQN", "CQN",
                     "sq", "cq", "pair", "reduce", "__builtins__"}


@pytest.mark.parametrize("p", [2, 4])
def test_evaluators_read_no_number_from_their_globals(p):
    # Every coefficient and constant is written into the evaluators' source
    # as its repr; their globals hold helpers, the evaluators and node
    # tables.
    ctx = sg.build_context(p)
    for name, evaluator in vars(ctx.evaluators).items():
        assert set(evaluator.__globals__) <= EVALUATOR_GLOBALS, name
        assert evaluator.__globals__["SQN"] and evaluator.__globals__["CQN"], name


def test_equal_contexts_share_their_evaluator_code():
    # The evaluators are a function of p: contexts of one p share the same
    # functions, and another p has its own.
    first, again, other = sg.build_context(6, 1e-9), sg.EvalContext(6, 1e-9), sg.build_context(7, 1e-9)
    assert first is not again and first.evaluators is again.evaluators
    for name in ("sq", "cq", "pair", "reduce"):
        mine, twin = getattr(first.evaluators, name), getattr(again.evaluators, name)
        assert mine is twin
        assert getattr(other.evaluators, name).__code__ is not mine.__code__


@pytest.mark.parametrize("p", [2, 3, 10, 64])
def test_build_context_makes_no_evaluators_or_nodes(p, monkeypatch, cold_evaluators):
    # Node data and generated code are made at the first evaluation, so
    # build_context costs what it did before nodes (constants-cold builds
    # contexts and never evaluates).
    def refuse(p):
        raise AssertionError("node data built before the first evaluation")

    monkeypatch.setattr(evalcore, "_nodes", refuse)
    ctx = sg.build_context(p)
    assert "evaluators" not in vars(ctx)
    monkeypatch.undo()
    sg.sq(ctx, 0.7 * ctx.quarter)
    assert "evaluators" in vars(ctx)


def test_contexts_equal_to_build_context_fold_nodes():
    # A context is (p, epsilon): EvalContext(6) is build_context(6), with the
    # same hash, repr and evaluators.  p and epsilon are its only fields;
    # nodes and the derived tables add none.
    ctx = sg.build_context(6)
    direct = sg.EvalContext(6)
    assert direct == ctx and hash(direct) == hash(ctx) and repr(direct) == repr(ctx)
    assert [f.name for f in dataclasses.fields(ctx)] == ["p", "epsilon"]
    assert direct.evaluators is ctx.evaluators
    s = 0.8 * ctx.quarter
    assert sg.sq(direct, s) == sg.sq(ctx, s) and sg.cq(direct, s) == sg.cq(ctx, s)
    assert "evaluators" not in repr(ctx) and "SQN" not in repr(ctx)


@pytest.mark.parametrize("p", [2, 4, 64])
def test_context_repr_evaluates_back_to_the_context(p):
    # repr shows the two fields and no table, and reads back as an equal context.
    ctx = sg.build_context(p)
    assert repr(ctx) == f"EvalContext(p={p}, epsilon={2.0 ** -53!r})" and len(repr(ctx)) < 80
    assert eval(repr(ctx), {"EvalContext": sg.EvalContext}) == ctx


def test_quadrature_gives_up_at_its_panel_budget():
    # A billion oscillations on [0, 1] never settle to 1e-15 on any panel.
    with pytest.raises(sg.ConvergenceError, match="panel budget"):
        constants._integrate_smooth(lambda u: math.sin(1e9 * u), 0.0, 1.0, 1e-15, 2)
