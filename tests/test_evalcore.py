from __future__ import annotations

import dataclasses
import json
import math
import pickle
import random
import struct
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squigonometry as sg
from squigonometry import DomainError, ParameterError, evalcore

GOLDEN = Path(__file__).parent / "golden"


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
    # Derived from quarter: not constructor arguments, not part of equality,
    # and recomputed by dataclasses.replace.
    same = sg.EvalContext(4, ctx4.quarter, ctx4.sq_table, ctx4.cq_table, ctx4.epsilon)
    assert same == ctx4
    assert "period" not in repr(ctx4)
    moved = dataclasses.replace(ctx4, quarter=1.0)
    assert (moved.pi_p, moved.half, moved.period) == (4.0, 2.0, 8.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx4.period = 1.0


def test_context_table_size_matches_estimate(ctx4, pi4):
    # The context's tables are cut from the record's, which are sized for t = 1.
    want = sg.estimate_terms(4, ctx4.pi_p, ctx4.epsilon)
    assert pi4.sq_table.J == want == 34
    assert pi4.cq_table.J == want


def test_context_holds_the_cut_of_the_tables_pi_was_solved_on():
    record = sg.compute_pi(4)
    ctx = sg.build_context(4)
    assert ctx.sq_table == evalcore._trimmed(record.sq_table, ctx.quarter, ctx.epsilon)
    assert ctx.cq_table == evalcore._trimmed(record.cq_table, ctx.quarter, ctx.epsilon)
    assert "sq_table" not in repr(record)


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


def test_periodicity_bit_identical(ctx4):
    # Multiples of 0.25 are exact binary64; shifting by full periods changes
    # the fmod result by exact multiples, so values must match bit for bit.
    two_pi = 2.0 * ctx4.pi_p
    ts = [k * 0.25 for k in range(-32, 33)]
    for t in ts:
        base_s = sg.sq(ctx4, t)
        base_c = sg.cq(ctx4, t)
        for cycles in (1, -1, 3):
            shifted = t + cycles * two_pi
            assert sg.sq(ctx4, shifted) == base_s
            assert sg.cq(ctx4, shifted) == base_c


def _bits(f, *args) -> str:
    try:
        return f(*args).hex()
    except sg.SquigError as error:
        return type(error).__name__


def test_evaluation_golden_bits():
    # sq, cq and pow_general at p = 2..10 and two tolerances, pinned bit for
    # bit (or by error type) at zeros, subnormals, tiny t, the quarter and its
    # neighbours, half, pi_p, the period, +-1e300 and seeded points.  A
    # negative t holds the value at |t| mirrored: -sq, the same cq, and
    # pow_general times (-1)^n.
    for want in json.loads((GOLDEN / "eval_bits.json").read_text()):
        ctx = sg.build_context(want["p"], float.fromhex(want["epsilon"]))
        ts = [float.fromhex(h) for h in want["t"]]
        got = {"p": want["p"], "epsilon": ctx.epsilon.hex(), "t": want["t"]}
        got["sq"] = [_bits(sg.sq, ctx, t) for t in ts]
        got["cq"] = [_bits(sg.cq, ctx, t) for t in ts]
        for m, n in ((2, 1), (-1, 2), (3, -2)):
            got[f"pow {m},{n}"] = [_bits(sg.pow_general, ctx, m, n, t) for t in ts]
        assert got == want


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


def test_pow_general_reduces_once(ctx4, monkeypatch):
    # pow_general reduces t once, through the context's pair evaluator.
    calls = []

    def counting(name, real):
        def evaluator(t):
            calls.append((name, t))
            return real(t)
        return evaluator

    real = ctx4.evaluators
    monkeypatch.setitem(vars(ctx4), "evaluators", type(real)(
        **{name: counting(name, f) for name, f in vars(real).items()}
    ))
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


def _arcsq_series(x: Decimal, p: int) -> Decimal:
    # arcsq(x) = x sum_k ((1 - 1/p)_k / k!) x^(pk) / (pk + 1) (DLMF 8.17),
    # for x^p <= 1/2, where the terms fall at least as fast as 2^-k.
    one = Decimal(1)
    rising = one - one / p
    xp = x ** p
    coeff = power = total = one
    k = 0
    while coeff * power > Decimal(10) ** -50:
        k += 1
        coeff *= (rising + k - 1) / k
        power *= xp
        total += coeff * power / (p * k + 1)
    return x * total


def _arcsq_reference(x: float, p: int) -> Decimal:
    # 50-digit arcsq; past c = 2^(-1/p) it reflects across the diagonal,
    # arcsq(x) = pi_p / 2 - arcsq(y) with y = (1 - x^p)^(1/p) and
    # pi_p / 2 = 2 arcsq(c).
    with localcontext() as dec:
        dec.prec = 50
        one = Decimal(1)
        c = Decimal(2) ** (-one / p)
        if Decimal(x) <= c:
            return _arcsq_series(Decimal(x), p)
        y = (one - Decimal(x) ** p) ** (one / p)
        return 2 * _arcsq_series(c, p) - _arcsq_series(y, p)


@pytest.mark.parametrize("p", [2, 3, 4, 10, 25, 26, 64, 300, 1000])
def test_arcsq_within_32_u_of_decimal_reference(p):
    c = 2.0 ** (-1.0 / p)
    xs = [i / 32 for i in range(1, 33)] + [
        c, math.nextafter(c, 0.0), math.nextafter(c, 1.0),
        1.0 - 2.0 ** -40, math.nextafter(1.0, 0.0),
    ]
    for x in xs:
        want = _arcsq_reference(x, p)
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


# ---------------------------------------------------------------------------
# build_context holds a prefix of each record table, trimmed at epsilon / 64
# on [0, pi_p / 4], and evaluation folds it.

EVAL_P = [2, 3, 4, 6, 10]


def _full(ctx):
    # The record tables the context's tables were cut from.
    record = sg.compute_pi(ctx.p, ctx.epsilon)
    return record.sq_table, record.cq_table


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


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(b)


@pytest.mark.parametrize("p", EVAL_P)
def test_sq_cq_within_an_ulp_of_the_full_table(p):
    ctx = sg.build_context(p)
    full_sq, full_cq = _full(ctx)
    rng = random.Random(p)
    for _ in range(400):
        t = rng.uniform(0.0, ctx.quarter)
        assert _ulps(sg.sq(ctx, t), sg.horner_sparse(full_sq, t)) <= 1.0
        assert _ulps(sg.cq(ctx, t), sg.horner_sparse(full_cq, t)) <= 1.0


@pytest.mark.parametrize("p", EVAL_P)
def test_sq_cq_fold_exactly_the_context_tables(p):
    # Bit for bit on [0, pi_p / 4], and past it, where the quarter
    # reflection swaps the tables' roles.
    ctx = sg.build_context(p)
    rng = random.Random(200 + p)
    for s in [0.0, ctx.quarter] + [rng.uniform(0.0, ctx.quarter) for _ in range(300)]:
        assert sg.sq(ctx, s) == sg.horner_sparse(ctx.sq_table, s)
        assert sg.cq(ctx, s) == sg.horner_sparse(ctx.cq_table, s)
        u = ctx.half - s
        if u > ctx.quarter:
            r = ctx.half - u
            assert sg.sq(ctx, u) == sg.horner_sparse(ctx.cq_table, r)
            assert sg.cq(ctx, u) == sg.horner_sparse(ctx.sq_table, r)


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
                ulp = Decimal(math.ulp(float(exact)))
                worst_trimmed = max(worst_trimmed, float(abs(Decimal(func(ctx, t)) - exact) / ulp))
                worst_full = max(
                    worst_full, float(abs(Decimal(sg.horner_sparse(table, t)) - exact) / ulp)
                )
            assert worst_trimmed <= 1.25
            assert worst_trimmed <= worst_full


def test_replaced_context_folds_the_tables_it_holds(ctx4, pi4):
    # replace cuts nothing: a looser epsilon keeps the tables, and a context
    # given the record's full tables folds all of them.
    looser = dataclasses.replace(ctx4, epsilon=1e-6)
    assert looser.sq_table is ctx4.sq_table and looser.cq_table is ctx4.cq_table
    full = dataclasses.replace(ctx4, sq_table=pi4.sq_table, cq_table=pi4.cq_table)
    for t in (0.3, 0.9, 2.5, -7.0):
        assert sg.sq(looser, t) == sg.sq(ctx4, t)
        s, use_co, sign_sq, sign_cq = sg.reduce_argument(full, t)
        sq_table, cq_table = (pi4.cq_table, pi4.sq_table) if use_co else (pi4.sq_table, pi4.cq_table)
        assert sg.sq(full, t) == sign_sq * sg.horner_sparse(sq_table, s)
        assert sg.cq(full, t) == sign_cq * sg.horner_sparse(cq_table, s)
    assert dataclasses.replace(ctx4) == ctx4


def test_every_branch_folds_the_trimmed_tables(ctx4, pi4):
    # Cut at epsilon 1e-3, the full tables differ from the prefixes well
    # past the last bit, so each side of the quarter-period reflection must
    # fold the context's own prefix.
    full_sq, full_cq = pi4.sq_table, pi4.cq_table
    loose = sg.EvalContext(
        4, ctx4.quarter, *(evalcore._trimmed(t, ctx4.quarter, 1e-3) for t in (full_sq, full_cq)), 1e-3
    )
    assert len(loose.sq_table.floats) < len(full_sq.floats)
    assert len(loose.cq_table.floats) < len(full_cq.floats)
    half = loose.half
    for t in (0.3 * loose.quarter, 0.9 * loose.quarter):
        assert sg.sq(loose, t) == sg.horner_sparse(loose.sq_table, t)
        assert sg.cq(loose, t) == sg.horner_sparse(loose.cq_table, t)
        u = half - t  # past the quarter period: the tables swap roles
        s = half - u
        assert sg.sq(loose, u) == sg.horner_sparse(loose.cq_table, s)
        assert sg.cq(loose, u) == sg.horner_sparse(loose.sq_table, s)
        assert sg.pow_general(loose, 1, 1, u) == (
            sg.horner_sparse(loose.sq_table, s) * sg.horner_sparse(loose.cq_table, s)
        )


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


# ---------------------------------------------------------------------------
# A context evaluates through generated straight-line code that checks,
# reduces and folds; the loop in _horner stays the reference, bit for bit.

FOLD_EPS = (2.0 ** -53, 2.0 ** -30, 1e-6, 1e-3, 0.3)


def _fold_points(quarter: float) -> tuple[float, ...]:
    return (0.0, -0.0, 5e-324, quarter, math.nextafter(quarter, 0.0))


def _assert_bits(got, want, where) -> None:
    assert type(got) is type(want), where
    assert struct.pack("<d", got) == struct.pack("<d", want), (
        *where, float(got).hex(), float(want).hex()
    )


def _assert_folds_like_the_loop(ctx, points) -> None:
    # On [0, pi_p / 4] each evaluator folds its own table with sign 1; past
    # the quarter reflection the tables swap roles.
    ev = ctx.evaluators
    for s in points:
        where = (ctx.sq_table.params, len(ctx.sq_table.floats), len(ctx.cq_table.floats), s)
        want_sq, want_cq = evalcore._horner(ctx.sq_table, s), evalcore._horner(ctx.cq_table, s)
        _assert_bits(ev.sq(s), want_sq, where)
        _assert_bits(ev.cq(s), want_cq, where)
        c, v = ev.pair(s)
        _assert_bits(c, want_cq, where)
        _assert_bits(v, want_sq, where)
        u = ctx.half - s
        if u > ctx.quarter:
            r = ctx.half - u
            want_sq, want_cq = evalcore._horner(ctx.cq_table, r), evalcore._horner(ctx.sq_table, r)
            _assert_bits(ev.sq(u), want_sq, where)
            _assert_bits(ev.cq(u), want_cq, where)
            c, v = ev.pair(u)
            _assert_bits(c, want_cq, where)
            _assert_bits(v, want_sq, where)


@pytest.mark.parametrize("p", range(2, 11))
def test_context_folds_match_the_loop_bit_for_bit(p):
    rng = random.Random(300 + p)
    for eps in FOLD_EPS:
        ctx = sg.build_context(p, eps)
        points = _fold_points(ctx.quarter) + tuple(rng.uniform(0.0, ctx.quarter) for _ in range(20))
        _assert_folds_like_the_loop(ctx, points)


@pytest.mark.parametrize("p", range(2, 11))
def test_record_table_folds_match_the_loop_bit_for_bit(p):
    # The whole compute_pi tables: 104 coefficients at p = 10, more than one
    # generated statement holds.
    record = sg.compute_pi(p)
    ctx = sg.EvalContext(p, record.value / 4.0, record.sq_table, record.cq_table, sg.EPS_DEFAULT)
    _assert_folds_like_the_loop(ctx, _fold_points(ctx.quarter))
    if p == 10:
        assert len(record.sq_table.floats) == 104 > evalcore._NEST


def test_hand_made_table_folds_match_the_loop_bit_for_bit():
    rng = random.Random(17)
    quarter = sg.build_context(3).quarter
    long = tuple(rng.uniform(-1.0, 1.0) * 2.0 ** -rng.randrange(60) for _ in range(298))
    tables = [
        sg.MacLaurinTable(sg.SquigParams(3, 0, 1), (1.0, -0.0) + long),  # 300 coefficients
        sg.MacLaurinTable(sg.SquigParams(4, 0, 1), (0.75,)),
        sg.MacLaurinTable(sg.SquigParams(4, 1, 0), (0.75,)),
        sg.maclaurin(sg.SquigParams(4, 2, 3), 40),
        sg.MacLaurinTable(sg.SquigParams(4, 1, 0), (1, 0.5, 3)),  # ints, as a hand-edited cache may hold
        sg.MacLaurinTable(sg.SquigParams(5, 0, 1), (7,)),
        sg.MacLaurinTable(sg.SquigParams(5, 1, 0), (7,)),
        sg.MacLaurinTable(sg.SquigParams(4, 1, 0), (1.0, math.inf, 0.25)),
        sg.MacLaurinTable(sg.SquigParams(2, 0, 2), (math.inf,)),
    ]
    assert len(tables[0].floats) == 300
    # Each table is the sq table of one context and the cq table of the
    # next, so pair also folds tables of different p side by side.
    for sq_table, cq_table in zip(tables, tables[1:] + tables[:1]):
        ctx = sg.EvalContext(sq_table.params.p, quarter, sq_table, cq_table, 1e-3)
        _assert_folds_like_the_loop(ctx, _fold_points(quarter))


def test_evaluated_context_pickles_without_its_evaluators():
    ctx = sg.build_context(5)
    assert "evaluators" not in vars(ctx)  # build_context makes no evaluators
    points = [0.3, -2.0, 7.5, 1e6]
    want = [(sg.sq(ctx, t), sg.cq(ctx, t)) for t in points]
    assert "evaluators" in vars(ctx)
    back = pickle.loads(pickle.dumps(ctx))
    assert back == ctx and "evaluators" not in vars(back)
    assert "evaluators" in vars(ctx)
    assert [(sg.sq(back, t), sg.cq(back, t)) for t in points] == want


def test_replaced_context_folds_its_own_tables(ctx4):
    sg.sq(ctx4, 0.3)  # the evaluators of ctx4 exist before the replace
    stub = sg.MacLaurinTable(ctx4.sq_table.params, (2.0,))
    moved = dataclasses.replace(ctx4, sq_table=stub)
    assert moved.evaluators.sq is not ctx4.evaluators.sq
    for s in (0.1, 0.5, ctx4.quarter):
        assert sg.sq(moved, s) == 2.0 * s
        assert sg.cq(moved, s) == sg.cq(ctx4, s)
