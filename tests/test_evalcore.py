from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squigonometry as sg
from squigonometry import DomainError, ParameterError, evalcore


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


def test_context_table_size_matches_estimate(ctx4):
    want = sg.estimate_terms(4, ctx4.pi_p, ctx4.epsilon)
    assert ctx4.sq_table.J == want == 34
    assert ctx4.cq_table.J == want


def test_context_shares_the_tables_pi_was_solved_on():
    record = sg.compute_pi(4)
    ctx = sg.build_context(4)
    assert ctx.sq_table is record.sq_table
    assert ctx.cq_table is record.cq_table
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
    calls = []

    def counting(ctx, t):
        calls.append(t)
        return real(ctx, t)

    real = evalcore._reduce
    monkeypatch.setattr(evalcore, "_reduce", counting)
    for t in (-2.0, 0.0, 1.3, 5.0):
        want = sg.cq(ctx4, t) ** 2 * sg.sq(ctx4, t)
        calls.clear()
        assert sg.pow_general(ctx4, 2, 1, t) == want
        assert calls == [t]


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
