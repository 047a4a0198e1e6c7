from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squigonometry as sg
from squigonometry import (
    DomainError,
    ParameterError,
    RootSet,
    SquigParams,
    band_limits,
)
from squigonometry import derivpoly
from squigonometry.derivpoly import DerivPolynomial, _filtered_sign, _sign_at_dyadic

COSQUINE4 = SquigParams(p=4, m=1, n=0)
SQUINE6 = SquigParams(p=6, m=0, n=1)
GOLDEN = Path(__file__).parent / "golden"


def fraction_sum(coeffs: list[int], value: float) -> Fraction:
    # Reference for the integer kernel: the same Horner sum carried in exact
    # rationals, normalised at every step.
    x = Fraction(value)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def fraction_sign(coeffs: list[int], value: float) -> int:
    acc = fraction_sum(coeffs, value)
    return (acc > 0) - (acc < 0)


def assert_exact_pair(got: tuple[int, float], coeffs: list[int], value: float) -> None:
    # The exact kernel's (sign, value): the sign of the sum, and the sum
    # correctly rounded to binary64 below 2^1023 in magnitude, NaN from there.
    acc = fraction_sum(coeffs, value)
    want = float(acc) if abs(acc) < 2 ** 1023 else math.nan
    assert got[0] == (acc > 0) - (acc < 0)
    assert got[1] == want or math.isnan(got[1]) and math.isnan(want)


def test_q_polynomial_dense_view():
    tri = sg.build_triangle(COSQUINE4, 6)
    q4 = sg.q_polynomial(tri, 4)
    assert q4.coeffs == (0, 6, 81, 18, 0)
    assert q4.k == 4
    with pytest.raises(ParameterError):
        sg.q_polynomial(tri, 7)


@pytest.mark.parametrize("p,m,n", [(2, 0, 1), (3, 1, 0), (4, 1, 0), (4, 2, 1), (6, 0, 1)])
def test_polynomial_step_reproduces_triangle(p, m, n):
    params = SquigParams(p=p, m=m, n=n)
    tri = sg.build_triangle(params, 12)
    q = sg.q_polynomial(tri, 0)
    for k in range(12):
        q = sg.polynomial_step(q)
        want = sg.q_polynomial(tri, k + 1)
        assert q.coeffs == want.coeffs


def step_oracle(params: SquigParams, k: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    # Q_(k+1) = (n - k + (m + k(p-1)) u) Q + p u (1 - u) Q', by polynomial
    # arithmetic on dense coefficient lists, cut to length k + 2.
    p, m, n = params.p, params.m, params.n
    out = [0] * (len(coeffs) + 2)
    for j, c in enumerate(coeffs):
        out[j] += (n - k) * c
        out[j + 1] += (m + k * (p - 1)) * c
        out[j] += p * j * c
        out[j + 1] -= p * j * c
    return tuple((out + [0] * (k + 2))[: k + 2])


@pytest.mark.parametrize("params,k,coeffs", [
    (SquigParams(p=4, m=1, n=0), 4, (0, 6, 81, 18, 0)),
    (SquigParams(p=4, m=1, n=0), 4, (0, 0, 81, 0, 0)),
    (SquigParams(p=3, m=2, n=1), 2, (0, 0, 0)),
    (SquigParams(p=5, m=-1, n=2), 3, (2, -7, 0, 11)),
    (SquigParams(p=4, m=-3, n=-2), 5, (0, 1, -4, 9, 0, 0)),
    (SquigParams(p=6, m=-2, n=0), 1, (5, 0)),
])
def test_polynomial_step_hand_made_coefficients(params, k, coeffs):
    q = DerivPolynomial(params=params, k=k, coeffs=coeffs)
    out = sg.polynomial_step(q)
    assert out.k == k + 1
    assert out.coeffs == step_oracle(params, k, coeffs)


def test_kth_derivative_matches_finite_differences(ctx4):
    # Central differences of cq^2 sq against triangle rows 1..3.
    params = SquigParams(p=4, m=2, n=1)
    tri = sg.build_triangle(params, 3)

    def f(t: float) -> float:
        return sg.cq(ctx4, t) ** 2 * sg.sq(ctx4, t)

    # Step sizes balance truncation (h^2) against roundoff (ulp / h^order).
    for t in (0.4, 0.9, 1.3):
        h = 1e-6
        d1 = (f(t + h) - f(t - h)) / (2 * h)
        h = 1e-4
        d2 = (f(t + h) - 2 * f(t) + f(t - h)) / (h * h)
        h = 1e-3
        d3 = (f(t + 2 * h) - 2 * f(t + h) + 2 * f(t - h) - f(t - 2 * h)) / (2 * h ** 3)
        assert sg.kth_derivative_value(ctx4, tri, 1, t) == pytest.approx(d1, abs=1e-9)
        assert sg.kth_derivative_value(ctx4, tri, 2, t) == pytest.approx(d2, abs=1e-6)
        assert sg.kth_derivative_value(ctx4, tri, 3, t) == pytest.approx(d3, abs=1e-3)


def test_kth_derivative_order_zero_and_one_exact(ctx4):
    params = SquigParams(p=4, m=0, n=1)
    tri = sg.build_triangle(params, 1)
    for t in (0.3, 1.0):
        assert sg.kth_derivative_value(ctx4, tri, 0, t) == pytest.approx(
            sg.sq(ctx4, t), abs=1e-15
        )
        # sq' = cq^(p-1)
        assert sg.kth_derivative_value(ctx4, tri, 1, t) == pytest.approx(
            sg.cq(ctx4, t) ** 3, abs=1e-15
        )


def test_kth_derivative_reduces_once(ctx4, watch_evaluators):
    # Both factors come from one pair call: t is checked and reduced once.
    tri = sg.build_triangle(COSQUINE4, 3)
    points = (0.3, 1.0, 1.7)
    want = [sg.kth_derivative_value(ctx4, tri, 3, t) for t in points]
    calls = watch_evaluators(ctx4)
    for t, value in zip(points, want):
        calls.clear()
        assert sg.kth_derivative_value(ctx4, tri, 3, t) == value
        assert calls == [("pair", t)]


def test_kth_derivative_guards(ctx4, ctx3):
    tri = sg.build_triangle(COSQUINE4, 4)
    with pytest.raises(ParameterError):
        sg.kth_derivative_value(ctx3, tri, 2, 0.5)
    with pytest.raises(DomainError):
        sg.kth_derivative_value(ctx4, tri, 2, 0.0)
    with pytest.raises(DomainError):
        sg.kth_derivative_value(ctx4, tri, 2, 2.0 * ctx4.quarter)


def test_root_counts_match_band_widths():
    # One scan of the last level's roots brackets every root of the next.
    grid = [(p, m, n) for p in range(2, 7) for m in range(4) for n in range(4) if m or n]
    for params in (SquigParams(*pmn) for pmn in grid):
        ladder = sg.root_ladder(params, 16)
        for k, rs in enumerate(ladder):
            j_lo, j_hi = band_limits(params, k)
            assert rs.zero_multiplicity == j_lo
            assert len(rs.negative_roots) == j_hi - j_lo
            assert all(r < 0.0 for r in rs.negative_roots)


def test_known_root_cosquine4_level3():
    # Q_3 for the 4-cosquine is 3u(2 + 3u): single root -2/3.
    ladder = sg.root_ladder(COSQUINE4, 3)
    rs = ladder[3]
    assert rs.zero_multiplicity == 1
    assert len(rs.negative_roots) == 1
    assert rs.negative_roots[0] == pytest.approx(-2.0 / 3.0, abs=1e-14)


def test_known_roots_squine6_level4():
    # Level-4 squine roots for p = 6 solve 12u^2 + 85u + 20 = 0 up to the
    # deflated factor: (-85 +/- sqrt(6265)) / 24.
    ladder = sg.root_ladder(SQUINE6, 4)
    rs = ladder[4]
    lo = (-85.0 - math.sqrt(6265.0)) / 24.0
    hi = (-85.0 + math.sqrt(6265.0)) / 24.0
    assert len(rs.negative_roots) == 2
    assert rs.negative_roots[0] == pytest.approx(lo, abs=1e-12)
    assert rs.negative_roots[1] == pytest.approx(hi, abs=1e-12)


def test_interlacing_along_ladders():
    for params in (COSQUINE4, SQUINE6, SquigParams(p=3, m=2, n=1), SquigParams(p=4, m=1, n=1)):
        ladder = sg.root_ladder(params, 20)
        for lower, upper in zip(ladder, ladder[1:]):
            assert sg.interlacing_check(lower, upper), (params, upper.k)


def test_interlacing_rejects_bad_sets():
    a = RootSet(k=4, zero_multiplicity=1, negative_roots=(-3.0, -1.0))
    # Two roots of the same level adjacent after merging.
    b = RootSet(k=5, zero_multiplicity=1, negative_roots=(-0.5, -0.25))
    assert not sg.interlacing_check(a, b)
    # Count gap of two.
    c = RootSet(k=5, zero_multiplicity=1, negative_roots=())
    assert not sg.interlacing_check(a, c)
    # Nonnegative root.
    d = RootSet(k=5, zero_multiplicity=1, negative_roots=(-2.0, 0.0))
    assert not sg.interlacing_check(a, d)
    # Closer than the 1e-10 gap.
    e = RootSet(k=5, zero_multiplicity=1, negative_roots=(-3.0 + 1e-13, -0.5))
    assert not sg.interlacing_check(a, e)
    # A valid interlace passes.
    f = RootSet(k=5, zero_multiplicity=1, negative_roots=(-4.0, -2.0, -0.5))
    assert sg.interlacing_check(a, f)
    # A NaN or infinite root fails, on either level.
    nan_level = RootSet(k=2, zero_multiplicity=0, negative_roots=(math.nan,))
    empty = RootSet(k=1, zero_multiplicity=0, negative_roots=())
    assert not sg.interlacing_check(empty, nan_level)
    assert not sg.interlacing_check(nan_level, empty)
    inf_level = RootSet(k=2, zero_multiplicity=0, negative_roots=(-math.inf, -1.0))
    one = RootSet(k=1, zero_multiplicity=0, negative_roots=(-2.0,))
    assert not sg.interlacing_check(one, inf_level)
    assert not sg.interlacing_check(inf_level, one)


def test_real_roots_single_level():
    tri = sg.build_triangle(COSQUINE4, 3)
    rs = sg.real_roots(sg.q_polynomial(tri, 3))
    assert rs.negative_roots[0] == pytest.approx(-2.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("k,coeffs", [
    (3, (1, 1, 1, 1)),  # 1 + u + u^2 + u^3 has its root at -1; Q_3 at -2/3
    (3, (0, 6, 9, 1)),  # Q_3 is (0, 6, 9, 0)
    (3, (0, 6, 9)),
    (3, (0, 6, 9, 0, 0)),
    (2, (0, 6, 9, 0)),
])
def test_real_roots_rejects_coefficients_of_another_level(k, coeffs):
    with pytest.raises(ParameterError):
        sg.real_roots(DerivPolynomial(params=COSQUINE4, k=k, coeffs=coeffs))


def test_real_roots_accepts_stepped_polynomials():
    q = sg.q_polynomial(sg.build_triangle(SquigParams(p=3, m=2, n=1), 0), 0)
    for k in range(1, 7):
        q = sg.polynomial_step(q)
        assert sg.real_roots(q) == sg.root_ladder(q.params, k)[k]


def test_algebraic_values_land_on_curve(ctx4):
    ladder = sg.root_ladder(COSQUINE4, 10)
    for rs in ladder:
        for u in rs.negative_roots:
            cq_val, sq_val = sg.algebraic_values(u, 4)
            assert abs(cq_val ** 4 + sq_val ** 4 - 1.0) <= 5e-15
            assert 0.0 < cq_val <= 1.0 and 0.0 <= sq_val < 1.0


def test_algebraic_values_at_known_root(ctx4):
    # At the level-3 root of the 4-cosquine the second derivative of cq
    # vanishes; check by locating t with arcsq and differencing cq'.
    cq_val, sq_val = sg.algebraic_values(-2.0 / 3.0, 4)
    t_star = sg.arcsq_oracle(sq_val, 4)
    assert sg.cq(ctx4, t_star) == pytest.approx(cq_val, abs=1e-10)
    tri = sg.build_triangle(COSQUINE4, 3)
    assert sg.kth_derivative_value(ctx4, tri, 3, t_star) == pytest.approx(0.0, abs=1e-9)


def test_algebraic_values_origin():
    cq_val, sq_val = sg.algebraic_values(0.0, 4)
    assert (cq_val, sq_val) == (1.0, 0.0)


def test_algebraic_values_validation():
    with pytest.raises(DomainError):
        sg.algebraic_values(0.5, 4)
    with pytest.raises(ParameterError):
        sg.algebraic_values(-1.0, 1)


def test_degree_past_binary64_takes_its_reciprocal_exactly():
    # 1 / p by int / int true division, correctly rounded and bit-identical
    # to 1.0 / p below 2^53: no float(p) to overflow.
    assert sg.algebraic_values(-1.0, 10 ** 400) == (1.0, 1.0)
    assert sg.critical_value(SquigParams(10 ** 400, 1, 1)) == 1.0


def test_critical_value_balanced_product():
    # m = n: maximum of (cq sq)^m is 2^(-2m/p).
    assert sg.critical_value(SquigParams(p=4, m=1, n=1)) == pytest.approx(
        2.0 ** -0.5, abs=1e-15
    )
    assert sg.critical_value(SquigParams(p=2, m=1, n=1)) == pytest.approx(0.5, abs=1e-15)


def test_critical_value_matches_grid_maximum(ctx4):
    params = SquigParams(p=4, m=2, n=1)
    want = sg.critical_value(params)
    half = 2.0 * ctx4.quarter
    grid = max(
        sg.cq(ctx4, i * half / 2000.0) ** 2 * sg.sq(ctx4, i * half / 2000.0)
        for i in range(1, 2000)
    )
    assert grid <= want + 1e-12
    assert grid == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize("p, m, n", [
    (4, 1, 1), (3, 300, 400), (5, 250, 700), (4, 511, 511),
    (4, 600, 600), (2, 600, 700), (3, 1000, 2000), (2000, 1, 1), (5000, 600, 700),
])
def test_critical_value_matches_decimal_reference(p, m, n):
    # Within 2 ulp of a 60-digit reference: at (3, 300, 400) and (5, 250, 700)
    # the plain ratio ** (1 / p) is off by tens of ulp, from (4, 600, 600) on
    # the ratio m^m n^n / (m + n)^(m + n) is below 2^-1022, and at p = 2000
    # scaling the ratio by 2^p would overflow.
    got = sg.critical_value(SquigParams(p=p, m=m, n=n))
    with localcontext() as dec:
        dec.prec = 60
        want = (Decimal(m ** m * n ** n) / Decimal((m + n) ** (m + n))) ** (Decimal(1) / p)
        assert abs(Decimal(got) - want) <= 2 * Decimal(math.ulp(got))
    if m == n and 2 * m % p == 0:
        assert got == 2.0 ** (-2 * m // p)


def test_critical_value_validation():
    with pytest.raises(ParameterError):
        sg.critical_value(SquigParams(p=4, m=0, n=1))


def test_root_ladder_validation():
    with pytest.raises(ParameterError):
        sg.root_ladder(SquigParams(p=4, m=-1, n=1), 4)
    with pytest.raises(ParameterError):
        sg.root_ladder(COSQUINE4, -1)


def test_constant_function_has_no_root_ladder():
    with pytest.raises(ParameterError):
        sg.root_ladder(SquigParams(p=4, m=0, n=0), 3)


PROBES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.builds(math.ldexp, st.sampled_from([1.0, -1.0]), st.integers(-1074, 1023)),
)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.integers(-(2 ** 300), 2 ** 300), min_size=1, max_size=41),
    value=PROBES,
)
def test_sign_at_dyadic_matches_fraction_oracle(coeffs, value):
    assert_exact_pair(_sign_at_dyadic(coeffs, value), coeffs, value)


@settings(max_examples=100, deadline=None)
@given(
    root=PROBES,
    cofactor=st.lists(st.integers(-(2 ** 60), 2 ** 60), min_size=1, max_size=20),
)
def test_sign_at_dyadic_around_a_dyadic_root(root, cofactor):
    # (den u - num) * cofactor vanishes exactly at root = num / den; the
    # sign one float either side is the finest decision bisection makes.
    num, den = root.as_integer_ratio()
    coeffs = [0] * (len(cofactor) + 1)
    for i, c in enumerate(cofactor):
        coeffs[i] -= num * c
        coeffs[i + 1] += den * c
    assert _sign_at_dyadic(coeffs, root) == (0, 0.0)
    for x in (math.nextafter(root, -math.inf), math.nextafter(root, math.inf)):
        if math.isfinite(x):
            assert_exact_pair(_sign_at_dyadic(coeffs, x), coeffs, x)


def filtered(coeffs: list[int], value: float) -> int:
    # The certified sign; the value returned with it carries that sign
    # unless it underflowed to zero or passed the binary64 range.
    sign, estimate = _filtered_sign(coeffs)(value)
    assert sign * estimate > 0.0 or estimate == 0.0 or math.isnan(estimate)
    return sign


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.integers(-(2 ** 300), 2 ** 300), min_size=1, max_size=41),
    value=st.one_of(PROBES, st.floats(-4.0, 4.0)),
)
def test_filtered_sign_matches_fraction_oracle(coeffs, value):
    assert filtered(coeffs, value) == fraction_sign(coeffs, value)


@settings(max_examples=100, deadline=None)
@given(
    root=st.one_of(PROBES, st.floats(-4.0, 4.0)),
    cofactor=st.lists(st.integers(-(2 ** 60), 2 ** 60), min_size=1, max_size=20),
)
def test_filtered_sign_around_a_dyadic_root(root, cofactor):
    num, den = root.as_integer_ratio()
    coeffs = [0] * (len(cofactor) + 1)
    for i, c in enumerate(cofactor):
        coeffs[i] -= num * c
        coeffs[i + 1] += den * c
    assert filtered(coeffs, root) == 0
    for x in (math.nextafter(root, -math.inf), math.nextafter(root, math.inf)):
        if math.isfinite(x):
            assert filtered(coeffs, x) == fraction_sign(coeffs, x)


@pytest.fixture
def exact_calls(monkeypatch):
    # Count the probes the float filter hands to the exact sign.
    calls = []

    def counting(coeffs, value):
        calls.append(value)
        return _sign_at_dyadic(coeffs, value)

    monkeypatch.setattr(derivpoly, "_sign_at_dyadic", counting)
    return calls


BINOMIAL_20 = [math.comb(20, i) for i in range(21)]  # (u + 1)^20


def ulps_from(x: float, k: int) -> float:
    # The float k steps from x, upward for k > 0.
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@pytest.mark.parametrize("coeffs,value", [
    ([2 ** 1100, 1], 0.5),                # a coefficient past binary64
    ([1, -3, 2 ** 1030], -1.0),
    ([1] * 10, 1e300),                    # sum |c_i| |x|^i overflows
    ([-1, 0, 0, 7], -1e200),
    ([0, 3], 5e-324),                     # subnormal x
    ([0, -3, 1], 2.0 ** -1060),
    ([0, 0, 1], -(2.0 ** -1070)),         # x^2 underflows to 0
] + [(BINOMIAL_20, ulps_from(-1.0, k)) for k in range(-8, 9)])
def test_filtered_sign_takes_exact_path(exact_calls, coeffs, value):
    # Near the 20-fold root at -1 the binary64 sum is rounding noise; past
    # the binary64 range or below the normal numbers the filter cannot
    # certify a sign either.  The exact sign decides every one of them.
    assert filtered(coeffs, value) == fraction_sign(coeffs, value)
    assert exact_calls == [value]
    if coeffs is BINOMIAL_20:
        assert fraction_sign(coeffs, value) == (0 if value == -1.0 else 1)


@pytest.mark.parametrize("coeffs,value", [
    (BINOMIAL_20, 0.5),
    (BINOMIAL_20, -3.0),
    ([1, 1], 5e-324),
    ([-3, 3 * 2 ** 40 - 4, 4 * 2 ** 40], -0.5),
])
def test_filtered_sign_answers_far_from_roots_in_binary64(exact_calls, coeffs, value):
    assert filtered(coeffs, value) == fraction_sign(coeffs, value)
    assert exact_calls == []


def test_sign_at_dyadic_exact_roots_and_zero_polynomial():
    # (4u + 3)(u - 2^-40) vanishes exactly at both dyadic roots.
    coeffs = [-3, 3 * 2 ** 40 - 4, 4 * 2 ** 40]
    for root in (-0.75, 2.0 ** -40):
        assert _sign_at_dyadic(coeffs, root) == (0, 0.0)
    assert _sign_at_dyadic(coeffs, -0.75 - 2.0 ** -52)[0] == 1
    assert _sign_at_dyadic([0, 0, 0], 1e300) == (0, 0.0)


def test_root_ladder_golden_bits():
    # Every root of the 6-cosquine ladder to level 30, pinned bit for bit as
    # computed by the Fraction sign evaluation this kernel replaced.
    want = json.loads((GOLDEN / "root_ladder_p6_m1_n0_k30.json").read_text())
    ladder = sg.root_ladder(SquigParams(p=6, m=1, n=0), 30)
    assert [[r.hex() for r in level.negative_roots] for level in ladder] == want


def test_bracketing_takes_one_scan_of_the_probes():
    # 2x^2 + 11x + 15 = (2x + 5)(x + 3) has both roots between the probes
    # -10 and -1, which interlacing rules out, so the scan sees no sign
    # change and raises; probes that separate the roots bracket both.
    sign = _filtered_sign([15, 11, 2])
    with pytest.raises(sg.RootCountError, match="found 0 sign changes, expected 2"):
        derivpoly._bracketed_roots(sign, [-10.0, -1.0, 0.0], 2)
    assert derivpoly._bracketed_roots(sign, [-10.0, -2.75, 0.0], 2) == [-3.0, -2.5]


def test_filter_past_its_degree_limit_is_exact():
    # 1 + x + ... + x^(2^17 + 1) is past the float filter's bound, so every
    # probe takes the exact sign: 0 at -1, where the even count of terms cancels.
    terms = derivpoly._FILTER_MAX_DEGREE + 2
    sign = _filtered_sign([1] * terms)
    assert [sign(x) for x in (-1.0, 0.0, 1.0)] == [(0, 0.0), (1, 1.0), (1, float(terms))]


def bisect_oracle(sign, lo: float, hi: float, sign_lo: int) -> float:
    # Bisection at binary64 midpoints, each sign certified by the float
    # filter or computed exactly; runs to float exhaustion, so the returned
    # root is correct to adjacent floats.  This was the ladder's root finder
    # before the Illinois steps; any bracketing that moves its ends by
    # certified signs alone returns the same float.  Its 200-step cap is not
    # reached on the ladders compared here; a bracket of many decades
    # reaches it (test_isolation_converges_on_a_bracket_of_many_decades).
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        s = sign(mid)[0]
        if s == 0:
            return mid
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisected(sign, lo, hi, s_lo, f_lo, f_hi):
    return bisect_oracle(sign, lo, hi, s_lo)


def test_root_ladder_equals_the_bisection_oracle(monkeypatch):
    # Every root of every level, bit for bit, at p 2..8, m and n in 0..3.
    grid = [SquigParams(p, m, n) for p in range(2, 9) for m in range(4) for n in range(4) if m or n]
    ladders = [sg.root_ladder(params, 20) for params in grid]
    monkeypatch.setattr(derivpoly, "_isolate", bisected)
    for params, ladder in zip(grid, ladders):
        assert ladder == sg.root_ladder(params, 20), params


def test_polynomial_past_binary64_isolates_by_exact_signs(exact_calls):
    # Scaled by 2^1100 no coefficient is a binary64, so every probe takes the
    # exact sign, and its value is NaN wherever the scaled sum passes the
    # binary64 range: the steps there are bisections.  The roots of
    # (2u + 5)(u + 3) are floats, where the bracket closes on a probe of
    # sign 0; -sqrt(2), of u^2 - 2, lies between two floats.
    for coeffs, probes, want in (([15, 11, 2], [-10.0, -2.75, 0.0], [-3.0, -2.5]),
                                 ([-2, 0, 1], [-2.0, 0.0], [-math.sqrt(2.0)])):
        exact = _filtered_sign([c << 1100 for c in coeffs])
        seen = []

        def sign(x, exact=exact, seen=seen):
            seen.append(x)
            return exact(x)

        exact_calls.clear()
        roots = derivpoly._bracketed_roots(sign, probes, len(want))
        assert exact_calls == seen
        assert math.isnan(exact(probes[0])[1])
        brackets = [(a, b, exact(a)[0]) for a, b in zip(probes, probes[1:])
                    if exact(a)[0] * exact(b)[0] < 0]
        assert roots == [bisect_oracle(exact, *bracket) for bracket in brackets]
        assert roots == pytest.approx(want, rel=2.0 ** -52)


@pytest.mark.parametrize("coeffs", [[10 ** 6, 1], [10 ** 6, 3], [1, 10 ** 6]])
def test_isolation_converges_on_a_bracket_of_many_decades(coeffs):
    # From -1e70, halving reaches these roots in more than the 200 steps
    # bisection was capped at (it returned -3.1e9 for all three); geometric
    # steps cross the decades, and the root is the float whose sign is 0 or
    # one of the adjacent pair the exact sign changes across.
    sign = _filtered_sign(coeffs)
    (root,) = derivpoly._bracketed_roots(sign, [-1e70, 0.0], 1)
    below, above = math.nextafter(root, -math.inf), math.nextafter(root, 0.0)
    assert sign(root)[0] == 0 or sign(below)[0] != sign(above)[0]
    assert root == pytest.approx(-coeffs[0] / coeffs[1], rel=2.0 ** -52)


@pytest.fixture
def sign_calls(monkeypatch):
    # Count every sign probe the ladder makes, filtered or exact.
    calls = []
    real = derivpoly._filtered_sign

    def counting(coeffs):
        sign = real(coeffs)

        def probe(x):
            calls.append(x)
            return sign(x)

        return probe

    monkeypatch.setattr(derivpoly, "_filtered_sign", counting)
    return calls


def test_reference_ladder_takes_at_most_9000_sign_probes(sign_calls):
    # 290 roots: bisection took 16,104 probes, about 55 per root; the
    # Illinois steps take 4,556.
    sg.root_ladder(SquigParams(p=6, m=1, n=0), 30)
    assert len(sign_calls) <= 9000
