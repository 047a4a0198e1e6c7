from __future__ import annotations

import math
import pickle
import random
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squigonometry as sg
from decimal_reference import arcsq
from squigonometry import ConvergenceError, ParameterError, SquigParams, series

# Integer numerators of the p=4 series, frozen: F_j = q[n+4j][j].
SQUINE_P4_NUMERATORS = (1, 18, 14364, 70203672)
COSQUINE_P4_NUMERATORS = (1, 6, 2268, 7434504)

# Term-count column for p = 3..10 at epsilon = 2^-53, frozen.
TERM_COUNTS = {3: 22, 4: 34, 5: 46, 6: 58, 7: 69, 8: 81, 9: 92, 10: 103}


def exact_floats(params: SquigParams, J: int) -> list[float]:
    # The oracle: each a_j correctly rounded from the exact numerators of
    # the paper's recursion, F_j / (n + pj)!.
    nums = sg.integer_maclaurin(params, J)
    return [float(Fraction(F, math.factorial(params.n + params.p * j))) for j, F in enumerate(nums)]


@pytest.mark.parametrize("p", range(2, 17))
def test_sq_cq_tables_are_correctly_rounded(p):
    # sq and cq at the length compute_pi sizes for 2^-53, every p with no
    # ceiling, and every shorter table a prefix of the longer one.
    J = sg.estimate_terms(p, sg.pi_gamma(p), 2.0 ** -53)
    for m, n in ((0, 1), (1, 0)):
        params = SquigParams(p=p, m=m, n=n)
        want = [v.hex() for v in exact_floats(params, J)]
        assert [v.hex() for v in sg.maclaurin(params, J).floats] == want, (m, n)
        for short in (0, 1, 3):
            assert [v.hex() for v in sg.maclaurin(params, short).floats] == want[: short + 1]


@pytest.mark.parametrize("p", [4, 10])
def test_power_tables_are_correctly_rounded(p):
    # Every (m, n) up to 5 and (30, 30): powers by square and multiply, their Cauchy
    # product, rounded once.
    J = sg.estimate_terms(p, sg.pi_gamma(p), 2.0 ** -53)
    for m, n in [(m, n) for m in range(6) for n in range(6)] + [(30, 30)]:
        params = SquigParams(p=p, m=m, n=n)
        assert sg.maclaurin(params, J).floats == tuple(exact_floats(params, J)), (m, n)


@pytest.mark.parametrize("p,eps", [(2, 5e-324), (3, 1e-300), (4, 1e-200)])
def test_deep_tables_are_correctly_rounded(p, eps):
    # The sq and cq tables of length J_used at tiny tolerances, hundreds of
    # terms deep, down to coefficients below binary64's smallest normal.
    rec = sg.compute_pi(p, eps)
    for params in (SquigParams(p, 0, 1), SquigParams(p, 1, 0)):
        assert list(sg.maclaurin(params, rec.J_used).floats) == exact_floats(params, rec.J_used), params


@pytest.mark.parametrize("p", [2, 3, 7, 10])
def test_streams_on_a_shared_series_match_fresh_tables(p):
    # Larger m and n, and tables taken from a series other tables have
    # already extended: the bits of one fresh maclaurin run, which are the
    # oracle's, in either order of the cases.
    cases = ((9, 0), (0, 13), (17, 20), (40, 3), (3, 2), (2, 3), (15, 14), (14, 15))
    want = {}
    for m, n in cases:
        params = SquigParams(p=p, m=m, n=n)
        want[m, n] = exact_floats(params, 40)
        assert list(sg.maclaurin(params, 40).floats) == want[m, n], (m, n)
    for order in (cases, cases[::-1]):
        shared = series._TaylorSeries(p)
        shared.extend(25)
        for m, n in order:
            assert list(shared.table(SquigParams(p, m, n), 40).floats) == want[m, n], (m, n)
        assert len(shared.c) == 41


def test_squares_pair_their_products():
    # A square sums a_i a_(j-i) once for each pair i < j/2, doubled, plus
    # a_(j/2)^2: the plain convolution's integer, at every j from 0.
    rng = random.Random(27)
    a = [rng.getrandbits(200) for _ in range(41)]
    for j in range(41):
        plain = sum(a[i] * a[j - i] for i in range(j + 1)) >> series._F
        assert series._product(a, a, j) == series._product(a, list(a), j) == plain, j


def test_one_series_streams_deep_tables_and_pickles():
    # Seven tables taken in turn from one series at p = 4, each with its own
    # products, 240 terms deep: the oracle's bits.  The series pickles with
    # its lists.
    cases = ((0, 1), (1, 0), (2, 1), (3, 3), (1, 2), (3, 2), (2, 3))
    shared = series._TaylorSeries(4)
    for mn in cases:
        params = SquigParams(4, *mn)
        assert list(shared.table(params, 240).floats) == exact_floats(params, 240), mn
    assert len(shared.c) == len(shared.s) == len(shared.g) == len(shared.h) == 241
    assert vars(pickle.loads(pickle.dumps(shared))) == vars(shared)


@pytest.mark.parametrize("p", [2, 3, 4, 10, 64, 1000])
def test_binomial_sums_give_arcsq_and_the_cosquine_at_any_ratio(p):
    # At z = x^p <= 1/2, passed as its exact ratio, the kernel's x S(z) is
    # arcsq(x) and its root (1 - z)^(1/p) = cq(arcsq(x)), against the decimal
    # reference: S under its bound e units of 2^-136 low, the root under e
    # high.  The points run from 2^-30 to the last float with x^p <= 1/2.
    bits, rng = 136, random.Random(4100 + p)
    top = 2.0 ** (-1.0 / p)
    while Fraction(top) ** p > Fraction(1, 2):
        top = math.nextafter(top, 0.0)
    for x in [2.0 ** -30, 0.1, 0.5 * top, top] + [rng.uniform(0.0, top) for _ in range(3)]:
        a, b = x.as_integer_ratio()
        s, root, e = series._binomial_sums(p, 0, 0, bits, a ** p, b ** p)
        with localcontext() as dec:
            dec.prec = 60
            unit = Decimal(2) ** -bits
            low = (arcsq(x, p) - Decimal(x) * s * unit) / unit
            high = (root * unit - (1 - Decimal(x) ** p) ** (Decimal(1) / p)) / unit
        assert -1e-6 < low < e and -1e-6 < high < e, (x, low, high, e)


def test_p2_power_tables_keep_their_precision_deep():
    # cos and sin are entire, and Miller's cancelling sum for their powers
    # lost bits with every term: cos^2 sin misrounded from j = 39, cos^5
    # sin^2 from j = 55 and sin^7 from j = 66, and cos^2 raised "fixed point
    # too short" at j = 40.
    for m, n in ((2, 1), (5, 2), (2, 0), (0, 7)):
        params = SquigParams(p=2, m=m, n=n)
        assert list(sg.maclaurin(params, 90).floats) == exact_floats(params, 90), (m, n)


@pytest.mark.parametrize("p", [2, 4, 11])
def test_large_n_tables_are_correctly_rounded(p):
    # a_0 = 1 of sq^n at any n, and the terms after it, with no ceiling at
    # n = 1021.
    for n in (1020, 1021, 1030):
        params = SquigParams(p=p, m=0, n=n)
        assert list(sg.maclaurin(params, 3).floats) == exact_floats(params, 3), n


def test_maclaurin_answers_at_a_huge_p():
    # a_1 of sq is (p - 1) / (p (p + 1)) at every p.
    table = sg.maclaurin(SquigParams(p=100000, m=0, n=1), 3)
    assert table.floats[1] == float(Fraction(99999, 100000 * 100001))


def test_a_coefficient_past_binary64_raises_at_its_j():
    # sq^n at p = 2 is t^n (sinh(x)/x)^n with x^2 = -t^2, so a_j is the u^j
    # coefficient of (1 + u/3! + u^2/5! + ...)^n, exact from truncated
    # powers and independent of both recursions.  At n = 10^104, a_3 is the
    # first coefficient past 2^1024.
    n = 10 ** 104

    def times(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(4)]

    power, e = [Fraction(1), 0, 0, 0], n
    square = [Fraction(1, math.factorial(2 * i + 1)) for i in range(4)]
    while e:
        if e & 1:
            power = times(power, square)
        square, e = times(square, square), e >> 1
    with pytest.raises(OverflowError):
        float(power[3])
    params = SquigParams(p=2, m=0, n=n)
    assert list(sg.maclaurin(params, 2).floats) == [float(a) for a in power[:3]]
    with pytest.raises(ConvergenceError, match=f"overflows binary64 at p=2, m=0, n={n}, j=3$"):
        sg.maclaurin(params, 5)


@pytest.mark.parametrize("m, n", [(10 ** 5000, 0), (0, 10 ** 5000)], ids=["m", "n"])
def test_a_first_coefficient_past_binary64_is_refused_before_the_powers(m, n):
    # a_1 = (m (p + 1) + n) / (p (p + 1)) in closed form: a power of 16610
    # bits is refused at j = 1 without forming c^m s^n, which took seconds.
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match=r"overflows binary64 at p=4, m=.*, n=.*, j=1$"):
        sg.maclaurin(SquigParams(p=4, m=m, n=n), 3)
    assert time.perf_counter() - start < 0.1


def test_the_closed_form_a_1_refuses_exactly_past_binary64():
    # At m = 4 * int(max) and p = 4, n = 0, a_1 = m / 4 is binary64's largest
    # value, which the table still rounds; the next power of two refuses.
    big = int(sys.float_info.max)
    assert sg.maclaurin(SquigParams(p=4, m=4 * big, n=0), 1).floats == (1.0, sys.float_info.max)
    with pytest.raises(ConvergenceError, match="j=1$"):
        sg.maclaurin(SquigParams(p=4, m=4 << 1024, n=0), 1)


def test_a_fixed_point_too_short_raises(monkeypatch):
    # With fewer fraction bits than the 117 the rounding keeps, a_0 = 1
    # itself cannot be rounded safely.
    monkeypatch.setattr(series, "_F", 100)
    with pytest.raises(ConvergenceError, match="fixed point too short .* at p=4, m=0, n=1, j=0$"):
        sg.maclaurin(SquigParams(p=4, m=0, n=1), 3)


def test_integer_numerators_frozen():
    assert sg.integer_maclaurin(SquigParams(p=4, m=0, n=1), 3) == SQUINE_P4_NUMERATORS
    assert sg.integer_maclaurin(SquigParams(p=4, m=1, n=0), 3) == COSQUINE_P4_NUMERATORS


def test_numerators_are_transposed_triangle_entries():
    # The squine numerator at index j sits mirrored in the cosquine triangle.
    p = 4
    sq_nums = sg.integer_maclaurin(SquigParams(p=p, m=0, n=1), 5)
    tri = sg.build_triangle(SquigParams(p=p, m=1, n=0), 1 + p * 5)
    for j in range(6):
        k = 1 + p * j
        assert sq_nums[j] == sg.coefficient(tri, k, 1 + (p - 1) * j)


@pytest.mark.parametrize("p,m,n", [(2, 5, 3), (3, 7, 0), (6, 2, 1)] + [
    (p, m, n) for p in range(2, 9) for m, n in ((1, 0), (0, 1), (2, 1), (1, 2), (3, 0))
])
def test_integer_maclaurin_is_triangle_diagonal(p, m, n):
    # The band's right edge runs past column J long before order n + pJ,
    # so the column cap in integer_maclaurin drops live entries; only the
    # single-entry rows of sine and cosine (p = 2, m + n = 1) stay within it.
    params = SquigParams(p=p, m=m, n=n)
    J = 40
    if (p, m + n) != (2, 1):
        assert sg.band_limits(params, n + p * J)[1] > J
    rows = sg.build_triangle(params, n + p * J).rows
    assert sg.integer_maclaurin(params, J) == tuple(rows[n + p * j].get(j, 0) for j in range(J + 1))


def test_float_exactness_pins():
    sq_t = sg.maclaurin(SquigParams(p=4, m=0, n=1), 2)
    cq_t = sg.maclaurin(SquigParams(p=4, m=1, n=0), 2)
    assert sq_t.floats[1] == 0.15
    assert cq_t.floats[1] == 0.25
    assert cq_t.floats[2] == 0.05625
    assert sq_t.floats[0] == 1.0


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("m,n", [(1, 0), (0, 1), (2, 1)])
def test_float_path_matches_exact_rationals(p, m, n):
    params = SquigParams(p=p, m=m, n=n)
    table = sg.maclaurin(params, 12)
    numerators = sg.integer_maclaurin(params, 12)
    for j in range(13):
        exact = Fraction(numerators[j], math.factorial(n + p * j))
        assert abs(table.floats[j] - exact) <= 5e-14 * exact


def test_table_and_interlacing_take_no_extra_arguments():
    # Exact numerators come from integer_maclaurin, J from the floats, and
    # interlacing_check's gap is fixed.
    params = SquigParams(p=4, m=0, n=1)
    with pytest.raises(TypeError):
        sg.maclaurin(params, 3, with_numerators=True)
    with pytest.raises(TypeError):
        sg.MacLaurinTable(params, 3, (1.0, 0.15, 0.1, 0.05))
    a = sg.RootSet(k=4, zero_multiplicity=1, negative_roots=(-3.0, -1.0))
    f = sg.RootSet(k=5, zero_multiplicity=1, negative_roots=(-4.0, -2.0, -0.5))
    with pytest.raises(TypeError):
        sg.interlacing_check(a, f, min_gap=1e-10)


def test_power_and_signed():
    table = sg.maclaurin(SquigParams(p=4, m=0, n=1), 3)
    assert [table.power(j) for j in range(4)] == [1, 5, 9, 13]
    assert table.signed(0) == table.floats[0]
    assert table.signed(1) == -table.floats[1]


def test_p2_series_are_classical():
    sine = sg.maclaurin(SquigParams(p=2, m=0, n=1), 8)
    cosine = sg.maclaurin(SquigParams(p=2, m=1, n=0), 8)
    assert all(v == 1 for v in sg.integer_maclaurin(sine.params, 8))
    assert all(v == 1 for v in sg.integer_maclaurin(cosine.params, 8))
    for j in range(9):
        assert abs(sine.floats[j] * math.factorial(2 * j + 1) - 1.0) <= 1e-13
        assert abs(cosine.floats[j] * math.factorial(2 * j) - 1.0) <= 1e-13


def test_estimate_terms_frozen_row():
    for p, want in TERM_COUNTS.items():
        assert sg.estimate_terms(p, sg.pi_gamma(p), 2.0 ** -53) == want


def test_estimate_terms_p2_counts_factorials():
    # The golden p = 2 J_used: 1 / 20! is the first below 2^-53, plus two.
    assert sg.estimate_terms(2, math.pi, 2.0 ** -53) == 12


def test_estimate_terms_validation():
    with pytest.raises(ParameterError):
        sg.estimate_terms(1, 3.0, 1e-10)
    with pytest.raises(ParameterError):
        sg.estimate_terms(4, 3.7, 0.0)
    with pytest.raises(ParameterError):
        sg.estimate_terms(4, 3.7, 1.5)
    with pytest.raises(ParameterError):
        # pi_p so small the claimed decay rate drops below 1
        sg.estimate_terms(4, 1.0, 1e-10)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=3, max_value=10),
    exp_a=st.integers(min_value=10, max_value=40),
    exp_b=st.integers(min_value=10, max_value=40),
)
def test_estimate_terms_monotone_in_epsilon(p, exp_a, exp_b):
    pi_p = sg.pi_gamma(p)
    lo, hi = sorted((exp_a, exp_b))
    # Tighter tolerance can only demand more terms.
    assert sg.estimate_terms(p, pi_p, 2.0 ** -hi) >= sg.estimate_terms(p, pi_p, 2.0 ** -lo)


def test_radius_decreases_toward_one():
    values = [sg.radius(p, sg.pi_gamma(p)) for p in range(3, 30)]
    assert all(r > 1.0 for r in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert sg.radius(2, math.pi) == math.inf


def test_scaled_terms_decay_at_rate_r():
    # floats[j] * x^(n+pj) with x = pi_p/4 shrinks by (x/R)^p = cos(pi/p)^p.
    p = 4
    pi_p = sg.pi_gamma(p)
    r = sg.radius(p, pi_p)
    table = sg.maclaurin(SquigParams(p=p, m=1, n=0), 30)
    x = pi_p / 4.0
    terms = [table.floats[j] * x ** (p * j) for j in range(31)]
    ratios = [terms[j + 1] / terms[j] for j in range(20, 30)]
    for ratio in ratios:
        assert ratio == pytest.approx((x / r) ** p, rel=0.05)
    assert (x / r) ** p == pytest.approx(math.cos(math.pi / p) ** p, rel=1e-12)


def test_empty_table_is_refused():
    # Horner and build_context's trim both read a_0, so a table without it
    # fails where it is made.
    with pytest.raises(ParameterError, match="a_0"):
        sg.MacLaurinTable(SquigParams(p=4, m=0, n=1), ())
    assert sg.MacLaurinTable(SquigParams(p=4, m=0, n=1), (math.nan,)).J == 0


def test_maclaurin_validation():
    with pytest.raises(ParameterError):
        sg.maclaurin(SquigParams(p=4, m=-1, n=1), 4)
    with pytest.raises(ParameterError):
        sg.maclaurin(SquigParams(p=4, m=1, n=0), -1)
    with pytest.raises(ParameterError):
        sg.integer_maclaurin(SquigParams(p=4, m=1, n=-2), 4)


def test_constant_function_numerators():
    # cq^0 sq^0 = 1: F_0 = 1 and every later derivative vanishes.
    params = SquigParams(p=4, m=0, n=0)
    assert sg.integer_maclaurin(params, 2) == (1, 0, 0)
    assert sg.maclaurin(params, 2).floats == (1.0, 0.0, 0.0)
