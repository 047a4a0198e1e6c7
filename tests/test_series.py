from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squigonometry as sg
from squigonometry import ConvergenceError, ParameterError, SquigParams
from squigonometry.series import _coefficients, _columns
from squigonometry.triangle import ceil_div

# Integer numerators of the p=4 series, frozen: F_j = q[n+4j][j].
SQUINE_P4_NUMERATORS = (1, 18, 14364, 70203672)
COSQUINE_P4_NUMERATORS = (1, 6, 2268, 7434504)

# Term-count column for p = 3..10 at epsilon = 2^-53, frozen.
TERM_COUNTS = {3: 22, 4: 34, 5: 46, 6: 58, 7: 69, 8: 81, 9: 92, 10: 103}


def banded_oracle(params: SquigParams, J: int) -> list[float]:
    # The row-major banded loop that maclaurin ran before the column
    # generator: all J + 1 columns in place, updated top-down order by order.
    p, m, n = params.p, params.m, params.n
    f = [0.0] * (J + 1)
    f[0] = 1.0
    for k in range(n + p * J):
        j_lo = max(ceil_div(k + 1 - n, p), 0)
        j_hi = min(k + 1 - ceil_div(k + 1 - m, p), J)
        for j in range(j_hi, j_lo, -1):
            f[j] = ((n - k + p * j) * f[j] + (m + k * (p - 1) - p * (j - 1)) * f[j - 1]) / (k + 1)
        # The subdiagonal neighbour j_lo - 1 enters only when it froze at
        # exactly order k.
        if (k - n) % p > 0 or j_lo == 0:
            f[j_lo] = ((n - k + p * j_lo) * f[j_lo]) / (k + 1)
        else:
            f[j_lo] = (
                (n - k + p * j_lo) * f[j_lo]
                + (m + k * (p - 1) - p * (j_lo - 1)) * f[j_lo - 1]
            ) / (k + 1)
    return f


@pytest.mark.parametrize("p", range(2, 13))
def test_columns_match_banded_oracle_bit_for_bit(p):
    # Every coefficient before the oracle's first non-finite one, -0.0/0.0
    # included, and a ConvergenceError at exactly that j (past the binary64
    # ceiling at p >= 11) from the generator and from maclaurin.  The oracle
    # and the generator each run once at the largest J: the oracle's columns
    # at or below J never read a column above J, so a shorter run is a prefix
    # of it.  maclaurin(params, J) is pinned to the first J + 1 columns for
    # one (m, n) per p.
    js = (0, 1, 2, 3, 5, 12, 34, 60, 103)
    pinned = (p % 6, (p // 2) % 6)
    for m in range(6):
        for n in range(6):
            params = SquigParams(p=p, m=m, n=n)
            oracle = banded_oracle(params, js[-1])
            bad = next((j for j, v in enumerate(oracle) if not math.isfinite(v)), len(oracle))
            want = [v.hex() for v in oracle[:bad]]
            columns = _columns(params)
            assert [v.hex() for v in islice(columns, bad)] == want, (p, m, n)
            overflow = f"overflows binary64 at p={p}, m={m}, n={n}, j={bad}$"
            if bad < len(oracle):
                with pytest.raises(ConvergenceError, match=overflow):
                    next(columns)
            for J in js if (m, n) == pinned else ():
                if J < bad:
                    table = sg.maclaurin(params, J).floats
                    assert [v.hex() for v in table] == want[: J + 1], (p, m, n, J)
                else:
                    with pytest.raises(ConvergenceError, match=overflow):
                        sg.maclaurin(params, J)


@pytest.mark.parametrize("p", [2, 3, 7, 10])
def test_columns_match_banded_oracle_past_the_small_grid(p):
    # Larger m and n move where each column's scan starts, where the column
    # before it froze, how far the weight table grows and the offset of the
    # stored history.  A coefficient stream continued past held floats must
    # also give the bits of one fresh run.
    for m, n in ((9, 0), (0, 13), (17, 20), (40, 3)):
        params = SquigParams(p=p, m=m, n=n)
        want = [v.hex() for v in banded_oracle(params, 60)]
        for J in (0, 1, 7, 60):
            assert [v.hex() for v in sg.maclaurin(params, J).floats] == want[: J + 1], (m, n, J)
        fresh = [v.hex() for v in islice(_columns(params), 41)]
        for held in (1, 2, 13):
            stream = _coefficients(params, tuple(islice(_columns(params), held)))
            assert [v.hex() for v in islice(stream, 41)] == fresh, (m, n, held)


def test_banded_oracle_prefix_property():
    # The premise of the test above, on the oracle itself.
    for p, m, n in ((2, 5, 3), (5, 0, 0), (12, 3, 1)):
        params = SquigParams(p=p, m=m, n=n)
        full = [v.hex() for v in banded_oracle(params, 60)]
        for J in (0, 1, 5, 12, 34):
            assert [v.hex() for v in banded_oracle(params, J)] == full[: J + 1]


def exact_coefficient(params: SquigParams, j: int) -> Fraction:
    nums = sg.integer_maclaurin(params, j)
    return Fraction(nums[j], math.factorial(params.n + params.p * j))


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


def test_empty_table_is_refused(ctx4):
    # Horner and build_context's trim both read a_0, so a table without it
    # fails where it is made.
    with pytest.raises(ParameterError, match="a_0"):
        sg.MacLaurinTable(SquigParams(p=4, m=0, n=1), ())
    with pytest.raises(ParameterError):
        sg.EvalContext(4, 0.9, sg.MacLaurinTable(SquigParams(p=4, m=0, n=1), []),
                       ctx4.cq_table, 2.0 ** -53)
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


@pytest.mark.parametrize("p", [2, 4, 11])
def test_column_zero_overflows_from_n_1021(p):
    # Column 0 carries the binomials C(n, k); its transit products
    # (n - k) C(n, k) pass binary64 from n = 1021 at every p, so a_0 raises.
    assert math.isfinite(sg.maclaurin(SquigParams(p=p, m=0, n=1020), 0).floats[0])
    for n in (1021, 1030):
        with pytest.raises(ConvergenceError, match=f"p={p}, m=0, n={n}, j=0$"):
            sg.maclaurin(SquigParams(p=p, m=0, n=n), 1)
