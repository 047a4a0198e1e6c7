from __future__ import annotations

import math

import pytest

import squigonometry as sg
from squigonometry import ParameterError

# Quarter-period constants as column values, frozen to 16 digits.
PI_P_PRINTED = {
    3: "3.533277500570900",
    4: "3.708149354602744",
    5: "3.800600555953747",
    6: "3.855242593319996",
    7: "3.890174737625689",
    8: "3.913843287813181",
    9: "3.930614378886605",
    10: "3.942927897810032",
}

TERM_COUNTS = {3: 22, 4: 34, 5: 46, 6: 58, 7: 69, 8: 81, 9: 92, 10: 103}


def ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def test_p2_is_pi():
    rec = sg.compute_pi(2)
    assert rec.value == pytest.approx(math.pi, abs=5e-16)
    assert ulps_apart(rec.value, math.pi) <= 2


@pytest.mark.parametrize("p", range(3, 11))
def test_printed_values(p):
    rec = sg.compute_pi(p)
    assert ulps_apart(rec.value, float(PI_P_PRINTED[p])) <= 5


@pytest.mark.parametrize("p", range(2, 11))
def test_gamma_oracle(p):
    rec = sg.compute_pi(p)
    assert rec.value == pytest.approx(sg.pi_gamma(p), rel=5e-15)


def test_gamma_closed_form():
    # 2 Gamma(1/p)^2 / (p Gamma(2/p)) spot values.
    assert sg.pi_gamma(2) == pytest.approx(math.pi, rel=1e-15)
    g14 = math.gamma(0.25)
    assert sg.pi_gamma(4) == pytest.approx(g14 * g14 / (2.0 * math.gamma(0.5)), rel=1e-15)


@pytest.mark.parametrize("p", range(2, 11))
def test_iteration_budget(p):
    rec = sg.compute_pi(p)
    assert rec.iterations <= 6


@pytest.mark.parametrize("p", range(3, 11))
def test_table_size_fixpoint(p):
    rec = sg.compute_pi(p)
    assert rec.J_used == TERM_COUNTS[p]
    assert sg.estimate_terms(p, rec.value, rec.epsilon) == rec.J_used


def test_memoized_identity():
    assert sg.compute_pi(5) is sg.compute_pi(5)
    assert sg.compute_pi(5) is not sg.compute_pi(5, epsilon=2.0 ** -40)


def test_memo_keyed_on_values_not_call_form():
    sg.compute_pi.cache_clear()
    short = sg.compute_pi(4)
    assert sg.compute_pi(4, sg.EPS_DEFAULT) is short
    assert sg.compute_pi(4, epsilon=sg.EPS_DEFAULT) is short
    assert sg.compute_pi.cache_info().misses == 1
    assert sg.build_context(4).sq_table is short.sq_table


def test_smaller_epsilon_consistent():
    loose = sg.compute_pi(4, epsilon=2.0 ** -30)
    tight = sg.compute_pi(4)
    assert loose.value == pytest.approx(tight.value, abs=1e-8)
    assert loose.J_used < tight.J_used


def test_monotone_increasing_below_four():
    values = [sg.compute_pi(p).value for p in range(2, 11)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < 4.0 for v in values)


def test_large_p_asymptote():
    # pi_p = 4 - 2 pi^2 / (3 p^2) + O(p^-3), approached from above the
    # two-term truncation; the O(p^-3) gap must shrink ~8x per doubling.
    gaps = []
    for p in (20, 40, 80):
        two_term = 4.0 - 2.0 * math.pi ** 2 / (3.0 * p * p)
        gap = sg.pi_gamma(p) - two_term
        assert 0.0 < gap < 3e-3
        gaps.append(gap)
    assert gaps[0] / gaps[1] == pytest.approx(8.0, rel=0.05)
    assert gaps[1] / gaps[2] == pytest.approx(8.0, rel=0.05)


def test_compute_pi_overflow_envelope():
    # Deep tables at large p push the coefficient recursion past binary64;
    # the failure must surface as a clear ConvergenceError, not NaN.
    from squigonometry import ConvergenceError

    with pytest.raises(ConvergenceError, match="overflows binary64"):
        sg.compute_pi(20)


def test_compute_pi_validation():
    with pytest.raises(ParameterError):
        sg.compute_pi(1)
    with pytest.raises(ParameterError):
        sg.compute_pi(4, epsilon=-1e-10)
    with pytest.raises(ParameterError):
        sg.pi_gamma(0)


def test_beta_p2_recovers_pi():
    # p = 2, m = n = 0: B(1/2, 1/2) = pi.
    assert sg.beta_value(2, 0, 0) == pytest.approx(math.pi, abs=1e-12)


def test_beta_p4_full_arc(pi4):
    # p = 4, m = n = 0: B(1/4, 1/4) = 2 pi_4.
    assert sg.beta_value(4, 0, 0) == pytest.approx(2.0 * pi4.value, abs=1e-11)


def test_beta_symmetry_bitwise():
    for p, m, n in ((3, 2, 1), (4, 3, 0), (5, 1, 4)):
        assert sg.beta_value(p, m, n) == sg.beta_value(p, n, m)


@pytest.mark.parametrize("p,m,n", [(2, 0, 0), (4, 0, 0), (4, 2, 1), (3, 1, 1)])
def test_beta_gamma_oracle(p, m, n):
    assert sg.beta_value(p, m, n) == pytest.approx(sg.beta_gamma(p, m, n), rel=1e-11)


def test_beta_gamma_closed_form():
    # Independent check of the oracle itself against math.gamma.
    def direct(p, m, n):
        x = (m + 1) / p
        y = (n + 1) / p
        return math.gamma(x) * math.gamma(y) / math.gamma(x + y)

    for p, m, n in ((2, 0, 0), (4, 2, 1), (3, 1, 1), (6, 0, 3)):
        assert sg.beta_gamma(p, m, n) == pytest.approx(direct(p, m, n), rel=1e-14)


@pytest.mark.parametrize("p,m,n", [(4, 0, 0), (4, 2, 1), (3, 1, 1)])
def test_beta_quadrature_cross_check(p, m, n):
    assert sg.beta_value(p, m, n) == pytest.approx(
        sg.beta_quadrature_oracle(p, m, n), abs=1e-8
    )


def test_beta_validation():
    with pytest.raises(ParameterError):
        sg.beta_value(1, 0, 0)
    with pytest.raises(ParameterError):
        sg.beta_value(4, -1, 0)
