from __future__ import annotations

import dataclasses
import json
import math
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squigonometry as sg
from squigonometry import ConvergenceError, ParameterError, SquigParams, constants

GOLDEN = Path(__file__).parent / "golden"

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
    sg.build_context(4)  # cuts its tables from the same record
    assert sg.compute_pi.cache_info().misses == 1


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


def _meets_epsilon(p: int, eps: float) -> bool:
    # The benchmark's rule, with the floor at 8 ulp of the gamma form.
    want = sg.pi_gamma(p)
    got = sg.compute_pi(p, eps).value
    return abs(got - want) / want <= max(eps, 8.0 * math.ulp(want) / want)


@pytest.mark.parametrize(
    "p,eps",
    [
        (6, 0.57), (7, 0.69), (8, 0.69), (6, 0.5225),
        (5, 0.09), (6, 0.1425), (8, 0.04), (10, 0.04), (9, 0.2725), (10, 0.135),
        (9, 0.3), (9, 0.9), (10, 0.24), (10, 0.99),
    ],
)
def test_compute_pi_at_a_loose_epsilon(p, eps):
    # Sizing from the Newton value once cut the first four to J = 1 (pi_6 =
    # 178.08, pi_7 = 30.36) or refused pi_8 as implausible; re-sizing until
    # the length stopped changing then never settled on the next four and
    # left Newton still moving after 20 steps on the last two.  The last
    # four converge only linearly on their 3-term tables, in 21-25 steps.
    assert _meets_epsilon(p, eps)
    assert sg.compute_pi(p, eps).J_used >= 3


@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=10),
    eps=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_compute_pi_meets_epsilon_or_says_it_cannot(p, eps):
    try:
        ok = _meets_epsilon(p, eps)
    except ConvergenceError:
        return
    assert ok


def _pi_series_reference(p: int) -> Decimal:
    # pi_p / 4 = 2^(-1/p) sum_k ((1 - 1/p)_k / k!) 2^-k / (pk + 1), summed
    # in 40-digit decimal until the coefficients fall below 10^-45.
    with localcontext() as dec:
        dec.prec = 40
        one = Decimal(1)
        rising = one - one / p
        coeff = total = one
        k = 0
        while coeff > Decimal(10) ** -45:
            k += 1
            coeff *= (rising + k - 1) / (2 * k)
            total += coeff / (p * k + 1)
        return 4 * total * Decimal(2) ** (-one / p)


def test_pi_series_within_2_ulp():
    for p in range(2, 65):
        want = _pi_series_reference(p)
        ulps = abs(Decimal(constants._pi_series(p)) - want) / Decimal(math.ulp(float(want)))
        assert ulps <= 2, (p, float(ulps))


def test_compute_pi_at_the_bottom_of_binary64():
    # 1 / epsilon overflows to inf below 2^-1024; the factorial count at
    # p = 2 must still stop.
    assert sg.compute_pi(2, 5e-324).value == sg.compute_pi(2).value
    assert sg.compute_pi(2, 5e-324).J_used == 91
    # At p = 3 the sized table ends in entries that round to 0, which leave
    # no factor to seed Newton from.
    with pytest.raises(ConvergenceError, match="underflows binary64"):
        sg.compute_pi(3, 5e-324)
    assert _meets_epsilon(3, 1e-320)


def test_compute_pi_overflow_stops_at_the_first_infinite_entry(monkeypatch):
    # p = 10 at epsilon 1e-300 sizes J = 1929 from the series pi_p; the recursion
    # overflows near j = 110, and no column past the first infinite entry is
    # pulled.
    pulled = []

    def counting(params):
        for a in real(params):
            pulled.append(a)
            yield a

    real = constants._columns
    monkeypatch.setattr(constants, "_columns", counting)
    with pytest.raises(ConvergenceError, match="overflows binary64"):
        sg.compute_pi(10, 1e-300)
    assert len(pulled) < 400
    assert not math.isfinite(pulled[-1])


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


@pytest.mark.parametrize("p", [2, 3, 4, 6, 10, 11, 16, 64, 300])
def test_beta_quadrature_matches_gamma_form(p):
    for m, n in ((0, 0), (1, 0), (2, 1), (3, 2), (10, 3)):
        got = sg.beta_quadrature_oracle(p, m, n)
        want = sg.beta_gamma(p, m, n)
        assert abs(got - want) <= 1e-13 * want, (m, n)
        assert sg.beta_quadrature_oracle(p, n, m) == got


def test_beta_validation():
    with pytest.raises(ParameterError):
        sg.beta_value(1, 0, 0)
    with pytest.raises(ParameterError):
        sg.beta_value(4, -1, 0)


def test_compute_pi_golden_records():
    # Records of p = 2..10 at six tolerances, pinned bit for bit as computed
    # when every sizing round rebuilt both tables from scratch.
    for want in json.loads((GOLDEN / "compute_pi_records.json").read_text()):
        rec = sg.compute_pi(want["p"], float.fromhex(want["epsilon"]))
        got = {
            "p": rec.p,
            "epsilon": rec.epsilon.hex(),
            "value": rec.value.hex(),
            "J_used": rec.J_used,
            "iterations": rec.iterations,
            "sq_table": [v.hex() for v in rec.sq_table.floats],
            "cq_table": [v.hex() for v in rec.cq_table.floats],
        }
        assert got == want
        assert rec.sq_table.J == rec.cq_table.J == rec.J_used


@pytest.mark.parametrize("p,eps", [(3, 0.05), (3, 0.015)])
def test_compute_pi_tables_after_a_shorter_round(p, eps):
    # The series pi_p sizes these below the three-term floor, so the tables
    # hold J = 3 columns, which Newton and maclaurin must agree on.
    rec = sg.compute_pi(p, eps)
    assert rec.J_used < 4
    for table in (rec.sq_table, rec.cq_table):
        assert table.J == rec.J_used
        assert table.floats == sg.maclaurin(table.params, rec.J_used).floats


@pytest.mark.parametrize(
    "p,m,n,eps",
    [(2, 3, 2, 1.2e-11), (3, 3, 2, 2.0 ** -22), (2, 3, 2, float.fromhex("0x1.8d0861a094eb1p-28"))],
)
def test_beta_value_meets_epsilon_when_m_n_need_more_terms(p, m, n, eps):
    # J_used ignores m and n; the first two fell 15.8x and 1.45x short of
    # eps.  The third misses by 1.09x when each half may drop a first term
    # of eps rather than eps / 2 relative to the sum.
    want = sg.beta_gamma(p, m, n)
    assert abs(sg.beta_value(p, m, n, eps) - want) <= eps * want
    assert sg.beta_value(p, n, m, eps) == sg.beta_value(p, m, n, eps)


def test_beta_value_rejects_a_quarter_period_past_one(monkeypatch):
    # A record whose pi_6 is 178 (quarter period 44.5): the Beta series
    # diverge there, so there is no value to return.  The record is made by
    # hand; compute_pi itself no longer lands on such a value.
    from squigonometry import ConvergenceError

    bad = dataclasses.replace(sg.compute_pi(6), value=178.0824068843037)
    monkeypatch.setattr(constants, "compute_pi", lambda p, epsilon: bad)
    with pytest.raises(ConvergenceError, match="not below 4"):
        sg.beta_value(6, 1, 0, 0.57)


@pytest.mark.parametrize(
    "p,m,n", [(10, 30, 30), (10, 60, 0), (10, 0, 60), (10, 30, 0), (10, 0, 30), (9, 40, 40)]
)
def test_beta_value_overflow_is_a_convergence_error(p, m, n):
    # Large powers at p near 10 need coefficients past the binary64 ceiling,
    # in the first J_used + 1 terms of a half or in its continuation.
    with pytest.raises(ConvergenceError, match="overflows binary64"):
        sg.beta_value(p, m, n)


@pytest.mark.parametrize("mn,builds", [((1, 0), 0), ((0, 1), 0), ((2, 2), 1), ((2, 1), 2)])
def test_beta_value_builds_only_the_tables_the_record_lacks(monkeypatch, mn, builds):
    # The sq and cq halves read the record's tables; m = n builds one table
    # for both halves.  Each build is one column generator.
    sg.compute_pi(4)
    calls = []

    def counting(params):
        calls.append(params)
        return real(params)

    real = constants._columns
    monkeypatch.setattr(constants, "_columns", counting)
    sg.beta_value(4, *mn)
    assert len(calls) == builds


@pytest.mark.parametrize("p", range(2, 11))
def test_sq_cq_beta_terms_shrink_past_the_table(p):
    # beta_value pulls no column for a record table whose last term is
    # within its bound, which holds because these terms shrink strictly.
    for eps in (2.0 ** -53, 2.0 ** -36, 2.0 ** -20):
        rec = sg.compute_pi(p, eps)
        x = rec.value / 4.0
        for params in (SquigParams(p=p, m=0, n=1), SquigParams(p=p, m=1, n=0)):
            floats = sg.maclaurin(params, rec.J_used + 2).floats
            terms = [a * x ** (params.n + p * j + 1) / (params.n + p * j + 1) for j, a in enumerate(floats)]
            assert all(0.0 < b < a for a, b in zip(terms, terms[1:])), (p, eps, params)
