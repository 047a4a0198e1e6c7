from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squigonometry as sg
from decimal_reference import beta, pi_p, ulps
from squigonometry import CostGuardError, DomainError, ParameterError, SquigParams
from squigonometry import constants, series

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


def test_p2_is_pi():
    rec = sg.compute_pi(2)
    assert rec.value == pytest.approx(math.pi, abs=5e-16)
    assert ulps(rec.value, math.pi) <= 2


@pytest.mark.parametrize("p", range(3, 11))
def test_printed_values(p):
    rec = sg.compute_pi(p)
    assert ulps(rec.value, float(PI_P_PRINTED[p])) <= 5


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
    # The integer sum for pi_p needs no widening at p 2..64.
    rec = sg.compute_pi(p)
    assert rec.iterations == 0


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


@pytest.mark.parametrize("p", [11, 12, 16, 20, 32, 64])
def test_compute_pi_answers_past_p_10(p):
    # The tables have no binary64 ceiling, so every p answers, within 2 ulp
    # of the decimal series.
    rec = sg.compute_pi(p)
    assert rec.iterations <= 6
    assert ulps(rec.value, pi_p(p)) <= 2


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
    # left Newton still moving after 20 steps on the last two.
    assert _meets_epsilon(p, eps)
    assert sg.compute_pi(p, eps).J_used >= 3


@pytest.mark.parametrize("p", [11, 14, 16, 24, 31, 64])
@pytest.mark.parametrize("eps", [0.3, 0.57, 0.99])
def test_compute_pi_at_a_loose_epsilon_past_p_10(p, eps):
    # Three-term tables left Newton wandering from p = 14 on, or diverging
    # past where the tables fit binary64 from p = 31 on.
    assert _meets_epsilon(p, eps)
    assert sg.compute_pi(p, eps).J_used >= (p + 1) // 3


@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=10),
    eps=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_compute_pi_meets_epsilon_or_says_it_cannot(p, eps):
    assert _meets_epsilon(p, eps)


def test_compute_pi_is_correctly_rounded():
    for p in range(2, 65):
        assert sg.compute_pi(p).value == float(pi_p(p)), p


@pytest.mark.parametrize("p", range(2, 11))
def test_compute_pi_does_not_depend_on_epsilon(p):
    # epsilon sizes the tables only.
    values = {sg.compute_pi(p, eps).value for eps in (2.0 ** -53, 2.0 ** -36, 1e-6, 0.3, 0.99, 5e-324)}
    assert values == {float(pi_p(p))}


def test_pi_sum_widens_until_its_rounding_is_certain(monkeypatch):
    # From 8 bits the floors' error interval straddles a rounding boundary,
    # so the sum widens by 64 bits and lands on the same value; a record
    # built meanwhile, past the memo, counts the widening.
    want = {p: sg.compute_pi(p).value for p in (2, 3, 4, 10, 64)}
    monkeypatch.setattr(series, "_BETA_BITS", 8)
    for p, value in want.items():
        got, widenings = series._beta_series(p, 0, 0, 2)
        assert got == value and widenings >= 1, p
    rec = constants._solve_pi.__wrapped__(4, sg.EPS_DEFAULT)
    assert rec.value == want[4] and rec.iterations >= 1


def test_quarter_period_equation_holds_at_the_constant():
    # cq(pi_p / 4) = sq(pi_p / 4) = 2^(-1/p), the equation the paper defines
    # pi_p by, on the evaluators of the context, which are the same at every
    # epsilon.
    for p in range(2, 65):
        ctx = sg.build_context(p)
        target = 2.0 ** (-1.0 / p)
        for f in (sg.sq, sg.cq):
            assert abs(f(ctx, ctx.quarter) - target) <= 2 * math.ulp(target), (p, f.__name__)


def test_compute_pi_at_the_bottom_of_binary64():
    # 1 / epsilon overflows to inf below 2^-1024; the factorial count at
    # p = 2 must still stop.
    assert sg.compute_pi(2, 5e-324).value == sg.compute_pi(2).value
    assert sg.compute_pi(2, 5e-324).J_used == 91
    # At p >= 3 the sized table ends in entries that round to 0.
    for p in (3, 4, 6):
        rec = sg.compute_pi(p, 5e-324)
        assert sg.maclaurin(SquigParams(p, 1, 0), rec.J_used).floats[-1] == 0.0
        assert ulps(rec.value, pi_p(p)) <= 2
    assert _meets_epsilon(3, 1e-320)


@pytest.mark.parametrize("p,J", [(3, 540), (4, 851)])
def test_compute_pi_at_an_exact_tolerance_below_binary64(p, J):
    # A Fraction tolerance below binary64's least subnormal has no float, so
    # its log is taken from its integers; the tables run past those at
    # 5e-324, and the value is the same.  A float tolerance, or its exact
    # Fraction, sizes the tables as before.
    eps = Fraction(1, 10**400)
    rec = sg.compute_pi(p, eps)
    assert rec.J_used == J > sg.compute_pi(p, 5e-324).J_used
    assert rec.value == sg.compute_pi(p).value
    ctx = sg.build_context(p, eps)
    assert abs(sg.sq(ctx, 0.5) - sg.sq(sg.build_context(p), 0.5)) <= 2 * math.ulp(0.5)
    for tol in (5e-324, 1e-300, 2.0 ** -53, 0.3):
        assert sg.estimate_terms(p, rec.value, Fraction(tol)) == sg.estimate_terms(p, rec.value, tol)


def test_compute_pi_refuses_tables_past_the_cap(monkeypatch):
    # J is about 11 p at EPS_DEFAULT and a build costs about J^2: from p = 735
    # the estimate passes the cap, and the build is refused before any table.
    with pytest.raises(CostGuardError, match=r"^pi_735 at epsilon=.* needs J=8200 terms"):
        sg.compute_pi(735)
    # From p = 24578 the floor (p + 1) // 3 alone passes the cap, at every
    # epsilon, and is refused before pi_p is summed: p = 100000 names its
    # floor, J = 33333 (its estimate, J = 1116657, is never formed), and a p
    # past binary64, or one whose decay rate rounds to 1.0 (2^30), fails the
    # same way rather than on a float conversion or an implausible rate.
    class Summed(Exception):
        pass

    def refuse(p):
        raise Summed(p)

    with monkeypatch.context() as patch:
        patch.setattr(constants, "_TaylorSeries", refuse)
        for p, floor in ((24578, 8193), (100000, 33333), (2**30, 357913941), (10**400, 10**400 // 3)):
            with pytest.raises(CostGuardError, match=rf"^pi_{p} needs at least J={floor} terms, past"):
                sg.compute_pi(p, 0.9)
        with pytest.raises(Summed):
            sg.compute_pi(24577, 0.9)
    # Beta values need no table, so they answer at that p.
    assert sg.beta_value(100000, 1, 1) == float(beta(100000, 1, 1))
    # The deepest table the tests, the digest and squig verify build is
    # (10, 5e-324), well inside the cap.
    assert max(sg.estimate_terms(10, sg.compute_pi(10).value, 5e-324), 3) == 2079 < sg.MAX_PI_TERMS
    # The cap itself builds; one term past it does not (a tolerance no
    # other test solves at, so the memo holds no record of it).
    J = sg.estimate_terms(6, sg.compute_pi(6).value, 3e-40)
    monkeypatch.setattr(constants, "MAX_PI_TERMS", J - 1)
    with pytest.raises(CostGuardError, match=f"J={J} terms, past the cap {J - 1}"):
        sg.compute_pi(6, 3e-40)
    monkeypatch.setattr(constants, "MAX_PI_TERMS", J)
    assert sg.compute_pi(6, 3e-40).J_used == J


@pytest.mark.parametrize("p,eps", [(4, 1e-300), (6, 1e-100), (8, 1e-30), (10, 1e-30)])
def test_compute_pi_on_deep_tables(p, eps):
    # Tiny tolerances size tables hundreds of terms deep; each coefficient
    # is still correctly rounded, so the value meets its 8 ulp floor.
    rec = sg.compute_pi(p, eps)
    assert rec.J_used == sg.estimate_terms(p, rec.value, eps)
    assert sg.maclaurin(SquigParams(p, 0, 1), rec.J_used).floats[-1] > 0.0
    assert _meets_epsilon(p, eps)


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
    # Records of p = 2..10 at six tolerances, pinned bit for bit: values,
    # widenings and the correctly rounded tables of length J_used.
    for want in json.loads((GOLDEN / "compute_pi_records.json").read_text()):
        rec = sg.compute_pi(want["p"], float.fromhex(want["epsilon"]))
        sq_table, cq_table = (sg.maclaurin(SquigParams(rec.p, m, 1 - m), rec.J_used) for m in (0, 1))
        got = {
            "p": rec.p,
            "epsilon": rec.epsilon.hex(),
            "value": rec.value.hex(),
            "J_used": rec.J_used,
            "iterations": rec.iterations,
            "sq_table": [v.hex() for v in sq_table.floats],
            "cq_table": [v.hex() for v in cq_table.floats],
        }
        assert got == want
    assert not hasattr(sg.compute_pi(4), "sq_table")  # maclaurin gives the tables of length J_used


@pytest.mark.parametrize("p,eps", [(3, 0.05), (3, 0.015)])
def test_compute_pi_tables_after_a_shorter_round(p, eps):
    # The series pi_p sizes these below the three-term floor, so the tables
    # of length J_used hold J = 3 columns; the record cut the context's
    # tables from its own series, and maclaurin's must agree on them.
    rec, ctx = sg.compute_pi(p, eps), sg.build_context(p, eps)
    assert rec.J_used < 4
    for table in (ctx.sq_table, ctx.cq_table):
        assert table.J <= rec.J_used
        assert table.floats == sg.maclaurin(table.params, rec.J_used).floats[: table.J + 1]


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


@pytest.mark.parametrize(
    "p,m,n", [(10, 30, 30), (10, 60, 0), (10, 0, 60), (10, 30, 0), (10, 0, 30), (9, 40, 40)]
)
def test_beta_value_at_large_powers(p, m, n):
    # Term-by-term integration put (9, 40, 40) 6.9e-12 off; the recurrence
    # takes every one of these to m, n < p exactly.
    got = sg.beta_value(p, m, n)
    assert got == pytest.approx(sg.beta_gamma(p, m, n), rel=1e-13, abs=0)
    assert got == float(beta(p, m, n))
    assert sg.beta_value(p, n, m) == got


@pytest.mark.parametrize(
    "p,m,n,eps", [(4, 12, 12, 0.1), (10, 30, 30, 0.1), (2, 12, 12, 1e-8), (3, 20, 5, 2.0 ** -22)]
)
def test_beta_value_bounds_the_tail_by_the_final_sum(p, m, n, eps):
    # These returned -0.00686, -0.2016 (true 0.02257, 0.02851) and relative
    # errors 1.1e-7 and 6.4e-7: the tail bound came from a J_used prefix whose
    # terms later cancel, or a half stopped at a small first term while its
    # terms still grew.
    want = sg.beta_gamma(p, m, n)
    got = sg.beta_value(p, m, n, eps)
    assert 0.0 < got and abs(got - want) <= eps * want


@pytest.mark.parametrize(
    "p,m,n", [(2, 30, 30), (4, 700, 0), (4, 1000, 0), (2, 300, 300), (2, 700, 0)]
)
def test_beta_value_answers_where_the_terms_cancelled(p, m, n):
    # Integrated term by term these returned relative error 4.2e-7, -2.8e42,
    # 2.4e67 and -0.218 for true values 4.2e-10, 0.997, 0.912 and 7.1e-92, and
    # later refused: their terms cancel past binary64.  The sum touches no
    # record, so no table is built for them.
    sg.compute_pi.cache_clear()
    assert sg.beta_value(p, m, n) == sg.beta_value(p, n, m) == float(beta(p, m, n))
    assert sg.compute_pi.cache_info().currsize == 0


@pytest.mark.parametrize("p,m,n,eps", [(10, 200, 0, 2.0 ** -22), (6, 100, 0, 2.0 ** -53)])
def test_beta_value_answers_near_its_refusal_limit(p, m, n, eps):
    # The answers that cancelled furthest when integrated term by term (0.087
    # and 0.065 of the early refusal's limit on a grid of p 2..11, m to 200, n
    # to 40 and eps to 0.3) are as correctly rounded as the rest.
    want = sg.beta_gamma(p, m, n)
    got = sg.beta_value(p, m, n, eps)
    assert abs(got - want) <= max(eps, 1e-11) * want
    assert got == float(beta(p, m, n))


BETA_GRID_MN = [(m, n) for m in range(6) for n in range(6)] + [(12, 12), (20, 5), (30, 30)]


@pytest.mark.parametrize("p", range(2, 12))
def test_beta_value_answers_within_epsilon_or_refuses(p):
    # Every answer is positive and within max(eps, 1e-13) of the gamma form,
    # the same at every eps; no (m, n) refuses any more.
    for m, n in BETA_GRID_MN:
        want = sg.beta_gamma(p, m, n)
        got = sg.beta_value(p, m, n)
        assert 0.0 < got and abs(got - want) <= 1e-13 * want, (m, n)
        for eps in (1e-8, 2.0 ** -22, 0.1):
            assert sg.beta_value(p, m, n, eps) == got, (m, n, eps)


@pytest.mark.parametrize("p", range(2, 17))
def test_beta_value_is_correctly_rounded(p):
    # Every m, n <= 40, in both orders, against the decimal reference.
    for m in range(41):
        for n in range(m, 41):
            want = float(beta(p, m, n))
            assert sg.beta_value(p, m, n) == sg.beta_value(p, n, m) == want, (m, n)


@pytest.mark.parametrize("p", [24, 32, 64])
def test_beta_value_is_correctly_rounded_at_large_p(p):
    points = ((0, 0), (1, 0), (5, 17), (p - 1, p - 2), (p - 1, p - 1), (40, 3), (3 * p + 7, 2), (700, 0), (10**6, 5))
    for m, n in points:
        want = float(beta(p, m, n))
        assert sg.beta_value(p, m, n) == sg.beta_value(p, n, m) == want, (m, n)


@pytest.mark.parametrize("p,m,n", [(2, 0, 0), (3, 1, 0), (5, 3, 1), (4, 9, 5), (7, 30, 2), (64, 62, 61)])
def test_beta_sum_widens_until_its_rounding_is_certain(monkeypatch, p, m, n):
    # From 8 bits the floors' error interval straddles a rounding boundary,
    # so the sum widens by 64 bits and lands on the reference.
    monkeypatch.setattr(series, "_BETA_BITS", 8)
    got, widenings = series._beta_series(p, m, n, p)
    assert got == float(beta(p, m, n)) and widenings >= 1


@pytest.mark.parametrize("p", [2, 3, 4, 10])
def test_beta_value_matches_the_arclength_integral(p):
    # The paper's route: the MacLaurin tables integrated term by term over
    # both halves of the quadrant, as squig verify's beta-arclength check.
    for m, n in ((0, 0), (1, 0), (2, 1), (3, 2)):
        want = sg.beta_arclength_oracle(p, m, n)
        assert abs(sg.beta_value(p, m, n) - want) <= 1e-13 * want, (m, n)


def test_beta_value_refuses_past_its_step_cap(monkeypatch):
    # floor(m / p) + floor(n / p) steps of the recurrence, each an exact
    # factor: past MAX_BETA_STEPS the call refuses before any product.
    cap = sg.MAX_BETA_STEPS
    message = f"{cap + 1} recurrence steps of 18-bit factors, past the cap of {cap} steps"
    with pytest.raises(CostGuardError, match=message):
        sg.beta_value(2, 2 * cap + 2, 0)
    with pytest.raises(CostGuardError):
        sg.beta_value(4, 10**400, 0)
    monkeypatch.setattr(constants, "MAX_BETA_STEPS", 3)
    assert sg.beta_value(2, 5, 2) == float(beta(2, 5, 2))  # 2 + 1 steps
    with pytest.raises(CostGuardError, match="4 recurrence steps of 4-bit factors, past the cap of 3 steps"):
        sg.beta_value(2, 4, 4)


def test_beta_value_refuses_past_its_bit_cap(monkeypatch):
    # At huge p few steps hold many bits: 65536 factors of 1000 bits at
    # p = 10^300 refuse before any product, and the boundary is exact.
    big = 10 ** 300
    bits = (65536 * big + 2).bit_length()
    message = f"65536 recurrence steps of {bits}-bit factors, .* or {sg.MAX_BETA_BITS} bits"
    with pytest.raises(CostGuardError, match=message):
        sg.beta_value(big, 65536 * big, 0)
    monkeypatch.setattr(constants, "MAX_BETA_BITS", 3 * (3 * big + 2).bit_length())
    assert sg.beta_value(big, 3 * big, 0) == float(beta(big, 3 * big, 0))  # at the cap
    bits = (4 * big + 2).bit_length()
    with pytest.raises(CostGuardError, match=f"4 recurrence steps of {bits}-bit factors"):
        sg.beta_value(big, 2 * big, 2 * big)


@pytest.mark.parametrize("p, m, n, want", [
    (2 ** 27 - 1, 2 ** 28 - 3, 0, 2.0 ** 27 - 2),  # B(2, 1/p) = p^2 / 2^27 = 2^27 - 2 + 2^-27
    (2 ** 53 + 1, 2 ** 53, 0, 2.0 ** 53),  # B(1, 1/p) = p = 2^53 + 1
    (3, 2, 0, 3.0),
    (7, 13, 6, float(beta(7, 13, 6))),
])
def test_beta_value_rounds_rational_values_and_their_ties(monkeypatch, p, m, n, want):
    # Where (m + 1) / p or (n + 1) / p is a whole number the value is rational
    # and may be a binary64 tie, which no sum's bounds can settle: the first two
    # are ties and round to even.  Both orders answer at once, with no sum, so
    # even from 8 bits nothing widens.
    assert sg.beta_value(p, m, n) == sg.beta_value(p, n, m) == want
    monkeypatch.setattr(series, "_BETA_BITS", 8)
    assert series._beta_series(p, m, n, p) == (want, 0)


def test_beta_value_outside_binary64_raises_domain_error():
    # B(1500.5, 1500.5) is about 2^-3000; B(1/p, 1/p) is about 2p.
    with pytest.raises(DomainError, match="below binary64"):
        sg.beta_value(2, 3000, 3000)
    with pytest.raises(DomainError, match="past binary64"):
        sg.beta_value(2 ** 1100, 0, 0)


def test_beta_value_rounds_into_the_subnormals():
    # B(a, a) at p = 2 crosses binary64's least normal and least subnormal
    # between m = n = 1000 and 1080: each value is the rounded reference, and
    # the first that rounds to 0 raises.
    for m in range(1000, 1081, 2):
        want = float(beta(2, m, m))
        if want == 0.0:
            with pytest.raises(DomainError):
                sg.beta_value(2, m, m)
        else:
            assert sg.beta_value(2, m, m) == want, m


@pytest.mark.parametrize("p", range(2, 11))
def test_sq_cq_beta_terms_shrink_past_the_table(p):
    # The sq and cq halves of the term-by-term Beta integral shrink strictly
    # past the record's tables, so a first term within a bound bounds the tail.
    for eps in (2.0 ** -53, 2.0 ** -36, 2.0 ** -20):
        rec = sg.compute_pi(p, eps)
        x = rec.value / 4.0
        for params in (SquigParams(p=p, m=0, n=1), SquigParams(p=p, m=1, n=0)):
            floats = sg.maclaurin(params, rec.J_used + 2).floats
            terms = [a * x ** (params.n + p * j + 1) / (params.n + p * j + 1) for j, a in enumerate(floats)]
            assert all(0.0 < b < a for a, b in zip(terms, terms[1:])), (p, eps, params)
