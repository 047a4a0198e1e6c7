"""Fundamental constants of the p-circle: the generalized pi and Beta values.

pi_p is twice the arclength parameter of the first-quadrant arc of
|x|^p + |y|^p = 1, so sq and cq are 2 pi_p periodic and cross at the quarter
period where cq(pi_p / 4) = sq(pi_p / 4) = 2^(-1/p).  compute_pi returns
pi_p = 2 B(1/p, 1/p) / p correctly rounded, whatever epsilon; squig verify
checks a context's sq and cq against that equation.  epsilon sizes the
table length J_used >= 3, enough terms for the tail at t = 1; the record
rounds only the prefixes build_context folds on [0, pi_p / 4], and
maclaurin gives the whole tables of length J_used.  Records are cached per
(p, epsilon), so each pair is built once.

beta_value evaluates the Euler Beta function on the 1/p grid, which the
paper reaches through the arclength integral of cq^m sq^n over the first
quadrant,

    B((m+1)/p, (n+1)/p) = p * integral_0^(pi_p/2) cq^m(t) sq^n(t) dt.

Both come correctly rounded from series._beta_series, with no table: the
binomial series of the integral's two halves for m, n < p, and an exact
recurrence past them.  The paper's route, the tables integrated term by
term, stays as beta_arclength_oracle; pi_gamma, beta_gamma and
beta_quadrature_oracle are independent forms for cross-checking.

arcsq_oracle inverts sq independently of the series machinery by integrating

    arcsq(x) = integral_0^x (1 - u^p)^(1/p - 1) du

with adaptive Gauss-Legendre panels on [0, c], c = 2^(-1/p), where
1 - u^p >= 1/2 keeps the integrand smooth.  Past c the p-circle's diagonal
reflection, arcsq(x) = 2 arcsq(c) - arcsq((1 - x^p)^(1/p)), brings the
integral back onto [0, c].  It shares no tables or constants with the
series path, and the one integral of x^b (1 - x^p)^e that it takes at
b = 0 gives beta_quadrature_oracle both halves of B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count

from .errors import ConvergenceError, CostGuardError, DomainError, ParameterError
from .errors import check_finite, check_int, check_powers, check_tolerance, shown
from .series import EPS_DEFAULT, MAX_PI_TERMS, MacLaurinTable, _beta_series, _cut, _TaylorSeries, estimate_terms, maclaurin
from .triangle import SquigParams

#: Ceilings on the recurrence steps beta_value takes, floor(m / p) + floor(n / p),
#: and on steps times the bit length of m + n + 2; their exact products cost about
#: 0.15 s at p = 2, 3 and 0.4 s at p = 10^30 (one core, 2-vCPU Xeon, CPython 3.11).
MAX_BETA_STEPS = 65536
MAX_BETA_BITS = 1 << 21


@dataclass(frozen=True)
class PiRecord:
    """One computed pi_p: the correctly rounded value, the widenings its sum
    took, the table length J_used, the tolerance, and _quarter_tables, the
    sq and cq tables cut for [0, pi_p / 4], which build_context takes as
    they are.  It keeps no series, and is fixed once made.
    """

    p: int
    value: float
    iterations: int
    J_used: int
    epsilon: float
    _quarter_tables: tuple[MacLaurinTable, MacLaurinTable] = field(repr=False, compare=False)


def compute_pi(p: int, epsilon: float = EPS_DEFAULT) -> PiRecord:
    """pi_p correctly rounded to binary64, with sq and cq tables sized for epsilon.

    Parameters
    ----------
    p : int
        Circle degree, p >= 2.
    epsilon : float
        Tail-size target used to size the MacLaurin tables; the value does
        not depend on it.

    Returns
    -------
    PiRecord
        value holds pi_p; iterations counts the widenings of its sum (none
        at p 2..64); J_used is the table length, estimate_terms at pi_p and
        at least 3 and (p + 1) // 3.  The series is extended and rounded
        only as far as build_context's tables for [0, pi_p / 4] need: each
        ends before its first term there within epsilon / 64 of its leading
        one, or at J_used.  The tables of length J_used are
        maclaurin(SquigParams(p, m, 1 - m), J_used), m = 0 for sq and 1 for cq.

    Raises CostGuardError, before building any table, where J_used would
    pass MAX_PI_TERMS: from p = 735 at EPS_DEFAULT, and from p = 24578 at
    every epsilon, where the floor (p + 1) // 3 alone passes it.
    """
    # Validate before the memo sees the arguments, so a float degree such as
    # 4.0 fails rather than hit the record of the int 4, and key the memo on
    # the values alone, so compute_pi(4), compute_pi(4, EPS_DEFAULT) and
    # compute_pi(4, epsilon=EPS_DEFAULT) share one record.
    check_int("p", p, 2)
    check_tolerance("epsilon", epsilon)
    return _solve_pi(p, epsilon)


@lru_cache(maxsize=None)
def _solve_pi(p: int, epsilon: float) -> PiRecord:
    # At loose epsilon the estimate drops to one or two terms.  The floor, 3 and
    # (p + 1) // 3 from p = 11, is the least length of the tables build_context
    # cuts and of beta_arclength_oracle's first terms; lowering it would move those.
    # It is refused past the cap before pi_p is summed, so no p is too large.
    floor = max(3, (p + 1) // 3)
    if floor > MAX_PI_TERMS:
        raise CostGuardError(
            f"pi_{shown(p)} needs at least J={shown(floor)} terms, past the cap {MAX_PI_TERMS}"
        )
    series = _TaylorSeries(p)
    J = max(estimate_terms(p, series.pi_p, epsilon), floor)
    if J > MAX_PI_TERMS:
        raise CostGuardError(f"pi_{p} at epsilon={epsilon!r} needs J={J} terms, past the cap {MAX_PI_TERMS}")
    tables = tuple(_cut(params, series.coefficients(params, J), series.pi_p / 4.0, epsilon)
                   for params in (SquigParams(p, 0, 1), SquigParams(p, 1, 0)))
    return PiRecord(p, series.pi_p, series.widenings, J, epsilon, tables)


# The memo is inspected and cleared through the public name.
compute_pi.cache_info = _solve_pi.cache_info
compute_pi.cache_clear = _solve_pi.cache_clear


def _where(p: int, m: int, n: int) -> str:  # formatted only when raising
    return f"p={shown(p)}, m={shown(m)}, n={shown(n)}"


def pi_gamma(p: int) -> float:
    """Gamma-function form of pi_p: 2 Gamma(1/p)^2 / (p Gamma(2/p)).

    Independent oracle for compute_pi; exact up to math.gamma rounding.
    Past math.gamma's binary64 range (from p near 1.3e154) raises DomainError.
    """
    check_int("p", p, 2)
    try:
        return 2.0 * math.gamma(1.0 / p) ** 2 / (p * math.gamma(2.0 / p))
    except OverflowError:  # 1 / p or a gamma value past binary64
        raise DomainError(f"pi_p at p={shown(p)} is past math.gamma's binary64 range") from None


def beta_value(p: int, m: int, n: int, epsilon: float = EPS_DEFAULT) -> float:
    """B((m+1)/p, (n+1)/p) correctly rounded to binary64, whatever epsilon.

    series._beta_series sums the two halves of the arclength integral of
    cq^m sq^n for m, n < p, and reaches larger m and n by the exact recurrence
    B(a + 1, b) = B(a, b) a / (a + b), one factor per step of p.  The result is
    bitwise symmetric in m and n; epsilon is validated only.

    Requires m, n >= 0.  Raises CostGuardError, before any sum, where
    floor(m / p) + floor(n / p) passes MAX_BETA_STEPS or that times the bit
    length of m + n + 2 passes MAX_BETA_BITS, and DomainError for a value past
    binary64 or one that rounds to 0.0 in it, such as B(1500.5, 1500.5) at p = 2.
    """
    check_int("p", p, 2)
    check_powers(m, n)
    check_tolerance("epsilon", epsilon)
    steps, bits = m // p + n // p, (m + n + 2).bit_length()
    if steps > MAX_BETA_STEPS or steps * bits > MAX_BETA_BITS:
        raise CostGuardError(
            f"B at {_where(p, m, n)} needs {shown(steps)} recurrence steps of {bits}-bit factors, "
            f"past the cap of {MAX_BETA_STEPS} steps or {MAX_BETA_BITS} bits"
        )
    try:
        value, _ = _beta_series(p, m, n, p)
    except OverflowError:  # B(1/p, 1/p) is about 2p
        raise DomainError(f"B at {_where(p, m, n)} is past binary64") from None
    if value == 0.0:
        raise DomainError(f"B at {_where(p, m, n)} is below binary64's least subnormal")
    return value


def beta_arclength_oracle(p: int, m: int, n: int) -> float:
    """The paper's route to beta_value, as its oracle, for small m and n.

    p times the MacLaurin tables of cq^m sq^n and cq^n sq^m integrated term by
    term over [0, pi_p / 4], each from compute_pi's J_used terms, doubled until
    the last is below 2^-60 of its half.  Past small m and n the terms cancel.
    """
    check_int("p", p, 2)
    check_powers(m, n)
    record = compute_pi(p)
    x = record.value / 4.0

    def half(m: int, n: int) -> float:
        for J in (record.J_used << i for i in count()):
            table = maclaurin(SquigParams(p, m, n), J)
            terms = [table.signed(j) * x ** (table.power(j) + 1) / (table.power(j) + 1) for j in range(J + 1)]
            if abs(terms[-1]) <= 2.0 ** -60 * abs(total := math.fsum(terms)):
                return total

    return p * (half(m, n) + half(n, m))


def beta_gamma(p: int, m: int, n: int) -> float:
    """Gamma-function form of the same Beta value, on its domain; oracle for beta_value.

    Past math.gamma's binary64 range (from m = 685 at p = 4, or p past about
    1e308) raises DomainError.
    """
    check_int("p", p, 2)
    check_powers(m, n)
    try:
        a, b = (m + 1) / p, (n + 1) / p
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    except (OverflowError, ValueError):  # past binary64, or an argument 0.0, a pole
        raise DomainError(f"B at {_where(p, m, n)} is past math.gamma's binary64 range") from None


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # Gauss-Legendre nodes/weights on [-1, 1] by Newton on the three-term
    # recurrence from Chebyshev-angle starting guesses.
    pairs = []
    for i in range(1, order + 1):
        x = math.cos(math.pi * (i - 0.25) / (order + 0.5))
        for _ in range(64):
            pk_prev, pk = 1.0, x
            for k in range(2, order + 1):
                pk_prev, pk = pk, ((2 * k - 1) * x * pk - (k - 1) * pk_prev) / k
            dpk = order * (x * pk - pk_prev) / (x * x - 1.0)
            dx = pk / dpk
            x -= dx
            if abs(dx) < 1e-15:
                break
        pairs.append((x, 2.0 / ((1.0 - x * x) * dpk * dpk)))
    return tuple(zip(*pairs))


def _gauss_panel(f, a: float, b: float, rule) -> float:
    h, c = 0.5 * (b - a), 0.5 * (a + b)
    return h * math.fsum(w * f(c + h * x) for x, w in zip(*rule))


def _integrate_smooth(f, a: float, b: float, tol: float, p: int) -> float:
    # Adaptive bisection, accepting a panel when the 15-point and 7-point
    # Gauss answers agree to the panel's share of the tolerance.  On one wide
    # panel both rules miss the knee, about 1/p wide, below 2^(-1/p) at large
    # p, so the first panels are graded: edges b - (b - a) 2^-i, 2^-i > 1/(4p).
    if b <= a:
        return 0.0
    rule7, rule15 = _legendre_rule(7), _legendre_rule(15)
    total = 0.0
    edges = [a] + [b - (b - a) * 0.5**i for i in range(1, (4 * p - 1).bit_length())] + [b]
    stack = [(lo, hi, tol * (hi - lo) / (b - a)) for lo, hi in zip(edges, edges[1:])]
    panels = 0
    while stack:
        a0, b0, share = stack.pop()
        panels += 1
        if panels > 10_000:
            raise ConvergenceError("adaptive quadrature exceeded its panel budget")
        hi = _gauss_panel(f, a0, b0, rule15)
        lo = _gauss_panel(f, a0, b0, rule7)
        if abs(hi - lo) <= share or (b0 - a0) <= 16.0 * math.ulp(max(abs(a0), abs(b0), 1.0)):
            total += hi
        else:
            mid = 0.5 * (a0 + b0)
            stack += [(a0, mid, 0.5 * share), (mid, b0, 0.5 * share)]
    return total


# The absolute tolerances of the two quadrature oracles, each the sum over
# the integrals they take.
_ARCSQ_TOL = 1e-12
_BETA_QUADRATURE_TOL = 1e-10


def _arc_integral(p: int, b: int, e: float, lo: float, hi: float, tol: float) -> float:
    # integral_lo^hi x^b (1 - x^p)^e dx, the integral both quadrature oracles
    # take on [0, 2^(-1/p)]; at b = 0 the factor x ** 0 is 1.0.
    return _integrate_smooth(lambda x: x**b * (1.0 - x**p) ** e, lo, hi, tol, p)


def arcsq_oracle(x: float, p: int) -> float:
    """Inverse squine by adaptive Gauss-Legendre quadrature on [0, 2^(-1/p)].

    An independent cross-check of the series evaluators.  For x <= c =
    2^(-1/p) it integrates (1 - u^p)^(1/p - 1) over [0, x].  Past c the
    point (x, y), y = (1 - x^p)^(1/p), reflects across the diagonal, so it
    returns I(0, c) + I(y, c), each to half of _ARCSQ_TOL = 1e-12.  Accepts
    0 <= x <= 1; tested for p up to 1000, and at x = 1 up to p = 100000.
    A p past binary64 raises ParameterError.
    """
    check_finite("x", x)
    check_int("p", p, 2)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"arcsq needs 0 <= x <= 1, got {x!r}")
    x = float(x)
    try:
        exponent = 1.0 / p - 1.0
    except OverflowError:  # u ** p would not convert p either
        raise ParameterError(f"p must be an int that converts to binary64, got {shown(p)}") from None
    c = 2.0 ** (-1.0 / p)
    if x <= c:
        return _arc_integral(p, 0, exponent, 0.0, x, _ARCSQ_TOL)
    # 1 - x^p = (1 - x)(1 + x + ... + x^(p-1)), and 1 - x is exact for
    # x > c > 1/2, so y keeps its relative accuracy as x approaches 1.
    geom = 0.0
    for _ in range(p):
        geom = geom * x + 1.0
    y = ((1.0 - x) * geom) ** (1.0 / p)
    half = 0.5 * _ARCSQ_TOL
    return _arc_integral(p, 0, exponent, 0.0, c, half) + _arc_integral(p, 0, exponent, y, c, half)


def beta_quadrature_oracle(p: int, m: int, n: int) -> float:
    """Beta value by adaptive quadrature, independent of every series table.

    Substituting x = sq(t) on [0, pi_p / 4] and reflecting the upper half of
    the quadrant across the diagonal gives p (I(m, n) + I(n, m)) with
    I(a, b) = integral_0^c x^b (1 - x^p)^((a + 1)/p - 1) dx, c = 2^(-1/p),
    each to half of _BETA_QUADRATURE_TOL = 1e-10.  The result is bitwise
    symmetric in m and n.  An argument (m + 1) / p or (n + 1) / p, or a p,
    past binary64 raises DomainError.
    """
    check_int("p", p, 2)
    check_powers(m, n)
    try:
        a, b, c = (m + 1) / p, (n + 1) / p, 2.0 ** (-1.0 / p)
    except OverflowError:
        raise DomainError(f"(m + 1)/p, (n + 1)/p or p at {_where(p, m, n)} is past binary64") from None
    lower = _arc_integral(p, n, a - 1.0, 0.0, c, 0.5 * _BETA_QUADRATURE_TOL)
    upper = lower if m == n else _arc_integral(p, m, b - 1.0, 0.0, c, 0.5 * _BETA_QUADRATURE_TOL)
    return p * (lower + upper)
