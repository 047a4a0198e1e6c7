"""Floating-point evaluation of squigonometric functions on the real line.

An EvalContext bundles everything evaluation needs for one circle degree p:
the quarter period pi_p / 4, the MacLaurin tables for sq (m=0, n=1) and cq
(m=1, n=0), and the tolerance they were cut for.  compute_pi sizes its
tables for the tail at t = 1; on the reduced interval [0, pi_p/4] the terms
fall faster, so build_context keeps the prefix of each whose dropped tail is
at most epsilon / 64 of the leading term there.  sq, cq and pow_general fold
exactly the tables a context holds.

Evaluation at arbitrary t proceeds by range reduction.  sq and cq are
2 pi_p periodic, odd and even respectively, satisfy the half-period flips
sq(t + pi_p) = -sq(t), cq(t + pi_p) = -cq(t), and reflect across the quarter
period through the cofunction identity cq(t) = sq(pi_p / 2 - t).  Composing
these folds any real t onto [0, pi_p / 4] together with a choice of table
(sq or co-sq) and two signs; on the reduced interval both series converge
with strictly decreasing terms, and the sparse Horner form evaluates each
table with one multiply-add per stored coefficient.

arcsq_oracle inverts sq independently of the series machinery by integrating

    arcsq(x) = integral_0^x (1 - u^p)^(1/p - 1) du

with adaptive Gauss-Legendre panels on [0, c], c = 2^(-1/p), where
1 - u^p >= 1/2 keeps the integrand smooth.  Past c the p-circle's diagonal
reflection, arcsq(x) = 2 arcsq(c) - arcsq((1 - x^p)^(1/p)), brings the
integral back onto [0, c].  It shares no tables or constants with the
series path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, PoleError
from .errors import check_finite, check_int, check_powers, check_tolerance, checked_power
from .series import EPS_DEFAULT, MacLaurinTable

# build_context drops a table's tail while its largest term on [0, quarter]
# is within this share of epsilon times the leading coefficient.
_TRIM = 1.0 / 64.0


@dataclass(frozen=True)
class EvalContext:
    """Evaluation bundle for one circle degree: tables, quarter period, tolerance.

    sq, cq and pow_general fold sq_table and cq_table as they are, so
    horner_sparse(ctx.sq_table, s) == sq(ctx, s) on [0, pi_p / 4].
    build_context gives the prefixes cut for epsilon; a context made by hand
    or by dataclasses.replace folds whatever tables it is given.  pi_p, half
    (pi_p / 2) and period (2 pi_p) are formed from quarter once, when the
    context is made, with the roundings reduce_argument has always used.
    """

    p: int
    quarter: float
    sq_table: MacLaurinTable
    cq_table: MacLaurinTable
    epsilon: float
    pi_p: float = field(init=False, compare=False, repr=False)
    half: float = field(init=False, compare=False, repr=False)
    period: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        pi_p = 4.0 * self.quarter
        object.__setattr__(self, "pi_p", pi_p)
        object.__setattr__(self, "half", 2.0 * self.quarter)
        object.__setattr__(self, "period", 2.0 * pi_p)


def _trimmed(table: MacLaurinTable, quarter: float, epsilon: float) -> MacLaurinTable:
    # The table less the tail whose terms at the top of [0, quarter] are
    # within _TRIM * epsilon of a_0.  The scan starts at the deep end and
    # stops at the first term it keeps, so only a tail is ever cut, and a_0
    # always stays.  compute_pi's quarter periods lie below 1, so no term
    # here overflows.
    floats = table.floats
    x = math.nextafter(quarter, math.inf)
    bound = _TRIM * epsilon * floats[0]
    p = table.params.p
    keep = len(floats)
    while keep > 1 and floats[keep - 1] * x ** (p * (keep - 1)) <= bound:
        keep -= 1
    return MacLaurinTable(table.params, floats[:keep])


class QuadrantReduction(NamedTuple):
    """Result of folding t onto the first half-quadrant.

    value(t) = sign * table(t_reduced) where table is the sq table when
    use_co is False and the cq table when it is True (and the other way
    around for cq evaluation, whose sign is sign_cq).
    """

    t_reduced: float
    use_co: bool
    sign_sq: int
    sign_cq: int


def build_context(p: int, epsilon: float = EPS_DEFAULT) -> EvalContext:
    """Build the evaluation context for circle degree p.

    The quarter period comes from the compute_pi record for (p, epsilon),
    imported lazily because constants imports this module, and each table is
    the prefix of the record's table that evaluation on [0, pi_p / 4] needs.
    """
    from .constants import compute_pi

    record = compute_pi(p, epsilon)
    quarter = record.value / 4.0
    sq_table, cq_table = (
        _trimmed(table, quarter, epsilon) for table in (record.sq_table, record.cq_table)
    )
    return EvalContext(p, quarter, sq_table, cq_table, epsilon)


def reduce_argument(ctx: EvalContext, t: float) -> QuadrantReduction:
    """Fold t onto [0, pi_p / 4] tracking table choice and signs.

    Reduction steps, applied in order: take t mod 2 pi_p into [0, 2 pi_p);
    subtract pi_p (flipping both signs) to reach [0, pi_p); reflect across
    pi_p / 2 (flipping the cq sign) to reach [0, pi_p / 2]; reflect across
    pi_p / 4 swapping the roles of the two tables.  Arguments that are exact
    binary64 sums t0 + 2 k pi_p reduce to bit-identical t_reduced.
    """
    check_finite("argument", t)
    return QuadrantReduction(*_reduce(ctx, t))


def _reduce(ctx: EvalContext, t: float) -> tuple[float, bool, int, int]:
    # reduce_argument on an already checked t, as a plain tuple.
    pi_p, half = ctx.pi_p, ctx.half
    s = math.fmod(t, ctx.period)
    if s < 0.0:
        s += ctx.period
    sign_sq = 1
    sign_cq = 1
    if s >= pi_p:
        s -= pi_p
        sign_sq = -1
        sign_cq = -1
    if s > half:
        s = pi_p - s
        sign_cq = -sign_cq
    use_co = s > ctx.quarter
    if use_co:
        s = half - s
    return s, use_co, sign_sq, sign_cq


def horner_sparse(table: MacLaurinTable, t: float) -> float:
    """Evaluate a MacLaurin table at t by Horner steps in t^p.

    Folds all of the table's coefficients from the deep end, b <- a_j - b t^p,
    so the alternating signs come out of the single subtraction, then scales
    by t^n.  A t whose power t^p or t^n, or whose folded value, overflows
    binary64 raises DomainError.
    """
    check_finite("t", t)
    checked_power(t, table.params.p)
    checked_power(t, table.params.n)
    value = _horner(table, float(t))
    if not math.isfinite(value):
        raise DomainError(f"t={t!r}: the folded sum {value!r} is not a finite binary64")
    return value


def _horner(table: MacLaurinTable, t: float) -> float:
    # horner_sparse without the check, for arguments already checked and
    # reduced.
    params = table.params
    tp = t ** params.p
    coeffs = reversed(table.floats)
    b = next(coeffs)
    for a in coeffs:
        b = a - b * tp
    return t ** params.n * b


def sq(ctx: EvalContext, t: float) -> float:
    """Squine of t: y-coordinate on |x|^p + |y|^p = 1 at arc parameter t."""
    check_finite("argument", t)
    s, use_co, sign_sq, _ = _reduce(ctx, t)
    return sign_sq * _horner(ctx.cq_table if use_co else ctx.sq_table, s)


def cq(ctx: EvalContext, t: float) -> float:
    """Cosquine of t: x-coordinate on |x|^p + |y|^p = 1 at arc parameter t."""
    check_finite("argument", t)
    s, use_co, _, sign_cq = _reduce(ctx, t)
    return sign_cq * _horner(ctx.sq_table if use_co else ctx.cq_table, s)


def pow_general(ctx: EvalContext, m: int, n: int, t: float) -> float:
    """cq^m(t) * sq^n(t) with domain guards for negative powers.

    For m, n >= 0 and even p the product is entire in the reduced sense and
    any finite t is accepted.  Negative powers (tangent-type quotients) and
    odd p restrict t to the open first quadrant (0, pi_p / 2), where both
    factors are positive.  The endpoints are poles when the power of the
    factor vanishing there is negative (t = 0 with n < 0, t = pi_p / 2 with
    m < 0), which raises PoleError; every other t outside raises DomainError,
    as does a product that overflows binary64 near a pole.  t is reduced once
    for both factors.
    """
    check_powers(m, n, low=None)
    check_finite("t", t)
    if (m < 0 or n < 0 or ctx.p % 2 == 1) and not 0.0 < t < ctx.half:
        if (t == 0.0 and n < 0) or (t == ctx.half and m < 0):
            raise PoleError(f"cq^{m} sq^{n} has a pole at t={t!r}")
        raise DomainError(
            f"t={t!r} outside the open first quadrant (0, {ctx.half}) "
            "required for negative powers or odd p"
        )
    s, use_co, sign_sq, sign_cq = _reduce(ctx, t)
    sq_table, cq_table = (ctx.cq_table, ctx.sq_table) if use_co else (ctx.sq_table, ctx.cq_table)
    try:
        value = (sign_cq * _horner(cq_table, s)) ** m * (sign_sq * _horner(sq_table, s)) ** n
    except OverflowError:  # ** raises past binary64; * of two large powers gives inf
        value = math.inf
    if math.isinf(value):
        raise DomainError(f"cq^{m} sq^{n} at t={t!r} overflows binary64")
    return value


# ---------------------------------------------------------------------------
# Independent quadrature oracles: arcsq here, the Beta integral in constants.

@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # Gauss-Legendre nodes/weights on [-1, 1] by Newton on the three-term
    # recurrence from Chebyshev-angle starting guesses.
    nodes: list[float] = []
    weights: list[float] = []
    for i in range(1, order + 1):
        x = math.cos(math.pi * (i - 0.25) / (order + 0.5))
        dpk = 0.0
        for _ in range(64):
            pk_prev, pk = 1.0, x
            for k in range(2, order + 1):
                pk_prev, pk = pk, ((2 * k - 1) * x * pk - (k - 1) * pk_prev) / k
            dpk = order * (x * pk - pk_prev) / (x * x - 1.0)
            dx = pk / dpk
            x -= dx
            if abs(dx) < 1e-15:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dpk * dpk))
    return tuple(nodes), tuple(weights)


def _gauss_panel(f, a: float, b: float, rule) -> float:
    nodes, weights = rule
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    return h * math.fsum(w * f(c + h * x) for x, w in zip(nodes, weights))


def _integrate_smooth(f, a: float, b: float, tol: float) -> float:
    # Adaptive bisection, accepting a panel when the 15-point and 7-point
    # Gauss answers agree to the panel's share of the tolerance.
    if b <= a:
        return 0.0
    rule7 = _legendre_rule(7)
    rule15 = _legendre_rule(15)
    total = 0.0
    stack = [(a, b, tol)]
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
            stack.append((a0, mid, 0.5 * share))
            stack.append((mid, b0, 0.5 * share))
    return total


def arcsq_oracle(x: float, p: int, tol: float = 1e-12) -> float:
    """Inverse squine by adaptive Gauss-Legendre quadrature on [0, 2^(-1/p)].

    An independent cross-check of the series evaluators.  For x <= c =
    2^(-1/p) it integrates (1 - u^p)^(1/p - 1) over [0, x].  Past c the
    point (x, y), y = (1 - x^p)^(1/p), reflects across the diagonal, so it
    returns I(0, c) + I(y, c), each to half the tolerance.  Accepts
    0 <= x <= 1; tested for p up to 1000, x = 1 included.
    """
    check_finite("x", x)
    check_int("p", p, 2)
    check_tolerance("tol", tol)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"arcsq needs 0 <= x <= 1, got {x!r}")
    exponent = 1.0 / p - 1.0

    def integrand(u: float) -> float:
        return (1.0 - u ** p) ** exponent

    c = 2.0 ** (-1.0 / p)
    if x <= c:
        return _integrate_smooth(integrand, 0.0, x, tol)
    # 1 - x^p = (1 - x)(1 + x + ... + x^(p-1)), and 1 - x is exact for
    # x > c > 1/2, so y keeps its relative accuracy as x approaches 1.
    geom = 0.0
    for _ in range(p):
        geom = geom * x + 1.0
    y = ((1.0 - x) * geom) ** (1.0 / p)
    return _integrate_smooth(integrand, 0.0, c, 0.5 * tol) + _integrate_smooth(
        integrand, y, c, 0.5 * tol
    )
