"""Floating-point evaluation of squigonometric functions on the real line.

An EvalContext bundles everything evaluation needs for one circle degree p:
the quarter period pi_p / 4, the MacLaurin tables for sq (m=0, n=1) and cq
(m=1, n=0), and the tolerance they were cut for.  compute_pi sizes its
tables for the tail at t = 1; on the reduced interval [0, pi_p/4] the terms
fall faster, so build_context keeps the prefix of each whose dropped tail is
at most epsilon / 64 of the leading term there.

Evaluation at arbitrary t proceeds by range reduction.  sq and cq are
2 pi_p periodic, odd and even respectively, satisfy the half-period flips
sq(t + pi_p) = -sq(t), cq(t + pi_p) = -cq(t), and reflect across the quarter
period through the cofunction identity cq(t) = sq(pi_p / 2 - t).  Composing
these folds any real t onto [0, pi_p / 4] together with a choice of table
(sq or co-sq) and two signs; on the reduced interval both series converge
with strictly decreasing terms, and the sparse Horner form evaluates each
table with one multiply-add per stored coefficient.

sq, cq and pow_general call the context's evaluators, straight-line code
that checks t, runs _REDUCTION (the one copy of the reduction) and folds the
context's tables with no call in between.  The code is compiled once per
table shape, binds the coefficients and constants as globals and makes
horner_sparse's IEEE operations in its order, so sq(ctx, s) ==
horner_sparse(ctx.sq_table, s) on [0, pi_p / 4].  A context builds them at
its first evaluation: 1 to 4 ms at p = 2..10 for new shapes, else < 0.1 ms.

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
import types
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, PoleError
from .errors import check_finite, check_int, check_powers, check_tolerance, checked_power
from .series import EPS_DEFAULT, MacLaurinTable

# build_context drops a table's tail while its largest term on [0, quarter]
# is within this share of epsilon times the leading coefficient.
_TRIM = 1.0 / 64.0
# Coefficients per generated Horner statement, so that no statement nests
# deeper than the parser allows (past 200 parentheses on 3.10-3.13).
_NEST = 64


@dataclass(frozen=True)
class EvalContext:
    """Evaluation bundle for one circle degree: tables, quarter period, tolerance.

    sq, cq and pow_general fold sq_table and cq_table as they are, through
    the evaluators the context makes at its first evaluation, so
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

    @cached_property
    def evaluators(self) -> types.SimpleNamespace:
        """sq(t), cq(t) and pair(t) = (cq(t), sq(t)), generated for this context.

        Made at the first evaluation, not by build_context, and dropped when
        the context is pickled, since generated functions do not pickle.
        """
        names = {"fmod": math.fmod, "check_finite": check_finite, "period": self.period,
                 "pi_p": self.pi_p, "half": self.half, "quarter": self.quarter}
        tables = self.sq_table, self.cq_table
        for letter, table in zip("ac", tables):
            names.update((f"{letter}{i}", a) for i, a in enumerate(table.floats))
        codes = _evaluator_code(*((len(t.floats), t.params.p, t.params.n) for t in tables))
        sq, cq, pair = (types.FunctionType(code, names) for code in codes)
        return types.SimpleNamespace(sq=sq, cq=cq, pair=pair)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("evaluators", None)
        return state


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


# The range reduction, written once: these statements take a checked float
# t to s in [0, pi_p / 4], the table choice use_co and the two signs.  Every
# evaluator inlines them, and _reduce is compiled from them.  fmod is exact
# and fmod(-t, y) == -fmod(t, y), so folding |t| and flipping sign_sq for
# t < 0 keeps sq odd and cq even bit for bit.
_REDUCTION = (
    "s = fmod(t, period)",
    "sign_sq = sign_cq = 1",
    "if t < 0.0: s = -s; sign_sq = -1",
    "if s >= pi_p: s -= pi_p; sign_sq = -sign_sq; sign_cq = -1",
    "if s > half: s = pi_p - s; sign_cq = -sign_cq",
    "use_co = s > quarter",
    "if use_co: s = half - s",
)


def _define(head: str, body: list[str], names: dict) -> Callable:
    # The function `def {head}:` with these statements, defined in names.
    exec(f"def {head}:\n" + "".join(f"    {line}\n" for line in body), names)
    return names[head.partition("(")[0]]


# reduce_argument on a checked float t, as a plain tuple.
_reduce = _define("_reduce(ctx, t)", [
    "period, pi_p, half, quarter = ctx.period, ctx.pi_p, ctx.half, ctx.quarter",
    *_REDUCTION, "return s, use_co, sign_sq, sign_cq"], {"fmod": math.fmod})


def reduce_argument(ctx: EvalContext, t: float) -> QuadrantReduction:
    """Fold t onto [0, pi_p / 4] tracking table choice and signs.

    Reduction steps, applied in order: take |t| mod 2 pi_p into [0, 2 pi_p),
    flipping the sq sign when t < 0; subtract pi_p (flipping both signs) to
    reach [0, pi_p); reflect across pi_p / 2 (flipping the cq sign) to reach
    [0, pi_p / 2]; reflect across pi_p / 4 swapping the roles of the two
    tables.  So -t differs from t only in sign_sq, and exact binary64 sums
    t0 + 2 k pi_p of one sign reduce to bit-identical t_reduced.
    """
    check_finite("argument", t)
    return QuadrantReduction(*_reduce(ctx, float(t)))


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


def _fold(letter: str, shape: tuple[int, int, int], out: str) -> list[str]:
    # Statements that set out to _horner's fold at s of a table of this shape
    # whose coefficients are the globals {letter}0, {letter}1, ...: tp = s ** p,
    # b <- a_i - b * tp from the deep end, _NEST steps per statement, then the
    # scaling by s^n (s ** 1 is s, and s ** 0 is 1.0 for every binary64 s).
    length, p, n = shape
    lines = [f"tp = s ** {p}", f"{out} = {letter}{length - 1}"]
    for top in range(length - 2, -1, -_NEST):
        expr = out
        for i in range(top, max(top - _NEST, -1), -1):
            expr = f"{letter}{i} - ({expr}) * tp"
        lines.append(f"{out} = {expr}")
    scale = "1.0" if n == 0 else "s" if n == 1 else f"s ** {n}"
    return lines + [f"{out} = {scale} * {out}"]


@lru_cache(maxsize=64)
def _evaluator_code(sq_shape: tuple, cq_shape: tuple) -> tuple[types.CodeType, ...]:
    # The code of the evaluators sq, cq and pair for tables of these shapes
    # (length, p, n): an inline check that sends every t but a finite float
    # to check_finite and float(), _REDUCTION, the folds (pair's share one tp
    # when the tables share p) and the signs.  Only ints enter the source.
    fold_sq, fold_cq = "; ".join(_fold("a", sq_shape, "v")), "; ".join(_fold("c", cq_shape, "v"))
    fold_pair = _fold("a", sq_shape, "y") + _fold("c", cq_shape, "x")[sq_shape[1] == cq_shape[1]:]
    bodies = {
        "sq": ("argument", [f"if use_co: {fold_cq}", f"else: {fold_sq}", "return sign_sq * v"]),
        "cq": ("argument", [f"if use_co: {fold_sq}", f"else: {fold_cq}", "return sign_cq * v"]),
        "pair": ("t", [*fold_pair, "if use_co: return sign_cq * y, sign_sq * x",
                       "return sign_cq * x, sign_sq * y"]),
    }
    names: dict = {}
    for name, (label, body) in bodies.items():
        check = f"if t.__class__ is not float or t - t != 0.0: check_finite({label!r}, t); t = float(t)"
        _define(f"{name}(t)", [check, *_REDUCTION, *body], names)
    return tuple(names[name].__code__ for name in bodies)


def sq(ctx: EvalContext, t: float) -> float:
    """Squine of t: y-coordinate on |x|^p + |y|^p = 1 at arc parameter t."""
    return ctx.evaluators.sq(t)


def cq(ctx: EvalContext, t: float) -> float:
    """Cosquine of t: x-coordinate on |x|^p + |y|^p = 1 at arc parameter t."""
    return ctx.evaluators.cq(t)


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
    c, s = ctx.evaluators.pair(t)
    if (m < 0 or n < 0 or ctx.p % 2 == 1) and not 0.0 < t < ctx.half:
        if (t == 0.0 and n < 0) or (t == ctx.half and m < 0):
            raise PoleError(f"cq^{m} sq^{n} has a pole at t={t!r}")
        raise DomainError(
            f"t={t!r} outside the open first quadrant (0, {ctx.half}) "
            "required for negative powers or odd p"
        )
    try:
        value = c ** m * s ** n
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


def _integrate_smooth(f, a: float, b: float, tol: float, p: int) -> float:
    # Adaptive bisection, accepting a panel when the 15-point and 7-point
    # Gauss answers agree to the panel's share of the tolerance.  On one wide
    # panel both rules miss the knee, about 1/p wide, below 2^(-1/p) at large
    # p, so the first panels are graded: edges b - (b - a) 2^-i, 2^-i > 1/(4p).
    if b <= a:
        return 0.0
    rule7 = _legendre_rule(7)
    rule15 = _legendre_rule(15)
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
            stack.append((a0, mid, 0.5 * share))
            stack.append((mid, b0, 0.5 * share))
    return total


def arcsq_oracle(x: float, p: int, tol: float = 1e-12) -> float:
    """Inverse squine by adaptive Gauss-Legendre quadrature on [0, 2^(-1/p)].

    An independent cross-check of the series evaluators.  For x <= c =
    2^(-1/p) it integrates (1 - u^p)^(1/p - 1) over [0, x].  Past c the
    point (x, y), y = (1 - x^p)^(1/p), reflects across the diagonal, so it
    returns I(0, c) + I(y, c), each to half the tolerance.  Accepts
    0 <= x <= 1; tested for p up to 1000, and at x = 1 up to p = 100000.
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
        return _integrate_smooth(integrand, 0.0, x, tol, p)
    # 1 - x^p = (1 - x)(1 + x + ... + x^(p-1)), and 1 - x is exact for
    # x > c > 1/2, so y keeps its relative accuracy as x approaches 1.
    geom = 0.0
    for _ in range(p):
        geom = geom * x + 1.0
    y = ((1.0 - x) * geom) ** (1.0 / p)
    return _integrate_smooth(integrand, 0.0, c, 0.5 * tol, p) + _integrate_smooth(
        integrand, y, c, 0.5 * tol, p
    )
