"""Floating-point evaluation of squigonometric functions on the real line.

An EvalContext is one circle degree p and one tolerance epsilon, and it
derives from them the quarter period pi_p / 4 and the MacLaurin tables for
sq (m=0, n=1) and cq (m=1, n=0), both from the compute_pi record for
(p, epsilon).  compute_pi sizes its table length for the tail at t = 1;
on the reduced interval [0, pi_p/4] the terms fall faster, so it rounds each
table only up to its first term there within epsilon / 64 of the leading
one, and the context takes those prefixes as they are.

Evaluation at arbitrary t proceeds by range reduction.  sq and cq are
2 pi_p periodic, odd and even respectively, satisfy the half-period flips
sq(t + pi_p) = -sq(t), cq(t + pi_p) = -cq(t), and reflect across the quarter
period through the cofunction identity cq(t) = sq(pi_p / 2 - t).  Composing
these folds any real t onto [0, pi_p / 4] together with a choice of table
(sq or co-sq) and two signs; on the reduced interval both series converge
with strictly decreasing terms, and the sparse Horner form evaluates each
table with one multiply-add per stored coefficient.

sq, cq, pow_general and reduce_argument call the context's evaluators,
straight-line code that checks t, runs _REDUCTION (the one copy of the
reduction) and folds, or returns the reduction, with no call in between.
A context writes their source with each number as its repr, which
round-trips, and equal contexts write equal sources, compiled once.  A
table fold is horner_sparse's loop unrolled, its step b = a_i - b * tp
written once per coefficient.

A context's folds depend on p alone.  Below q / 2, with q = pi_p / 4, they
fold prefixes cut for [0, q / 2] at EPS_DEFAULT (series._cut) from a fresh
series of p; on [q / 2, q] they fold node tables, Tang's table-driven
scheme (ACM TOMS 15(2), 1989): N equally spaced nodes t0 and, about each,
the Taylor polynomial of degree 8 in h = s - t0, exact by Sterbenz's lemma
since s and t0 both lie in [q / 2, q].  series._TaylorSeries.nodes gives
its coefficients as floats, by the recurrence of the MacLaurin tables
taken about t0, from (cq(t0), sq(t0)) that one Newton step on the binomial
series of arcsq gives; each is rounded once, with the leading one kept as
a double-double, and the paper's triangle rows at (cq(t0), sq(t0)) are
their oracle in the tests.  The nearest complex singularity lies at least
q tan(pi / p) from t0, which sets N: 15 nodes at p = 3, and at p = 2,
where sq and cq are entire, 26 at p = 4, 79 at p = 10, 517 at p = 64.  A
call then costs about 0.5 us at every p.  epsilon shapes only the
context's tables, J_used and the refusals; from p = 735, where compute_pi
refuses the tables of EPS_DEFAULT, the first evaluation refuses too,
before any node.  The first evaluation reads no compute_pi record and
builds the evaluators, mostly the nodes from p = 10 on.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .constants import compute_pi
from .errors import CostGuardError, DomainError, PoleError, check_finite, check_powers, checked_power, shown
from .series import EPS_DEFAULT, MAX_PI_TERMS, MacLaurinTable, _cut, _TaylorSeries, estimate_terms
from .triangle import SquigParams

# Node folds: the degree of each node polynomial and the share of a term its
# dropped tail may reach (2^-_NODE_TAIL).
_NODE_DEGREE = 8
_NODE_TAIL = 60


@dataclass(frozen=True)
class EvalContext:
    """Evaluation context for one circle degree p and tolerance epsilon.

    EvalContext(p, epsilon) and build_context(p, epsilon) are the same
    context: made from the compute_pi record for (p, epsilon), whose errors
    a bad p or epsilon raises.  p and epsilon are its only fields, so repr,
    equality, hashing, pickling and copying are those of (p, epsilon).  The
    constructor reads the record once and derives frozen attributes from
    it: quarter (pi_p / 4), the sq and cq tables the record cut for
    [0, pi_p / 4], and pi_p, half (pi_p / 2) and period (2 pi_p), exact
    multiples of quarter; a pickle of those attributes loads as they are.
    sq, cq and pow_general evaluate through the evaluators the context
    makes at its first evaluation, alike at every epsilon, which fold node
    tables on [pi_p / 8, pi_p / 4] (the module docstring has more).
    """

    p: int
    epsilon: float = EPS_DEFAULT

    def __post_init__(self) -> None:
        record = compute_pi(self.p, self.epsilon)
        q = record.value / 4.0
        sq_table, cq_table = record._quarter_tables
        vars(self).update(quarter=q, sq_table=sq_table, cq_table=cq_table, pi_p=4.0 * q, half=2.0 * q, period=8.0 * q)

    @cached_property
    def evaluators(self) -> types.SimpleNamespace:
        """sq(t), cq(t), pair(t) = (cq(t), sq(t)) and reduce(t), generated for this context.

        Made, with the node data, at the first evaluation, not by
        build_context: their source, from _source, holds every number, and
        their globals only fmod, check_finite, QuadrantReduction and the node
        tables SQN and CQN.
        """
        nodes = _nodes(self)
        names = {"fmod": math.fmod, "check_finite": check_finite, "QuadrantReduction": QuadrantReduction,
                 "SQN": nodes.sq, "CQN": nodes.cq}
        exec(_compiled(_source(self, nodes)), names)
        return types.SimpleNamespace(**{name: names[name] for name in ("sq", "cq", "pair", "reduce")})

    def __reduce__(self) -> tuple:
        return EvalContext, (self.p, self.epsilon)


class _Nodes(NamedTuple):
    # The node data of one context.  Below mid = quarter / 2 the prefixes
    # fold; at s >= mid node i = int((s - mid) * scale) folds the entry
    # (t0, hi, lo, b_1, ..., b_D) of sq or cq, the Taylor polynomial about t0
    # with leading coefficient hi + lo.  The last node is listed twice, for
    # s = quarter.
    scale: float
    sq_prefix: MacLaurinTable
    cq_prefix: MacLaurinTable
    sq: tuple[tuple[float, ...], ...]
    cq: tuple[tuple[float, ...], ...]


def _nodes(ctx: EvalContext) -> _Nodes:
    # The node data of a context, a function of p alone, refused where
    # compute_pi refuses the tables of EPS_DEFAULT.  The prefixes are cut at
    # EPS_DEFAULT for [0, mid], mid = quarter / 2.  N nodes at the centres of
    # equal parts of [mid, quarter] keep |h| <= quarter / 4N, and the Taylor
    # series about a node converges within rho = quarter tan(pi / p) of it,
    # the distance to the nearest complex singularity of sq and cq, so N is
    # the least with (quarter / (4N rho))^(D + 1) <= 2^-_NODE_TAIL.  sq and
    # cq are entire at p = 2, which takes p = 3's N = 15: at |h| <= q / 60 the
    # dropped tail |h|^9 / 9! is about 2^-75.  The sq prefix folded at the
    # first centre starts the Newton step of the first node's values.
    p, degree, q = ctx.p, _NODE_DEGREE, ctx.quarter
    J = estimate_terms(p, ctx.pi_p, EPS_DEFAULT)
    if J > MAX_PI_TERMS:
        raise CostGuardError(f"sq and cq at p={p} need J={J} terms at epsilon={EPS_DEFAULT!r}, past the cap {MAX_PI_TERMS}")
    series = _TaylorSeries(p)
    mid = q / 2.0
    sq_prefix, cq_prefix = (_cut(params, series.coefficients(params, J), mid, EPS_DEFAULT)
                            for params in (SquigParams(p, 0, 1), SquigParams(p, 1, 0)))
    parts = math.ceil(2.0 ** (_NODE_TAIL / (degree + 1)) / (4.0 * math.tan(math.pi / max(p, 3))))
    width = (q - mid) / parts
    t0s = [mid + (i + 0.5) * width for i in range(parts)]
    sq_nodes, cq_nodes = zip(*series.nodes(t0s, horner_sparse(sq_prefix, t0s[0]), degree))
    return _Nodes(parts / (q - mid), sq_prefix, cq_prefix, (*sq_nodes, sq_nodes[-1]), (*cq_nodes, cq_nodes[-1]))


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
    """Build the evaluation context for circle degree p, EvalContext(p, epsilon).

    The quarter period and both tables come from the compute_pi record for
    (p, epsilon), each table all of it the record rounds; evaluation folds
    those of EPS_DEFAULT at every epsilon.
    """
    return EvalContext(p, epsilon)


# The range reduction, written once: these statements take a checked float
# t to s in [0, pi_p / 4], the table choice use_co and the two signs.  Every
# evaluator, reduce among them, inlines them, with the context's period,
# pi_p, half and quarter filled in.  fmod is exact and
# fmod(-t, y) == -fmod(t, y), so folding |t| and flipping sign_sq for t < 0
# keeps sq odd and cq even bit for bit.
_REDUCTION = (
    "s = fmod(t, {period!r})",
    "sign_sq = sign_cq = 1",
    "if t < 0.0: s = -s; sign_sq = -1",
    "if s >= {pi_p!r}: s -= {pi_p!r}; sign_sq = -sign_sq; sign_cq = -1",
    "if s > {half!r}: s = {pi_p!r} - s; sign_cq = -sign_cq",
    "use_co = s > {quarter!r}",
    "if use_co: s = {half!r} - s",
)


def reduce_argument(ctx: EvalContext, t: float) -> QuadrantReduction:
    """Fold t onto [0, pi_p / 4] tracking table choice and signs.

    Reduction steps, applied in order: take |t| mod 2 pi_p into [0, 2 pi_p),
    flipping the sq sign when t < 0; subtract pi_p (flipping both signs) to
    reach [0, pi_p); reflect across pi_p / 2 (flipping the cq sign) to reach
    [0, pi_p / 2]; reflect across pi_p / 4 swapping the roles of the two
    tables.  So -t differs from t only in sign_sq, and exact binary64 sums
    t0 + 2 k pi_p of one sign reduce to bit-identical t_reduced.
    """
    return ctx.evaluators.reduce(t)


def horner_sparse(table: MacLaurinTable, t: float) -> float:
    """Evaluate a MacLaurin table at t by Horner steps in t^p.

    Folds all of the table's coefficients from the deep end, b <- a_j - b t^p,
    so the alternating signs come out of the single subtraction, then scales
    by t^n.  A t whose power t^p or t^n, or whose folded value, overflows
    binary64 raises DomainError.
    """
    check_finite("t", t)
    tp, tn = checked_power(t, table.params.p), checked_power(t, table.params.n)
    coeffs = reversed(table.floats)
    b = next(coeffs)
    for a in coeffs:
        b = a - b * tp
    value = tn * b
    if not math.isfinite(value):
        raise DomainError(f"t={t!r}: the folded sum {value!r} is not a finite binary64")
    return value


def _fold(table: MacLaurinTable, out: str) -> list[str]:
    # Statements that set out to horner_sparse's fold at s of an sq or cq
    # table: tp = s ** p, then its step out = a_i - out * tp from the deep
    # end, one statement per coefficient, then the scaling by s^n, s for sq
    # (n = 1) and none for cq (n = 0; s ** 0 * v is v for every binary64 v).
    *rest, last = table.floats
    steps = [f"{out} = {a!r} - {out} * tp" for a in reversed(rest)]
    scale = [f"{out} = s * {out}"] if table.params.n else []
    return [f"tp = s ** {table.params.p}", f"{out} = {last!r}", *steps, *scale]


def _node_fold(name: str, out: str) -> list[str]:
    # Statements that set out to the node fold at s about node i of the
    # global node table {name}: unpack (t0, hi, lo, b1, ..., b_D),
    # h = s - t0, Horner steps out = b_k + out * h from the deep end, then
    # the double-double leading term hi + (lo + out * h).
    b = [f"b{k}" for k in range(1, _NODE_DEGREE + 1)]
    steps = [f"{out} = {b[k - 1]} + {out} * h" for k in range(_NODE_DEGREE - 1, 0, -1)]
    return [f"t0, hi, lo, {', '.join(b)} = {name}[i]", "h = s - t0", f"{out} = {b[-1]}",
            *steps, f"{out} = hi + (lo + {out} * h)"]


def _source(ctx: EvalContext, nodes: _Nodes) -> str:
    # The source of sq, cq, pair and reduce for this context and its node
    # data: an inline check that sends every t but a finite float to
    # check_finite and float(), _REDUCTION, then the folds (pair's share one
    # tp, and one node index i and h) and signs, or reduce's
    # QuadrantReduction.  The prefixes fold below mid = quarter / 2, and at
    # or above it node i = int((s - mid) * scale) folds.
    def choose(co: list[str], plain: list[str]) -> list[str]:
        return [f"if use_co: {'; '.join(co)}", f"else: {'; '.join(plain)}"]

    mid = ctx.quarter / 2.0
    fold_sq, fold_cq = _fold(nodes.sq_prefix, "v"), _fold(nodes.cq_prefix, "v")
    fold_pair = _fold(nodes.sq_prefix, "y") + _fold(nodes.cq_prefix, "x")[1:]
    node_sq, node_cq = _node_fold("SQN", "v"), _node_fold("CQN", "v")
    # pair's cq fold reuses the h of its sq fold: both nodes share t0.
    node_pair = _node_fold("SQN", "y") + [line for line in _node_fold("CQN", "x") if line != "h = s - t0"]
    node_folds = {"sq": choose(node_cq, node_sq), "cq": choose(node_sq, node_cq), "pair": node_pair}
    prefix_folds = {"sq": choose(fold_cq, fold_sq), "cq": choose(fold_sq, fold_cq), "pair": fold_pair}
    folds = {name: [f"if s < {mid!r}:", *(f"    {line}" for line in prefix_folds[name]),
                    "else:", f"    i = int((s - {mid!r}) * {nodes.scale!r})",
                    *(f"    {line}" for line in node_folds[name])]
             for name in prefix_folds}
    bodies = {
        "sq": [*folds["sq"], "return sign_sq * v"],
        "cq": [*folds["cq"], "return sign_cq * v"],
        "pair": [*folds["pair"], "if use_co: return sign_cq * y, sign_sq * x",
                 "return sign_cq * x, sign_sq * y"],
        "reduce": ["return QuadrantReduction(s, use_co, sign_sq, sign_cq)"],
    }
    check = "if t.__class__ is not float or t - t != 0.0: check_finite('t', t); t = float(t)"
    reduction = [line.format_map(vars(ctx)) for line in _REDUCTION]
    lines = []
    for name, body in bodies.items():
        lines += [f"def {name}(t):", *(f"    {line}" for line in (check, *reduction, *body))]
    return "\n".join(lines)


@lru_cache(maxsize=64)
def _compiled(source: str) -> types.CodeType:
    # One code object per distinct source: equal contexts write equal sources.
    return compile(source, "<evaluators>", "exec")


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
    as does a product that overflows binary64 near a pole.  A power of
    2^53 or more takes its sign from its own parity, and one past binary64
    of a factor of magnitude <= 1 gives its limit, a signed 0.0 or 1.0.  t
    is reduced once for both factors.
    """
    check_powers(m, n, low=None)
    c, s = ctx.evaluators.pair(t)
    if (m < 0 or n < 0 or ctx.p % 2 == 1) and not 0.0 < t < ctx.half:
        if (t == 0.0 and n < 0) or (t == ctx.half and m < 0):
            raise PoleError(f"cq^{shown(m)} sq^{shown(n)} has a pole at t={t!r}")
        raise DomainError(
            f"t={t!r} outside the open first quadrant (0, {ctx.half}) "
            "required for negative powers or odd p"
        )
    try:
        if (abs(m) | abs(n)) >> 53:  # from 2^53 on float ** int rounds the power to a float
            value = checked_power(c, m) * checked_power(s, n)
        else:
            value = c ** m * s ** n
    except (OverflowError, DomainError):  # a power past binary64; * of two large powers gives inf
        value = math.inf
    if math.isinf(value):
        raise DomainError(f"cq^{shown(m)} sq^{shown(n)} at t={t!r} overflows binary64")
    return value
