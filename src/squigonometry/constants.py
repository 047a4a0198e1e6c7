"""Fundamental constants of the p-circle: the generalized pi and Beta values.

pi_p is twice the arclength parameter of the first-quadrant arc of
|x|^p + |y|^p = 1, so sq and cq are 2 pi_p periodic and cross at the quarter
period where cq(pi_p / 4) = sq(pi_p / 4) = 2^(-1/p).  compute_pi finds the
quarter period by Newton iteration on g(t) = cq(t) - 2^(-1/p), evaluating cq
and its derivative -sq^(p-1) from raw MacLaurin tables (no range reduction,
so nothing here depends on already knowing pi_p).

Sizing the tables needs pi_p, which is what is being computed, so the
length J comes once from an independent binary64 pi_p: the binomial series
of the incomplete Beta integral (DLMF 8.17), which needs no table.  J is
never below three, and each table is maclaurin's, built once.  The Newton
seed comes from a deep factor-sequence ratio via pi_from_factors, except at
p = 2 where that identity degenerates and the seed t = 1 is used.

Results are cached per (p, epsilon); repeated calls return the same record,
which also carries the sq and cq tables Newton ran on.  build_context cuts
its evaluation tables from them, so each (p, epsilon) pair is built once.

beta_value evaluates the Euler Beta function at arguments on the 1/p grid
through the arclength integral of cq^m sq^n over the first quadrant,

    B((m+1)/p, (n+1)/p) = p * integral_0^(pi_p/2) cq^m(t) sq^n(t) dt,

split at the quarter period: the upper half reflects onto the lower half
with m and n exchanged, and both halves integrate term by term from their
MacLaurin tables.  Each half reads one stream of coefficients: the
record's floats for the sq and cq halves, then columns computed past them
while m and n need more terms for the requested epsilon; a coefficient past
binary64 raises series' ConvergenceError in both functions.  pi_gamma and
beta_gamma give the classical gamma-function forms of the same quantities
for cross-checking; they share no machinery with the series path.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, takewhile

from .errors import ConvergenceError, check_int, check_powers, check_tolerance
from .evalcore import _integrate_smooth, horner_sparse
from .factors import pi_from_factors
from .series import EPS_DEFAULT, MacLaurinTable, _coefficients, estimate_terms, maclaurin
from .triangle import SquigParams


@dataclass(frozen=True)
class PiRecord:
    """One computed pi_p: the value, Newton cost, table length, tolerance,
    and the sq and cq tables of length J_used that the Newton solve ran on."""

    p: int
    value: float
    iterations: int
    J_used: int
    epsilon: float
    sq_table: MacLaurinTable = field(repr=False, compare=False)
    cq_table: MacLaurinTable = field(repr=False, compare=False)


def _pi_series(p: int) -> float:
    # The binomial series of the incomplete Beta integral (DLMF 8.17),
    # pi_p / 4 = 2^(-1/p) sum_k ((1 - 1/p)_k / k!) 2^-k / (pk + 1), in
    # binary64.  Its terms shrink at least as fast as 2^-k, so 52 of them
    # reach binary64 rounding.  It needs no table, so it sizes the tables.
    a = 1.0 - 1.0 / p
    coeff = 1.0
    terms = [1.0]
    for k in range(1, 53):
        coeff *= (a + k - 1) / (2 * k)
        terms.append(coeff / (p * k + 1))
    return 4.0 * 2.0 ** (-1.0 / p) * math.fsum(terms)


def compute_pi(p: int, epsilon: float = EPS_DEFAULT) -> PiRecord:
    """Quarter-period Newton solve for pi_p on tables sized for epsilon.

    Parameters
    ----------
    p : int
        Circle degree, p >= 2.
    epsilon : float
        Tail-size target used to size the MacLaurin tables; the returned
        value is accurate to a small multiple of binary64 rounding.

    Returns
    -------
    PiRecord
        value holds pi_p; iterations counts Newton steps; J_used is the
        table length, estimate_terms at the series pi_p and at least 3;
        sq_table and cq_table are the tables at that length which
        the Newton solve ran on, and which build_context cuts its
        evaluation tables from.
    """
    # Validate before the memo sees the arguments, so a float degree such as
    # 4.0 fails rather than hit the record of the int 4, and key the memo on
    # the values alone, so compute_pi(4), compute_pi(4, EPS_DEFAULT) and
    # compute_pi(4, epsilon=EPS_DEFAULT) share one solve.
    check_int("p", p, 2)
    check_tolerance("epsilon", epsilon)
    return _solve_pi(p, epsilon)


@lru_cache(maxsize=None)
def _solve_pi(p: int, epsilon: float) -> PiRecord:
    # Three terms at least: at loose epsilon the estimate drops to one or
    # two, and Newton on such tables lands far from pi_p.
    J = max(estimate_terms(p, _pi_series(p), epsilon), 3)
    sq_table, cq_table = (maclaurin(SquigParams(p=p, m=m, n=1 - m), J) for m in (0, 1))
    if p == 2:
        t = 1.0
    else:
        tail = cq_table.floats[J]
        if not tail > 0.0:
            # The seed needs a deep factor, and an epsilon near the bottom
            # of binary64 sizes the table past where it rounds to 0.
            raise ConvergenceError(
                f"MacLaurin table underflows binary64 at p={p}, J={J}; "
                "a looser epsilon keeps the table short enough"
            )
        t = pi_from_factors(tail / cq_table.floats[J - 1], p) / 4.0
    target = 2.0 ** (-1.0 / p)
    iterations = 0
    while True:
        residual = horner_sparse(cq_table, t) - target
        slope = -horner_sparse(sq_table, t) ** (p - 1)
        step = residual / slope
        t -= step
        iterations += 1
        if abs(step) <= 8.0 * math.ulp(t):
            return PiRecord(p, 4.0 * t, iterations, J, epsilon, sq_table, cq_table)
        # The slope is cq's derivative, not the truncated table's, so at loose
        # tolerances on p = 9, 10 (J = 3, 4) each step shrinks only by 0.20-0.25
        # and Newton takes up to 25 steps; up to 2^-20 it takes at most 5.
        if iterations >= 32:
            raise ConvergenceError(f"Newton for pi_{p} still moving after {iterations} steps")


# The memo is inspected and cleared through the public name.
compute_pi.cache_info = _solve_pi.cache_info
compute_pi.cache_clear = _solve_pi.cache_clear


def pi_gamma(p: int) -> float:
    """Gamma-function form of pi_p: 2 Gamma(1/p)^2 / (p Gamma(2/p)).

    Independent oracle for compute_pi; exact up to math.gamma rounding.
    """
    check_int("p", p, 2)
    return 2.0 * math.gamma(1.0 / p) ** 2 / (p * math.gamma(2.0 / p))


def beta_value(p: int, m: int, n: int, epsilon: float = EPS_DEFAULT) -> float:
    """B((m+1)/p, (n+1)/p) through the squigonometric arclength integral.

    Integrates cq^m sq^n term by term over [0, pi_p/4] twice, once as given
    and once with m and n exchanged for the reflected upper half, then scales
    by p.  Each half is one lazy stream of signed terms: it takes the
    record's J_used + 1 terms and continues while the next one exceeds
    epsilon / 2 relative to the sum, since J_used sizes the sq and cq tables
    and ignores m and n.  The sq and cq halves start from the record's
    floats and compute columns only past them; m = n shares one stream for
    both halves.  The two-half sum is accumulated with exact summation, so
    the result is bitwise symmetric in m and n.  Requires m, n >= 0.

    Raises ConvergenceError when a coefficient the sum needs overflows
    binary64, which large m and n reach at p near 10.
    """
    check_int("p", p, 2)
    check_powers(m, n)
    check_tolerance("epsilon", epsilon)
    record = compute_pi(p, epsilon)
    x = record.value / 4.0
    if not x < 1.0:
        # pi_p < 4 for every p; past it the series diverge and a further
        # term would overflow instead of shrinking.
        raise ConvergenceError(
            f"pi_{p} solved at epsilon={epsilon!r} is {record.value!r}, not below 4"
        )
    held = {table.params: table.floats for table in (record.sq_table, record.cq_table)}

    def signed_terms(params: SquigParams) -> Iterator[float]:
        # (-1)^j a_j x^power / power with power = n + pj + 1: term j of the
        # half integrated term by term.
        for j, a in enumerate(_coefficients(params, held.get(params, ()))):
            power = params.n + p * j + 1
            term = a / power * x ** power
            yield term if j % 2 == 0 else -term

    lower_params = SquigParams(p=p, m=m, n=n)
    upper_params = SquigParams(p=p, m=n, n=m)
    streams = {params: signed_terms(params) for params in {lower_params, upper_params}}
    halves = {params: list(islice(terms, record.J_used + 1)) for params, terms in streams.items()}
    lower, upper = halves[lower_params], halves[upper_params]
    # Each half's dropped tail alternates with shrinking terms, so it is at
    # most its first term; half of epsilon each keeps the total within it.
    bound = 0.5 * epsilon * abs(math.fsum(lower + upper))
    for params, kept in halves.items():
        # The sq and cq terms shrink strictly on [0, pi_p/4] (by a ratio
        # below 0.61 for p <= 10), so once the last held term is within
        # bound no later one exceeds it and no column is recomputed.
        if params in held and abs(kept[-1]) <= bound:
            continue
        kept.extend(takewhile(lambda term: abs(term) > bound, streams[params]))
    return p * math.fsum(lower + upper)


def beta_gamma(p: int, m: int, n: int) -> float:
    """Gamma-function form of the same Beta value, on its domain; oracle for beta_value."""
    check_int("p", p, 2)
    check_powers(m, n)
    a = (m + 1) / p
    b = (n + 1) / p
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def beta_quadrature_oracle(p: int, m: int, n: int, tol: float = 1e-10) -> float:
    """Beta value by adaptive quadrature, independent of every series table.

    Substituting x = sq(t) on [0, pi_p / 4] and reflecting the upper half of
    the quadrant across the diagonal gives p (I(m, n) + I(n, m)) with
    I(a, b) = integral_0^c x^b (1 - x^p)^((a + 1)/p - 1) dx, c = 2^(-1/p),
    each to half the tolerance.  The result is bitwise symmetric in m and n.
    """
    check_int("p", p, 2)
    check_powers(m, n)
    check_tolerance("tol", tol)
    c = 2.0 ** (-1.0 / p)

    def half(a: int, b: int) -> float:
        exponent = (a + 1) / p - 1.0
        return _integrate_smooth(lambda x: x**b * (1.0 - x**p) ** exponent, 0.0, c, 0.5 * tol, p)

    lower = half(m, n)
    upper = lower if m == n else half(n, m)
    return p * (lower + upper)
