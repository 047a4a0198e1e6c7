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
never below three, and each table pulls its J + 1 columns once.  The Newton
seed comes from a deep factor-sequence ratio via pi_from_factors, except at
p = 2 where that identity degenerates and the seed t = 1 is used.

Results are cached per (p, epsilon); repeated calls return the same record,
which also carries the sq and cq tables Newton ran on.  Those tables are
the ones evaluation contexts use, so each (p, epsilon) pair is built once.

beta_value evaluates the Euler Beta function at arguments on the 1/p grid
through the arclength integral of cq^m sq^n over the first quadrant,

    B((m+1)/p, (n+1)/p) = p * integral_0^(pi_p/2) cq^m(t) sq^n(t) dt,

split at the quarter period: the upper half reflects onto the lower half
with m and n exchanged, and both halves integrate term by term from their
MacLaurin tables.  The sq and cq halves read the record's tables; other
halves pull their own columns, past the record's length when m and n need
more terms for the requested epsilon.  pi_gamma and beta_gamma give the
classical gamma-function forms of the same quantities for cross-checking;
they share no machinery with the series path.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .errors import ConvergenceError, check_int, check_powers, check_tolerance
from .evalcore import _integrate_smooth, build_context, cq, horner_sparse, sq
from .factors import pi_from_factors
from .series import EPS_DEFAULT, MacLaurinTable, _columns, estimate_terms
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


def _factorial_terms(epsilon: float) -> int:
    # p = 2 fallback: geometric decay estimate does not apply, take the least
    # J with 1 / (2J)! below epsilon plus a safety margin of two terms.
    # 1 / epsilon is taken exactly: below 2^-1024 its rounding is inf.
    limit = 1 / Fraction(epsilon)
    j = 1
    while math.factorial(2 * j) <= limit:
        j += 1
    return j + 2


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
        table length, for p >= 3 estimate_terms at the series pi_p and at
        least 3; sq_table and cq_table are the tables at that length which
        the Newton solve ran on, shared by every context build_context
        returns.
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
    if p == 2:
        J = _factorial_terms(epsilon)
    else:
        # Three terms at least: at loose epsilon the estimate drops to one
        # or two, and Newton on such tables lands far from pi_p.
        J = max(estimate_terms(p, _pi_series(p), epsilon), 3)
    tables: list[MacLaurinTable] = []
    for params in (SquigParams(p=p, m=0, n=1), SquigParams(p=p, m=1, n=0)):
        floats: list[float] = []
        for a in islice(_columns(params), J + 1):
            if not math.isfinite(a):
                # Transit values of the coefficient recursion grow roughly
                # geometrically in j with a rate that worsens as p grows;
                # past the binary64 ceiling the deep table entries come out
                # inf.  Stop at the first one rather than pull the columns left.
                raise ConvergenceError(
                    f"MacLaurin recursion overflows binary64 at p={p}, J={J}; "
                    "a looser epsilon keeps the table short enough"
                )
            floats.append(a)
        tables.append(MacLaurinTable(params, J, tuple(floats)))
    sq_table, cq_table = tables
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
        if iterations >= 20:
            raise ConvergenceError(f"Newton for pi_{p} still moving after 20 steps")


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
    by p.  Each half takes the record's J_used + 1 terms and more while the
    next one exceeds epsilon / 2 relative to the sum, since J_used sizes the
    sq and cq tables and ignores m and n.  The sq and cq halves read the
    record's tables, and m = n builds one table for both halves.  The
    two-half sum is accumulated with exact summation, so the result is
    bitwise symmetric in m and n.  Requires m, n >= 0.
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
    lower_params = SquigParams(p=p, m=m, n=n)
    upper_params = SquigParams(p=p, m=n, n=m)
    halves = {params: _half(record, params, x) for params in {lower_params, upper_params}}
    lower, upper = halves[lower_params][0], halves[upper_params][0]
    # Each half's dropped tail alternates with shrinking terms, so it is at
    # most its first term; half of epsilon each keeps the total within it.
    bound = 0.5 * epsilon * abs(math.fsum(lower + upper))
    for params, (terms, columns) in halves.items():
        _extend_half(terms, params, columns, x, bound)
    return p * math.fsum(lower + upper)


def _half(
    record: PiRecord, params: SquigParams, x: float
) -> tuple[list[float], Iterator[float] | None]:
    # Signed terms (-1)^j a_j x^power / power, power = n + pj + 1, of one
    # half for j <= J_used, and the live column generator past them (None
    # for a half read from the record's tables).
    held = {table.params: table.floats for table in (record.sq_table, record.cq_table)}
    floats = held.get(params)
    columns = None
    if floats is None:
        columns = _columns(params)
        floats = islice(columns, record.J_used + 1)
    p, n = params.p, params.n
    terms = []
    for j, a in enumerate(floats):
        power = n + p * j + 1
        terms.append((1.0 if j % 2 == 0 else -1.0) * a / power * x ** power)
    return terms, columns


def _extend_half(
    terms: list[float], params: SquigParams, columns: Iterator[float] | None, x: float, bound: float
) -> None:
    # Append the terms past the table while the next one exceeds bound.
    if columns is None:
        # The sq and cq terms shrink strictly on [0, pi_p/4] (by a ratio
        # below 0.61 for p <= 10), so once the last kept term is within
        # bound no later one exceeds it and no column is recomputed.
        if abs(terms[-1]) <= bound:
            return
        columns = islice(_columns(params), len(terms), None)
    p, n = params.p, params.n
    for j, a in enumerate(columns, len(terms)):
        power = n + p * j + 1
        term = a / power * x ** power
        if not math.isfinite(term):
            raise ConvergenceError(
                f"MacLaurin recursion overflows binary64 at p={p}, j={j} in beta_value"
            )
        if term <= bound:
            return
        terms.append(term if j % 2 == 0 else -term)


def beta_gamma(p: int, m: int, n: int) -> float:
    """Gamma-function form of the same Beta value, on its domain; oracle for beta_value."""
    check_int("p", p, 2)
    check_powers(m, n)
    a = (m + 1) / p
    b = (n + 1) / p
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def beta_quadrature_oracle(p: int, m: int, n: int, tol: float = 1e-10) -> float:
    """Direct adaptive quadrature of p * cq^m sq^n over the first quadrant.

    Slow route used to cross-check beta_value; goes through the full
    evaluation context rather than raw tables.
    """
    check_powers(m, n)
    check_tolerance("tol", tol)
    ctx = build_context(p)

    def integrand(t: float) -> float:
        return cq(ctx, t) ** m * sq(ctx, t) ** n

    return p * _integrate_smooth(integrand, 0.0, 2.0 * ctx.quarter, tol)
