"""Fundamental constants of the p-circle: the generalized pi and Beta values.

pi_p is twice the arclength parameter of the first-quadrant arc of
|x|^p + |y|^p = 1, so sq and cq are 2 pi_p periodic and cross at the quarter
period where cq(pi_p / 4) = sq(pi_p / 4) = 2^(-1/p).  compute_pi finds the
quarter period by Newton iteration on g(t) = cq(t) - 2^(-1/p), evaluating cq
and its derivative -sq^(p-1) from raw MacLaurin tables (no range reduction,
so nothing here depends on already knowing pi_p).

Sizing the tables needs pi_p, which is what is being computed, so the length
is bootstrapped: seed from the bound pi_p < 4, Newton to convergence, re-ask
the term estimate with the computed value, and repeat until the length is a
fixed point (two or three rounds in practice).  The Newton seed comes from a
deep factor-sequence ratio via pi_from_factors, except at p = 2 where that
identity degenerates and the seed t = 1 is used.

Results are cached per (p, epsilon); repeated calls return the same record,
which also carries the sq and cq tables of the final sizing round.  Those
tables are the ones evaluation contexts use, so each (p, epsilon) pair is
built once.

beta_value evaluates the Euler Beta function at arguments on the 1/p grid
through the arclength integral of cq^m sq^n over the first quadrant,

    B((m+1)/p, (n+1)/p) = p * integral_0^(pi_p/2) cq^m(t) sq^n(t) dt,

split at the quarter period: the upper half reflects onto the lower half
with m and n exchanged, and both halves integrate term by term from their
MacLaurin tables.  pi_gamma and beta_gamma give the classical gamma-function
forms of the same quantities for cross-checking; they share no machinery
with the series path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ConvergenceError, check_int, check_powers, check_tolerance
from .evalcore import _integrate_smooth, build_context, cq, horner_sparse, sq
from .factors import pi_from_factors
from .series import EPS_DEFAULT, MacLaurinTable, estimate_terms, maclaurin
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
    j = 1
    while math.factorial(2 * j) <= 1.0 / epsilon:
        j += 1
    return j + 2


def compute_pi(p: int, epsilon: float = EPS_DEFAULT) -> PiRecord:
    """Quarter-period Newton solve for pi_p, with self-sized tables.

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
        value holds pi_p; iterations counts Newton steps in the final sizing
        round; J_used is the stabilized table length, which for p >= 3 is
        the fixed point of estimate_terms at the computed pi_p; sq_table
        and cq_table are the tables at that length which the Newton solve
        ran on, shared by every context build_context returns.
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
        # Seed from pi_p < 4; underestimates J slightly, fixed by iteration.
        J = max(estimate_terms(p, 4.0, epsilon), 4)
    target = 2.0 ** (-1.0 / p)
    for _ in range(8):
        sq_table = maclaurin(SquigParams(p=p, m=0, n=1), J)
        cq_table = maclaurin(SquigParams(p=p, m=1, n=0), J)
        if not all(map(math.isfinite, sq_table.floats + cq_table.floats)):
            # Transit values of the coefficient recursion grow roughly
            # geometrically in j with a rate that worsens as p grows; past
            # the binary64 ceiling the deep table entries come out inf.
            raise ConvergenceError(
                f"MacLaurin recursion overflows binary64 at p={p}, J={J}; "
                "a looser epsilon keeps the table short enough"
            )
        if p == 2:
            t = 1.0
        else:
            tail_ratio = cq_table.floats[J] / cq_table.floats[J - 1]
            t = pi_from_factors(tail_ratio, p) / 4.0
        iterations = 0
        while True:
            residual = horner_sparse(cq_table, t) - target
            slope = -horner_sparse(sq_table, t) ** (p - 1)
            step = residual / slope
            t -= step
            iterations += 1
            if abs(step) <= 8.0 * math.ulp(t):
                break
            if iterations >= 20:
                raise ConvergenceError(f"Newton for pi_{p} still moving after 20 steps")
        if p == 2:
            J_next = J
        else:
            J_next = estimate_terms(p, 4.0 * t, epsilon)
        if J_next == J:
            return PiRecord(p, 4.0 * t, iterations, J, epsilon, sq_table, cq_table)
        J = J_next
    raise ConvergenceError(f"table length for pi_{p} did not stabilize")


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
    by p.  The two-table sum is accumulated with exact summation, so the
    result is bitwise symmetric in m and n.  Requires m, n >= 0.
    """
    check_int("p", p, 2)
    check_powers(m, n)
    check_tolerance("epsilon", epsilon)
    record = compute_pi(p, epsilon)
    J = record.J_used
    x = record.value / 4.0
    lower = maclaurin(SquigParams(p=p, m=m, n=n), J)
    upper = maclaurin(SquigParams(p=p, m=n, n=m), J)
    terms: list[float] = []
    for j in range(J + 1):
        sign = 1.0 if j % 2 == 0 else -1.0
        power_lower = n + p * j + 1
        power_upper = m + p * j + 1
        terms.append(sign * lower.floats[j] / power_lower * x ** power_lower)
        terms.append(sign * upper.floats[j] / power_upper * x ** power_upper)
    return p * math.fsum(terms)


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
