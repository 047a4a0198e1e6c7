"""Fundamental constants of the p-circle: the generalized pi and Beta values.

pi_p is twice the arclength parameter of the first-quadrant arc of
|x|^p + |y|^p = 1, so sq and cq are 2 pi_p periodic and cross at the quarter
period where cq(pi_p / 4) = sq(pi_p / 4) = 2^(-1/p).  compute_pi returns
pi_p correctly rounded, whatever epsilon, from series._TaylorSeries's
integer sum; squig verify checks the record's cq table against that
equation.  epsilon sizes the sq and cq tables, at least three terms long.
Records are cached per (p, epsilon), and build_context cuts its evaluation
tables from them, so each pair is built once.

beta_value evaluates the Euler Beta function at arguments on the 1/p grid
through the arclength integral of cq^m sq^n over the first quadrant,

    B((m+1)/p, (n+1)/p) = p * integral_0^(pi_p/2) cq^m(t) sq^n(t) dt,

split at the quarter period: the upper half reflects onto the lower half
with m and n exchanged, and both halves integrate term by term from their
MacLaurin tables.  Each half streams its coefficients from the record's
series, extending it only while m and n need more terms than the record's
tables hold.  pi_gamma and beta_gamma give the classical gamma-function
forms of the same quantities for cross-checking; they share no machinery
with the series path.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

from .errors import ConvergenceError, CostGuardError, DomainError
from .errors import check_int, check_powers, check_tolerance
from .evalcore import _integrate_smooth
from .series import EPS_DEFAULT, MacLaurinTable, _TaylorSeries, estimate_terms
from .triangle import SquigParams

#: Ceiling on the table length J_used compute_pi sizes.  A build costs about
#: J^2 (5.6 s at J = 5710, p = 512 at EPS_DEFAULT), and J is about 11 p there.
MAX_PI_TERMS = 8192


@dataclass(frozen=True)
class PiRecord:
    """One computed pi_p: the correctly rounded value, the widenings its sum
    took, the table length, the tolerance, and the sq and cq tables of length
    J_used, from the series _series, which beta_value extends."""

    p: int
    value: float
    iterations: int
    J_used: int
    epsilon: float
    sq_table: MacLaurinTable = field(repr=False, compare=False)
    cq_table: MacLaurinTable = field(repr=False, compare=False)
    _series: _TaylorSeries = field(repr=False, compare=False)


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
        at least 3 and (p + 1) // 3; build_context cuts its evaluation
        tables from sq_table and cq_table.

    Raises CostGuardError, before building any table, where J_used would
    pass MAX_PI_TERMS: from p = 735 at EPS_DEFAULT.
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
    # cuts and of beta_value's first terms; lowering it would move those.
    series = _TaylorSeries(p)
    J = max(estimate_terms(p, series.pi_p, epsilon), 3, (p + 1) // 3)
    if J > MAX_PI_TERMS:
        raise CostGuardError(
            f"pi_{p} at epsilon={epsilon!r} needs J={J} terms, past the cap {MAX_PI_TERMS}"
        )
    sq_table, cq_table = (series.table(SquigParams(p=p, m=m, n=1 - m), J) for m in (0, 1))
    return PiRecord(p, series.pi_p, series.widenings, J, epsilon, sq_table, cq_table, series)


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
    by p.  Each half is one lazy stream of signed terms that reads the
    record's series and extends it past J_used only as far as it reads; m = n
    shares one stream for both halves.  A half takes the record's J_used + 1
    terms, since J_used sizes the sq and cq tables and ignores m and n, and
    continues while its terms still grow or exceed epsilon / 2 relative to
    the final sum.  The two-half sum is accumulated with exact summation, so
    the result is bitwise symmetric in m and n.

    Requires m, n >= 0.  Raises ConvergenceError where the terms cancel so
    far that their rounding, at most 2^-52 times the sum of their
    magnitudes, exceeds max(epsilon, 2^-33) of the sum: at the default
    epsilon, m = n = 30 for p <= 5 and m = 700, n = 0 for every p up to 11.
    A passing sum is at most about pi_p / 2, so the halves refuse once that
    rounding passes twice what such a sum allows: (2, 700, 0) after 14 terms
    of the series, not 452.  So does a coefficient or power of t past binary64.
    A call that raises leaves the registry of the record's series as it was.
    """
    check_int("p", p, 2)
    check_powers(m, n)
    check_tolerance("epsilon", epsilon)
    record = compute_pi(p, epsilon)
    x = record.value / 4.0

    def signed_terms(powers: tuple[int, int]) -> Iterator[float]:
        # (-1)^j a_j x^power / power with power = n + pj + 1: term j of the
        # half of cq^m sq^n, (m, n) = powers, integrated term by term.
        for j, a in enumerate(record._series.stream(*powers)):
            power = powers[1] + p * j + 1
            try:
                term = a / power * x ** power
            except OverflowError:  # the int power, past binary64
                raise ConvergenceError(f"a power of t past binary64 at p={p}, m={m}, n={n}") from None
            yield term if j % 2 == 0 else -term

    with record._series.undo_on_error():
        streams = {powers: signed_terms(powers) for powers in {(m, n), (n, m)}}
        halves = {powers: list(islice(terms, record.J_used + 1)) for powers, terms in streams.items()}
        pending = {powers: next(terms) for powers, terms in streams.items()}
        lower, upper = halves[m, n], halves[n, m]
        # A term carries at most two roundings of its own size; past epsilon, or
        # past 2^-33 (20 of 53 bits cancelled) at any epsilon, the sum is noise.
        # A passing sum is within epsilon + floor of its true value, at most
        # pi_p / 2 (cq, sq <= 1), so the halves refuse once the rounding passes
        # floor * pi_p / (2 (1 - epsilon - floor)) twice over, a margin for the
        # roundings of pi_p and of the running magnitude.
        floor = max(epsilon, 2.0 ** -33)
        limit = floor * record.value / (1.0 - epsilon - floor) if epsilon + floor < 1.0 else math.inf
        magnitude = math.fsum(map(abs, lower + upper))
        weight = 2 if m == n else 1  # lower is upper, and counts twice
        cancelled = f"the Beta series at p={p}, m={m}, n={n} cancels past epsilon={epsilon!r} in binary64"
        # Each half's dropped tail alternates with shrinking terms once they have
        # stopped growing, so it is at most its first term; half of epsilon of
        # the final sum each keeps the sum within it.  A longer half moves the
        # sum, so the halves grow until the bound they are held to stops moving.
        previous = None
        while (bound := 0.5 * epsilon * abs(math.fsum(lower + upper))) != previous:
            previous = bound
            for powers, kept in halves.items():
                while abs(pending[powers]) > bound or abs(pending[powers]) > abs(kept[-1]):
                    if 2.0 ** -52 * magnitude > limit:
                        raise ConvergenceError(cancelled)
                    magnitude += weight * abs(pending[powers])
                    kept.append(pending[powers])
                    pending[powers] = next(streams[powers])
        total = math.fsum(lower + upper)
        if not 2.0 ** -52 * math.fsum(map(abs, lower + upper)) <= floor * total:
            raise ConvergenceError(cancelled)
        return p * total


def beta_gamma(p: int, m: int, n: int) -> float:
    """Gamma-function form of the same Beta value, on its domain; oracle for beta_value.

    Past math.gamma's binary64 range (from m = 685 at p = 4) raises DomainError.
    """
    check_int("p", p, 2)
    check_powers(m, n)
    try:
        a, b = (m + 1) / p, (n + 1) / p
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    except OverflowError:  # an argument or a gamma value past binary64
        raise DomainError(f"B at p={p}, m={m}, n={n} is past math.gamma's binary64 range") from None


def beta_quadrature_oracle(p: int, m: int, n: int, tol: float = 1e-10) -> float:
    """Beta value by adaptive quadrature, independent of every series table.

    Substituting x = sq(t) on [0, pi_p / 4] and reflecting the upper half of
    the quadrant across the diagonal gives p (I(m, n) + I(n, m)) with
    I(a, b) = integral_0^c x^b (1 - x^p)^((a + 1)/p - 1) dx, c = 2^(-1/p),
    each to half the tolerance.  The result is bitwise symmetric in m and n.
    An argument (m + 1) / p or (n + 1) / p past binary64 raises DomainError.
    """
    check_int("p", p, 2)
    check_powers(m, n)
    check_tolerance("tol", tol)
    try:
        a, b = (m + 1) / p, (n + 1) / p
    except OverflowError:
        raise DomainError(f"(m + 1)/p or (n + 1)/p at p={p}, m={m}, n={n} is past binary64") from None
    c = 2.0 ** (-1.0 / p)

    def half(exponent: float, power: int) -> float:
        return _integrate_smooth(lambda x: x**power * (1.0 - x**p) ** exponent, 0.0, c, 0.5 * tol, p)

    lower = half(a - 1.0, n)
    upper = lower if m == n else half(b - 1.0, m)
    return p * (lower + upper)
