"""Factor sequences between successive MacLaurin terms and the evaluation
schemes they induce.

Writing the MacLaurin series of cq^m * sq^n as t^n sum_j (-1)^j b_j with
b_0 = 1, each scaled term is a fixed multiple of its predecessor:

    a_j = F_j / (F_(j-1) * (n + pj)(n + pj - 1)...(n + pj - p + 1)),
    b_j = a_j t^p b_(j-1),

where F_j are the exact integer numerators.  The a_j are rationals with small
height compared to the F_j and carry the full series: partial products of the
a_j against the factorial grid reconstruct every F_j exactly.

Two evaluation schemes follow.  The factorial-type scheme multiplies terms
one factor a_j t^p at a time and stops when the next update falls below a
tolerance.  The continued-fraction scheme folds the same terms bottom-up
through the algebraic identity that turns an alternating series with term
ratios a_j t^p into

    t^n / (1 + a_1 t^p / (1 - a_1 t^p + a_2 t^p / (1 - a_2 t^p + ... ))),

truncated by dropping the + a_(D+1) t^p / ... tail at depth D; the depth-D
fraction equals the partial sum through term D identically.  An equivalence
transform clears the rationals, giving levels with integer coefficients
built from the F_j and falling factorials of the power grid.

The tail ratio a_(j+1) / a_j tends to (4 cos(pi/p) / pi_p)^p, which inverts
to the quarter-period estimate pi ~ pi_from_factors(a_J, p), an estimate
of pi_p independent of the constants module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConvergenceError, CostGuardError, DomainError, ParameterError, ZeroDenominatorError
from .errors import check_finite, check_int, check_powers, check_tolerance, checked_power
from .triangle import SquigParams


@dataclass(frozen=True)
class FactorSequence:
    """Term-to-term factors a_0..a_J of a MacLaurin table, exact and binary64.

    a_0 is the leading scaled coefficient F_0 / n! (always 1); for j >= 1,
    term j of the series equals term j - 1 times -a_j t^p.
    """

    params: SquigParams
    J: int
    exact: tuple[Fraction, ...]
    floats: tuple[float, ...]


def _check_numerators(numerators: tuple[int, ...]) -> None:
    # Each F_j divides a later factor or level.  integer_maclaurin yields
    # F_j >= 1 whenever m and n are not both 0.
    if not numerators:
        raise ParameterError("need at least F_0")
    for j, f in enumerate(numerators):
        check_int(f"numerators[{j}]", f, 1)


def _denominators(numerators: tuple[int, ...], params: SquigParams) -> list[int]:
    # C_0 = n! and C_j = F_(j-1) ff(n + pj, p), ff the falling factorial of the
    # power grid (n + pj >= 0, so math.perm): a_j = F_j / C_j, and both routes
    # below read their denominators from this one list.
    p, n = params.p, params.n
    return [math.factorial(n), *(f * math.perm(n + p * j, p) for j, f in enumerate(numerators[:-1], 1))]


def factor_sequence(numerators: tuple[int, ...], params: SquigParams) -> FactorSequence:
    """Exact factor sequence from integer MacLaurin numerators.

    Parameters
    ----------
    numerators : tuple[int, ...]
        F_0..F_J as produced by integer_maclaurin, each an int >= 1.
    params : SquigParams
        The triple the numerators belong to; m, n >= 0.

    Examples
    --------
    >>> from .series import integer_maclaurin
    >>> prm = SquigParams(p=4, m=1, n=0)
    >>> fs = factor_sequence(integer_maclaurin(prm, 3), prm)
    >>> [str(a) for a in fs.exact]
    ['1', '1/4', '9/40', '149/540']
    """
    check_powers(params.m, params.n)
    if params.m == 0 and params.n == 0:
        raise ParameterError("the constant function (m = n = 0) has no term-to-term factors")
    _check_numerators(numerators)
    pairs = list(zip(numerators, _denominators(numerators, params)))
    return FactorSequence(
        params=params,
        J=len(numerators) - 1,
        exact=tuple(Fraction(f, c) for f, c in pairs),
        floats=tuple(f / c for f, c in pairs),  # int / int, correctly rounded as float(a_j)
    )


def eval_factor_expansion(fs: FactorSequence, t: float, epsilon: float) -> tuple[float, int]:
    """Sum the series by running term products; returns (value, terms used).

    Terms are accumulated while updates stay at or above epsilon in absolute
    value; the first update below epsilon is dropped and iteration stops, so
    t = 0 uses exactly one term.  Raises ConvergenceError if the available
    factors run out before an update falls below epsilon, and DomainError if
    t^n or t^p overflows binary64.
    """
    check_finite("t", t)
    check_tolerance("epsilon", epsilon)
    term = checked_power(t, fs.params.n)
    total = term
    used = 1
    tp = checked_power(t, fs.params.p)
    for j in range(1, fs.J + 1):
        term = -fs.floats[j] * tp * term
        if abs(term) < epsilon:
            return total, used
        total += term
        used += 1
    raise ConvergenceError(
        f"factor expansion still above epsilon={epsilon} after {fs.J + 1} terms at t={t}"
    )


def continued_fraction(fs: FactorSequence, t: float, depth: int) -> float:
    """Evaluate the depth-D continued fraction; equals the partial sum 0..D.

    depth = 0 returns t^n.  The float fraction is the integer form with unit
    lead and levels (a_j, 1, a_j), so evaluate_integer_cf folds it, with the
    same exact refold and errors.
    """
    levels = [(a, 1.0, a) for a in fs.floats[1:]]
    return evaluate_integer_cf((1, 1), levels, fs.params, t, depth)


def integer_cf_terms(
    numerators: tuple[int, ...], params: SquigParams
) -> tuple[tuple[int, int], list[tuple[int, int, int]]]:
    """Integer-coefficient continued fraction via an equivalence transform.

    Clearing each rational a_j from the raw fraction multiplies numerator and
    denominator of each level by factorial-grid integers, leaving

        F_0 t^n / (n! + N_1 t^p / (C_1 - F_1 t^p + N_2 t^p / (C_2 - F_2 t^p + ...)))

    with C_j = F_(j-1) ff(n + pj, p), ff the falling factorial, C_0 = n! and
    N_j = F_j C_(j-1).  Returns ((F_0, n!), levels) with levels[j-1] =
    (N_j, C_j, F_j); the value of the depth-D fraction matches
    continued_fraction at the same depth.
    Each F_j must be an int >= 1, as integer_maclaurin returns them.

    For p = 2, m = 0, n = 1 every F_j is 1 and the levels collapse to the
    classical fraction t / (1 + t^2 / (6 - t^2 + 6 t^2 / (20 - t^2 + ...))).
    """
    check_powers(params.m, params.n)
    _check_numerators(numerators)
    dens = _denominators(numerators, params)
    return (numerators[0], dens[0]), [(f * c0, c, f) for f, c0, c in zip(numerators[1:], dens, dens[1:])]


def evaluate_integer_cf(
    lead: tuple[int, int],
    levels: list[tuple[int, int, int]],
    params: SquigParams,
    t: float,
    depth: int,
) -> float:
    """Evaluate the integer-coefficient fraction truncated at a given depth.

    Coefficients grow factorially with level, so this evaluator is meant for
    the modest depths where the integer form is of interest: a coefficient
    past binary64 (from depth 27 at p = 4, m = 1, n = 0) raises CostGuardError,
    an overflowing t^n or t^p (from depth 1) DomainError.  Where a binary64
    denominator rounds to 0 or the binary64 fold is not finite, the same rows
    fold again exactly and the value is rounded once: a true zero raises
    ZeroDenominatorError naming its level, 0 for the lead's, and a value past
    binary64 DomainError.
    """
    check_finite("t", t)
    check_int("depth", depth, 0, len(levels))
    tn = checked_power(t, params.n)
    try:
        # Level 0 is the lead, F_0 over n!, with no t^p term.
        rows = [tuple(map(float, row)) for row in [(lead[0], lead[1], 0), *levels[:depth]]]
    except OverflowError:
        raise CostGuardError(f"a depth-{depth} coefficient overflows binary64") from None
    tp = checked_power(t, params.p) if depth else 0.0
    try:
        value = _fold(rows, tp, tn, t)
    except ZeroDenominatorError:
        value = math.nan
    if not math.isfinite(value):
        # A binary64 denominator can cancel to 0 where the true one does not (p = 2,
        # t = 1e100), or a level overflow to inf or NaN (p = 3); t and the rows are
        # dyadic, so fold them exactly and round once.
        x = Fraction(t)
        value = _fold([tuple(map(Fraction, row)) for row in rows], x ** params.p, x ** params.n, t)
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"the depth-{depth} value overflows binary64 at t={t}") from None


def _fold(rows: list[tuple], tp, tn, t: float):
    # Levels len(rows) - 1 .. 0 bottom-up, in binary64 or exactly in Fraction.
    tail = 0
    for j in range(len(rows) - 1, -1, -1):
        numer, const, sub = rows[j]
        v = const - sub * tp + tail
        if v == 0:
            raise ZeroDenominatorError(f"denominator vanished at level {j}, t={t}")
        tail = numer * tp / v
    return rows[0][0] * tn / v


def pi_from_factors(a_tail: float | Fraction, p: int) -> float:
    """Quarter-period estimate from one tail factor: 4 cos(pi/p) a^(-1/p).

    The factor ratio approaches (4 cos(pi/p) / pi_p)^p, so a deep factor a_J
    inverts to an estimate of pi_p; dividing by 4 gives the quarter period.
    The identity degenerates at p = 2 (cos(pi/2) = 0 against a divergent
    power), where the estimate collapses to 0 and is unusable.
    """
    check_int("p", p, 2)
    check_finite("a_tail", a_tail)
    a = float(a_tail)
    if not a > 0.0:
        raise ParameterError(f"tail factor must be positive, got {a_tail!r}")
    return 4.0 * math.cos(math.pi / min(p, 1 << 64)) * a ** (-1 / p)
