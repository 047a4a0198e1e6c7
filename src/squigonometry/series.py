"""MacLaurin tables for cq^m * sq^n.

The MacLaurin series of cq^m * sq^n collapses onto powers t^(n + pj),

    cq^m(t) sq^n(t) = sum_{j>=0} (-1)^j a_j t^(n + pj),
    a_j = F_j / (n + pj)!  > 0,

where F_j = q[n + pj][j] is the single surviving triangle entry at order
n + pj.  The column generator _columns produces a_0, a_1, ... directly in
binary64 by running the coefficient recursion on scaled columns, one
division per update, so each a_j is computed with a minimal number of
roundings (many small cases are exact, e.g. the degree-5 squine coefficient
of t^5/5! for p = 4 is exactly -0.15).  Each column is one list
comprehension over exact binary64 integer weights, the values that int
weights convert to, so the bits are those of the plain int-weight loop.
It is the package's one binary64 copy of the recursion, and it never
recomputes a column: maclaurin takes its first J + 1 columns, and a caller
that finds it needs more terms pulls only the new ones (_coefficients
continues a held prefix that way).  integer_maclaurin produces the exact
integer numerators F_j instead, reading them from the exact row generator
in triangle, the one place the integer recursion is written.

_columns is also the one place that stops at the binary64 ceiling: its
first coefficient that is not finite raises ConvergenceError naming p, m, n
and j, so maclaurin, compute_pi and beta_value fail alike (sq at p = 11 at
j = 98; every p at j = 0 from n = 1021, as (n - k) C(n, k) passes 2^1024).

estimate_terms converts a target tolerance into a series length using the
geometric decay rate of the scaled terms: coefficients decay like R^(-pj)
with R = (pi_p / 4) * sec(pi / p), which exceeds 1 for every p >= 3.  For
p = 2 the decay is factorial, not geometric, and the estimate counts
factorials instead.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, repeat

from .errors import ConvergenceError, ParameterError
from .errors import check_finite, check_int, check_powers, check_tolerance
from .triangle import SquigParams, _rows, ceil_div

#: Unit roundoff of binary64; default tolerance target for table sizing.
EPS_DEFAULT = 2.0 ** -53


@dataclass(frozen=True)
class MacLaurinTable:
    """Unsigned scaled MacLaurin coefficients a_0..a_J of cq^m * sq^n.

    floats[j] holds a_j = F_j / (n + pj)! as a binary64 value; the series is
    sum_j (-1)^j floats[j] t^(n + pj).  J is len(floats) - 1, and the exact
    integers F_j come from integer_maclaurin.  floats must not be empty.
    """

    params: SquigParams
    floats: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.floats:
            raise ParameterError("a MacLaurinTable needs at least the coefficient a_0")

    @property
    def J(self) -> int:
        """Index of the last coefficient, len(floats) - 1."""
        return len(self.floats) - 1

    def power(self, j: int) -> int:
        """Exponent of t multiplying the j-th coefficient."""
        return self.params.n + self.params.p * j

    def signed(self, j: int) -> float:
        """Signed coefficient (-1)^j a_j."""
        return self.floats[j] if j % 2 == 0 else -self.floats[j]


def maclaurin(params: SquigParams, J: int) -> MacLaurinTable:
    """Scaled MacLaurin coefficients a_0..a_J of cq^m * sq^n in binary64.

    The first J + 1 columns of the column generator _columns; see there
    for how each coefficient is formed.  The exact integer numerators F_j
    of the same coefficients come from integer_maclaurin.  Raises
    ConvergenceError at the first a_j that overflows binary64.

    Parameters
    ----------
    params : SquigParams
        Requires m, n >= 0.
    J : int
        Last coefficient index; the recursion runs to order n + p*J.

    Examples
    --------
    >>> t = maclaurin(SquigParams(p=4, m=0, n=1), 2)
    >>> t.floats[1] * math.factorial(5)
    18.0
    """
    check_powers(params.m, params.n)
    check_int("J", J, 0)
    return MacLaurinTable(params, tuple(islice(_columns(params), J + 1)))


def _columns(params: SquigParams) -> Iterator[float]:
    """Yield a_0, a_1, a_2, ... of cq^m * sq^n in binary64, without end.

    The package's one binary64 copy of the coefficient recursion.  Column j
    carries one scaled value per order k: 0.0 until the top edge of the
    band reaches it, then the update

        c <- ((n - k + pj) c + (m + k(p - 1) - p(j - 1)) c_prev[k]) / (k + 1)

    with c_prev[k] the value of column j - 1 at order k: two exact integer
    scalings and one divide, so many small coefficients come out exact.
    Column j - 1 freezes at order n + p(j - 1), holding a_{j-1}; on the
    later orders up to n + pj, where column j freezes at a_j, only the
    diagonal term is kept.  Each column is one list comprehension carrying c
    over the orders of the column before it, kept from the first order its
    band reached, so one history of O(pj) floats is alive at a time.  Its
    weights keep, shift and div are binary64 integers below 2^53, the exact
    values that int weights convert to, so each operation and bit (-0.0
    included) is the int-weight loop's; the first a_j that is not finite
    raises ConvergenceError instead.  Requires m, n >= 0.
    """
    p, m, n = params.p, params.m, params.n
    if m == n == 0:  # cq^0 sq^0 = 1: a_0 = 1.0, then +0.0 without end
        yield 1.0
        yield from repeat(0.0)
    # Column 0 is the diagonal alone, to order n.
    c = 1.0
    history = [c]
    for k in range(n):
        c = ((n - k) * c) / (k + 1)
        history.append(c)
    w = [0.0]  # w[i] == float(i), the exact binary64 weights, grown to order top
    k_enter = offset = 0  # k_enter: first step at which the band's top edge reaches column j
    for j in count(1):
        # c is a_{j-1}; every later column reads it, so none is finite past it.
        if c - c != 0.0:
            raise ConvergenceError(
                f"MacLaurin recursion overflows binary64 at p={p}, m={m}, n={n}, j={j - 1}"
            )
        yield c
        while k_enter + 1 - ceil_div(k_enter + 1 - m, p) < j:
            k_enter += 1
        freeze_prev = n + p * (j - 1)
        top = freeze_prev + p
        start = min(k_enter, freeze_prev)
        w += map(float, range(len(w), top + 1))
        c = 0.0
        # Steps start..freeze_prev take both terms, with the integer weights
        # n - k + pj, m + k(p - 1) - p(j - 1) and k + 1 of each step k.
        column = [c] + [
            c := (keep * c + shift * prev) / div
            for keep, shift, prev, div in zip(
                w[top - start : p - 1 : -1],
                count(float(m + start * (p - 1) - p * (j - 1)), float(p - 1)),
                islice(history, start - offset, None),
                w[start + 1 : freeze_prev + 2],
            )
        ]
        tail = zip(w[p - 1 : 0 : -1], w[freeze_prev + 2 : top + 1])  # the diagonal term alone
        column += [c := (keep * c) / div for keep, div in tail]
        history, offset = column, start  # column[i] holds order start + i


def _coefficients(params: SquigParams, held: tuple[float, ...] = ()) -> Iterator[float]:
    # The held floats a_0, a_1, ..., then the columns past them, computed
    # only once the held floats run out.
    yield from held
    yield from islice(_columns(params), len(held), None)


def integer_maclaurin(params: SquigParams, J: int) -> tuple[int, ...]:
    """Exact integer numerators F_0..F_J with F_j = q[n + pj][j].

    Runs the exact row generator to order n + p*J, holding one row at a
    time and no column above J, and reads one entry per target order.
    F_j / (n + pj)! reproduces maclaurin floats up to one rounding.  The
    constant function (m = n = 0) gives (1, 0, ..., 0).
    """
    check_powers(params.m, params.n)
    check_int("J", J, 0)
    p, n = params.p, params.n
    orders = islice(_rows(params, (0, [1]), 0, J), n, n + p * J + 1, p)
    return tuple(
        row[j - lo] if 0 <= j - lo < len(row) else 0 for j, (lo, row) in enumerate(orders)
    )


def radius(p: int, pi_p: float) -> float:
    """Geometric decay rate R = (pi_p / 4) sec(pi / p) of the scaled terms.

    R > 1 for p >= 3.  For p = 2 the secant pole makes R infinite, matching
    the entire function there (terms decay factorially).
    """
    check_int("p", p, 2)
    check_finite("pi_p", pi_p)
    if p == 2:
        return math.inf
    return (pi_p / 4.0) / math.cos(math.pi / p)


def estimate_terms(p: int, pi_p: float, epsilon: float) -> int:
    """Number of series terms needed for scaled-term decay below epsilon.

    Term j of the scaled series decays like R^(-pj); the estimate is the
    least J with R^(-pJ) < epsilon, i.e. ceil(-ln(epsilon) / (p ln R)).

    For p = 2 the decay is factorial and no finite geometric rate applies:
    the estimate is then the least J with 1 / (2J)! below epsilon, plus a
    safety margin of two terms, and pi_p is not used.
    """
    check_int("p", p, 2)
    check_finite("pi_p", pi_p)
    check_tolerance("epsilon", epsilon)
    if p == 2:
        # 1 / epsilon is taken exactly: below 2^-1024 its rounding is inf.
        limit = 1 / Fraction(epsilon)
        j = 1
        while math.factorial(2 * j) <= limit:
            j += 1
        return j + 2
    r = radius(p, pi_p)
    if r <= 1.0:
        raise ParameterError(f"decay rate {r} <= 1; pi_p value {pi_p} is not plausible")
    return math.ceil(-math.log(epsilon) / (p * math.log(r)))
