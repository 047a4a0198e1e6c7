"""MacLaurin tables and quarter-period Taylor tables for cq^m * sq^n.

The MacLaurin series of cq^m * sq^n collapses onto powers t^(n + pj),

    cq^m(t) sq^n(t) = sum_{j>=0} (-1)^j a_j t^(n + pj),
    a_j = F_j / (n + pj)!  > 0,

where F_j = q[n + pj][j] is the single surviving triangle entry at order
n + pj.  maclaurin produces the a_j directly in binary64 by running the
coefficient recursion on scaled columns f_j = (k!) a_j inside the band, one
division per update, so each a_j is computed with a minimal number of
roundings (many small cases are exact, e.g. the degree-5 squine coefficient
of t^5/5! for p = 4 is exactly -0.15).  It is the package's one binary64
copy of the recursion.  integer_maclaurin produces the exact integer
numerators F_j instead, reading them from the exact row generator in
triangle, the one place the integer recursion is written.

estimate_terms converts a target tolerance into a series length using the
geometric decay rate of the scaled terms: coefficients decay like R^(-pj)
with R = (pi_p / 4) * sec(pi / p), which exceeds 1 for every p >= 3.  For
p = 2 the decay is factorial, not geometric, and the estimate returns the
sentinel 0 (callers pick the factorial rule instead).

taylor_quarter expands about the quarter period t = pi_p / 4, where
cq = sq = 2^(-1/p).  The k-th Taylor coefficient is

    f_k = 2^(-h_k / p) / k! * sum_j (-1)^j q[k][j],   h_k = n + m + k(p - 2),

so taylor_quarter sums the exact integer rows from the triangle row
generator and rounds each quotient by k! once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import ParameterError, check_finite, check_int, check_powers, check_tolerance
from .triangle import SquigParams, _rows, ceil_div

#: Unit roundoff of binary64; default tolerance target for table sizing.
EPS_DEFAULT = 2.0 ** -53


@dataclass(frozen=True)
class MacLaurinTable:
    """Unsigned scaled MacLaurin coefficients a_j of cq^m * sq^n.

    floats[j] holds a_j = F_j / (n + pj)! as a binary64 value; the series is
    sum_j (-1)^j floats[j] t^(n + pj).  numerators, when present, carries the
    exact integers F_j alongside.
    """

    params: SquigParams
    J: int
    floats: tuple[float, ...]
    numerators: tuple[int, ...] | None = None

    def power(self, j: int) -> int:
        """Exponent of t multiplying the j-th coefficient."""
        return self.params.n + self.params.p * j

    def signed(self, j: int) -> float:
        """Signed coefficient (-1)^j a_j."""
        return self.floats[j] if j % 2 == 0 else -self.floats[j]


def maclaurin(params: SquigParams, J: int, with_numerators: bool = False) -> MacLaurinTable:
    """Scaled MacLaurin coefficients a_0..a_J of cq^m * sq^n in binary64.

    Runs the coefficient recursion in place on an array of J + 1 scaled
    columns.  Column j freezes once the recursion passes order n + pj and
    from then on holds a_j exactly as computed.  Updates walk the banded
    column range top-down so each row is formed from the previous row only,
    and each update performs the two integer scalings before a single divide
    by k + 1.

    Parameters
    ----------
    params : SquigParams
        Requires m, n >= 0.
    J : int
        Last coefficient index; the recursion runs to order n + p*J.
    with_numerators : bool
        Also compute the exact integer numerators F_j (slower; the float
        path never touches big integers).

    Examples
    --------
    >>> t = maclaurin(SquigParams(p=4, m=0, n=1), 2)
    >>> t.floats[1] * math.factorial(5)
    18.0
    """
    check_powers(params.m, params.n)
    check_int("J", J, 0)
    p, m, n = params.p, params.m, params.n
    f = [0.0] * (J + 1)
    f[0] = 1.0
    for k in range(n + p * J):
        j_lo = max(ceil_div(k + 1 - n, p), 0)
        j_hi = min(k + 1 - ceil_div(k + 1 - m, p), J)
        for j in range(j_hi, j_lo, -1):
            f[j] = ((n - k + p * j) * f[j] + (m + k * (p - 1) - p * (j - 1)) * f[j - 1]) / (k + 1)
        # At the bottom of the band the subdiagonal neighbor j_lo - 1 froze at
        # an earlier order; include it only when it froze at exactly order k,
        # otherwise its stored value belongs to a lower row and must not leak in.
        if (k - n) % p > 0 or j_lo == 0:
            f[j_lo] = ((n - k + p * j_lo) * f[j_lo]) / (k + 1)
        else:
            f[j_lo] = (
                (n - k + p * j_lo) * f[j_lo]
                + (m + k * (p - 1) - p * (j_lo - 1)) * f[j_lo - 1]
            ) / (k + 1)
    numerators = integer_maclaurin(params, J) if with_numerators else None
    return MacLaurinTable(params=params, J=J, floats=tuple(f), numerators=numerators)


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
    orders = islice(_rows(params, {0: 1}, 0, J), n, n + p * J + 1, p)
    return tuple(row.get(j, 0) for j, row in enumerate(orders))


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

    Returns the sentinel 0 for p = 2, where decay is factorial and no finite
    geometric rate applies; callers choose a factorial-based count instead.
    """
    check_int("p", p, 2)
    check_finite("pi_p", pi_p)
    check_tolerance("epsilon", epsilon)
    if p == 2:
        return 0
    r = radius(p, pi_p)
    if r <= 1.0:
        raise ParameterError(f"decay rate {r} <= 1; pi_p value {pi_p} is not plausible")
    return math.ceil(-math.log(epsilon) / (p * math.log(r)))


@dataclass(frozen=True)
class TaylorTable:
    """Taylor coefficients f_0..f_K of cq^m * sq^n about the quarter period."""

    params: SquigParams
    K: int
    coeffs: tuple[float, ...]


def taylor_quarter(params: SquigParams, K: int) -> TaylorTable:
    """Taylor table of cq^m * sq^n about t = pi_p / 4, orders 0..K.

    At the quarter period cq = sq = 2^(-1/p), so every term of row k of the
    derivative expansion evaluates to the common power 2^(-h_k / p) with
    h_k = n + m + k(p - 2), leaving the alternating row sum.  Each row sum is
    exact; its quotient by k! is rounded once and scaled by the power, split
    as 2^(-(h_k mod p)/p) times an exact power of two.
    """
    check_powers(params.m, params.n)
    check_int("K", K, 0)
    p, m, n = params.p, params.m, params.n
    coeffs: list[float] = []
    for k, row in enumerate(islice(_rows(params, {0: 1}, 0), K + 1)):
        h = n + m + k * (p - 2)
        alternating = sum(v if j % 2 == 0 else -v for j, v in row.items())
        power = math.ldexp(2.0 ** (-(h % p) / p), -(h // p))
        coeffs.append(power * float(Fraction(alternating, math.factorial(k))))
    return TaylorTable(params=params, K=K, coeffs=tuple(coeffs))
