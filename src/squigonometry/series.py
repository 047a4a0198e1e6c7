"""MacLaurin tables for cq^m * sq^n.

The MacLaurin series of cq^m * sq^n collapses onto powers t^(n + pj),

    cq^m(t) sq^n(t) = sum_{j>=0} (-1)^j a_j t^(n + pj),
    a_j = F_j / (n + pj)!  > 0,

where F_j = q[n + pj][j] is the single surviving triangle entry at order
n + pj.  integer_maclaurin reads the exact F_j from triangle's row
generator, the one place the paper's recursion is written.  maclaurin gives
each a_j correctly rounded to binary64, at every p, from one integer Taylor
kernel for the ODE pair (Moore's Taylor-series method).  With u = t^p,
cq = c(u) and sq = t s(u),

    c_j = -H_(j-1) / (pj),   s_j = G_j / (pj + 1),   G = c^(p-1), H = s^(p-1),

G and H from J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).  The
signs alternate, so the kernel carries magnitudes, in 192-bit fixed point on
v = u / rho with rho near the radius of convergence, where they stay near
2^192 at every j.  The u^j coefficient x of c^m s^n (by square and multiply)
is rounded once, by the correctly rounded int/int division x / (rho^j 2^192).
_TaylorSeries holds c, s, G and H for one p, and one registry of the product
sequences c^k, s^k and c^m s^n, each formed once and extended, under one
lock, only as far as some stream reads it; a square sums each pair of equal
products once.  compute_pi keeps its series on the record, so beta_value's
streams, in any thread, extend it and its products rather than start again.

The series also holds pi_p correctly rounded, from one integer sum that
needs no table (_pi_series, 12 to 18 us at every p), so it sets rho and
sizes the tables, and compute_pi returns it.

estimate_terms converts a target tolerance into a series length using the
geometric decay rate of the scaled terms: coefficients decay like R^(-pj)
with R = (pi_p / 4) * sec(pi / p), which exceeds 1 for every p >= 3.  For
p = 2 the decay is factorial, not geometric, and the estimate counts
factorials instead.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, repeat
from operator import mul

from .errors import ConvergenceError, ParameterError
from .errors import check_finite, check_int, check_powers, check_tolerance
from .triangle import SquigParams, _rows

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

    Each is the correctly rounded F_j / (n + pj)!, with F_j the exact
    numerators of integer_maclaurin, from a fresh _TaylorSeries.  Requires
    m, n >= 0; raises ConvergenceError at the first a_j past binary64.

    Examples
    --------
    >>> t = maclaurin(SquigParams(p=4, m=0, n=1), 2)
    >>> t.floats[1] * math.factorial(5)
    18.0
    """
    check_powers(params.m, params.n)
    check_int("J", J, 0)
    return _TaylorSeries(params.p).table(params, J)


# Fraction bits of the kernel's fixed point, and the least scaled magnitude
# it rounds: 64 bits past binary64's 53.
_F = 192
_GUARD = 1 << 117

# Fraction bits _pi_series starts from; it rarely needs more.
_PI_BITS = 80

# Held by _TaylorSeries.extend; a lock on each series would stop records pickling.
_EXTEND_LOCK = threading.Lock()


def _miller(f: list[int], g: list[int], alpha: int, k: int) -> int:
    # g_k of g = f^alpha from f_1..f_k and g_0..g_(k-1), scaled by 2^F: the
    # sum of ((alpha + 1) i - k) f_i g_(k-i) / k, positive for positive f, g.
    weights = range(alpha + 1 - k, alpha * k + 1, alpha + 1)
    return sum(map(mul, map(mul, f[1 : k + 1], g[k - 1 :: -1]), weights)) // (k << _F)


def _product(left: list[int], right: list[int], j: int) -> int:
    # The u^j coefficient of left * right, scaled by 2^F and floored.  A square
    # pairs a_i a_(j-i) with a_(j-i) a_i: 2 sum_(i < j/2) a_i a_(j-i) + a_(j/2)^2,
    # the same integer as the plain sum from half its products.
    if left is not right:
        return sum(map(mul, left[: j + 1], right[j::-1])) >> _F
    x = sum(map(mul, left[: (j + 1) // 2], left[j : j // 2 : -1])) << 1
    return (x + left[j // 2] ** 2 if j % 2 == 0 else x) >> _F


class _TaylorSeries:
    """The kernel for one p: c[j] = floor(|c_j| rho^j 2^F), likewise s, g and h.

    pi_p and widenings come from _pi_series.  rho = r / 2^32 is R^p for
    R = radius(p, pi_p), capped at 2^16 (p = 2 is entire) and rounded up.
    At p = 2, G = c and H = s.

    products is one registry of the product sequences streams read, keyed by
    what each holds: (k, 0) is c^k and (0, k) is s^k, formed by square and
    multiply (c^2i as c^i squared, c^(2i+1) as c^2i times c), and (m, n) is
    c^m s^n, formed as c^m times s^n.  Each entry is (terms, left, right), and
    its terms are extended under the lock, only as far as some stream reads
    them, so every stream on the series shares them: the (m, n) and (n, m)
    halves of beta_value, and every later call on the same record.
    """

    def __init__(self, p: int) -> None:
        self.p, (self.pi_p, self.widenings) = p, _pi_series(p)
        self.r = math.ceil(math.ldexp(min(radius(p, self.pi_p) ** p, 2.0 ** 16), 32))
        self.c, self.s, self.g, self.h = ([1 << _F] for _ in range(4))
        self.products: dict[tuple[int, int], tuple[list[int], list[int], list[int]]] = {}

    def extend(self, J: int, chain: Iterable[tuple] = ()) -> None:
        """Extend c, s, g and h to J, then each product of chain, factors first."""
        p, c, s, g, h = self.p, self.c, self.s, self.g, self.h
        with _EXTEND_LOCK:
            for j in range(len(c), J + 1):
                c.append(self.r * h[j - 1] // (p * j << 32))
                g.append(_miller(c, g, p - 1, j) if p > 2 else c[j])
                s.append(g[j] // (p * j + 1))
                h.append(_miller(s, h, p - 1, j) if p > 2 else s[j])
            for terms, left, right in chain:
                for j in range(len(terms), J + 1):
                    terms.append(_product(left, right, j))

    def _terms(self, m: int, n: int, chain: list[tuple]) -> list[int]:
        # The terms of c^m s^n, m + n >= 1, under the lock: c^k or s^k by square
        # and multiply over the bits of k after the first, c^m s^n as c^m times
        # s^n.  Each product is registered once and goes onto chain after its
        # factors.  Sums of positive terms keep their precision where Miller's
        # cancelling sum loses it (p = 2).
        if m and n:
            return self._entry((m, n), self._terms(m, 0, chain), self._terms(0, n, chain), chain)
        unit, dm, dn = (self.c, 1, 0) if m else (self.s, 0, 1)
        terms, k = unit, 1
        for bit in bin(m + n)[3:]:
            k *= 2
            terms = self._entry((dm * k, dn * k), terms, terms, chain)
            if bit == "1":
                k += 1
                terms = self._entry((dm * k, dn * k), terms, unit, chain)
        return terms

    @contextmanager
    def undo_on_error(self) -> Iterator[None]:
        """If the block raises, drop the registry entries added meanwhile; a stream keeps its own."""
        with _EXTEND_LOCK:
            known = set(self.products)
        try:
            yield
        except BaseException:
            with _EXTEND_LOCK:
                for key in self.products.keys() - known:
                    del self.products[key]
            raise

    def _entry(self, key: tuple[int, int], left: list[int], right: list[int], chain: list) -> list[int]:
        entry = self.products.setdefault(key, ([1 << _F], left, right))
        chain.append(entry)
        return entry[0]

    def table(self, params: SquigParams, J: int) -> MacLaurinTable:
        return MacLaurinTable(params, tuple(islice(self.stream(params.m, params.n), J + 1)))

    def stream(self, m: int, n: int) -> Iterator[float]:
        """Yield a_0, a_1, ... of cq^m * sq^n without end, extending the series.

        a_j is x / (rho^j 2^F), x the u^j coefficient of c^m s^n, rounded by
        one int/int true division: (x << 32 j) / scale with scale = r^j 2^F.
        x is read from c, s or a registry entry; the lock is taken only to
        extend them when they are short.
        """
        if m == n == 0:  # cq^0 sq^0 = 1
            yield 1.0
            yield from repeat(0.0)
        chain: list[tuple] = []
        with _EXTEND_LOCK:
            terms = self._terms(m, n, chain)
        scale, at = 1 << _F, f"p={self.p}, m={m}, n={n}, j={{}}".format  # at(j) on error only
        for j in count():
            if j:
                if j >= len(terms):  # extend appends to c and s first, then to chain
                    self.extend(j, chain)
                scale *= self.r
            x = terms[j]
            if x < _GUARD and (_GUARD << 32 * j) / scale:
                raise ConvergenceError(f"fixed point too short for a MacLaurin coefficient at {at(j)}")
            try:
                value = (x << 32 * j) / scale
            except OverflowError:
                raise ConvergenceError(f"MacLaurin coefficient overflows binary64 at {at(j)}") from None
            yield value


def _pi_series(p: int) -> tuple[float, int]:
    # pi_p correctly rounded, and the widenings it took.  With c_k = ((1 - 1/p)_k
    # / k!) 2^-k, pi_p / 4 = (1 - T) S by the binomial series of the incomplete
    # Beta integral (DLMF 8.17), S = sum_k c_k / (pk + 1), and of 2^(-1/p) =
    # (1 - 1/2)^(1/p) = 1 - T, T = sum_(k>=1) c_(k-1) / (2pk).  Floored in G-bit
    # fixed point, c_k = c_(k-1) (pk - 1) / (2pk) is under 2 units low, so at
    # c_K = 0 S and T are under 2K + 2 units low, tail included.  Where the two
    # ends round apart, G widens by 64 bits (Ziv, ACM TOMS 17(3), 1991).
    for widenings in count():
        bits = _PI_BITS + 64 * widenings
        c = s = 1 << bits
        t = k = 0
        while c:
            k += 1
            t += c // (2 * p * k)
            c = c * (p * k - 1) // (2 * p * k)
            s += c // (p * k + 1)
        root, error, scale = (1 << bits) - t, 2 * k + 2, 1 << 2 * bits - 2
        low = (root - error) * s / scale
        if low == root * (s + error) / scale:
            return low, widenings


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
