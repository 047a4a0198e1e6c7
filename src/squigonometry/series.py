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
_TaylorSeries holds c, s, G and H for one p and owns their fixed-point
format: a table of a known length J forms c^k, s^k and c^m s^n to J over
plain lists, a square summing each pair of equal products once.
coefficients gives a table's terms one at a time, so compute_pi, which cuts
each table at its first term on [0, pi_p / 4] within epsilon / 64 of the
leading one (_cut), extends the series no further.  nodes gives the Taylor
coefficients of sq and cq about t0 as floats, by the same recurrence in
t - t0 from cq(t0) and sq(t0); the triangle rows are their oracle in the
tests.

_binomial_sums is the paper's binomial series, the one integer kernel for
the inverse squine: at a ratio z = num / den <= 1/2 it sums
S(z) = sum_k ((1 - a)_k / k!) z^k / (pk + n + 1) and (1 - z)^a.  At z = 1/2,
_beta_series takes from it the Beta values B((m+1)/p, (n+1)/p) correctly
rounded, with no table, in 15 to 40 us for m, n < p; pi_p = 2 B(1/p, 1/p) / p
sets rho and sizes the tables, and compute_pi returns it.  At z = sq(t0)^p,
arcsq(sq(t0)) = sq(t0) S(z) and cq(t0) = (1 - z)^(1/p), so one Newton step
gives each node its values (_node_values).

estimate_terms converts a target tolerance into a series length using the
geometric decay rate of the scaled terms: coefficients decay like R^(-pj)
with R = (pi_p / 4) * sec(pi / p), which exceeds 1 for every p >= 3.  For
p = 2 the decay is factorial, not geometric, and the estimate counts
factorials instead.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from operator import mul

from .errors import ConvergenceError, CostGuardError, ParameterError
from .errors import check_finite, check_int, check_powers, check_tolerance, shown
from .triangle import SquigParams, _rows

#: Unit roundoff of binary64; default tolerance target for table sizing.
EPS_DEFAULT = 2.0 ** -53

#: Ceiling on the table length J, maclaurin's and compute_pi's J_used.  A table
#: costs about J^2 (7.6 s at J = 5710, p = 512 at EPS_DEFAULT), J about 11 p there;
#: compute_pi builds only its cut for [0, pi_p / 4], about half of J (1.7 s).
MAX_PI_TERMS = 8192


@dataclass(frozen=True)
class MacLaurinTable:
    """Unsigned scaled MacLaurin coefficients a_0..a_J of cq^m * sq^n.

    floats[j] holds a_j = F_j / (n + pj)! as a binary64 value; the series is
    sum_j (-1)^j floats[j] t^(n + pj).  J is len(floats) - 1, and the exact
    integers F_j come from integer_maclaurin.  params must be a SquigParams,
    and floats a non-empty tuple of floats, NaN allowed.
    """

    params: SquigParams
    floats: tuple[float, ...]

    def __post_init__(self) -> None:
        floats = self.floats
        if not (isinstance(self.params, SquigParams) and isinstance(floats, tuple) and floats
                and all(isinstance(a, float) for a in floats)):
            raise ParameterError("a MacLaurinTable needs SquigParams and a tuple of floats a_0..a_J")

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
    m, n >= 0 and J <= MAX_PI_TERMS (else CostGuardError); raises
    ConvergenceError at the first a_j past binary64.

    Examples
    --------
    >>> t = maclaurin(SquigParams(p=4, m=0, n=1), 2)
    >>> t.floats[1] * math.factorial(5)
    18.0
    """
    check_powers(params.m, params.n)
    check_int("J", J, 0)
    if J > MAX_PI_TERMS:
        raise CostGuardError(f"J={shown(J)} exceeds the table cap {MAX_PI_TERMS}")
    return _TaylorSeries(params.p).table(params, J)


# Fraction bits of the kernel's fixed point, and the least scaled magnitude
# it rounds: 64 bits past binary64's 53.
_F = 192
_GUARD = 1 << 117

# Fraction bits _beta_series starts from; it rarely needs more.
_BETA_BITS = 80

# Fraction bits of a node's Newton step; its values keep 128 of them.
_NODE_BITS = 136


def _miller(f: list[int], g: list[int], alpha: int, k: int) -> int:
    # g_k of g = f^alpha from f_0..f_k and g_0..g_(k-1), all in one fixed point
    # with f_0 > 0: the sum of ((alpha + 1) i - k) f_i g_(k-i) / (k f_0), floored.
    # The MacLaurin kernel's f_0 is 1, 2^F scaled; a node's is cq or sq there.
    weights = range(alpha + 1 - k, alpha * k + 1, alpha + 1)
    return sum(map(mul, map(mul, f[1 : k + 1], g[k - 1 :: -1]), weights)) // (k * f[0])


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

    pi_p and widenings come from _beta_series.  rho = r / 2^32 is R^p for
    R = radius(p, pi_p), capped at 2^16 (p = 2 is entire) and rounded up.
    At p = 2, G = c and H = s.  table and coefficients extend the lists in
    place; nodes reads none of them.
    """

    def __init__(self, p: int) -> None:
        self.p, (self.pi_p, self.widenings) = p, _beta_series(p, 0, 0, 2)
        rho = radius(p, self.pi_p) ** min(p, 1 << 64)  # R = 1.0 from p = 2^29 on (radius)
        self.r = math.ceil(math.ldexp(min(rho, 2.0 ** 16), 32))
        self.c, self.s, self.g, self.h = ([1 << _F] for _ in range(4))

    def extend(self, J: int) -> None:
        """Extend c, s, g and h to J."""
        p, c, s, g, h = self.p, self.c, self.s, self.g, self.h
        for j in range(len(c), J + 1):
            c.append(self.r * h[j - 1] // (p * j << 32))
            g.append(_miller(c, g, p - 1, j) if p > 2 else c[j])
            s.append(g[j] // (p * j + 1))
            h.append(_miller(s, h, p - 1, j) if p > 2 else s[j])

    def table(self, params: SquigParams, J: int) -> MacLaurinTable:
        """a_0..a_J of cq^m * sq^n, extending the series to J."""
        if params.m == params.n == 0:  # cq^0 sq^0 = 1
            return MacLaurinTable(params, (1.0,) + (0.0,) * J)
        return MacLaurinTable(params, tuple(self.coefficients(params, J)))

    def coefficients(self, params: SquigParams, J: int) -> Iterator[float]:
        """a_0..a_J of cq^m * sq^n, m + n >= 1, one at a time.

        a_j is x / (rho^j 2^F), x the u^j coefficient of c^m s^n, rounded by
        one int/int true division: (x << 32 j) / scale with scale = r^j 2^F.
        For sq and cq (m + n = 1) x is c[j] or s[j] and the series is extended
        a term at a time, so a reader that stops at a_k extends it to k only.
        """
        m, n, p = params.m, params.n, self.p
        scale, j = 1 << _F, 1
        at = lambda j: f"p={shown(p)}, m={shown(m)}, n={shown(n)}, j={j}"  # on error only
        try:
            if J:  # a_1 = (m (p + 1) + n) / (p (p + 1)) is refused before any power is formed
                (m * (p + 1) + n) / (p * (p + 1))
            for j, x in enumerate(self._column(m, J) if m + n == 1 else self._terms(m, n, J)):
                if x < _GUARD and (_GUARD << 32 * j) / scale:
                    raise ConvergenceError(f"fixed point too short for a MacLaurin coefficient at {at(j)}")
                yield (x << 32 * j) / scale
                scale *= self.r
        except OverflowError:
            raise ConvergenceError(f"MacLaurin coefficient overflows binary64 at {at(j)}") from None

    def _column(self, m: int, J: int) -> Iterator[int]:
        # c[0..J] at m = 1, else s[0..J], the series extended as each is read.
        column = self.c if m else self.s
        for j in range(J + 1):
            if j == len(column):
                self.extend(j)
            yield column[j]

    def _terms(self, m: int, n: int, J: int) -> list[int]:
        # The u^0..u^J coefficients of c^m s^n, m + n >= 1, the series extended
        # to J: c^k or s^k by square and multiply over the bits of k after the
        # first, c^m s^n as c^m times s^n.  Sums of positive terms keep their
        # precision where Miller's cancelling sum loses it (p = 2).
        self.extend(J)
        if m and n:
            return _products(self._terms(m, 0, J), self._terms(0, n, J))
        unit = terms = (self.c if m else self.s)[: J + 1]
        for bit in bin(m + n)[3:]:
            terms = _products(terms, terms)
            if bit == "1":
                terms = _products(terms, unit)
        return terms

    def nodes(self, t0s: list[float], start: float, degree: int) -> Iterator[tuple[tuple[float, ...], tuple[float, ...]]]:
        """Node entries (t0, hi, lo, b_1, ..., b_degree) of sq and of cq about each t0 of t0s, in [1/4, 1), p >= 3.

        b_k is the h^k coefficient of y = sq(t0 + h) or x = cq(t0 + h): y_k =
        G_(k-1) / k and x_k = -H_(k-1) / k, G = x^(p-1) and H = y^(p-1), in
        128-bit fixed point from _node_values, each rounded once; hi + lo is
        y_0 or x_0.  start is sq(t0s[0]) to about 2^-50, and each node's own
        polynomial at the next t0, to about 2^-51, starts the next.
        """
        p, one = self.p, 1 << 128
        for t0, after in zip(t0s, [*t0s[1:], t0s[-1]]):
            x, y, g, h = ([v] for v in _node_values(p, t0, start))
            for k in range(1, degree + 1):
                x.append(-h[k - 1] // k)
                y.append(g[k - 1] // k)
                if k < degree:
                    g.append(_miller(x, g, p - 1, k))
                    h.append(_miller(y, h, p - 1, k))
            # hi > 2^-75 has no bits below 2^-128, so hi * one is an int.
            yield tuple((t0, hi, (v[0] - int(hi * one)) / one, *(b / one for b in v[1:]))
                        for v in (y, x) for hi in [v[0] / one])
            step, start = int(math.ldexp(after - t0, 128)), 0  # t0 and after are multiples of 2^-54
            for b in reversed(y):
                start = b + (start * step >> 128)
            start /= one


# A table for [0, top] ends before its first term there within this share of
# epsilon times its leading coefficient.
_TRIM = 1.0 / 64.0


def _cut(params: SquigParams, floats: Iterable[float], top: float, epsilon: float) -> MacLaurinTable:
    # The table of a_0..a_(k-1) from floats, a_k the first whose term
    # a_k x^(pk) at x = nextafter(top) is within _TRIM * epsilon * a_0, or of
    # every float if none is; floats is read no further than a_k.  A scan
    # from the deep end keeps the same prefix wherever no term past a_k is
    # back above the bound; the tests hold the two to each other on every
    # (p, epsilon) of the output digest's compute_pi and build_context
    # sweeps.  top < 1, so no term overflows.
    floats = iter(floats)
    kept = [next(floats)]
    x, bound = math.nextafter(top, math.inf), _TRIM * epsilon * kept[0]
    for a in floats:
        if a * x ** (params.p * len(kept)) <= bound:
            break
        kept.append(a)
    return MacLaurinTable(params, tuple(kept))


def _products(left: list[int], right: list[int]) -> list[int]:
    # The u^0..u^J coefficients of left * right, J + 1 the length of left.
    return [_product(left, right, j) for j in range(len(left))]


def _beta_series(p: int, m: int, n: int, scale: int) -> tuple[float, int]:
    # scale / p B(a, b), a = (m + 1) / p and b = (n + 1) / p, correctly rounded,
    # and the widenings it took.  B(a + 1, b) = B(a, b) a / (a + b) (DLMF 5.12.1)
    # takes m to m0 = m mod p by factors (m' + 1) / (m' + n + 2), then n likewise
    # with m0: num / den.  At m0, n0, B / p = 2^(-b) S_(m,n) + 2^(-a) S_(n,m), the
    # two halves of the arclength integral, between low and high by the bounds
    # of _binomial_sums; where those round apart, G widens by 64 bits (Ziv, ACM
    # TOMS 17(3), 1991).  That ends where a, b < 1: B is transcendental there
    # (Schneider, 1941), so never a rounding tie.  Where a = 1 or b = 1, B(1, b) / p
    # = 1 / (pb) is rational and may be a tie, so it is one division.  A value past
    # binary64 raises OverflowError, and one far below it gives 0.0.
    m0, n0 = m % p, n % p
    num = scale * _range_product(range(m0 + 1, m + 1, p)) * _range_product(range(n0 + 1, n + 1, p))
    den = _range_product(range(m0 + n + 2, m + n + 2, p)) * _range_product(range(m0 + n0 + 2, m0 + n + 2, p))
    if p - 1 in (m0, n0):
        return num / (den * (n0 + 1 if m0 == p - 1 else m0 + 1)), 0
    for widenings in count():
        bits = _BETA_BITS + 64 * widenings
        s_mn, root_m, e_m = _binomial_sums(p, m0, n0, bits, 1, 2)
        s_nm, root_n, e_n = (s_mn, root_m, e_m) if m0 == n0 else _binomial_sums(p, n0, m0, bits, 1, 2)
        low = (root_n - e_n) * s_mn + (root_m - e_m) * s_nm
        high = root_n * (s_mn + e_m) + root_m * (s_nm + e_n)
        value = num * low / (den << 2 * bits)
        if value == num * high / (den << 2 * bits):
            return value, widenings


def _binomial_sums(p: int, m: int, n: int, bits: int, num: int, den: int) -> tuple[int, int, int]:
    # S_(m,n)(z) and (1 - z)^a = 1 - T_m(z) in G-bit fixed point at z = num / den
    # <= 1/2 for m, n < p, and e, with S and T each under e units low.  With
    # c_k = ((1 - a)_k / k!) z^k, a = (m + 1) / p, integral_0^x u^n (1 - u^p)^(a - 1)
    # du is x^(n+1) S_(m,n)(z) at z = x^p, S_(m,n) = sum_k c_k / (pk + n + 1)
    # (DLMF 8.17; at m = n = 0, x S is arcsq(x)), and (1 - z)^a = 1 - T_m, T_m =
    # sum_(k>=1) (m + 1) c_(k-1) z / (pk).  Each ratio c_k / c_(k-1) lies in
    # [0, 1/2), so the floored c_k is under 2 units low, and at c_K = 0 S and T
    # are under e = 2K + 2 units low, tail included.
    c, s, t, pk, ratio = 1 << bits, (1 << bits) // (n + 1), 0, 0, (m + 1) * num
    while c:
        pk += p  # p k
        step = den * pk
        t += ratio * c // step
        c = c * (num * (pk - m - 1)) // step
        s += c // (pk + n + 1)
    return s, (1 << bits) - t, 2 * pk // p + 2


def _node_values(p: int, t0: float, start: float) -> tuple[int, int, int, int]:
    # cq(t0), sq(t0), cq(t0)^(p-1) and sq(t0)^(p-1) in 128-bit fixed point,
    # for t0 in [1/4, pi_p / 4] and start sq(t0) to about 2^-50, by one Newton
    # step at _NODE_BITS.  At y = start, z = y^p <= 1/2 gives arcsq(y) = y S(z)
    # and x = (1 - z)^(1/p) from one binomial sum; y is sq at t0 + r, r =
    # arcsq(y) - t0, and sq' = G = cq^(p-1) = (1 - z) / x, cq' = -H = -sq^(p-1)
    # = -z / y, so y - r G and x + r H are sq(t0) and cq(t0) to about r^2.
    bits = _NODE_BITS
    unit, y = 1 << bits, int(math.ldexp(start, bits))
    z = y ** p >> bits * (p - 1)
    s, x, _ = _binomial_sums(p, 0, 0, bits, z, unit)
    r = (y * s >> bits) - int(math.ldexp(t0, bits))  # t0 >= 1/4 has no bits below 2^-54
    y, x = y - r * (unit - z) // x, x + r * z // y
    z = y ** p >> bits * (p - 1)
    return tuple(v >> bits - 128 for v in (x, y, ((unit - z) << bits) // x, (z << bits) // y))


def _range_product(factors: range) -> int:
    # The product by halves, so that big operands meet in few multiplies.
    half = len(factors) // 2
    if half < 16:
        return math.prod(factors)
    return _range_product(factors[:half]) * _range_product(factors[half:])


def integer_maclaurin(params: SquigParams, J: int) -> tuple[int, ...]:
    """Exact integer numerators F_0..F_J with F_j = q[n + pj][j].

    Runs the exact row generator to order n + p*J, holding one row at a
    time and no column above J, and reads one entry per target order.
    F_j / (n + pj)! reproduces maclaurin floats up to one rounding.  The
    constant function (m = n = 0) gives (1, 0, ..., 0).
    """
    check_powers(params.m, params.n)
    p, n = params.p, params.n
    # islice's bound: orders n to n + pJ, each below sys.maxsize.
    check_int("n", n, 0, sys.maxsize - 1)
    check_int("J", J, 0, (sys.maxsize - 1 - n) // p)
    orders = islice(_rows(params, (0, [1]), 0, J), n, n + p * J + 1, p)
    return tuple(
        row[j - lo] if 0 <= j - lo < len(row) else 0 for j, (lo, row) in enumerate(orders)
    )


def radius(p: int, pi_p: float) -> float:
    """Geometric decay rate R = (pi_p / 4) sec(pi / p) of the scaled terms.

    R > 1 for p >= 3, but 1.0 in binary64 from p = 2^29 on.  For p = 2 the
    secant pole makes R infinite, matching the entire function there (terms
    decay factorially).  pi_p is taken as a float.
    """
    check_int("p", p, 2)
    check_finite("pi_p", pi_p)
    if p == 2:
        return math.inf
    # cos(pi / p) is 1.0 from p near 3e8 on: the cap keeps p off a float conversion.
    return (float(pi_p) / 4.0) / math.cos(math.pi / min(p, 1 << 64))


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
    # epsilon is taken exactly: a Fraction below binary64's least subnormal
    # rounds to 0.0, and 1 / epsilon below 2^-1024 to inf.
    num, den = Fraction(epsilon).as_integer_ratio()
    if p == 2:
        j = 1
        while math.factorial(2 * j) * num <= den:
            j += 1
        return j + 2
    r = radius(p, pi_p)
    if r <= 1.0:
        raise ParameterError(f"decay rate {r} <= 1 at p={shown(p)}, pi_p={pi_p}: no geometric decay to size by")
    log = math.log(num / den) if num / den == epsilon else math.log(num) - math.log(den)
    return math.ceil(-log / (p * math.log(r)))
