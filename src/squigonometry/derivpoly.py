"""Derivative rows as polynomials in u = sq^p / (cq^p - 1), and their roots.

On the first quadrant put u = sq^p(t) / (cq^p(t) - 1), which sweeps the
negative axis.  Factoring the common power out of the k-th derivative row of
cq^m sq^n leaves a polynomial Q_k(u) = sum_j q[k][j] u^j whose coefficients
are the unsigned triangle entries, linked level to level by

    Q_(k+1) = (n - k + (m + k(p-1)) u) Q_k + p u (1 - u) Q_k'.

Zeros of the k-th derivative in the open quadrant correspond one-to-one to
negative real roots of Q_k after deflating the power u^z carried by the band
offset z = max(0, ceil((k-n)/p)).  Consecutive levels strictly interlace,
which drives the root finder: each gap between the current level's roots,
an outer Cauchy bound and 0 holds at most one root of the next, so one scan
of signs at those probes brackets them all and regula falsi pins them down.
Each sign is a filtered exact predicate: a binary64 Horner sum answers when
it exceeds a rigorous bound on its own rounding error, and the exact integer
sum decides everything else; only these signs move a bracket, so the roots
are those of bisection with exact signs, bit for bit.  The count per level is
forced by the band width; a mismatch raises RootCountError rather than
returning a guess.

Given a root u < 0, the defining relations invert to exact function values

    cq = (1 - u)^(-1/p),   sq = (u / (u - 1))^(1/p),

so each interior zero of the k-th derivative yields algebraic squine and
cosquine values there.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import islice

from .constants import MAX_BETA_BITS
from .errors import CostGuardError, DomainError, ParameterError, RootCountError
from .errors import check_finite, check_int, check_powers, shown
from .evalcore import EvalContext
from .triangle import CoeffTriangle, SquigParams, _rows

_MIN_GAP = 1e-10


@dataclass(frozen=True)
class DerivPolynomial:
    """Level-k polynomial Q_k; coeffs[j] = q[k][j], dense, length k + 1."""

    params: SquigParams
    k: int
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class RootSet:
    """Negative real roots of one level, after deflating u^zero_multiplicity."""

    k: int
    zero_multiplicity: int
    negative_roots: tuple[float, ...]


def q_polynomial(tri: CoeffTriangle, k: int) -> DerivPolynomial:
    """Dense polynomial view of triangle row k."""
    check_int("k", k, 0, tri.K)
    row = tri.rows[k]
    return DerivPolynomial(
        params=tri.params,
        k=k,
        coeffs=tuple(row.get(j, 0) for j in range(k + 1)),
    )


def polynomial_step(q: DerivPolynomial) -> DerivPolynomial:
    """Advance one level by the first-order recurrence in exact integers.

    Implements Q_(k+1) = (n - k + (m + k(p-1)) u) Q_k + p u (1 - u) Q_k';
    coefficient-by-coefficient this is the two-term triangle recursion, so
    the step runs the triangle's row generator once.
    """
    _, (lo, row) = islice(_rows(q.params, (0, list(q.coeffs)), q.k), 2)
    coeffs = ((0,) * lo + tuple(row) + (0,) * (q.k + 2))[: q.k + 2]
    return DerivPolynomial(params=q.params, k=q.k + 1, coeffs=coeffs)


def kth_derivative_value(ctx: EvalContext, tri: CoeffTriangle, k: int, t: float) -> float:
    """Value of d^k/dt^k [cq^m sq^n] at t from triangle row k.

    Sums (-1)^j q[k][j] cq^a sq^b over the row with the exponents
    a = m + k(p-1) - pj, b = n - k + pj, both >= 0 on the band.  The row
    rests on sq' = cq^(p-1) and cq' = -sq^(p-1), true on the whole line at
    even p but not at odd p where cq or sq is negative (p = 3, t = 1.4 pi_p
    / 2: sq' = -0.446, cq^2 = +0.446), so t is restricted to the open first
    quadrant.  A coefficient past binary64 (from k = 152 at p = 4, m = 1,
    n = 0) raises CostGuardError.
    """
    if ctx.p != tri.params.p:
        raise ParameterError(f"context is for p={shown(ctx.p)}, triangle for p={shown(tri.params.p)}")
    check_int("k", k, 0, tri.K)
    check_finite("t", t)
    if not 0.0 < t < ctx.half:
        raise DomainError(f"t={t!r} outside the open first quadrant")
    p, m, n = tri.params.p, tri.params.m, tri.params.n
    cq_val, sq_val = ctx.evaluators.pair(t)
    total = 0.0
    try:
        for j, coef in sorted(tri.rows[k].items()):
            term = float(coef) * cq_val ** (m + k * (p - 1) - p * j) * sq_val ** (n - k + p * j)
            total += term if j % 2 == 0 else -term
    except OverflowError:  # float(coef); both powers lie in [0, 1]
        raise CostGuardError(f"a row-{k} coefficient overflows binary64") from None
    return total


# ---------------------------------------------------------------------------
# Exact sign evaluation and root isolation.

def _sign_at_dyadic(coeffs: list[int], value: float) -> tuple[int, float]:
    # Sign of sum coeffs[i] * value^i, exactly, and the sum in binary64, NaN
    # from 2^1023 on.  A binary64 value is num / 2^s, so 2^(s*d) times the sum
    # for degree d is one integer Horner pass with no gcd.
    num, den = value.as_integer_ratio()
    s = den.bit_length() - 1
    acc = 0
    shift = 0
    for c in reversed(coeffs):
        acc = acc * num + (c << shift)
        shift += s
    fits = acc.bit_length() <= shift - s + 1023  # |sum| < 2^1023: int / int cannot overflow
    return (acc > 0) - (acc < 0), acc / (1 << shift - s) if fits else math.nan


#: Degrees up to this keep the float filter's error bound rigorous.
_FILTER_MAX_DEGREE = 2 ** 17
#: A probe of a polynomial: binary64 x -> (its certified sign at x, its value).
_Probe = Callable[[float], tuple[int, float]]


def _filtered_sign(coeffs: list[int]) -> _Probe:
    """Sign and value of sum coeffs[i] * x^i at binary64 x, float first.

    The coefficients are rounded to binary64 once, here.  Each probe runs one
    Horner pass for the value v and one for mag = sum w_i |x|^i with
    w_i = max(|fl(c_i)|, 1).  For degree d <= _FILTER_MAX_DEGREE the error of
    v against the exact sum is below (2d + 4) u mag, u = 2^-53: the Horner
    rounding gamma_2d (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 5.1), plus u for rounding the coefficients,
    plus the underflow of a product, at most 2^-1075 times a power of |x| that
    mag already carries since every w_i >= 1, plus the rounding of mag and of
    the bound itself.  Rounding is monotone, so |v| never exceeds mag before
    mag does and a finite mag means a finite v.  When |v| exceeds the bound
    the float sign is certain, with v; otherwise, and for a non-finite mag,
    the exact _sign_at_dyadic decides (a filtered exact predicate, Shewchuk,
    Discrete Comput. Geom. 18, 1997).  A coefficient past binary64 or a
    degree past the limit sends every probe to the exact sign.
    """
    exact = partial(_sign_at_dyadic, coeffs)
    if len(coeffs) > _FILTER_MAX_DEGREE + 1:
        return exact
    try:
        floats = [float(c) for c in reversed(coeffs)]
    except OverflowError:
        return exact
    pairs = [(f, max(abs(f), 1.0)) for f in floats]
    scale = (2 * len(coeffs) + 2) * 2.0 ** -53  # (2d + 4) u for degree d

    def sign(x: float) -> tuple[int, float]:
        ax = abs(x)
        value = mag = 0.0
        for c, w in pairs:
            value = value * x + c
            mag = mag * ax + w
        # An infinite or NaN mag fails this test.
        if abs(value) > scale * mag:
            return (1 if value > 0.0 else -1), value
        return exact(x)

    return sign


def _cauchy_bound(coeffs: list[int]) -> float:
    # int / int true division is correctly rounded.
    return 1.0 + max(map(abs, coeffs[:-1]), default=0) / abs(coeffs[-1])


def _isolate(sign: _Probe, lo: float, hi: float, s_lo: int, f_lo: float, f_hi: float) -> float:
    # Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): the secant
    # through both ends, halving the value of an end kept twice in a row,
    # and probing an end's neighbour where the secant lands on or past it.
    # While both ends are negative and a factor 2 apart the step is their
    # geometric mean; it is the midpoint where the secant is NaN and once the
    # bracket has not halved in three probes.  Only certified signs move an
    # end, so the root is bisection's, bit for bit.
    side, tries, width = 0, 0, hi - lo
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if hi - lo <= 0.5 * width:
            tries, width = 0, hi - lo
        x = lo - f_lo * ((hi - lo) / (f_hi - f_lo)) if tries < 3 and f_lo != f_hi else mid
        if lo < 2.0 * hi < 0.0:
            x = -math.sqrt(lo * hi)
        elif x <= lo or x >= hi:
            x = math.nextafter(lo if x <= lo else hi, mid)
        if not lo < x < hi:  # NaN, or a geometric mean out of range
            x = mid
        tries += 1
        s, v = sign(x)
        if s == 0:
            return x
        if s == s_lo:
            lo, f_lo, f_hi, side = x, v, f_hi * 0.5 if side > 0 else f_hi, 1
        else:
            hi, f_hi, f_lo, side = x, v, f_lo * 0.5 if side < 0 else f_lo, -1
    return mid


def _bracketed_roots(sign: _Probe, probes: list[float], expected: int) -> list[float]:
    # Interlacing leaves at most one root between consecutive probes, so one
    # scan of their signs brackets every root or the count contradicts theory.
    ends = [(x, *sign(x)) for x in probes]
    brackets = [(a, b) for a, b in zip(ends, ends[1:]) if a[1] * b[1] < 0]
    if len(brackets) != expected:
        raise RootCountError(f"found {len(brackets)} sign changes, expected {expected} roots")
    return [_isolate(sign, lo, hi, s, f_lo, f_hi) for (lo, s, f_lo), (hi, _, f_hi) in brackets]


def root_ladder(params: SquigParams, k_max: int) -> list[RootSet]:
    """Negative roots of every level 0..k_max, each bracketed by the last.

    Walks the triangle's band rows upward; level k + 1 roots are isolated
    between consecutive level-k roots together with an outer Cauchy bound
    and 0.  All sign decisions are exact, so the forced per-level root count
    either comes out right or raises RootCountError.
    """
    check_powers(params.m, params.n)
    if params.m == 0 and params.n == 0:
        raise ParameterError("the constant function (m = n = 0) has no derivative roots")
    check_int("k_max", k_max, 0, sys.maxsize - 1)  # islice's bound
    ladder: list[RootSet] = []
    prev_roots: list[float] = []
    for k, (lo, coeffs) in enumerate(islice(_rows(params, (0, [1]), 0), k_max + 1)):
        # The band row is trimmed at both ends, so it starts at the deflated
        # power u^lo and its degree is the forced root count.
        probes = [-_cauchy_bound(coeffs)] + prev_roots + [0.0]
        roots = _bracketed_roots(_filtered_sign(coeffs), probes, len(coeffs) - 1)
        ladder.append(RootSet(k=k, zero_multiplicity=lo, negative_roots=tuple(roots)))
        prev_roots = roots
    return ladder


def real_roots(q: DerivPolynomial) -> RootSet:
    """Negative roots of one level; computed by climbing the full ladder.

    q.coeffs must be the dense level-q.k row of q.params, as q_polynomial and
    polynomial_step give it; any other tuple raises ParameterError, since the
    ladder reads its rows from q.params alone.
    """
    check_int("k", q.k, 0, sys.maxsize)  # islice's bound
    lo, row = next(islice(_rows(q.params, (0, [1]), 0), q.k, None))
    if q.coeffs != (0,) * lo + tuple(row) + (0,) * (q.k + 1 - lo - len(row)):
        raise ParameterError(f"coeffs are not the level-{q.k} row of {q.params}")
    return root_ladder(q.params, q.k)[q.k]


def interlacing_check(lower: RootSet, upper: RootSet) -> bool:
    """Whether two consecutive levels' roots strictly interlace.

    Merged in increasing order, roots must alternate between the two levels
    (counts differing by at most one), sit at least _MIN_GAP = 1e-10 apart
    and lie in (-inf, -_MIN_GAP); a NaN root fails.  Both orientations are
    accepted: depending on which band edge moves, either level may own the
    leftmost root.
    """
    u = upper.negative_roots
    v = lower.negative_roots
    if abs(len(u) - len(v)) > 1:
        return False
    merged = sorted([(x, 0) for x in v] + [(x, 1) for x in u])
    # Every comparison is written to hold, so that NaN fails it.
    for (a, side_a), (b, side_b) in zip(merged, merged[1:]):
        if side_a == side_b or not b - a >= _MIN_GAP:
            return False
    return not merged or -math.inf < merged[0][0] and merged[-1][0] < -_MIN_GAP


def algebraic_values(u: float, p: int) -> tuple[float, float]:
    """Exact-form cosquine and squine at a polynomial root u <= 0.

    Inverts u = sq^p / (cq^p - 1) on the first quadrant:
    cq = (1 - u)^(-1/p), sq = (u / (u - 1))^(1/p).  Returns (cq, sq).
    """
    check_finite("u", u)
    check_int("p", p, 2)
    if not (u := float(u)) <= 0.0:
        raise DomainError(f"roots live on u <= 0, got {u!r}")
    cq_val = (1.0 - u) ** (-1 / p)  # int / int: no overflow at any p
    sq_val = (u / (u - 1.0)) ** (1 / p) if u != 0.0 else 0.0
    return cq_val, sq_val


def critical_value(params: SquigParams) -> float:
    """Maximum of cq^m sq^n on the first quadrant, in closed form.

    The derivative factors as cq^(m-1) sq^(n-1) (n cq^p - m sq^p), so the
    interior critical point has sq^p = n / (m + n), cq^p = m / (m + n) and
    the maximum equals (m^m n^n / (m + n)^(m + n))^(1/p).  Requires
    m, n >= 1, and raises CostGuardError where (m + n)^(m + n) may pass
    MAX_BETA_BITS bits.  The ratio is split exactly as y 2^(-d), y in
    (1/2, 2), and 2^(-d/p) as 2^(-r/p) 2^(-q) with d = qp + r, so no power
    overflows or underflows before the root and the rounding of 1/p is
    never multiplied by a large logarithm.
    """
    check_powers(params.m, params.n, 1)
    p, m, n = params.p, params.m, params.n
    if (m + n) * (m + n - 1).bit_length() > MAX_BETA_BITS:  # (x - 1).bit_length() is ceil(log2 x)
        raise CostGuardError(f"m={shown(m)}, n={shown(n)}: (m + n)^(m + n) passes {MAX_BETA_BITS} bits")
    num, den = m ** m * n ** n, (m + n) ** (m + n)
    d = den.bit_length() - num.bit_length()
    q, r = divmod(d, p)
    return math.ldexp(((num << d) / den) ** (1 / p) * 2.0 ** (-r / p), -q)
