"""The tests' one reference: the paper's binomial series in stdlib decimal, sharing
nothing with the package.  binomial_sum holds the series of the inverse squine,
arcsq(x) = x sum_k ((1 - 1/p)_k / k!) x^(pk) / (pk + 1) (DLMF 8.17), for x^p <= 1/2.
pi_p and every Beta value are its halves at x^p = 1/2, and sq solves arcsq(x) = s
by Newton from x = s, with cq = (1 - sq^p)^(1/p).  All of it runs at DIGITS digits.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import count

DIGITS = 50
HALF = Decimal("0.5")


def binomial_sum(p: int, a: Fraction, n: int, z: Decimal, digits: int = DIGITS) -> Decimal:
    """sum_k ((1 - a)_k / k!) z^k / (pk + n + 1), for 0 <= a <= 1 and 0 <= z <= 1/2,
    up to a term below 10^-(digits + 5): the terms fall by at least z, so the rest is smaller."""
    with localcontext(Context(prec=digits)):
        rise, term, total = 1 - Decimal(a.numerator) / a.denominator, Decimal(1), Decimal(0)
        for k in count():
            total += term / (p * k + n + 1)
            if term < Decimal(10) ** -(digits + 5):
                return total
            term *= (rise + k) / (k + 1) * z


@lru_cache(maxsize=None)
def pi_p(p: int, digits: int = DIGITS) -> Decimal:
    """pi_p = 4 arcsq(c), c = 2^(-1/p)."""
    with localcontext(Context(prec=digits)):
        return 4 * Decimal(2) ** (Decimal(-1) / p) * binomial_sum(p, Fraction(1, p), 0, HALF, digits)


def arcsq(x: float, p: int) -> Decimal:
    """arcsq(x) on [0, 1]; past c, pi_p / 2 - arcsq(y) with y^p = 1 - x^p (the diagonal)."""
    with localcontext(Context(prec=DIGITS)):
        x, a = Decimal(x), Fraction(1, p)
        if (z := x ** p) <= HALF:
            return x * binomial_sum(p, a, 0, z)
        return pi_p(p) / 2 - (1 - z) ** (Decimal(1) / p) * binomial_sum(p, a, 0, 1 - z)


def sq_cq(t: float, p: int) -> tuple[Decimal, Decimal]:
    """(sq(t), cq(t)) at any binary64 t.  Decimal(t) is exact and pi_p is carried to 40
    digits past t's exponent, so |t| = k pi_p / 2 + s reduces to about 10^-40; s past
    pi_p / 4 reflects, and each quarter period turns (sq, cq) into (cq, -sq)."""
    t = Decimal(t)
    with localcontext(Context(prec=max(DIGITS, 40 + t.adjusted()))) as dec:
        quarter = pi_p(p, dec.prec) / 2
        k, s = divmod(abs(t), quarter)
        s = quarter - s if (swap := s > quarter / 2) else s
    with localcontext(Context(prec=DIGITS)):
        x = s = +s
        for _ in range(40):  # Newton; 1 / arcsq' = (1 - x^p)^(1 - 1/p) in binary64 gains 15 digits a step
            z = x ** p
            step = (x * binomial_sum(p, Fraction(1, p), 0, z) - s) * Decimal((1 - float(z)) ** (1 - 1 / p))
            x -= step
            if abs(step) < Decimal(10) ** (8 - DIGITS):
                break
        else:
            raise AssertionError(f"reference Newton did not settle at p={p}, t={t!r}")
        sq, cq = x, (1 - x ** p) ** (Decimal(1) / p)
        sq, cq = (cq, sq) if swap else (sq, cq)
        for _ in range(int(k) % 4):
            sq, cq = cq, -sq
        return -sq if t < 0 else sq, cq


@lru_cache(maxsize=None)
def _beta_base(p: int, m: int, n: int) -> Decimal:
    # For m, n < p, p times the two halves of the arclength integral.
    def half(m: int, n: int) -> Decimal:  # c^(n+1) times the sum at z = 1/2, a = (m + 1) / p
        return Decimal(2) ** (-Decimal(n + 1) / p) * binomial_sum(p, Fraction(m + 1, p), n, HALF)

    with localcontext(Context(prec=DIGITS)):
        return p * (half(m, n) + half(n, m))


def beta(p: int, m: int, n: int) -> Decimal:
    """B((m+1)/p, (n+1)/p): the base value at m mod p, n mod p, raised by DLMF 5.12.1."""
    with localcontext(Context(prec=DIGITS)):
        m0, n0 = m % p, n % p
        value = _beta_base(p, m0, n0)
        for i in range(m0, m, p):  # B(a + 1, b) = B(a, b) a / (a + b)
            value = value * (i + 1) / (i + n0 + 2)
        for i in range(n0, n, p):
            value = value * (i + 1) / (m + i + 2)
        return value


def ulps(value: float, ref: Decimal | float) -> float:
    """|value - ref| in ulps of ref rounded to binary64."""
    return float(abs(Decimal(value) - Decimal(ref)) / Decimal(math.ulp(float(ref))))
