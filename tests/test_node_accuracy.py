"""sq and cq in ulps against a stdlib decimal reference on [0, pi_p / 4].

The reference shares nothing with the package's series, tables or nodes:
Newton on the binomial series of the inverse,

    arcsq(x) = x sum_k ((1 - 1/p)_k / k!) x^(pk) / (pk + 1),

at 40 digits (on [0, pi_p / 4], x^p <= 1/2, so the terms fall at least
as fast as 2^-k), and cq = (1 - sq^p)^(1/p).  The points are q / 2 and its
neighbours, every node boundary and its neighbours, q = pi_p / 4, and
seeded points on both sides of q / 2.  A neighbour one ulp from a solved
point takes the first-order step sq' = cq^(p-1), cq' = -sq^(p-1), exact to
far below an ulp.  Each p is solved once per session.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from functools import lru_cache

import pytest

import squigonometry as sg
from squigonometry import evalcore

DIGITS = 40
ACC_P = [3, 4, 6, 10, 16, 32, 64]


@lru_cache(maxsize=None)
def _weights(p: int) -> tuple[Decimal, ...]:
    # ((1 - 1/p)_k / k!) / (pk + 1) while 2^-k times it matters at DIGITS.
    with localcontext() as dec:
        dec.prec = DIGITS + 10
        a, out, k, inv = Decimal(1), [], 0, Decimal(1) / p
        while a * Decimal(2) ** -k >= Decimal(10) ** -(DIGITS + 5):
            out.append(a / (p * k + 1))
            k += 1
            a = a * (k - inv) / k
        return tuple(out)


def _reference(t: float, p: int) -> tuple[Decimal, Decimal]:
    # (sq(t), cq(t)) by Newton on arcsq(x) = t from x = t, the derivative of
    # arcsq being (1 - x^p)^(1/p - 1).
    with localcontext() as dec:
        dec.prec = DIGITS + 10
        target, x, expo = Decimal(t), Decimal(t), 1 - Decimal(1) / p
        for _ in range(40):
            y = x ** p
            acc = Decimal(0)
            for a in reversed(_weights(p)):
                acc = acc * y + a
            step = (x * acc - target) * (1 - y) ** expo
            x -= step
            if abs(step) < Decimal(10) ** -(DIGITS + 2):
                return x, (1 - x ** p) ** (Decimal(1) / p)
    raise AssertionError(f"reference Newton did not settle at p={p}, t={t!r}")


@lru_cache(maxsize=None)
def _sweep(p: int) -> tuple[float, list[tuple[float, Decimal, Decimal]]]:
    # (q / 2, [(s, sq(s), cq(s)), ...]) over the points the module describes.
    ctx = sg.build_context(p)
    nodes = evalcore._nodes(ctx)
    assert nodes is not None
    mid, q = nodes.mid, ctx.quarter
    edges = [mid] + [mid + k / nodes.scale for k in range(1, len(nodes.sq) - 1)]
    rng = random.Random(2600 + p)
    seeded = [rng.uniform(0.0, mid) for _ in range(40)] + [rng.uniform(mid, q) for _ in range(40)]
    out = []
    with localcontext() as dec:
        dec.prec = DIGITS + 10
        for e in edges:
            s, c = _reference(e, p)
            out.append((e, s, c))
            for x in (math.nextafter(e, 0.0), math.nextafter(e, 1.0)):
                d = Decimal(x) - Decimal(e)
                out.append((x, s + d * c ** (p - 1), c - d * s ** (p - 1)))
        out += [(x, *_reference(x, p)) for x in [q] + seeded]
    return mid, out


def _ulps(value: float, ref: Decimal) -> float:
    return float(abs(Decimal(value) - ref) / Decimal(math.ulp(float(ref))))


@pytest.mark.parametrize("p", ACC_P)
def test_node_folds_within_0_6_ulp_of_the_decimal_reference(p):
    ctx = sg.build_context(p)
    mid, points = _sweep(p)
    worst = max(max(_ulps(sg.sq(ctx, s), rs), _ulps(sg.cq(ctx, s), rc))
                for s, rs, rc in points if s >= mid)
    assert worst <= 0.6


@pytest.mark.parametrize("p", ACC_P)
def test_no_p_is_worse_than_the_table_fold(p):
    # Over the whole interval, sq and cq are each no further from the
    # reference than the fold of the context's full-interval tables, the
    # one evaluation path before node tables.
    ctx = sg.build_context(p)
    _, points = _sweep(p)
    for func, table, at in ((sg.sq, ctx.sq_table, 1), (sg.cq, ctx.cq_table, 2)):
        got = max(_ulps(func(ctx, pt[0]), pt[at]) for pt in points)
        folded = max(_ulps(sg.horner_sparse(table, pt[0]), pt[at]) for pt in points)
        assert got <= folded, (func.__name__, got, folded)
