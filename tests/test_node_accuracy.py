"""sq and cq in ulps against the decimal reference on [0, pi_p / 4], and the
node values the node tables are made from.

The reference (tests/decimal_reference.py) shares nothing with the package.
The points are q / 2 and its neighbours, every node boundary and its
neighbours, q = pi_p / 4, and seeded points on both sides of q / 2.  Each p
is solved once per session.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from functools import lru_cache

import pytest

import squigonometry as sg
from decimal_reference import sq_cq, ulps
from squigonometry import evalcore

ACC_P = [2, 3, 4, 6, 10, 16, 32, 64]


@lru_cache(maxsize=None)
def _sweep(p: int) -> tuple[float, list[tuple[float, Decimal, Decimal]]]:
    # (q / 2, [(s, sq(s), cq(s)), ...]) over the points the module describes.
    ctx = sg.build_context(p)
    nodes = evalcore._nodes(p)
    mid, q = ctx.quarter / 2.0, ctx.quarter
    edges = [mid] + [mid + k / nodes.scale for k in range(1, len(nodes.sq) - 1)]
    rng = random.Random(2600 + p)
    seeded = [rng.uniform(0.0, mid) for _ in range(40)] + [rng.uniform(mid, q) for _ in range(40)]
    around = [x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0))]
    out = [(x, *sq_cq(x, p)) for x in around + [q] + seeded]
    return mid, out


@pytest.mark.parametrize("p", ACC_P)
def test_node_folds_within_0_6_ulp_of_the_decimal_reference(p):
    ctx = sg.build_context(p)
    mid, points = _sweep(p)
    worst = max(max(ulps(sg.sq(ctx, s), rs), ulps(sg.cq(ctx, s), rc))
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
        got = max(ulps(func(ctx, pt[0]), pt[at]) for pt in points)
        folded = max(ulps(sg.horner_sparse(table, pt[0]), pt[at]) for pt in points)
        assert got <= folded, (func.__name__, got, folded)


@pytest.mark.parametrize("p", [2, 3, 4, 10, 64])
def test_node_values_within_2_to_the_minus_100_of_the_decimal_reference(p, node_values):
    # Each node's (cq(t0), sq(t0)) in 128-bit fixed point, read as the nodes
    # are made: one Newton step on the binomial series of arcsq from a start
    # within about 2^-50 lands within 2^-100 of the reference.
    evalcore._nodes(p)
    assert len(node_values) > 10
    with localcontext() as dec:
        dec.prec = 60
        unit, bound = Decimal(2) ** -128, Decimal(2) ** -100
        for t0, (x, y, *_) in node_values:
            sq, cq = sq_cq(t0, p)
            assert abs(x * unit - cq) < bound and abs(y * unit - sq) < bound, (p, t0)


def test_p2_node_folds_misround_at_most_one_percent_on_the_upper_half():
    # At p = 2, as at every p, node tables fold on [q / 2, q]: of sq and cq
    # at 400 seeded s there, at most 1 % differ from the reference rounded
    # to binary64, where a fold of the 9/10-term prefixes for all of [0, q]
    # misrounds 14-18 %.
    ctx = sg.build_context(2)
    rng = random.Random(4300)
    points = [rng.uniform(ctx.quarter / 2.0, ctx.quarter) for _ in range(400)]
    missed = sum(got != float(want) for s in points
                 for got, want in zip((sg.sq(ctx, s), sg.cq(ctx, s)), sq_cq(s, 2)))
    assert missed <= 8, missed
