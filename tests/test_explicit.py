from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squigonometry as sg
from squigonometry import CostGuardError, ParameterError, SquigParams
from squigonometry.explicit import _placement_sum, _product_for_placement, _walk

COSQUINE4 = SquigParams(p=4, m=1, n=0)

# Nonzero-placement counts for the 4-cosquine at orders k = 4j, frozen.
# j = 6 is checked by two independent routes below; see the count identity.
NONZERO_COUNTS = {1: 1, 2: 3, 3: 15, 4: 91, 5: 611}

# Lower-bound sequence (n + 1)(p - 1)^(j - 1) for the same table.
LOWER_BOUNDS = {1: 1, 2: 3, 3: 9, 4: 27, 5: 81, 6: 243}


@pytest.mark.parametrize("p,m,n", [(2, 0, 1), (2, 1, 0), (3, 1, 0), (4, 1, 0), (4, 2, 1)])
def test_explicit_matches_triangle(p, m, n):
    params = SquigParams(p=p, m=m, n=n)
    tri = sg.build_triangle(params, 12)
    for k in range(13):
        for j in range(k + 1):
            assert sg.explicit_coefficient(params, k, j) == sg.coefficient(tri, k, j)


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=5),
    m=st.integers(min_value=0, max_value=3),
    n=st.integers(min_value=0, max_value=3),
    k=st.integers(min_value=0, max_value=16),
)
def test_explicit_matches_triangle_hypothesis(p, m, n, k):
    params = SquigParams(p=p, m=m, n=n)
    tri = sg.build_triangle(params, k)
    for j in range(k + 1):
        assert sg.explicit_coefficient(params, k, j) == sg.coefficient(tri, k, j)


def brute_placement_sum(params, k, j):
    """The placement sum over all C(k, j) placements, one full product each.

    Oracle for the half-walks of explicit._placement_sum: no pruning, no
    shared prefixes, no merging.
    """
    return sum(_product_for_placement(params, k, ones) for ones in combinations(range(k), j))


def walk_oracle(params, k, j):
    """The placement sum as one walk over the whole pruned tree, leaf by leaf.

    This was explicit._placement_sum before the walk was cut at the middle
    step: depth first, a stack entry (step, markers placed, prefix product)
    is a marked branch still to walk; the unmarked branch is walked in place
    until r = j (the steps left are unmarked) or k - l = j - r (marked), and
    that forced tail is one falling factorial.  No two placements merge.
    """
    p, m, n = params.p, params.m, params.n
    total = 0
    stack = [(0, 0, 1)] if j <= k else []
    while stack:
        l, r, prod = stack.pop()
        while r < j and k - l > j - r:
            if factor := m + l * (p - 1) - p * r:
                stack.append((l + 1, r + 1, prod * factor))
            if not (factor := n + p * r - l):
                break
            prod *= factor
            l += 1
        else:  # the d forced factors top, top - 1, ..., top - d + 1: 0 if one is 0
            top, d = (n + p * j - l, k - l) if r == j else (m + l * (p - 1) - p * r, j - r)
            total += prod * (math.perm(top, d) if top >= 0 else (-1) ** d * math.perm(d - 1 - top, d))
    return total


@pytest.mark.parametrize("p", range(2, 8))
def test_half_walks_equal_the_walk_oracle(p):
    # Negative m included (corollary_coefficient's domain); k = 0 and 1 leave
    # the first half empty or one step long, and j = k + 1 has no placement.
    for m in range(-4, 5):
        for n in range(5):
            params = SquigParams(p=p, m=m, n=n)
            for k in range(15):
                for j in range(k + 2):
                    assert _placement_sum(params, k, j) == walk_oracle(params, k, j), (params, k, j)


@pytest.mark.parametrize("p,m,n", [(2, 1, 0), (3, 0, 1), (4, 2, 1), (5, 1, 2), (6, 3, 0), (7, 0, 4)])
def test_first_walk_sums_are_the_triangle_row_at_the_middle_step(p, m, n):
    # The first walk's sum for r markers over steps 0..h-1 is q[h][r], on
    # every marker range [r_lo, r_hi] _placement_sum asks for.
    params = SquigParams(p=p, m=m, n=n)
    tri = sg.build_triangle(params, 8)
    for k in range(17):
        h = k // 2
        row = [sg.coefficient(tri, h, r) for r in range(h + 1)]
        assert _walk(params, [(0, 0, 1)], h, 0, h) == row
        for j in range(k + 1):
            r_lo, r_hi = max(0, j - (k - h)), min(h, j)
            firsts = _walk(params, [(0, 0, 1)], h, r_lo, r_hi)
            assert firsts == [0] * r_lo + row[r_lo:r_hi + 1], (k, j)


def test_first_walk_ends_on_a_marked_tail_and_exactly_at_the_middle_step():
    # k = 4, so h = 2.  At j = 3 the first half holds 1 or 2 markers: step 0
    # unmarked forces step 1 marked, a tail that ends the first half.  At
    # j = 2 it holds 0..2: step 0 marked and step 1 unmarked is a leaf that
    # ends at h with r = 1, strictly between r_lo = 0 and r_hi = 2.
    p, m, n = 4, 3, 2
    params = SquigParams(p=p, m=m, n=n)
    one = n * (m + p - 1) + m * (n + p - 1)  # {1} and {0} marked
    assert _walk(params, [(0, 0, 1)], 2, 1, 2) == [0, one, m * (m - 1)]
    assert _walk(params, [(0, 0, 1)], 2, 0, 2) == [n * (n - 1), one, m * (m - 1)]
    for j in (2, 3):
        assert _placement_sum(params, 4, j) == walk_oracle(params, 4, j) == brute_placement_sum(params, 4, j)


@pytest.mark.parametrize("p,m,n", [(4, 1, 0), (6, 2, 1)])
def test_rows_at_the_order_cap_match_triangle(p, m, n):
    params = SquigParams(p=p, m=m, n=n)
    k = sg.MAX_EXPLICIT_ORDER
    tri = sg.build_triangle(params, k)
    assert [sg.explicit_coefficient(params, k, j) for j in range(k + 1)] == [
        sg.coefficient(tri, k, j) for j in range(k + 1)]


@pytest.mark.parametrize("p", range(2, 7))
def test_placement_walk_equals_brute_sum(p):
    # Negative m is corollary_coefficient's tangent-type domain, where a tail
    # of marked steps, one falling factorial m + l(p-1) - pr - i, can start
    # negative, start at 0 or cross 0; j = k + 1 and k = 0 are the edges of
    # the placement tree.
    for m in range(-4, 5):
        for n in range(5):
            params = SquigParams(p=p, m=m, n=n)
            for k in range(13):
                for j in range(k + 2):
                    assert _placement_sum(params, k, j) == brute_placement_sum(params, k, j), (
                        params, k, j)


def test_corollary_negative_m_matches_brute_sum():
    for p in range(2, 6):
        for m in (-3, -2, -1):
            for n in range(4):
                params = SquigParams(p=p, m=m, n=n)
                for j in range(4):
                    k = n + p * j
                    want = float(Fraction((-1) ** j * brute_placement_sum(params, k, j),
                                          math.factorial(k)))
                    assert sg.corollary_coefficient(params, j) == want, (params, j)


def test_explicit_row_18_matches_triangle():
    # Past the orders the brute sum checks quickly; the triangle is the oracle.
    tri = sg.build_triangle(COSQUINE4, 18)
    row = [sg.explicit_coefficient(COSQUINE4, 18, j) for j in range(19)]
    assert row == [sg.coefficient(tri, 18, j) for j in range(19)]


def test_explicit_out_of_range_zero():
    assert sg.explicit_coefficient(COSQUINE4, 3, 5) == 0


def test_enumeration_counts_frozen():
    for j, want in NONZERO_COUNTS.items():
        got = sg.enumerate_nonzero(COSQUINE4, 4 * j, j)
        assert len(got) == want


def test_enumeration_equals_brute_force():
    for j in range(7):
        k = 4 * j
        if k > sg.MAX_ENUMERATION_ORDER:
            break
        enum = sg.enumerate_nonzero(COSQUINE4, k, j)
        brute = sg.filter_nonzero_brute(COSQUINE4, k, j)
        assert sorted(enum) == sorted(brute)
        assert enum == sorted(enum)  # lexicographic order
        assert len(set(enum)) == len(enum)


def test_enumeration_j6_count_and_sum_identity():
    # Dual-route check at j = 6: the enumeration and the brute filter agree,
    # and the 4374 all-positive products sum to the recursion's q[24][6].
    enum = sg.enumerate_nonzero(COSQUINE4, 24, 6)
    brute = sg.filter_nonzero_brute(COSQUINE4, 24, 6)
    assert len(enum) == len(brute) == 4374
    products = [_product_for_placement(COSQUINE4, 24, ones) for ones in enum]
    assert all(v > 0 for v in products)
    tri = sg.build_triangle(COSQUINE4, 24)
    assert sum(products) == sg.coefficient(tri, 24, 6) == 264444869673131894208


def test_enumeration_other_table():
    # Squine p = 4: orders k = 1 + 4j.
    params = SquigParams(p=4, m=0, n=1)
    for j in range(1, 6):
        k = 1 + 4 * j
        enum = sg.enumerate_nonzero(params, k, j)
        brute = sg.filter_nonzero_brute(params, k, j)
        assert sorted(enum) == sorted(brute)


def test_enumeration_p2_all_single():
    # Classical sine and cosine: exactly one nonzero placement per order.
    for m, n in ((0, 1), (1, 0)):
        params = SquigParams(p=2, m=m, n=n)
        for j in range(7):
            k = n + 2 * j
            enum = sg.enumerate_nonzero(params, k, j)
            assert len(enum) == 1
            assert enum == sg.filter_nonzero_brute(params, k, j)


def test_enumeration_j_zero():
    assert sg.enumerate_nonzero(COSQUINE4, 0, 0) == [()]


def test_enumeration_validation():
    with pytest.raises(ParameterError):
        # k must equal n + p j for the local conditions to close the tail.
        sg.enumerate_nonzero(COSQUINE4, 5, 1)
    with pytest.raises(ParameterError):
        sg.enumerate_nonzero(SquigParams(p=4, m=-1, n=1), 5, 1)


def test_cost_guards():
    with pytest.raises(CostGuardError):
        sg.explicit_coefficient(COSQUINE4, sg.MAX_EXPLICIT_ORDER + 1, 2)
    with pytest.raises(CostGuardError):
        sg.enumerate_nonzero(COSQUINE4, 28, 7)
    with pytest.raises(CostGuardError):
        sg.filter_nonzero_brute(COSQUINE4, 28, 7)
    with pytest.raises(CostGuardError):
        sg.corollary_coefficient(SquigParams(p=4, m=1, n=0), 12)


def test_corollary_order_cap():
    # At j = 0 the C(k, j) cap never binds; the order cap stops n! over
    # 20 000 factors before any of it is multiplied.
    assert sg.corollary_coefficient(SquigParams(p=2, m=0, n=sg.MAX_COROLLARY_ORDER), 0) > 0.0
    start = time.perf_counter()
    with pytest.raises(CostGuardError):
        sg.corollary_coefficient(SquigParams(p=2, m=0, n=20_000), 0)
    with pytest.raises(CostGuardError):
        sg.corollary_coefficient(SquigParams(p=2, m=0, n=sg.MAX_COROLLARY_ORDER + 1), 0)
    assert time.perf_counter() - start < 0.05


def test_lower_bound_values_and_validity():
    for j, want in LOWER_BOUNDS.items():
        assert sg.count_lower_bound(0, 4, j) == want
    for j in range(1, 6):
        actual = len(sg.enumerate_nonzero(COSQUINE4, 4 * j, j))
        assert sg.count_lower_bound(0, 4, j) <= actual
    assert sg.count_lower_bound(0, 4, 6) == 243 <= 4374


def test_lower_bound_validation():
    with pytest.raises(ParameterError):
        sg.count_lower_bound(0, 1, 3)
    with pytest.raises(ParameterError):
        sg.count_lower_bound(-1, 4, 3)
    with pytest.raises(ParameterError):
        sg.count_lower_bound(0, 4, 0)


def test_corollary_known_coefficients():
    assert sg.corollary_coefficient(COSQUINE4, 1) == -0.25
    assert sg.corollary_coefficient(SquigParams(p=4, m=0, n=1), 1) == -0.15
    assert sg.corollary_coefficient(COSQUINE4, 0) == 1.0


def test_corollary_matches_series():
    for p in (3, 4):
        for m, n in ((1, 0), (0, 1)):
            params = SquigParams(p=p, m=m, n=n)
            table = sg.maclaurin(params, 4)
            for j in range(5):
                want = (-1.0) ** j * table.floats[j]
                got = sg.corollary_coefficient(params, j)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-16)


def test_corollary_tangent_series():
    # m = -1, n = 1, p = 2: quotient sq / cq; the signed coefficients are
    # the classical one-signed tangent series 1, 1/3, 2/15, 17/315.
    params = SquigParams(p=2, m=-1, n=1)
    want = [1.0, float(Fraction(1, 3)), float(Fraction(2, 15)), float(Fraction(17, 315))]
    got = [sg.corollary_coefficient(params, j) for j in range(4)]
    assert got == want


def test_corollary_validation():
    with pytest.raises(ParameterError):
        sg.corollary_coefficient(SquigParams(p=4, m=1, n=-1), 2)
    with pytest.raises(ParameterError):
        sg.corollary_coefficient(COSQUINE4, -1)


def test_matrix_route_matches_triangle():
    for p, m, n in ((2, 0, 1), (4, 1, 0), (3, 2, 1)):
        params = SquigParams(p=p, m=m, n=n)
        tri = sg.build_triangle(params, 15)
        for k in (0, 1, 5, 10, 15):
            vec = sg.matrix_factorial_row(params, k, k + 1)
            dense = [tri.rows[k].get(j, 0) for j in range(k + 1)]
            assert vec == dense


def test_matrix_route_oversized_vector():
    vec = sg.matrix_factorial_row(COSQUINE4, 4, 10)
    assert vec[:5] == [0, 6, 81, 18, 0]
    assert all(v == 0 for v in vec[5:])


def test_matrix_route_applies_only_the_two_diagonals():
    # O(size) memory: the dense route would ask for 2 * 10^10 list slots here.
    vec = sg.matrix_factorial_row(COSQUINE4, 3, 10 ** 5)
    row = sg.build_triangle(COSQUINE4, 3).rows[3]
    assert vec == [row.get(j, 0) for j in range(10 ** 5)]


def test_matrix_route_validation():
    with pytest.raises(ParameterError):
        sg.matrix_factorial_row(COSQUINE4, 4, 4)
    with pytest.raises(ParameterError):
        sg.matrix_factorial_row(COSQUINE4, -1, 4)
