"""Non-recursive routes to the derivative coefficients.

Each unsigned coefficient q[k][j] is a sum over the C(k, j) ways to place j
markers on the steps 0..k-1.  Reading the steps in order with r ones already
placed before step l, a marked step contributes the factor m + l(p-1) - pr
and an unmarked step contributes n + pr - l; the product of the k factors,
summed over all placements, is q[k][j].  This closed form needs no lower
rows.  It is summed over the placement tree with the running prefix product,
pruned at zero factors; once the steps left are all unmarked or all marked,
their factors fall by one a step and the tail is one falling factorial.
Factors from the middle step h = k // 2 on depend only on the step and r, so
a first walk sums the placements of steps 0..h-1 by r and a second walks on
from each nonzero sum: one merge, by r at step h (the recursion merges at
every step).  Two pruned half-trees cost about 2^(k/2) nodes each.

When k = n + pj (the orders that survive in the MacLaurin series of
cq^m sq^n) the placements with nonzero product admit a local description:
writing l_0 < ... < l_(j-1) for the marked steps, the product is nonzero
exactly when every marked step avoids m + l_r (p-1) = pr and no value
n + pr falls strictly between l_(r-1) and l_r (with l_(-1) = -1).
enumerate_nonzero generates exactly these placements; a brute-force filter
of all placements is kept alongside as the oracle it is verified against.
count_lower_bound gives the closed-form floor (n+1)(p-1)^(j-1) for how many
there are.

corollary_coefficient turns the same factor sums into MacLaurin
coefficients, valid also for negative cosquine powers (tangent-type
series), and matrix_factorial_row rebuilds triangle rows as a product of
banded integer matrices acting on the first basis vector.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations

from .constants import MAX_BETA_BITS
from .errors import CostGuardError, ParameterError, check_int, check_powers, shown
from .triangle import SquigParams

#: Hard ceilings keeping the exponential routes at desk scale.
MAX_EXPLICIT_ORDER = 22
MAX_ENUMERATION_ORDER = 26
MAX_COROLLARY_CHOICES = 400_000
MAX_COROLLARY_ORDER = 200


def _check_order(params: SquigParams, k: int, j: int) -> None:
    check_powers(params.m, params.n)
    check_int("k", k, 0)
    check_int("j", j, 0)


def _product_for_placement(params: SquigParams, k: int, ones: tuple[int, ...]) -> int:
    p, m, n = params.p, params.m, params.n
    prod = 1
    prefix = 0
    marked = set(ones)
    for l in range(k):
        if l in marked:
            prod *= m + l * (p - 1) - p * prefix
            prefix += 1
        else:
            prod *= n + p * prefix - l
        if prod == 0:
            return 0
    return prod


def _walk(params: SquigParams, stack: list[tuple[int, int, int]], end: int, r_lo: int, r_hi: int) -> list[int]:
    # Depth first from the entries (step, markers placed, prefix product) on the
    # stack to step end with r_lo..r_hi markers, summing products by marker count;
    # the steps left are forced unmarked once r = r_hi, marked once end - l = r_lo - r.
    p, m, n = params.p, params.m, params.n
    sums = [0] * (r_hi + 1)
    while stack:
        l, r, prod = stack.pop()
        while l < end and r < r_hi and end - l > r_lo - r:
            if factor := m + l * (p - 1) - p * r:
                stack.append((l + 1, r + 1, prod * factor))
            if not (factor := n + p * r - l):
                break
            prod *= factor
            l += 1
        else:  # the d forced factors top, top - 1, ..., top - d + 1: 0 if one is 0
            d = end - l
            top, r = (m + l * (p - 1) - p * r, r_lo) if d and r < r_hi else (n + p * r - l, r)
            sums[r] += prod * (math.perm(top, d) if top >= 0 else (-1) ** d * math.perm(d - 1 - top, d))
    return sums


def _placement_sum(params: SquigParams, k: int, j: int) -> int:
    if j > k:
        return 0
    h = k // 2  # steps 0..h-1 summed by marker count, then h..k-1 from those sums
    firsts = _walk(params, [(0, 0, 1)], h, max(0, j - (k - h)), min(h, j))
    return _walk(params, [(h, r, s) for r, s in enumerate(firsts) if s], k, j, j)[j]


def explicit_coefficient(params: SquigParams, k: int, j: int) -> int:
    """q[k][j] summed directly over the pruned tree of marker placements.

    Exact integers throughout; exponential in k / 2, so orders are capped at
    MAX_EXPLICIT_ORDER.  Independent of the recursion: no other rows are
    consulted, and placements merge only by marker count at step k // 2.
    """
    _check_order(params, k, j)
    if k > MAX_EXPLICIT_ORDER:
        raise CostGuardError(f"k={shown(k)} exceeds the explicit-sum cap {MAX_EXPLICIT_ORDER}")
    return _placement_sum(params, k, j)


def filter_nonzero_brute(params: SquigParams, k: int, j: int) -> list[tuple[int, ...]]:
    """All marker placements with nonzero product, by trying every one.

    The oracle enumerate_nonzero is checked against; same cost cap as the
    enumeration so the two stay comparable.
    """
    _check_order(params, k, j)
    if k > MAX_ENUMERATION_ORDER:
        raise CostGuardError(f"k={shown(k)} exceeds the enumeration cap {MAX_ENUMERATION_ORDER}")
    return [
        ones
        for ones in combinations(range(k), j)
        if _product_for_placement(params, k, ones) != 0
    ]


def enumerate_nonzero(params: SquigParams, k: int, j: int) -> list[tuple[int, ...]]:
    """Placements with nonzero product at a series order k = n + pj.

    Generated from the local conditions rather than by filtering: marked
    steps l_0 < ... < l_(j-1) qualify exactly when

    * m + l_r (p - 1) != p r for every r, and
    * no stretch of unmarked steps contains n + p r, i.e.
      l_r <= n + p r or l_(r-1) >= n + p r, with l_(-1) = -1.

    At k = n + pj the stretch above the last marker is automatically safe.
    Returns placements in lexicographic order; equals filter_nonzero_brute
    as a set.
    """
    _check_order(params, k, j)
    if k != params.n + params.p * j:
        raise ParameterError(
            f"enumeration applies at series orders k = n + p j; "
            f"got k={shown(k)}, n + p j = {shown(params.n + params.p * j)}"
        )
    if k > MAX_ENUMERATION_ORDER:
        raise CostGuardError(f"k={shown(k)} exceeds the enumeration cap {MAX_ENUMERATION_ORDER}")
    p, m, n = params.p, params.m, params.n
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(r: int, low: int) -> None:
        if r == j:
            out.append(tuple(chosen))
            return
        # Remaining markers r..j-1 must fit below k.
        for l in range(low, k - (j - 1 - r)):
            if m + l * (p - 1) == p * r:
                continue
            prev = chosen[-1] if chosen else -1
            boundary = n + p * r
            if not (l <= boundary or prev >= boundary):
                continue
            chosen.append(l)
            extend(r + 1, l + 1)
            chosen.pop()

    extend(0, 0)
    return out


def count_lower_bound(n: int, p: int, j: int) -> int:
    """Floor (n + 1)(p - 1)^(j - 1) on the number of nonzero placements.

    Counts the placements reachable by always marking within the first
    admissible window; the true count grows much faster.  CostGuardError
    where (p - 1)^(j - 1) may pass MAX_BETA_BITS bits.
    """
    check_int("p", p, 2)
    check_int("n", n, 0)
    check_int("j", j, 1)
    if (j - 1) * (p - 2).bit_length() > MAX_BETA_BITS:  # (x - 1).bit_length() is ceil(log2 x)
        raise CostGuardError(f"p={shown(p)}, j={shown(j)}: (p - 1)^(j - 1) passes {MAX_BETA_BITS} bits")
    return (n + 1) * (p - 1) ** (j - 1)


def corollary_coefficient(params: SquigParams, j: int) -> float:
    """Signed MacLaurin coefficient of t^(n + pj) in cq^m sq^n, closed form.

    Sums the placement products at order k = n + pj by the half-walks of
    explicit_coefficient, attaches the sign (-1)^j and divides by k! in one
    correctly rounded int/int true division.  Valid for negative m (the
    quotient series such as the tangent analog), where the recursion does
    not apply.  Orders k above MAX_COROLLARY_ORDER raise CostGuardError, as
    does a C(k, j) above MAX_COROLLARY_CHOICES, now an over-bound of the cost.
    """
    check_int("j", j, 0)
    check_int("n", params.n, 0)
    k = params.n + params.p * j
    if k > MAX_COROLLARY_ORDER:
        raise CostGuardError(f"order k={shown(k)} exceeds the corollary cap {MAX_COROLLARY_ORDER}")
    if math.comb(k, j) > MAX_COROLLARY_CHOICES:
        raise CostGuardError(
            f"C({k}, {j}) placements exceed the corollary cap {MAX_COROLLARY_CHOICES}"
        )
    total = _placement_sum(params, k, j)
    return (-total if j % 2 else total) / math.factorial(k)


def matrix_factorial_row(params: SquigParams, k: int, size: int) -> list[int]:
    """Row k of the triangle as a banded-matrix product applied to e_0.

    Builds A = I - (p-1) S and B with diagonal n + p i and subdiagonal
    m + p - p i (S the subdiagonal shift), then applies T_l = B - l A for
    l = 0..k-1 to the first basis vector.  The result vector has q[k][j] in
    slot j; size must be at least k + 1 so no entry is truncated.  Only the
    two diagonals of these bidiagonal matrices are applied: O(size) memory.
    """
    check_int("k", k, 0)
    check_int("size", size, k + 1, sys.maxsize)  # the longest list
    p, m, n = params.p, params.m, params.n
    vec = [1] + [0] * (size - 1)
    for l in range(k):  # T_l: diagonal n + p i - l, subdiagonal m + p - p i + l (p - 1)
        vec = [(n + p * i - l) * v + (m + p - p * i + l * (p - 1)) * u
               for i, (u, v) in enumerate(zip([0] + vec, vec))]
    return vec
