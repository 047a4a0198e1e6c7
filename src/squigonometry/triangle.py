"""Exact integer triangles of derivative coefficients for squigonometric powers.

The squine sq and cosquine cq are the coordinate functions of unit-speed
parametrization of the first-quadrant arc of |x|^p + |y|^p = 1, determined by

    sq' = cq^(p-1),   cq' = -sq^(p-1),   sq(0) = 0,   cq(0) = 1.

Because differentiation maps powers of sq and cq back into the family, the
k-th derivative of cq^m * sq^n is a signed integer combination

    d^k/dt^k [cq^m sq^n] = sum_j (-1)^j q[k][j] cq^(m + k(p-1) - pj) sq^(n - k + pj)

whose unsigned coefficients obey a two-term recursion in k,

    q[k+1][j] = (n - k + pj) q[k][j] + (m + k(p-1) - p(j-1)) q[k][j-1],

seeded by q[0][0] = 1.  For m, n >= 0 every in-band coefficient is a positive
integer and rows are banded: q[k][j] = 0 unless

    max(0, ceil((k - n)/p)) <= j <= k - max(0, ceil((k - m)/p)).

Entries are Python ints, so they never overflow and equality checks are
exact.  The private row generator _rows is the one place this recursion is
written.  It holds each row as one contiguous band, a start column lo and a
list with row[i] = q[k][lo + i] (no zeros inside the band, so nothing is
hashed), and builds the next row in one pass over the row and its shift.
build_triangle, integer_maclaurin and polynomial_step all read their rows
from it.  CoeffTriangle.rows, the public form, keeps each row as a sparse
{column: value} dict with no zero entries.  The routes in explicit stay
independent oracles.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import count, islice

from .errors import ParameterError, check_int, check_powers, shown


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a / b for integer a and positive integer b."""
    return -((-a) // b)


def falling_factorial(x: int, k: int) -> int:
    """Falling factorial x * (x - 1) * ... * (x - k + 1); the empty product is 1."""
    check_int("x", x)
    check_int("k", k, 0)
    return 0 if 0 <= x < k else math.prod(range(x, x - k, -1))  # x - x is a factor when 0 <= x < k


@dataclass(frozen=True)
class SquigParams:
    """Exponent triple: circle degree p, cosquine power m, squine power n.

    p must be an integer >= 2.  m and n may be negative (tangent-type
    quotients); routines that require nonnegative powers check separately.
    """

    p: int
    m: int
    n: int

    def __post_init__(self) -> None:
        check_int("p", self.p, 2)
        check_powers(self.m, self.n, low=None)

    def __repr__(self) -> str:
        return f"SquigParams(p={shown(self.p)}, m={shown(self.m)}, n={shown(self.n)})"


@dataclass(frozen=True)
class CoeffTriangle:
    """Rows 0..K of unsigned derivative coefficients for one parameter triple."""

    params: SquigParams
    K: int
    rows: tuple[dict[int, int], ...] = field(repr=False)


def band_limits(params: SquigParams, k: int) -> tuple[int, int]:
    """Column band [j_lo, j_hi] outside which row k vanishes.

    Returns the pair (j_lo, j_hi); for m, n >= 0 the band is empty (j_lo > j_hi)
    only when m = n = 0, at k = 1 and, for p = 2, at every odd k.
    """
    check_int("k", k, 0)
    j_lo = max(ceil_div(k - params.n, params.p), 0)
    j_hi = k - max(ceil_div(k - params.m, params.p), 0)
    return j_lo, j_hi


def _rows(
    params: SquigParams, start: tuple[int, list[int]], k: int, j_max: float = math.inf
) -> Iterator[tuple[int, list[int]]]:
    """Yield the given row of order k, then rows k + 1, k + 2, ... forever.

    A row is a pair (lo, row) with row[i] = q[k][lo + i]: the exact integers
    of one contiguous band, trimmed of zeros at both ends after the start
    row.  Start from (0, [1]) at k = 0 for the triangle itself.  Only the
    current row is kept, so a consumer reading one entry per row stays flat
    in memory.  Column indices never decrease along the recursion, so a
    consumer that reads no column above j_max passes it to skip the shift
    out of column j_max; every entry at a column <= j_max is unchanged.
    """
    p, m, n = params.p, params.m, params.n
    lo, row = start
    while True:
        yield lo, row
        # Column lo + i takes its own entry at weight n - k + p(lo + i) and
        # the shift of column lo + i - 1 at weight m + k(p - 1) - p(lo + i - 1).
        keep = n - k + p * lo
        shift = m + k * (p - 1) - p * (lo - 1)
        # The new right column lo + len(row) holds only the shift out of the
        # last one, so past j_max it is not formed.
        top = row + [0] if lo + len(row) <= j_max else row
        row = [
            a * x + b * y
            for a, x, b, y in zip(count(keep, p), top, count(shift, -p), [0] + row)
        ]
        while row and not row[-1]:
            row.pop()
        i = 0
        while i < len(row) and not row[i]:
            i += 1
        if i:
            lo, row = lo + i, row[i:]
        k += 1


def build_triangle(params: SquigParams, K: int) -> CoeffTriangle:
    """Build rows 0..K of the coefficient triangle by the two-term recursion.

    Parameters
    ----------
    params : SquigParams
        Requires m >= 0 and n >= 0 so that all in-band entries are positive
        and the banded sparse representation is exact.
    K : int
        Highest derivative order to build, 0 <= K < sys.maxsize.

    Returns
    -------
    CoeffTriangle
        rows[k] maps column j to the exact integer q[k][j]; zero entries are
        absent.

    Examples
    --------
    >>> tri = build_triangle(SquigParams(p=4, m=1, n=0), 4)
    >>> tri.rows[4]
    {1: 6, 2: 81, 3: 18}
    """
    check_powers(params.m, params.n)
    check_int("K", K, 0, sys.maxsize - 1)  # islice's bound
    rows = islice(_rows(params, (0, [1]), 0), K + 1)
    return CoeffTriangle(
        params=params,
        K=K,
        rows=tuple(dict(enumerate(row, lo)) for lo, row in rows),
    )


def coefficient(tri: CoeffTriangle, k: int, j: int) -> int:
    """Exact q[k][j]; zero for any (k, j) outside the stored band."""
    check_int("k", k, 0, tri.K)
    check_int("j", j)
    return tri.rows[k].get(j, 0)


def verify_structure(tri: CoeffTriangle) -> list[str]:
    """Check structural invariants of a triangle; return a list of violations.

    An empty list means the triangle passes.  Checked per row k:

    * support lies inside the band from band_limits,
    * both band edges are nonzero (they equal falling factorials of n and m),
    * every stored entry is a positive integer,
    * edge values match n falling k (column j_lo when the left edge is
      unclamped) and m falling k (column k on the diagonal while unclamped).
    """
    problems: list[str] = []
    p, m, n = tri.params.p, tri.params.m, tri.params.n
    if m == 0 and n == 0:
        # The constant function: every derivative vanishes identically and
        # the band/edge statements do not apply.
        for k, row in enumerate(tri.rows):
            if k == 0 and row != {0: 1}:
                problems.append("row 0 of the constant function must be {0: 1}")
            if k > 0 and row:
                problems.append(f"row {k} of the constant function has {len(row)} entries")
        return problems
    for k, row in enumerate(tri.rows):
        j_lo, j_hi = band_limits(tri.params, k)
        for j, v in row.items():
            if not j_lo <= j <= j_hi:
                problems.append(f"row {k}: column {shown(j)} outside band [{j_lo}, {j_hi}]")
            if v <= 0:
                problems.append(f"row {k}: entry at column {shown(j)} is {shown(v)}, not positive")
        if row.get(j_lo, 0) == 0:
            problems.append(f"row {k}: left band edge {j_lo} is zero")
        if row.get(j_hi, 0) == 0:
            problems.append(f"row {k}: right band edge {j_hi} is zero")
        if k <= n and row.get(0, 0) != falling_factorial(n, k):
            problems.append(f"row {k}: column 0 is {shown(row.get(0, 0))}, expected n falling {k}")
        if k <= m and row.get(k, 0) != falling_factorial(m, k):
            problems.append(f"row {k}: column {k} is {shown(row.get(k, 0))}, expected m falling {k}")
    return problems


def triangle_to_json(tri: CoeffTriangle) -> str:
    """Serialize a triangle to JSON with integers as decimal strings.

    Values are emitted as strings so arbitrary-precision entries survive
    round-trips through JSON parsers that would coerce large numbers to
    binary64.
    """
    doc = {
        "p": tri.params.p,
        "m": tri.params.m,
        "n": tri.params.n,
        "K": tri.K,
        "rows": [
            [[j, str(v)] for j, v in sorted(row.items())]
            for row in tri.rows
        ],
    }
    return json.dumps(doc)


def _json_int(value) -> int:
    # Entries are ints or decimal strings; int() alone would also truncate
    # 1.5 and accept a JSON true.
    if value.__class__ not in (int, str):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def triangle_from_json(text: str) -> CoeffTriangle:
    """Inverse of triangle_to_json; round-trips exactly.

    Invalid JSON, a missing key, a row that is not a list, an entry that is
    not an integer, a negative m or n (which build_triangle refuses too) or
    a column of row k outside 0..k raises ParameterError.
    """
    try:
        doc = json.loads(text)
        params = SquigParams(p=doc["p"], m=doc["m"], n=doc["n"])
        K = doc["K"]
        if not all(row.__class__ is list for row in doc["rows"]):
            raise TypeError("every row must be a list of [column, value] pairs")
        rows = tuple({_json_int(j): _json_int(v) for j, v in row} for row in doc["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed serialized triangle: {exc}") from None
    check_powers(params.m, params.n)
    check_int("K", K, 0)
    if len(rows) != K + 1:
        raise ParameterError("serialized triangle has wrong row count")
    for k, row in enumerate(rows):
        for j in row:
            check_int(f"a column of row {k}", j, 0, k)
    return CoeffTriangle(params=params, K=K, rows=rows)
