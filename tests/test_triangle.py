from __future__ import annotations

import dataclasses
import hashlib
import json
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squigonometry as sg
from squigonometry import ParameterError, SquigParams
from squigonometry.triangle import _rows


def derivative_rows_oracle(p: int, m: int, n: int, K: int) -> list[dict[int, int]]:
    """Rows 0..K via literal symbolic differentiation over the (a, b) basis.

    Tracks exact integer coefficients of cq^a sq^b terms and applies the
    product/chain rule directly (cq' = -sq^(p-1), sq' = cq^(p-1)); shares no
    code with the recursion it checks.
    """
    state: dict[tuple[int, int], int] = {(m, n): 1}
    rows: list[dict[int, int]] = []
    for k in range(K + 1):
        row: dict[int, int] = {}
        for (a, b), c in state.items():
            assert (b - (n - k)) % p == 0
            j = (b - (n - k)) // p
            assert a == m + k * (p - 1) - p * j
            row[j] = row.get(j, 0) + c * (-1) ** (j % 2)
        rows.append({j: v for j, v in row.items() if v})
        nxt: dict[tuple[int, int], int] = {}
        for (a, b), c in state.items():
            if a:
                key = (a - 1, b + p - 1)
                nxt[key] = nxt.get(key, 0) - a * c
            if b:
                key = (a + p - 1, b - 1)
                nxt[key] = nxt.get(key, 0) + b * c
        state = {key: v for key, v in nxt.items() if v}
    return rows


# Printed coefficient table for the 4-cosquine, orders 0..6.
GOLDEN_COSQUINE_P4 = [
    {0: 1},
    {1: 1},
    {1: 3},
    {1: 6, 2: 9},
    {1: 6, 2: 81, 3: 18},
    {2: 378, 3: 549, 4: 18},
    {2: 1134, 3: 6867, 4: 2394},
]

SWEEP = [(p, m, n) for p in (2, 3, 4) for m, n in ((1, 0), (0, 1), (2, 1))]


def test_golden_rows_cosquine_p4():
    tri = sg.build_triangle(SquigParams(p=4, m=1, n=0), 6)
    assert list(tri.rows) == GOLDEN_COSQUINE_P4


def test_golden_row_squine_p4():
    tri = sg.build_triangle(SquigParams(p=4, m=0, n=1), 4)
    assert tri.rows[4] == {1: 18, 2: 81, 3: 6}


def test_golden_row_squine_p6():
    tri = sg.build_triangle(SquigParams(p=6, m=0, n=1), 4)
    assert tri.rows[4] == {1: 100, 2: 425, 3: 60}


@pytest.mark.parametrize("p,m,n", SWEEP + [(4, 1, 1), (5, 0, 1), (6, 1, 0)])
def test_rows_match_symbolic_differentiation(p, m, n):
    tri = sg.build_triangle(SquigParams(p=p, m=m, n=n), 10)
    assert list(tri.rows) == derivative_rows_oracle(p, m, n, 10)


@pytest.mark.parametrize("p,m,n", SWEEP)
def test_structure_clean(p, m, n):
    tri = sg.build_triangle(SquigParams(p=p, m=m, n=n), 20)
    assert sg.verify_structure(tri) == []


def test_structure_empty_band_all_zero_function():
    tri = sg.build_triangle(SquigParams(p=3, m=0, n=0), 6)
    assert sg.verify_structure(tri) == []
    assert all(not row for row in tri.rows[1:])
    assert sg.band_limits(SquigParams(p=4, m=0, n=0), 1) == (1, 0)
    assert sg.band_limits(SquigParams(p=2, m=0, n=0), 3) == (2, 1)


# (p, m, n), row k, the entries set in row k (None deletes one), the one
# violation expected.  Rows 3..6 of (4, 3, 5) have bands [0, 3], [0, 3],
# [0, 4] and [1, 5]; the falling-factorial edges are checked up to k = n = 5
# and k = m = 3.
STRUCTURE_FAULTS = [
    ((3, 0, 0), 0, {0: 2}, "row 0 of the constant function must be {0: 1}"),
    ((3, 0, 0), 1, {0: 1}, "row 1 of the constant function has 1 entries"),
    ((4, 3, 5), 6, {0: 5}, "row 6: column 0 outside band [1, 5]"),
    ((4, 3, 5), 4, {4: 5}, "row 4: column 4 outside band [0, 3]"),
    ((4, 3, 5), 3, {1: 0}, "row 3: entry at column 1 is 0, not positive"),
    ((4, 3, 5), 6, {1: None}, "row 6: left band edge 1 is zero"),
    ((4, 3, 5), 4, {3: None}, "row 4: right band edge 3 is zero"),
    ((4, 3, 5), 5, {0: 121}, "row 5: column 0 is 121, expected n falling 5"),
    ((4, 3, 5), 3, {3: 7}, "row 3: column 3 is 7, expected m falling 3"),
]


@pytest.mark.parametrize("pmn,k,change,message", STRUCTURE_FAULTS, ids=[f[3] for f in STRUCTURE_FAULTS])
def test_structure_names_each_fault(pmn, k, change, message):
    tri = sg.build_triangle(SquigParams(*pmn), 6)
    row = {j: v for j, v in {**tri.rows[k], **change}.items() if v is not None}
    rows = tri.rows[:k] + (row,) + tri.rows[k + 1:]
    assert sg.verify_structure(dataclasses.replace(tri, rows=rows)) == [message]


def test_band_edges_are_falling_factorials():
    params = SquigParams(p=4, m=3, n=5)
    tri = sg.build_triangle(params, 12)
    for k in range(6):
        assert sg.coefficient(tri, k, 0) == sg.falling_factorial(5, k)
    for k in range(4):
        assert sg.coefficient(tri, k, k) == sg.falling_factorial(3, k)


@settings(max_examples=50, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=5),
    m=st.integers(min_value=0, max_value=3),
    n=st.integers(min_value=0, max_value=3),
    k=st.integers(min_value=0, max_value=12),
)
def test_swap_symmetry(p, m, n, k):
    # Exchanging m and n reverses each row.
    a = sg.build_triangle(SquigParams(p=p, m=m, n=n), k)
    b = sg.build_triangle(SquigParams(p=p, m=n, n=m), k)
    assert a.rows[k] == {k - j: v for j, v in b.rows[k].items()}


@settings(max_examples=50, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=0, max_value=3),
    n=st.integers(min_value=0, max_value=3),
)
def test_entries_positive_inside_band(p, m, n):
    tri = sg.build_triangle(SquigParams(p=p, m=m, n=n), 15)
    for k, row in enumerate(tri.rows):
        assert row.__class__ is dict
        j_lo, j_hi = sg.band_limits(tri.params, k)
        for j, v in row.items():
            assert v > 0
            assert j_lo <= j <= j_hi


def test_p2_rows_degenerate_to_single_entries():
    sine = sg.build_triangle(SquigParams(p=2, m=0, n=1), 12)
    cosine = sg.build_triangle(SquigParams(p=2, m=1, n=0), 12)
    for k in range(13):
        assert sine.rows[k] == {k // 2: 1}
        assert cosine.rows[k] == {(k + 1) // 2: 1}


def test_coefficient_out_of_band_is_zero():
    tri = sg.build_triangle(SquigParams(p=4, m=1, n=0), 6)
    assert sg.coefficient(tri, 6, 0) == 0
    assert sg.coefficient(tri, 6, 6) == 0
    with pytest.raises(ParameterError):
        sg.coefficient(tri, 7, 0)
    with pytest.raises(ParameterError):
        sg.coefficient(tri, -1, 0)


def test_json_round_trip_exact():
    tri = sg.build_triangle(SquigParams(p=3, m=2, n=1), 40)
    back = sg.triangle_from_json(sg.triangle_to_json(tri))
    assert back.params == tri.params
    assert back.K == tri.K
    assert list(back.rows) == list(tri.rows)


# sha256 of triangle_to_json output, pinned from the dict-row generator the
# contiguous band rows replaced.
JSON_DIGESTS = {
    (4, 1, 0, 12): "c756aa59666adc49cd6c8274cc85fc0413ce41a9a6e09a1a5225b59f65910fc3",
    (3, 2, 1, 15): "71485f4926bcfe067a9d6dcf37d6a40503319ddba9bf099681cd103a323b7ed9",
    (6, 0, 1, 20): "5ef2c145babdc850e5ecd5484a30e0976e8f54062ddc6b81e50dc69492a420c6",
    (5, 3, 4, 9): "1799968e69df9276bf6982fa57c500669f9e26ad218f1b19b612f1d3b5e28634",
    (2, 1, 1, 7): "7694b70d129e7c61e7141e97493ca9347d175f0c2467736b453b06e8685112a2",
}


@pytest.mark.parametrize("p,m,n,K", sorted(JSON_DIGESTS))
def test_json_bytes_pinned(p, m, n, K):
    text = sg.triangle_to_json(sg.build_triangle(SquigParams(p=p, m=m, n=n), K))
    assert hashlib.sha256(text.encode()).hexdigest() == JSON_DIGESTS[(p, m, n, K)]


def test_constant_function_rows_are_empty_after_row_zero():
    rows = list(islice(_rows(SquigParams(p=4, m=0, n=0), (0, [1]), 0), 6))
    assert rows[0] == (0, [1])
    assert all(row == [] for _, row in rows[1:])


@pytest.mark.parametrize("p,m,n", [(2, 1, 0), (3, 2, 1), (4, 0, 3), (6, 5, 2)])
@pytest.mark.parametrize("j_max", [0, 1, 3, 7])
def test_column_cap_keeps_every_column_up_to_it(p, m, n, j_max):
    params = SquigParams(p=p, m=m, n=n)
    capped = islice(_rows(params, (0, [1]), 0, j_max), 60)
    full = sg.build_triangle(params, 59).rows
    for (lo, row), want in zip(capped, full):
        assert lo + len(row) - 1 <= j_max
        got = {lo + i: v for i, v in enumerate(row) if v}
        assert got == {j: v for j, v in want.items() if j <= j_max}


def test_json_uses_decimal_strings_for_values():
    tri = sg.build_triangle(SquigParams(p=4, m=1, n=0), 6)
    doc = json.loads(sg.triangle_to_json(tri))
    assert doc["rows"][6][0] == [2, "1134"]


@pytest.mark.parametrize("text", [
    "{not json",
    "[1, 2]",
    "{}",
    '{"p": 4, "m": 1, "n": 0, "rows": [[[0, "1"]]]}',
    '{"p": 4, "m": 1, "n": 0, "K": 0, "rows": ["0 1"]}',
    '{"p": 4, "m": 1, "n": 0, "K": 0, "rows": [{"0": "1"}]}',
    '{"p": 4, "m": 1, "n": 0, "K": 0, "rows": [[[0, "x"]]]}',
    '{"p": 4, "m": 1, "n": 0, "K": 0, "rows": [[[0, 1.5]]]}',
    '{"p": 4, "m": 1, "n": 0, "K": 0, "rows": [[[0, true]]]}',
    '{"p": 4, "m": 1, "n": 0, "K": "0", "rows": [[[0, "1"]]]}',
    '{"p": 4, "m": 1, "n": 0, "K": 1, "rows": [[[0, "1"]]]}',
])
def test_json_malformed_document_is_parameter_error(text):
    with pytest.raises(ParameterError):
        sg.triangle_from_json(text)


def test_json_refuses_a_triangle_build_triangle_refuses():
    # Negative powers, which build_triangle refuses, and a column of row k
    # outside 0..k: both loaded once, and then verify_structure and
    # kth_derivative_value read them as if they were triangles.
    negative = '{"p": 4, "m": -1, "n": 0, "K": 0, "rows": [[[0, "1"]]]}'
    with pytest.raises(ParameterError, match="m must be an int"):
        sg.triangle_from_json(negative)
    doc = json.loads(sg.triangle_to_json(sg.build_triangle(SquigParams(p=4, m=1, n=0), 2)))
    doc["rows"][2].append([5, "7"])
    with pytest.raises(ParameterError, match=r"a column of row 2 must be an int in \[0, 2\], got 5"):
        sg.triangle_from_json(json.dumps(doc))
    doc["rows"][2][-1] = [-1, "7"]
    with pytest.raises(ParameterError, match="a column of row 2"):
        sg.triangle_from_json(json.dumps(doc))


def test_validation_errors():
    with pytest.raises(ParameterError):
        SquigParams(p=1, m=0, n=1)
    with pytest.raises(ParameterError):
        SquigParams(p=2.0, m=0, n=1)  # type: ignore[arg-type]
    with pytest.raises(ParameterError):
        sg.build_triangle(SquigParams(p=4, m=-1, n=0), 4)
    with pytest.raises(ParameterError):
        sg.build_triangle(SquigParams(p=4, m=1, n=0), -1)
    with pytest.raises(ParameterError):
        sg.falling_factorial(3, -1)
    with pytest.raises(ParameterError):
        sg.falling_factorial(2.0, 2)  # type: ignore[arg-type]
    for k in (-3, 1.5):
        with pytest.raises(ParameterError):
            sg.band_limits(SquigParams(p=4, m=1, n=0), k)  # type: ignore[arg-type]


def test_falling_factorial_values():
    assert sg.falling_factorial(5, 0) == 1
    assert sg.falling_factorial(5, 3) == 60
    assert sg.falling_factorial(2, 4) == 0
    assert sg.falling_factorial(-1, 3) == -6
