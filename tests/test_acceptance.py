"""Top-level acceptance gate: ten criteria, one pass/fail line each.

Each test prints "ACCEPTANCE nn: PASS/FAIL - detail" through the capture so
the verdicts are visible in any pytest run, then asserts.  Reference values
are frozen here as decimal strings; exact integers are compared exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import squigonometry as sg
from squigonometry import SquigParams
from squigonometry.explicit import _product_for_placement

COSQUINE4 = SquigParams(p=4, m=1, n=0)
SQUINE4 = SquigParams(p=4, m=0, n=1)

# Coefficient triangle of the 4-cosquine, rows 0..6, exact.
GOLDEN_ROWS = (
    {0: 1},
    {1: 1},
    {1: 3},
    {1: 6, 2: 9},
    {1: 6, 2: 81, 3: 18},
    {2: 378, 3: 549, 4: 18},
    {2: 1134, 3: 6867, 4: 2394},
)

# Signed MacLaurin coefficients of the p=4 pair, 16-digit reference decimals;
# index j is the coefficient of t^(4j) (cosquine) and t^(4j+1) (squine).
C_REFERENCE = (
    "1", "-0.25", "0.05625", "-1.552083333333333e-2", "4.551382211538462e-3",
    "-1.378667338329563e-3", "4.262157319358032e-4", "-1.336246164457652e-4",
    "4.232450123540253e-5", "-1.35111622811414e-5", "4.339818399729758e-6",
    "-1.400932280792665e-6", "4.541006938457347e-7", "-1.477032838858058e-7",
    "4.818461802551568e-8", "-1.575906447463121e-8", "5.165517597599798e-9",
    "-1.696454484883442e-9", "5.581090331746424e-10", "-1.838922930079956e-10",
    "6.067464431015257e-11", "-2.004434127494118e-11", "6.62928857700319e-12",
    "-2.194770387531149e-12", "7.273112274138255e-13", "-2.412276992591459e-13",
    "8.007193281522936e-14", "-2.659828303685806e-14", "8.841456068111032e-15",
    "-2.940831036310465e-15", "9.787544448612465e-16", "-3.259252131579342e-16",
    "1.085894046080356e-16",
)
S_REFERENCE = (
    "1", "-0.15", "3.958333333333333e-2", "-1.127403846153846e-2",
    "3.351438772624435e-3", "-1.023074271776018e-3", "3.178544597827111e-4",
    "-9.999541389962689e-5", "3.175297169293426e-5", "-1.015610312254756e-5",
    "3.267168144275697e-6", "-1.055981761709645e-6", "3.426394557128631e-7",
    "-1.115450251730353e-7", "3.641564287838735e-8", "-1.191751121195521e-8",
    "3.908490898639448e-9", "-1.284247026995244e-9", "4.226807242319111e-10",
    "-1.393233097731723e-10", "4.59851156387092e-11", "-1.519627134628728e-11",
    "5.027300346286176e-12", "-1.664825711881474e-12", "5.518261217435007e-13",
    "-1.83064057439664e-13", "6.07774971493359e-14", "-2.019278258811832e-14",
    "6.71337044606192e-15", "-2.233345646081413e-15", "7.434024574502131e-16",
    "-2.475873000498906e-16", "8.250004847723769e-17",
)

# Quarter-period constants and the table lengths that reach 2^-53.
PI_REFERENCE = {
    3: "3.533277500570900",
    4: "3.708149354602744",
    5: "3.800600555953747",
    6: "3.855242593319996",
    7: "3.890174737625689",
    8: "3.913843287813181",
    9: "3.930614378886605",
    10: "3.942927897810032",
}
NNZ_REFERENCE = {3: 22, 4: 34, 5: 46, 6: 58, 7: 69, 8: 81, 9: 92, 10: 103}

SWEEP = [(p, m, n) for p in (2, 3, 4) for m, n in ((1, 0), (0, 1), (2, 1))]


def _announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_triangle_golden_rows(capsys):
    tri = sg.build_triangle(COSQUINE4, 6)
    failures = [
        f"row {k}: {dict(tri.rows[k])} != {want}"
        for k, want in enumerate(GOLDEN_ROWS)
        if dict(tri.rows[k]) != want
    ]
    _announce(capsys, 1, not failures,
              "4-cosquine triangle rows 0..6 exact, row 6 = {1134, 6867, 2394}")
    assert not failures, failures


def test_criterion_02_integer_numerators(capsys):
    sq_nums = sg.integer_maclaurin(SQUINE4, 3)
    cq_nums = sg.integer_maclaurin(COSQUINE4, 3)
    ok = sq_nums == (1, 18, 14364, 70203672) and cq_nums == (1, 6, 2268, 7434504)
    _announce(capsys, 2, ok,
              f"integer numerators squine={sq_nums} cosquine={cq_nums}")
    assert sq_nums == (1, 18, 14364, 70203672)
    assert cq_nums == (1, 6, 2268, 7434504)


def test_criterion_03_coefficient_table(capsys):
    cq_nums = sg.integer_maclaurin(COSQUINE4, 32)
    sq_nums = sg.integer_maclaurin(SQUINE4, 32)
    cq_float = sg.maclaurin(COSQUINE4, 32)
    sq_float = sg.maclaurin(SQUINE4, 32)
    failures = []
    worst = 0.0
    for j in range(33):
        for ref_str, nums, table, k in (
            (C_REFERENCE[j], cq_nums, cq_float, 4 * j),
            (S_REFERENCE[j], sq_nums, sq_float, 4 * j + 1),
        ):
            ref = float(ref_str)
            exact = float(Fraction((-1) ** j * nums[j], math.factorial(k)))
            rel_exact = abs(exact - ref) / abs(ref)
            rel_float = abs(table.signed(j) - ref) / abs(ref)
            worst = max(worst, rel_exact, rel_float)
            if rel_exact > 5e-15 or rel_float > 5e-15:
                failures.append(f"k={k}: exact {exact!r} float {table.signed(j)!r} ref {ref!r}")
    if cq_float.signed(1) != -0.25:
        failures.append(f"c_4 not exactly -0.25: {cq_float.signed(1)!r}")
    if sq_float.signed(1) != -0.15:
        failures.append(f"s_5 not exactly -0.15: {sq_float.signed(1)!r}")
    _announce(capsys, 3, not failures,
              f"all 66 reference coefficients within rel 5e-15 (worst {worst:.2e}), "
              "c_4 = -0.25 and s_5 = -0.15 exact")
    assert not failures, failures


def test_criterion_04_quarter_period_constants(capsys):
    failures = []
    details = []
    for p in range(3, 11):
        rec = sg.compute_pi(p)
        ref = float(PI_REFERENCE[p])
        ulps = abs(rec.value - ref) / math.ulp(ref)
        if ulps > 5:
            failures.append(f"p={p}: {rec.value!r} is {ulps:.1f} ulp from {ref!r}")
        if rec.iterations:
            failures.append(f"p={p}: {rec.iterations} widenings of the pi_p sum")
        if rec.J_used != NNZ_REFERENCE[p]:
            failures.append(f"p={p}: J_used={rec.J_used} != {NNZ_REFERENCE[p]}")
        if sg.estimate_terms(p, rec.value, rec.epsilon) != NNZ_REFERENCE[p]:
            failures.append(f"p={p}: estimate_terms disagrees with table length")
        details.append(f"{ulps:.1f}")
    _announce(capsys, 4, not failures,
              "pi_p p=3..10 within 5 ulp of 16-digit references "
              f"(ulps: {', '.join(details)}), no widening, term counts exact")
    assert not failures, failures


def test_criterion_05_route_equivalence(capsys):
    failures = []
    for p, m, n in SWEEP:
        params = SquigParams(p=p, m=m, n=n)
        tri = sg.build_triangle(params, 15)
        for k in range(13):
            for j in range(k + 1):
                if sg.explicit_coefficient(params, k, j) != sg.coefficient(tri, k, j):
                    failures.append(f"explicit p={p} m={m} n={n} k={k} j={j}")
        for k in range(16):
            vec = sg.matrix_factorial_row(params, k, 16)
            for j in range(16):
                want = sg.coefficient(tri, k, j) if j <= k else 0
                if vec[j] != want:
                    failures.append(f"matrix p={p} m={m} n={n} k={k} j={j}")
    _announce(capsys, 5, not failures,
              "explicit sums (k<=12) and matrix products (k<=15) equal the "
              "recursion triangle over the 9-table sweep, exact")
    assert not failures, failures


def test_criterion_06_nonzero_placement_counts(capsys):
    # The j = 6 count is pinned by two independent routes plus an exact sum
    # identity: the direct enumeration and the brute-force filter agree on
    # the same 4374 placements, whose products sum to the recursion value
    # q[24][6].  A 4373-placement variant would have to drop a placement
    # whose product is provably nonzero.
    failures = []
    counts = {}
    for j in range(1, 7):
        k = 4 * j
        enum = sg.enumerate_nonzero(COSQUINE4, k, j)
        brute = sg.filter_nonzero_brute(COSQUINE4, k, j)
        counts[j] = len(enum)
        if sorted(enum) != sorted(brute):
            failures.append(f"j={j}: enumeration != brute filter as sets")
    if [counts[j] for j in range(1, 6)] != [1, 3, 15, 91, 611]:
        failures.append(f"counts j=1..5 {counts} != [1, 3, 15, 91, 611]")
    if counts[6] != 4374:
        failures.append(f"count j=6 {counts[6]} != 4374")
    products = [
        _product_for_placement(COSQUINE4, 24, ones)
        for ones in sg.enumerate_nonzero(COSQUINE4, 24, 6)
    ]
    tri = sg.build_triangle(COSQUINE4, 24)
    if min(products) <= 0:
        failures.append("a placement product is not positive")
    if sum(products) != sg.coefficient(tri, 24, 6):
        failures.append("sum of placement products != q[24][6]")
    _announce(capsys, 6, not failures,
              "counts j=1..5 = 1, 3, 15, 91, 611; j=6 = 4374 with enumeration "
              "== brute filter and sum identity against the triangle")
    assert not failures, failures


def test_criterion_07_roots_and_interlacing(capsys):
    failures = []
    for p in (3, 4, 6):
        for m, n in ((1, 0), (0, 1)):
            params = SquigParams(p=p, m=m, n=n)
            ladder = sg.root_ladder(params, 30)
            for k, level in enumerate(ladder):
                j_lo, j_hi = sg.band_limits(params, k)
                if level.zero_multiplicity != j_lo:
                    failures.append(f"p={p} m={m} n={n} k={k}: zero multiplicity")
                if len(level.negative_roots) != j_hi - j_lo:
                    failures.append(f"p={p} m={m} n={n} k={k}: root count")
            for lower, upper in zip(ladder, ladder[1:]):
                if not sg.interlacing_check(lower, upper):
                    failures.append(f"p={p} m={m} n={n} k={upper.k}: interlacing")
    q3_root = sg.root_ladder(COSQUINE4, 3)[3].negative_roots[0]
    if abs(q3_root - (-2.0 / 3.0)) > 1e-12:
        failures.append(f"4-cosquine level-3 root {q3_root!r} != -2/3")
    level4 = sg.root_ladder(SquigParams(p=6, m=0, n=1), 4)[4].negative_roots
    want = ((-85.0 - math.sqrt(6265.0)) / 24.0, (-85.0 + math.sqrt(6265.0)) / 24.0)
    for got, ref in zip(level4, want):
        if abs(got - ref) > 1e-12:
            failures.append(f"6-squine level-4 root {got!r} != {ref!r}")
    _announce(capsys, 7, not failures,
              "root counts match band widths to k=30 for p in {3, 4, 6}, all "
              "pairs interlace, radical roots match to 1e-12")
    assert not failures, failures


def test_criterion_08_evaluation_invariants(capsys):
    failures = []
    ctx4 = sg.build_context(4)
    worst_pyth = 0.0
    for i in range(10_000):
        t = -10.0 + 20.0 * i / 9999.0
        s = sg.sq(ctx4, t)
        c = sg.cq(ctx4, t)
        worst_pyth = max(worst_pyth, abs(abs(s) ** 4 + abs(c) ** 4 - 1.0))
    if worst_pyth > 5e-14:
        failures.append(f"Pythagorean worst {worst_pyth:.2e} > 5e-14")

    worst_round = 0.0
    for i in range(1, 100):
        x = i / 100.0
        t = sg.arcsq_oracle(x, 4)
        worst_round = max(worst_round, abs(sg.sq(ctx4, t) - x))
    if worst_round > 1e-10:
        failures.append(f"sq(arcsq(x)) worst {worst_round:.2e} > 1e-10")

    ctx2 = sg.build_context(2)
    worst_libm = 0.0
    for i in range(2001):
        t = -10.0 + 20.0 * i / 2000.0
        worst_libm = max(worst_libm, abs(sg.sq(ctx2, t) - math.sin(t)),
                         abs(sg.cq(ctx2, t) - math.cos(t)))
    if worst_libm > 1e-13:
        failures.append(f"p=2 vs library trig worst {worst_libm:.2e} > 1e-13")

    # sq' = cq^(p-1) and cq' = -sq^(p-1) by central differences.
    h = 1e-5
    worst_ode = 0.0
    for t in (0.2, 0.7, 1.3, 2.9, 4.1):
        d_sq = (sg.sq(ctx4, t + h) - sg.sq(ctx4, t - h)) / (2.0 * h)
        d_cq = (sg.cq(ctx4, t + h) - sg.cq(ctx4, t - h)) / (2.0 * h)
        worst_ode = max(worst_ode, abs(d_sq - sg.cq(ctx4, t) ** 3),
                        abs(d_cq + sg.sq(ctx4, t) ** 3))
    if worst_ode > 1e-6:
        failures.append(f"ODE residual worst {worst_ode:.2e} > 1e-6")

    _announce(capsys, 8, not failures,
              f"Pythagorean {worst_pyth:.1e} on 10^4 points, round trip "
              f"{worst_round:.1e}, p=2 regression {worst_libm:.1e}, "
              f"ODE residual {worst_ode:.1e}")
    assert not failures, failures


def test_criterion_09_evaluation_paths_agree(capsys):
    failures = []
    worst_fh = 0.0
    worst_cf = 0.0
    for params in (COSQUINE4, SQUINE4):
        nums = sg.integer_maclaurin(params, 50)
        seq = sg.factor_sequence(nums, params)
        table = sg.maclaurin(params, 50)
        for t in (0.3, 0.7, 1.0):
            horner = sg.horner_sparse(table, t)
            product, used = sg.eval_factor_expansion(seq, t, 2.0 ** -53)
            fraction = sg.continued_fraction(seq, t, used - 1)
            worst_fh = max(worst_fh, abs(product - horner))
            worst_cf = max(worst_cf, abs(fraction - product), abs(fraction - horner))
            if abs(product - horner) > 1e-13:
                failures.append(f"{params} t={t}: factor vs Horner")
            if abs(fraction - product) > 1e-12 or abs(fraction - horner) > 1e-12:
                failures.append(f"{params} t={t}: continued fraction apart")
    _announce(capsys, 9, not failures,
              f"factor product, depth-matched continued fraction, sparse Horner "
              f"agree at t in {{0.3, 0.7, 1.0}} (worst {max(worst_fh, worst_cf):.1e})")
    assert not failures, failures


def test_criterion_10_beta_values(capsys):
    failures = []
    b2 = sg.beta_value(2, 0, 0)
    if abs(b2 - math.pi) > 1e-12:
        failures.append(f"B(1/2, 1/2) = {b2!r} vs pi")
    b4 = sg.beta_value(4, 0, 0)
    pi4 = sg.compute_pi(4).value
    if abs(b4 - 2.0 * pi4) > 1e-11:
        failures.append(f"B(1/4, 1/4) = {b4!r} vs 2 pi_4")
    for p, m, n in ((4, 0, 0), (4, 2, 1), (3, 1, 1)):
        direct = sg.beta_value(p, m, n)
        quad = sg.beta_quadrature_oracle(p, m, n)
        if abs(direct - quad) > 1e-8:
            failures.append(f"p={p} m={m} n={n}: series {direct!r} vs quadrature {quad!r}")
    _announce(capsys, 10, not failures,
              "B(1/2, 1/2) = pi, B(1/4, 1/4) = 2 pi_4, quadrature cross-checks "
              "within 1e-8")
    assert not failures, failures
