"""One SHA-256 per public function over a fixed sweep of the package's outputs.

Usage, from any directory:

    python tools/output_digest.py                  # rewrite tests/golden/output_digest.json
    python tools/output_digest.py --check          # exit 1 if a digest differs from it
    python tools/output_digest.py --dump out.txt   # also write every output line

Each sweep calls one public function on fixed arguments (seeded random
points, and for the evaluators the points where their folds change,
included); the build_context sweep records each context's tables, the
lengths of the prefixes it folds and its node count, and the nodes sweep
each node's entries but their low parts.  Every call becomes
one line: the arguments' repr, then the result with every float as
float.hex and every int in decimal, or, for a typed SquigError, its class
name and the first eight words of its message.  Any other exception
propagates.  The digest of a function is the SHA-256 of its lines, so a
single flipped bit in any output changes it, and the line count says how
many outputs it covers.  Two dumps compared line by line count the
outputs a change moved.

The sweep takes about 9 s on one core of a 2-vCPU Xeon (CPython 3.11.7),
4.6-5.0 s of it in the compute_pi sweep, which builds each record's sq and
cq tables of length J_used at tolerances down to 5e-324 from one series per
record; it uses the standard library only, and the digests are meant to be
identical on CPython 3.10-3.13.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from collections.abc import Callable, Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "output_digest.json"
sys.path.insert(0, str(ROOT / "src"))

import squigonometry as sg  # noqa: E402
from squigonometry import SquigParams  # noqa: E402

EPS = 2.0 ** -53


def encode(value) -> str:
    """Canonical text of a result: float.hex for floats, nested tuples in parentheses."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (bool, int, str)) or value is None:
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(encode, value)) + ")"
    raise TypeError(f"no encoding for {type(value).__name__}")


def call(fn: Callable, *args) -> str:
    """One output line: the arguments and the encoded result or typed error."""
    try:
        out = encode(fn(*args))
    except sg.SquigError as exc:
        out = f"!{type(exc).__name__}: {' '.join(str(exc).split()[:8])}"
    return f"{args!r} -> {out}"


def _record(p: int, eps: float):
    # The record's fields, then its sq and cq tables of length J_used, both
    # from one series, as maclaurin(SquigParams(p, m, 1 - m), J_used) gives them.
    rec = sg.compute_pi(p, eps)
    series = sg.series._TaylorSeries(p)
    return (rec.value, rec.iterations, rec.J_used,
            *(series.table(SquigParams(p, m, 1 - m), rec.J_used).floats for m in (0, 1)))


def _points(seed: int) -> list:
    # Fixed edge points, then seeded ones on [-10, 10] and log-uniform
    # magnitudes of both signs up to 1e300.
    rng = random.Random(seed)
    fixed = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-20, 0.5,
             0.9, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 7.0, -1.0, -2.5, 1e3, -1e3, 1e6, 1e9,
             1e12, 1e15, 1e300, -1e300, 1.7976931348623157e308,
             float("inf"), float("nan"), 1, True, "1.0", None]
    uniform = [rng.uniform(-10.0, 10.0) for _ in range(200)]
    wide = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0) for _ in range(60)]
    return fixed + uniform + wide


_PI_GRID = [(p, eps) for p in (*range(2, 13), 16)
            for eps in (EPS, 1e-12, 1e-6, 0.01, 0.3, 0.9)]
_PI_GRID += [(p, eps) for p in (2, 3, 4, 6, 10) for eps in (1e-30, 1e-100, 1e-300, 5e-324)]
_CONTEXTS = [(p, eps) for p in (2, 3, 4, 6, 10, 16, 64) for eps in (EPS, 1e-6)]
_CONTEXTS += [(128, EPS), (3, 5e-324), (10, 1e-300)]
_MN = ((0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (3, 3), (5, 0), (0, 5), (30, 30))
_EXACT_MN = ((1, 0), (0, 1), (2, 1), (1, 2))  # the (m, n) of the exact-integer benchmark


def sweep_compute_pi() -> Iterator[str]:
    for p, eps in _PI_GRID:
        yield call(_record, p, eps)


_CONTEXT_TABLES = [(p, eps) for p in (*range(2, 17), 24, 32, 64)
                   for eps in (EPS, 1e-12, 1e-6, 1e-3, 0.1)]


def _context_tables(p: int, eps: float):
    # The context's own tables, cut for [0, q], then the lengths of the
    # prefixes its evaluators fold and the count of node entries.
    ctx = sg.build_context(p, eps)
    nodes = sg.evalcore._nodes(ctx)
    shape = (len(nodes.sq_prefix.floats), len(nodes.cq_prefix.floats), len(nodes.sq))
    return ctx.sq_table.floats, ctx.cq_table.floats, shape


def sweep_build_context() -> Iterator[str]:
    for p, eps in _CONTEXT_TABLES:
        yield call(_context_tables, p, eps)


def sweep_nodes() -> Iterator[str]:
    # Node by node, the sq and cq entries each node folds: t0, hi and
    # b_1..b_8, with lo, the last bits of the node's value, left out.
    for p in (2, 3, 4, 6, 10, 16, 32, 64):
        nodes = sg.evalcore._nodes(sg.build_context(p))
        for i, pair in enumerate(zip(nodes.sq, nodes.cq)):
            yield call(lambda *a, pair=pair: tuple(e[:2] + e[3:] for e in pair), p, i)


def sweep_maclaurin() -> Iterator[str]:
    for p in (2, 3, 4, 7, 10, 11, 16):
        for m, n in _MN:
            for J in (0, 5, 40):
                yield call(lambda *a: sg.maclaurin(SquigParams(*a[:3]), a[3]).floats, p, m, n, J)
    for p, m, n in ((4, 0, 1020), (4, 0, 1030), (100000, 0, 1), (10, 40, 3)):
        yield call(lambda *a: sg.maclaurin(SquigParams(*a[:3]), a[3]).floats, p, m, n, 3)
    # Refusals past binary64, and a deep product at large p.
    for p, m, n, J in ((2, 0, 10**104, 5), (4, 10**400, 0, 3), (64, 7, 9, 200)):
        yield call(lambda *a: sg.maclaurin(SquigParams(*a[:3]), a[3]).floats, p, m, n, J)


def sweep_integer_maclaurin() -> Iterator[str]:
    for p in (2, 3, 4, 7, 10, 11):
        for m, n in _MN:
            yield call(lambda *a: sg.integer_maclaurin(SquigParams(*a[:3]), a[3]), p, m, n, 12)


def _seams(ctx) -> list:
    # Where the evaluators change fold, each with its neighbours: q/2, and
    # the first point of each later node of the N equal node parts of
    # [q/2, q] (the least s whose index int((s - q/2) * scale) reaches it,
    # with scale = N / (q - q/2)); then q, for q = pi_p / 4.  N is the node
    # count of evalcore's degree-8 node folds, the least with
    # N >= 2^(60/9) / (4 tan(pi / max(p, 3))).
    q, mid = ctx.quarter, ctx.quarter / 2.0
    count = math.ceil(2.0 ** (60 / 9) / (4.0 * math.tan(math.pi / max(ctx.p, 3))))
    scale = count / (q - mid)
    edges = [mid]
    for k in range(1, count):
        e = mid + k / scale
        while int((e - mid) * scale) >= k:
            e = math.nextafter(e, 0.0)
        while int((e - mid) * scale) < k:
            e = math.nextafter(e, 2.0)
        edges.append(e)
    return [x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 2.0))] + [q]


def _evaluations(fn: Callable) -> Iterator[str]:
    for p, eps in _CONTEXTS:
        ctx = sg.build_context(p, eps)
        for t in _points(1000 * p) + _seams(ctx):
            yield call(lambda *a, ctx=ctx: fn(ctx, a[2]), p, eps, t)


def sweep_sq() -> Iterator[str]:
    return _evaluations(sg.sq)


def sweep_cq() -> Iterator[str]:
    return _evaluations(sg.cq)


def sweep_reduce_argument() -> Iterator[str]:
    return _evaluations(lambda ctx, t: tuple(sg.reduce_argument(ctx, t)))


def sweep_pow_general() -> Iterator[str]:
    for m, n in ((2, 1), (-1, 2), (0, -2), (3, 0)):
        yield from _evaluations(lambda ctx, t, m=m, n=n: sg.pow_general(ctx, m, n, t))


def sweep_beta_value() -> Iterator[str]:
    for p in (2, 3, 4, 6, 10, 11):
        for m, n in _MN + ((10, 3), (12, 12), (20, 5), (700, 0)):
            for eps in (EPS, 1e-8, 0.1):
                yield call(sg.beta_value, p, m, n, eps)
    for m, n in ((3, 2), (2, 3), (15, 14), (14, 15)):
        yield call(sg.beta_value, 16, m, n, EPS)
    # 65536 recurrence steps, one step more, and a value far below binary64.
    for p, m, n in ((2, 131072, 0), (2, 131074, 0), (3, 0, 196608), (3, 0, 196611), (2, 3000, 3000)):
        yield call(sg.beta_value, p, m, n, EPS)


def sweep_arcsq_oracle() -> Iterator[str]:
    # 0, the least subnormal, 1/2, c = 2^(-1/p) where the reflection starts
    # and its neighbours, 1 - 1 ulp and 1, then seeded points on [0, 1].
    rng = random.Random(3300)
    for p in (2, 3, 4, 10, 64, 1000):
        c = 2.0 ** (-1.0 / p)
        fixed = [0.0, 5e-324, 0.5, math.nextafter(c, 0.0), c, math.nextafter(c, 2.0),
                 math.nextafter(1.0, 0.0), 1.0]
        for x in fixed + [rng.random() for _ in range(20)]:
            yield call(sg.arcsq_oracle, x, p)
    # Refusals: x outside [0, 1] or not a finite real, a p past binary64.
    for x in (-5e-324, 1.0000000000000002, math.inf, math.nan, True, "0.5"):
        yield call(sg.arcsq_oracle, x, 4)
    for p in (1, 4.0, 10**400):
        yield call(sg.arcsq_oracle, 0.5, p)


def sweep_beta_quadrature_oracle() -> Iterator[str]:
    for p in (2, 3, 4, 10, 64):
        for m, n in _MN:
            yield call(sg.beta_quadrature_oracle, p, m, n)
    # Refusals: a negative or non-int power, a p or m past binary64.
    for p, m, n in ((4, -1, 0), (4, 0, -1), (4, 1.0, 0), (10**400, 0, 0), (4, 10**400, 0), (4, 0, 10**400)):
        yield call(sg.beta_quadrature_oracle, p, m, n)


def sweep_root_ladder() -> Iterator[str]:
    def ladder(p, m, n, k_max):
        return tuple((level.k, level.zero_multiplicity, level.negative_roots)
                     for level in sg.root_ladder(SquigParams(p, m, n), k_max))

    for args in ((2, 1, 0, 12), (3, 0, 1, 14), (4, 1, 0, 16), (4, 2, 1, 12), (6, 1, 0, 30),
                 (3, 2, 2, 30), (8, 3, 2, 24), (12, 1, 1, 20), (4, 0, 0, 3)):
        yield call(ladder, *args)
    # The exact-integer benchmark's ladders, at their deepest level.
    for p in range(2, 7):
        for m, n in _EXACT_MN:
            yield call(ladder, p, m, n, 10)


def sweep_critical_value() -> Iterator[str]:
    for p in range(2, 11):
        for m in range(0, 6):
            for n in range(0, 6):
                yield call(lambda *a: sg.critical_value(SquigParams(*a)), p, m, n)
    for m, n in ((300, 1), (1, 300), (1000, 1000)):
        yield call(lambda *a: sg.critical_value(SquigParams(*a)), 3, m, n)


def sweep_explicit_coefficient() -> Iterator[str]:
    # The exact-integer benchmark's rows: p 2..6, its four (m, n), k <= 14;
    # then two cases on to the cap MAX_EXPLICIT_ORDER = 22.
    cases = [(p, m, n, range(15)) for p in range(2, 7) for m, n in _EXACT_MN]
    cases += [(4, 1, 0, range(15, 23)), (6, 2, 1, range(15, 23))]
    for p, m, n, orders in cases:
        for k in orders:
            for j in range(k + 2):
                yield call(lambda *a: sg.explicit_coefficient(SquigParams(*a[:3]), *a[3:]),
                           p, m, n, k, j)


def sweep_corollary_coefficient() -> Iterator[str]:
    # Negative m (the tangent-type series) down to -3, where a run of marked
    # steps can start at a negative factor, reach 0 or cross it.
    for p, m, n in ((2, 1, 0), (3, 0, 1), (4, 1, 0), (4, 2, 1), (4, -1, 1), (6, -2, 3),
                    (2, -1, 0), (3, -1, 2), (2, -2, 1), (3, -2, 0), (2, -3, 0), (3, -3, 1),
                    (4, -3, 2), (5, -2, 0)):
        for j in range(9):
            yield call(lambda *a: sg.corollary_coefficient(SquigParams(*a[:3]), a[3]),
                       p, m, n, j)


_CF_DEPTH = 12
_CF_CASES = [(p, m, n) for p in (2, 3, 4, 6) for m, n in ((1, 0), (0, 1), (2, 1))]


def _cf_points() -> list:
    # t = ±0, 1, a t whose t^p overflows, then seeded points on [-2, 2].
    rng = random.Random(2200)
    return [0.0, -0.0, 1.0, 1e100] + [rng.uniform(-2.0, 2.0) for _ in range(16)]


def _cf_sweep(fold: Callable) -> Iterator[str]:
    # fold(params, numerators) returns the evaluator of (t, depth) for one
    # case; every depth 0.._CF_DEPTH meets every point.
    points = _cf_points()
    for p, m, n in _CF_CASES:
        params = SquigParams(p, m, n)
        evaluate = fold(params, sg.integer_maclaurin(params, _CF_DEPTH))
        for depth in range(_CF_DEPTH + 1):
            for t in points:
                yield call(lambda *a: evaluate(*a[3:]), p, m, n, t, depth)


def sweep_continued_fraction() -> Iterator[str]:
    def fold(params, numerators):
        fs = sg.factor_sequence(numerators, params)
        return lambda t, depth: sg.continued_fraction(fs, t, depth)

    return _cf_sweep(fold)


def sweep_evaluate_integer_cf() -> Iterator[str]:
    def fold(params, numerators):
        lead, levels = sg.integer_cf_terms(numerators, params)
        return lambda t, depth: sg.evaluate_integer_cf(lead, levels, params, t, depth)

    return _cf_sweep(fold)


SWEEPS: dict[str, Callable[[], Iterator[str]]] = {
    name[len("sweep_"):]: fn for name, fn in globals().items() if name.startswith("sweep_")
}


def digest(name: str, dump: list[str] | None = None) -> dict:
    """{"outputs": count, "sha256": hex} of one function's sweep; lines go to dump too."""
    sha = hashlib.sha256()
    count = 0
    for line in SWEEPS[name]():
        sha.update(line.encode("utf-8") + b"\n")
        count += 1
        if dump is not None:
            dump.append(f"{name}: {line}")
    return {"outputs": count, "sha256": sha.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {GOLDEN.relative_to(ROOT)} instead of writing it")
    parser.add_argument("--dump", type=Path, help="write every output line to this file")
    args = parser.parse_args(argv)
    lines: list[str] | None = [] if args.dump else None
    digests = {name: digest(name, lines) for name in SWEEPS}
    if args.dump:
        args.dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if not args.check:
        GOLDEN.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
        return 0
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    moved = [name for name in sorted(set(want) | set(digests)) if want.get(name) != digests.get(name)]
    for name in moved:
        print(f"digest differs: {name}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
