"""Command-line interface: CSV-emitting subcommands over the library.

Output conventions: every data command writes CSV to stdout with a header
row; floats are printed in shortest round-trip form, so parsing a value back
gives the identical binary64.  Exit codes: 0 on success, 2 on invalid
arguments or domain errors, 3 when a computation or verification fails.
A command checks or computes everything that can fail before it prints its
header, so one that fails leaves stdout empty.

The cache subcommands persist what an evaluation context holds, pi_p and
the binary64 sq and cq tables build_context cut, to a JSON file so later
runs can rebuild contexts bit-identically.  A format-3 document holds one
entry per (p, epsilon), keyed "<p>|<epsilon.hex()>", with exactly the keys
pi_p, sq and cq; floats are stored as JSON numbers, which round-trip
exactly.  The cache directory defaults to $SQUIG_CACHE_DIR, falling back to
~/.cache/squigonometry.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import constants, derivpoly, evalcore, explicit, factors, series, triangle
from .errors import DomainError, ParameterError, SquigError
from .errors import check_finite, check_int, check_tolerance
from .series import EPS_DEFAULT
from .triangle import SquigParams

CACHE_FORMAT = 3
CACHE_BASENAME = "tables.json"


# ---------------------------------------------------------------------------
# Cache file handling.

def default_cache_dir() -> str:
    env = os.environ.get("SQUIG_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "squigonometry")


def _entry_key(p: int, epsilon: float) -> str:
    return f"{p}|{float(epsilon).hex()}"


def _read_cache(path: str) -> dict:
    # Any unreadable or misshapen file is bad input (exit 2), not a crash.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read cache file {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ParameterError(f"cache file {path} is not valid JSON: {exc}") from None
    if doc.__class__ is not dict:
        raise ParameterError(f"cache file {path} is not a cache document")
    if doc.get("format") != CACHE_FORMAT:
        raise ParameterError(
            f"cache file {path} has format {doc.get('format')!r}, not {CACHE_FORMAT}; "
            "delete it and save the tables again"
        )
    if doc.get("entries").__class__ is not dict:
        raise ParameterError(f"cache file {path} has no entries object")
    return doc


def save_tables(path: str, p: int, epsilon: float = EPS_DEFAULT) -> dict:
    """Write (or merge into) a cache file the context entry for (p, epsilon).

    Stores build_context's pi_p and the floats of the sq and cq tables it
    evaluates.  Returns the full document.
    """
    ctx = evalcore.build_context(p, epsilon)
    doc = _read_cache(path) if os.path.exists(path) else {"format": CACHE_FORMAT, "entries": {}}
    doc["entries"][_entry_key(p, epsilon)] = {
        "pi_p": ctx.pi_p,
        "sq": list(ctx.sq_table.floats),
        "cq": list(ctx.cq_table.floats),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc


def _finite_number(value) -> bool:
    return value.__class__ in (int, float) and math.isfinite(value)


def load_context(path: str, p: int, epsilon: float = EPS_DEFAULT) -> evalcore.EvalContext:
    """Rebuild an evaluation context from a cache file, bit-identically.

    The returned context equals one built fresh with the same (p, epsilon):
    floats pass through JSON unchanged.  A bad p or epsilon, a missing,
    unreadable or malformed cache file, or one in another format, raises
    ParameterError.
    """
    check_int("p", p, 2)
    check_tolerance("epsilon", epsilon)
    key = _entry_key(p, epsilon)
    entry = _read_cache(path)["entries"].get(key)
    if entry is None:
        raise ParameterError(f"cache has no entry for p={p}, epsilon={epsilon}")
    try:
        pi_p = entry["pi_p"]
        sq_table, cq_table = (
            series.MacLaurinTable(SquigParams(p=p, m=m, n=n), tuple(entry[name]))
            for name, m, n in (("sq", 0, 1), ("cq", 1, 0))
        )
    except (KeyError, TypeError, ParameterError) as exc:  # ParameterError: an empty table
        raise ParameterError(f"cache entry {key} is incomplete: {exc!r}") from None
    if not (all(map(_finite_number, sq_table.floats + cq_table.floats + (pi_p,))) and pi_p > 0.0):
        raise ParameterError(
            f"cache entry {key} is invalid: sq and cq floats must be finite numbers "
            "and pi_p finite and positive"
        )
    return evalcore.EvalContext(p, pi_p / 4.0, sq_table, cq_table, epsilon)


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns a process exit code.

def _cmd_table1(args: argparse.Namespace) -> int:
    p = 4
    J = args.terms
    cq_nums = series.integer_maclaurin(SquigParams(p=p, m=1, n=0), J)
    sq_nums = series.integer_maclaurin(SquigParams(p=p, m=0, n=1), J)
    print("k_c,c_k,k_s,s_k")
    for j in range(J + 1):
        k_c = p * j
        k_s = 1 + p * j
        c_val = float(Fraction((-1) ** j * cq_nums[j], math.factorial(k_c)))
        s_val = float(Fraction((-1) ** j * sq_nums[j], math.factorial(k_s)))
        print(f"{k_c},{c_val!r},{k_s},{s_val!r}")
    return 0


def _cmd_pi(args: argparse.Namespace) -> int:
    lo, hi = args.p_min, args.p_max
    if lo > hi:
        raise ParameterError(f"empty p range {lo}..{hi}")
    records = [constants.compute_pi(p, args.eps) for p in range(lo, hi + 1)]
    print("p,pi_p,terms,iterations")
    for rec in records:
        print(f"{rec.p},{rec.value!r},{rec.J_used},{rec.iterations}")
    return 0


def _cmd_beta(args: argparse.Namespace) -> int:
    value = constants.beta_value(args.p, args.m, args.n, args.eps)
    print("p,m,n,beta")
    print(f"{args.p},{args.m},{args.n},{value!r}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    ctx = evalcore.build_context(args.p, args.eps)
    if args.func == "pow":
        values = [evalcore.pow_general(ctx, args.m, args.n, t) for t in args.t]
    else:
        func = evalcore.sq if args.func == "sq" else evalcore.cq
        values = [func(ctx, t) for t in args.t]
    print("t,value")
    for t, value in zip(args.t, values):
        print(f"{t!r},{value!r}")
    return 0


def _cmd_plotdata(args: argparse.Namespace) -> int:
    ctx = evalcore.build_context(args.p, args.eps)
    tmax = args.tmax if args.tmax is not None else 2.0 * ctx.pi_p
    if args.points < 2:
        raise ParameterError(f"need at least 2 points, got {args.points}")
    # sq and cq answer every finite t, so a finite tmax is the only check
    # needed before the first row.
    check_finite("tmax", tmax)
    # t = tmax * i / (points - 1), with tmax scaled by 2^-e (e >= 0) first and
    # the quotient scaled back: the same bits, but no overflow before the division.
    e = max(math.frexp(tmax)[1], 0)
    print("t,sq,cq")
    for i in range(args.points):
        t = math.ldexp(math.ldexp(tmax, -e) * i / (args.points - 1), e)
        print(f"{t!r},{evalcore.sq(ctx, t)!r},{evalcore.cq(ctx, t)!r}")
    return 0


def _cmd_triangle(args: argparse.Namespace) -> int:
    tri = triangle.build_triangle(SquigParams(p=args.p, m=args.m, n=args.n), args.K)
    if args.json:
        print(triangle.triangle_to_json(tri))
        return 0
    print("k,j,q")
    for k, row in enumerate(tri.rows):
        for j, v in sorted(row.items()):
            print(f"{k},{j},{v}")
    return 0


def _cmd_roots(args: argparse.Namespace) -> int:
    params = SquigParams(p=args.p, m=args.m, n=args.n)
    ladder = derivpoly.root_ladder(params, args.k_max)
    print("k,zero_multiplicity,root,cq,sq")
    for level in ladder:
        for root in level.negative_roots:
            cq_val, sq_val = derivpoly.algebraic_values(root, args.p)
            print(f"{level.k},{level.zero_multiplicity},{root!r},{cq_val!r},{sq_val!r}")
    return 0


def _cmd_factors(args: argparse.Namespace) -> int:
    params = SquigParams(p=args.p, m=args.m, n=args.n)
    nums = series.integer_maclaurin(params, args.J)
    fs = factors.factor_sequence(nums, params)
    print("j,a_exact,a_float")
    for j, (exact, approx) in enumerate(zip(fs.exact, fs.floats)):
        print(f"{j},{exact},{approx!r}")
    return 0


def _cmd_maclaurin(args: argparse.Namespace) -> int:
    params = SquigParams(p=args.p, m=args.m, n=args.n)
    J = args.J if args.J is not None else constants.compute_pi(args.p, args.eps).J_used
    table = series.maclaurin(params, J)
    numerators = series.integer_maclaurin(params, J) if args.exact else None
    print("j,power,coefficient" + (",numerator" if args.exact else ""))
    for j in range(J + 1):
        line = f"{j},{table.power(j)},{table.signed(j)!r}"
        print(line if numerators is None else f"{line},{numerators[j]}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    directory = args.dir if args.dir is not None else default_cache_dir()
    path = os.path.join(directory, CACHE_BASENAME)
    if args.cache_action == "save":
        save_tables(path, args.p, args.eps)
        print(f"saved p={args.p} tables to {path}")
        return 0
    ctx = load_context(path, args.p, args.eps)
    print(f"loaded p={ctx.p} J={ctx.sq_table.J} pi_p={ctx.pi_p!r} from {path}")
    return 0


def _check(name: str, detail: str, ok: bool, lines: list[str]) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    return ok


def _cmd_verify(args: argparse.Namespace) -> int:
    lines: list[str] = []
    all_ok = True
    sweep = [
        (p, m, n)
        for p in (2, 3, 4)
        for m, n in ((1, 0), (0, 1), (2, 1))
    ]

    for p, m, n in ((4, 1, 0), (3, 2, 1)):
        tri = triangle.build_triangle(SquigParams(p=p, m=m, n=n), 20)
        problems = triangle.verify_structure(tri)
        all_ok &= _check("triangle-structure", f"p={p} m={m} n={n} K=20",
                         not problems, lines)

    for p in range(2, 11):
        got = constants.compute_pi(p).value
        want = constants.pi_gamma(p)
        all_ok &= _check("pi-gamma-oracle", f"p={p}",
                         abs(got - want) <= 1e-13 * want, lines)

    for p, m, n in sweep:
        params = SquigParams(p=p, m=m, n=n)
        tri = triangle.build_triangle(params, 12)
        ok = all(
            explicit.explicit_coefficient(params, k, j) == triangle.coefficient(tri, k, j)
            for k in range(13)
            for j in range(k + 1)
        )
        all_ok &= _check("explicit-equals-triangle", f"p={p} m={m} n={n} k<=12", ok, lines)

    for p, m, n in sweep:
        params = SquigParams(p=p, m=m, n=n)
        tri = triangle.build_triangle(params, 15)
        ok = True
        for k in range(16):
            vec = explicit.matrix_factorial_row(params, k, 17)
            ok &= all(vec[j] == triangle.coefficient(tri, k, j) for j in range(17) if j <= k)
            ok &= all(v == 0 for v in vec[k + 1:])
        all_ok &= _check("matrix-equals-triangle", f"p={p} m={m} n={n} k<=15", ok, lines)

    params = SquigParams(p=4, m=1, n=0)
    ok = True
    for j in range(1, 6):
        k = 4 * j
        ok &= set(explicit.enumerate_nonzero(params, k, j)) == set(
            explicit.filter_nonzero_brute(params, k, j)
        )
    all_ok &= _check("enumeration-equals-brute", "4-cosquine j<=5", ok, lines)

    for p in (3, 4):
        for m, n in ((1, 0), (0, 1)):
            params = SquigParams(p=p, m=m, n=n)
            table = series.maclaurin(params, 4)
            ok = all(
                abs(explicit.corollary_coefficient(params, j) - table.signed(j)) <= 1e-12
                for j in range(5)
            )
            all_ok &= _check("corollary-equals-series", f"p={p} m={m} n={n} j<=4", ok, lines)

    for p in (2, 3, 4, 6):
        ctx = evalcore.build_context(p)
        worst = 0.0
        for i in range(201):
            t = -10.0 + 20.0 * i / 200
            worst = max(worst, abs(abs(evalcore.cq(ctx, t)) ** p
                                   + abs(evalcore.sq(ctx, t)) ** p - 1.0))
        all_ok &= _check("pythagorean-identity", f"p={p} worst={worst:.2e}",
                         worst <= 5e-14, lines)

    for p, m, n in ((2, 0, 0), (4, 0, 0), (4, 2, 1), (3, 1, 2)):
        got = constants.beta_value(p, m, n)
        want = constants.beta_gamma(p, m, n)
        all_ok &= _check("beta-gamma-oracle", f"p={p} m={m} n={n}",
                         abs(got - want) <= 1e-11 * abs(want), lines)

    for line in lines:
        print(line)
    return 0 if all_ok else 3


# ---------------------------------------------------------------------------
# Parser assembly.

def _add_eps(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--eps", type=float, default=EPS_DEFAULT,
                     help="tolerance target for table sizing (default: 2^-53)")


def _add_pmn(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="circle degree, p >= 2")
    sub.add_argument("--m", type=int, required=True, help="cosquine power")
    sub.add_argument("--n", type=int, required=True, help="squine power")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squig",
        description="Squigonometric tables, constants, and evaluation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("table1", help="signed MacLaurin coefficients for p=4")
    sub.add_argument("--terms", type=int, default=32,
                     help="last coefficient index (default: 32, giving 33 rows)")
    sub.set_defaults(handler=_cmd_table1)

    sub = subs.add_parser("pi", help="pi_p over a range of degrees")
    sub.add_argument("--p-min", type=int, default=2)
    sub.add_argument("--p-max", type=int, default=10)
    _add_eps(sub)
    sub.set_defaults(handler=_cmd_pi)

    sub = subs.add_parser("beta", help="Beta value B((m+1)/p, (n+1)/p)")
    _add_pmn(sub)
    _add_eps(sub)
    sub.set_defaults(handler=_cmd_beta)

    sub = subs.add_parser("eval", help="evaluate sq, cq, or cq^m sq^n")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--func", choices=("sq", "cq", "pow"), default="sq")
    sub.add_argument("--m", type=int, default=0)
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--t", type=float, nargs="+", required=True)
    _add_eps(sub)
    sub.set_defaults(handler=_cmd_eval)

    sub = subs.add_parser("plotdata", help="sq/cq samples over a uniform grid")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--points", type=int, default=257)
    sub.add_argument("--tmax", type=float, default=None,
                     help="grid endpoint (default: one full period 2 pi_p)")
    _add_eps(sub)
    sub.set_defaults(handler=_cmd_plotdata)

    sub = subs.add_parser("triangle", help="exact coefficient triangle rows")
    _add_pmn(sub)
    sub.add_argument("--K", type=int, required=True, help="highest row")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    sub.set_defaults(handler=_cmd_triangle)

    sub = subs.add_parser("roots", help="interior zeros of derivatives, with algebraic values")
    _add_pmn(sub)
    sub.add_argument("--k-max", type=int, required=True, help="highest derivative order")
    sub.set_defaults(handler=_cmd_roots)

    sub = subs.add_parser("factors", help="term-to-term factor sequence a_j")
    _add_pmn(sub)
    sub.add_argument("--J", type=int, default=8, help="last factor index (default: 8)")
    sub.set_defaults(handler=_cmd_factors)

    sub = subs.add_parser("maclaurin", help="MacLaurin table for cq^m sq^n")
    _add_pmn(sub)
    sub.add_argument("--J", type=int, default=None,
                     help="last coefficient index (default: sized from eps)")
    sub.add_argument("--exact", action="store_true", help="include integer numerators")
    _add_eps(sub)
    sub.set_defaults(handler=_cmd_maclaurin)

    sub = subs.add_parser("verify", help="run built-in cross-checks")
    sub.set_defaults(handler=_cmd_verify)

    sub = subs.add_parser("cache", help="save or load table caches")
    cache_subs = sub.add_subparsers(dest="cache_action", required=True)
    for action in ("save", "load"):
        cache_sub = cache_subs.add_parser(action)
        cache_sub.add_argument("--p", type=int, required=True)
        cache_sub.add_argument("--dir", default=None,
                               help="cache directory (default: $SQUIG_CACHE_DIR)")
        _add_eps(cache_sub)
        cache_sub.set_defaults(handler=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.handler(args)
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SquigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
