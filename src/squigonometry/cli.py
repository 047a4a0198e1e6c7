"""Command-line interface: CSV-emitting subcommands over the library.

Output conventions: every data command writes CSV to stdout with a header
row; floats are printed in shortest round-trip form, so parsing a value back
gives the identical binary64.  Exit codes: 0 on success, 2 on invalid
arguments, domain errors or requests past a cost ceiling, 3 when a
computation or verification fails.
A command checks or computes everything that can fail before it prints its
header, so one that fails leaves stdout empty.  A command that evaluates
builds its context with evalcore.build_context on every run; the tables
are rebuilt bit-identically from the integer series, and nothing is
written to disk.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from . import constants, derivpoly, evalcore, explicit, factors, series, triangle
from .errors import CostGuardError, DomainError, ParameterError, SquigError
from .errors import check_finite, check_int, check_tolerance
from .series import EPS_DEFAULT
from .triangle import SquigParams


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns a process exit code.

def _cmd_table1(args: argparse.Namespace) -> int:
    check_int("--terms", args.terms, 0)
    tables = [series.maclaurin(SquigParams(p=4, m=m, n=1 - m), args.terms) for m in (1, 0)]
    print("k_c,c_k,k_s,s_k")
    for j in range(args.terms + 1):
        print(",".join(f"{table.power(j)},{table.signed(j)!r}" for table in tables))
    return 0


def _cmd_pi(args: argparse.Namespace) -> int:
    lo, hi = args.p_min, args.p_max
    if lo > hi:
        raise ParameterError(f"empty p range {lo}..{hi}")
    check_int("p", lo, 2)  # then top down: J_used grows with p, so the cap refuses before any build
    records = [constants.compute_pi(p, args.eps) for p in range(hi, lo - 1, -1)]
    print("p,pi_p,terms,iterations")
    for rec in reversed(records):
        print(f"{rec.p},{rec.value!r},{rec.J_used},{rec.iterations}")
    return 0


def _cmd_beta(args: argparse.Namespace) -> int:
    value = constants.beta_value(args.p, args.m, args.n)
    print("p,m,n,beta")
    print(f"{args.p},{args.m},{args.n},{value!r}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    ctx = evalcore.build_context(args.p)
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
    ctx = evalcore.build_context(args.p)
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
        cq_val, sq_val = ctx.evaluators.pair(t)
        print(f"{t!r},{sq_val!r},{cq_val!r}")
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
    check_tolerance("epsilon", args.eps)  # checked even where --J leaves it unused
    J = args.J if args.J is not None else constants.compute_pi(args.p, args.eps).J_used
    table = series.maclaurin(params, J)
    numerators = series.integer_maclaurin(params, J) if args.exact else None
    print("j,power,coefficient" + (",numerator" if args.exact else ""))
    for j in range(J + 1):
        line = f"{j},{table.power(j)},{table.signed(j)!r}"
        print(line if numerators is None else f"{line},{numerators[j]}")
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

    for p in range(2, 65):
        rec = constants.compute_pi(p)
        want = constants.pi_gamma(p)
        all_ok &= _check("pi-gamma-oracle", f"p={p}",
                         abs(rec.value - want) <= 1e-13 * want, lines)
        # The paper's definition, cq(pi_p / 4) = sq(pi_p / 4) = 2^(-1/p), on the evaluators.
        ctx, target = evalcore.build_context(p), 2.0 ** (-1.0 / p)
        ulps = max(abs(f(ctx, ctx.quarter) - target) for f in (evalcore.sq, evalcore.cq)) / math.ulp(target)
        all_ok &= _check("quarter-period-equation", f"p={p} residual={ulps:.1f} ulp", ulps <= 2.0, lines)

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
            # Both sides are correctly rounded, so they agree bit for bit.
            ok = all(explicit.corollary_coefficient(params, j) == table.signed(j) for j in range(5))
            all_ok &= _check("corollary-equals-series", f"p={p} m={m} n={n} j<=4", ok, lines)

    for p in (2, 3, 4, 6, 10, 64):
        ctx = evalcore.build_context(p)
        worst = 0.0
        for i in range(201):
            cq_val, sq_val = ctx.evaluators.pair(-10.0 + 20.0 * i / 200)
            worst = max(worst, abs(abs(cq_val) ** p + abs(sq_val) ** p - 1.0))
        all_ok &= _check("pythagorean-identity", f"p={p} worst={worst:.2e}",
                         worst <= 5e-14, lines)

    # The quadrature inverse shares nothing with the tables or the nodes.
    for p in (4, 10, 64):
        ctx = evalcore.build_context(p)
        grid = [ctx.quarter * i / 16 for i in range(17)]
        worst = max(abs(constants.arcsq_oracle(evalcore.sq(ctx, t), p) - t) for t in grid)
        all_ok &= _check("arcsq-oracle", f"p={p} worst={worst:.2e}", worst <= 1e-11, lines)

    for p, m, n in ((2, 0, 0), (4, 0, 0), (4, 2, 1), (3, 1, 2), (4, 9, 5), (2, 30, 30)):
        got = constants.beta_value(p, m, n)
        want = constants.beta_gamma(p, m, n)
        all_ok &= _check("beta-gamma-oracle", f"p={p} m={m} n={n}",
                         abs(got - want) <= 1e-11 * abs(want), lines)

    for p in (2, 3, 4, 10):
        for m, n in ((0, 0), (1, 0), (2, 1), (3, 2)):
            got, want = constants.beta_value(p, m, n), constants.beta_arclength_oracle(p, m, n)
            all_ok &= _check("beta-arclength", f"p={p} m={m} n={n}", abs(got - want) <= 1e-13 * want, lines)

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


class _Parser(argparse.ArgumentParser):
    # argparse's pattern for negative numbers has no exponent and no inf, so it takes -1e-5 for an option.
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)(e[-+]?\d+)?$|^-inf$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    sub = subs.add_parser("beta", help="Beta value B((m+1)/p, (n+1)/p), correctly rounded")
    _add_pmn(sub)
    sub.set_defaults(handler=_cmd_beta)

    sub = subs.add_parser("eval", help="evaluate sq, cq, or cq^m sq^n")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--func", choices=("sq", "cq", "pow"), default="sq")
    sub.add_argument("--m", type=int, default=0)
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--t", type=float, nargs="+", required=True)
    sub.set_defaults(handler=_cmd_eval)

    sub = subs.add_parser("plotdata", help="sq/cq samples over a uniform grid")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--points", type=int, default=257)
    sub.add_argument("--tmax", type=float, default=None,
                     help="grid endpoint (default: one full period 2 pi_p)")
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

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except SquigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParameterError, DomainError, CostGuardError)) else 3


if __name__ == "__main__":
    sys.exit(main())
