from __future__ import annotations

import json
import math
import time

import pytest

import squigonometry as sg
from squigonometry import cli


def run(capsys, *argv: str) -> tuple[int, list[str]]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out.strip().splitlines()


def test_table1_default(capsys):
    code, lines = run(capsys, "table1")
    assert code == 0
    assert lines[0] == "k_c,c_k,k_s,s_k"
    assert len(lines) == 34  # header + 33 coefficient rows
    k_c, c1, k_s, s1 = lines[2].split(",")
    assert (k_c, k_s) == ("4", "5")
    assert float(c1) == -0.25
    assert float(s1) == -0.15
    last = lines[-1].split(",")
    assert (last[0], last[2]) == ("128", "129")
    assert float(last[1]) == pytest.approx(float("1.085894046080356e-16"), rel=5e-15)
    assert float(last[3]) == pytest.approx(float("8.250004847723769e-17"), rel=5e-15)


def test_table1_round_trip_exact(capsys):
    # Shortest-repr floats must parse back to the identical binary64, which
    # is the correctly rounded exact rational.
    from fractions import Fraction

    # The default 32 terms and a deeper table of 120.
    for terms, extra in ((32, ()), (120, ("--terms", "120"))):
        code, lines = run(capsys, "table1", *extra)
        assert code == 0
        assert len(lines) == terms + 2
        nums_c = sg.integer_maclaurin(sg.SquigParams(p=4, m=1, n=0), terms)
        nums_s = sg.integer_maclaurin(sg.SquigParams(p=4, m=0, n=1), terms)
        for j, line in enumerate(lines[1:]):
            _, c_str, _, s_str = line.split(",")
            sign = (-1) ** j
            assert float(c_str) == float(Fraction(sign * nums_c[j], math.factorial(4 * j)))
            assert float(s_str) == float(Fraction(sign * nums_s[j], math.factorial(4 * j + 1)))


def test_pi_range(capsys):
    code, lines = run(capsys, "pi", "--p-min", "3", "--p-max", "10")
    assert code == 0
    assert lines[0] == "p,pi_p,terms,iterations"
    assert len(lines) == 9
    want_terms = {3: 22, 4: 34, 5: 46, 6: 58, 7: 69, 8: 81, 9: 92, 10: 103}
    for line in lines[1:]:
        p_str, value, terms, iters = line.split(",")
        p = int(p_str)
        assert int(terms) == want_terms[p]
        assert int(iters) <= 6
        assert float(value) == pytest.approx(sg.pi_gamma(p), rel=1e-13)


def test_pi_empty_range_is_error(capsys):
    code, _ = run(capsys, "pi", "--p-min", "5", "--p-max", "3")
    assert code == 2


def test_eval_sq_at_zero(capsys):
    code, lines = run(capsys, "eval", "--p", "4", "--func", "sq", "--t", "0")
    assert code == 0
    assert lines == ["t,value", "0.0,0.0"]


def test_eval_multiple_points(capsys):
    code, lines = run(capsys, "eval", "--p", "4", "--func", "cq", "--t", "0", "0.5", "1.0")
    assert code == 0
    assert len(lines) == 4
    ctx = sg.build_context(4)
    for line, t in zip(lines[1:], (0.0, 0.5, 1.0)):
        t_str, v_str = line.split(",")
        assert float(t_str) == t
        assert float(v_str) == sg.cq(ctx, t)


def test_eval_pow(capsys):
    code, lines = run(capsys, "eval", "--p", "4", "--func", "pow",
                      "--m", "2", "--n", "1", "--t", "0.7")
    assert code == 0
    ctx = sg.build_context(4)
    assert float(lines[1].split(",")[1]) == sg.pow_general(ctx, 2, 1, 0.7)


def test_eval_domain_error_exit_code(capsys):
    # Negative power at t = 0 sits on a pole.
    code, _ = run(capsys, "eval", "--p", "2", "--func", "pow",
                  "--m", "-1", "--n", "1", "--t", "0")
    assert code == 2


def test_negative_numbers_in_exponent_form_are_arguments(capsys):
    # argparse alone takes -1e-5 for an option; the values below are the
    # library's, and -inf reaches its DomainError rather than a usage line.
    code, lines = run(capsys, "eval", "--p", "4", "--t", "0.5", "-1e-5", "-.5e1", "-2.5E+3", "-3")
    ctx = sg.build_context(4)
    assert code == 0
    assert lines[1:] == [f"{t!r},{sg.sq(ctx, t)!r}" for t in (0.5, -1e-5, -5.0, -2500.0, -3.0)]
    code, lines = run(capsys, "plotdata", "--p", "4", "--points", "3", "--tmax", "-1e3")
    assert code == 0 and [float(line.split(",")[0]) for line in lines[1:]] == [0.0, -500.0, -1000.0]
    for argv in (("eval", "--p", "4", "--t", "-inf"), ("plotdata", "--p", "4", "--tmax", "-inf")):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.endswith("must be a finite real, got -inf\n")


def test_eval_past_the_table_cap_exits_2(capsys):
    # p = 100000 needs at least 33333 terms, the floor (p + 1) // 3; the
    # build is refused at once.
    code = cli.main(["eval", "--p", "100000", "--t", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: pi_100000 ") and "past the cap" in captured.err


def test_eval_at_a_degree_past_binary64_exits_2(capsys):
    # The same refusal, before pi_p is summed, for a p no float holds.
    code = cli.main(["eval", "--p", str(10**400), "--t", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: pi_1000") and "past the cap" in captured.err


def test_beta_prints_beta_value(capsys):
    code, lines = run(capsys, "beta", "--p", "4", "--m", "2", "--n", "1")
    assert code == 0
    assert lines == ["p,m,n,beta", f"4,2,1,{sg.beta_value(4, 2, 1)!r}"]


def test_beta_at_large_powers_exits_0(capsys):
    # The coefficients these powers need all fit binary64.
    code, lines = run(capsys, "beta", "--p", "10", "--m", "30", "--n", "30")
    assert code == 0
    value = float(lines[1].split(",")[3])
    assert value == pytest.approx(sg.beta_gamma(10, 30, 30), rel=1e-13)


def test_pi_refuses_the_top_of_its_range_first(capsys):
    # pi_40 at 1e-300 passes the table cap; the range is solved from the top
    # down, so p = 38 and 39 are never built before the refusal.
    start = time.perf_counter()
    code = cli.main(["pi", "--p-min", "38", "--p-max", "40", "--eps", "1e-300"])
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: pi_40 at epsilon=1e-300 needs J=8242 terms, past the cap 8192\n"


@pytest.mark.parametrize("argv", [
    ("maclaurin", "--p", "4", "--m", "0", "--n", "1", "--J", str(2 ** 63)),
    ("table1", "--terms", str(2 ** 63)),
])
def test_table_past_the_cap_exits_2(capsys, argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: J={2 ** 63} exceeds the table cap {sg.MAX_PI_TERMS}\n"


def test_pi_past_p_10_exits_0(capsys):
    code, lines = run(capsys, "pi", "--p-min", "11", "--p-max", "16")
    assert code == 0
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(11, 17))


def test_pow_overflow_exit_code(capsys):
    # cq^0 sq^-2 at t = 1e-200 is 1e400, past binary64.
    code = cli.main(["eval", "--p", "4", "--func", "pow", "--m", "0", "--n", "-2",
                     "--t", "1e-200"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "overflows binary64" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_bad_arguments_exit_code(capsys):
    code, _ = run(capsys, "eval", "--p", "4")  # missing --t
    assert code == 2
    code, _ = run(capsys, "nosuchcommand")
    assert code == 2
    code, _ = run(capsys, "pi", "--p-min", "1", "--p-max", "1")
    assert code == 2


@pytest.mark.parametrize("argv, want", [
    (("eval", "--p", "4", "--func", "pow", "--m", "0", "--n", "-2", "--t", "0.5", "1e-200"), 2),
    (("maclaurin", "--p", "2", "--m", "0", "--n", str(10 ** 104), "--J", "5"), 3),
    (("plotdata", "--p", "4", "--points", "3", "--tmax", "nan"), 2),
])
def test_failing_command_writes_no_rows(capsys, argv, want):
    # Rows that succeed before the failing point or degree are not printed.
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == want
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_plotdata_grid_reaches_largest_tmax(capsys):
    # tmax * i would overflow before the division at this tmax.
    code, lines = run(capsys, "plotdata", "--p", "4", "--points", "3", "--tmax", "1e308")
    assert code == 0
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 5e307, 1e308]


@pytest.mark.parametrize("tmax", [1.0, -3.5, 5e-324, 1e300])
def test_plotdata_grid_matches_plain_formula(capsys, tmax):
    # Where tmax * i / (points - 1) is finite, the grid has exactly its bits.
    code, lines = run(capsys, "plotdata", "--p", "4", "--points", "7", "--tmax", repr(tmax))
    assert code == 0
    got = [float(line.split(",")[0]) for line in lines[1:]]
    assert got == [tmax * i / 6 for i in range(7)]


def test_plotdata(capsys):
    code, lines = run(capsys, "plotdata", "--p", "4", "--points", "5", "--tmax", "1.0")
    assert code == 0
    assert lines[0] == "t,sq,cq"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert (float(first[0]), float(first[1]), float(first[2])) == (0.0, 0.0, 1.0)
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0


def _watch_built_contexts(monkeypatch, watch_evaluators) -> list:
    # The (p, evaluator log) of every context cli builds.
    built = []
    real = cli.evalcore.build_context

    def build(p, *args):
        ctx = real(p, *args)
        built.append((p, watch_evaluators(ctx)))
        return ctx

    monkeypatch.setattr(cli.evalcore, "build_context", build)
    return built


@pytest.mark.parametrize("tmax", ["-7.5", "1e6"])
@pytest.mark.parametrize("p", [3, 4])
def test_plotdata_rows_are_the_library_values(capsys, monkeypatch, watch_evaluators, p, tmax):
    # Each row is sq and cq from one pair call, so t is reduced once per row.
    built = _watch_built_contexts(monkeypatch, watch_evaluators)
    code, lines = run(capsys, "plotdata", "--p", str(p), "--points", "41", "--tmax", tmax)
    assert code == 0
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert built == [(p, [("pair", t) for t, _, _ in rows])]
    ctx = sg.build_context(p)
    assert [(s, c) for _, s, c in rows] == [(sg.sq(ctx, t), sg.cq(ctx, t)) for t, _, _ in rows]


def test_plotdata_default_window_is_full_period(capsys):
    # For p = 2 the full period 2 pi_p is the classical 2 pi.
    code, lines = run(capsys, "plotdata", "--p", "2", "--points", "3")
    assert code == 0
    assert float(lines[-1].split(",")[0]) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_plotdata_point_guard(capsys):
    code, _ = run(capsys, "plotdata", "--p", "4", "--points", "1")
    assert code == 2


def test_triangle_csv(capsys):
    code, lines = run(capsys, "triangle", "--p", "4", "--m", "1", "--n", "0", "--K", "4")
    assert code == 0
    assert lines[0] == "k,j,q"
    assert "4,2,81" in lines
    assert "4,1,6" in lines and "4,3,18" in lines


def test_triangle_json_round_trip(capsys):
    code, lines = run(capsys, "triangle", "--p", "3", "--m", "2", "--n", "1",
                      "--K", "12", "--json")
    assert code == 0
    doc = "\n".join(lines)
    tri = sg.triangle_from_json(doc)
    want = sg.build_triangle(sg.SquigParams(p=3, m=2, n=1), 12)
    assert tri == want
    parsed = json.loads(doc)
    assert all(isinstance(v, str) for row in parsed["rows"] for _, v in row)


def test_roots_output(capsys):
    code, lines = run(capsys, "roots", "--p", "4", "--m", "1", "--n", "0", "--k-max", "3")
    assert code == 0
    assert lines[0] == "k,zero_multiplicity,root,cq,sq"
    level3 = [ln for ln in lines[1:] if ln.startswith("3,")]
    assert len(level3) == 1
    _, mult, root, cq_val, sq_val = level3[0].split(",")
    assert mult == "1"
    assert float(root) == pytest.approx(-2.0 / 3.0, abs=1e-14)
    assert abs(float(cq_val) ** 4 + float(sq_val) ** 4 - 1.0) <= 5e-15


def test_factors_output(capsys):
    code, lines = run(capsys, "factors", "--p", "4", "--m", "1", "--n", "0", "--J", "3")
    assert code == 0
    assert lines[0] == "j,a_exact,a_float"
    assert lines[1] == "0,1,1.0"
    assert lines[2] == "1,1/4,0.25"
    assert lines[3].startswith("2,9/40,")
    assert lines[4].startswith("3,149/540,")


def test_maclaurin_exact_output(capsys):
    code, lines = run(capsys, "maclaurin", "--p", "4", "--m", "1", "--n", "0",
                      "--J", "3", "--exact")
    assert code == 0
    assert lines[0] == "j,power,coefficient,numerator"
    nums = [int(ln.split(",")[3]) for ln in lines[1:]]
    assert nums == [1, 6, 2268, 7434504]
    coefs = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert coefs[1] == -0.25


def test_maclaurin_sized_from_eps(capsys):
    code, lines = run(capsys, "maclaurin", "--p", "3", "--m", "0", "--n", "1")
    assert code == 0
    assert len(lines) == 24  # header + J=22 has 23 coefficients


def test_verify_passes(capsys, monkeypatch, watch_evaluators):
    built = _watch_built_contexts(monkeypatch, watch_evaluators)
    code, lines = run(capsys, "verify")
    assert code == 0
    assert lines, "verify must print at least one check line"
    assert all(ln.startswith("PASS ") for ln in lines)
    # The quarter-period check evaluates sq and cq at pi_p / 4 for p 2..64,
    # the Pythagorean sweep reduces each of its points once, through pair,
    # and the arcsq-oracle check evaluates sq once per point of its grid on
    # [0, pi_p / 4].
    grid = [("pair", -10.0 + 20.0 * i / 200) for i in range(201)]
    quarters = {p: sg.build_context(p).quarter for p in range(2, 65)}
    quarter = [(p, [("sq", quarters[p]), ("cq", quarters[p])]) for p in range(2, 65)]
    arcsq = [(p, [("sq", quarters[p] * i / 16) for i in range(17)]) for p in (4, 10, 64)]
    assert built == quarter + [(p, grid) for p in (2, 3, 4, 6, 10, 64)] + arcsq
    assert [ln.split(" (")[0] for ln in lines].count("PASS arcsq-oracle") == 3


@pytest.mark.parametrize("flag", [["--quick"], ["--eps", "1e-6"]])
def test_verify_takes_no_options(capsys, flag):
    # The checks' bounds are fixed for binary64, so verify has no knobs.
    code, lines = run(capsys, "verify", *flag)
    assert code == 2
    assert lines == []


def test_deterministic_output(capsys):
    _, first = run(capsys, "pi", "--p-min", "3", "--p-max", "6")
    _, second = run(capsys, "pi", "--p-min", "3", "--p-max", "6")
    assert first == second
    _, t1 = run(capsys, "table1", "--terms", "12")
    _, t2 = run(capsys, "table1", "--terms", "12")
    assert t1 == t2


def test_maclaurin_exact_constant_function(capsys):
    code, lines = run(capsys, "maclaurin", "--p", "4", "--m", "0", "--n", "0",
                      "--J", "2", "--exact")
    assert code == 0
    rows = [ln.split(",") for ln in lines[1:]]
    assert [float(r[2]) for r in rows] == [1.0, 0.0, 0.0]
    assert [int(r[3]) for r in rows] == [1, 0, 0]


@pytest.mark.parametrize("argv", [
    ("factors", "--p", "4", "--m", "0", "--n", "0"),
    ("roots", "--p", "4", "--m", "0", "--n", "0", "--k-max", "3"),
])
def test_constant_function_is_invalid_argument(capsys, argv):
    code, _ = run(capsys, *argv)
    assert code == 2


def test_maclaurin_past_binary64_exits_3(capsys):
    # p = 11 answers at any length; a coefficient of sin^n with n = 10^104
    # is itself past binary64 at j = 3.
    code, lines = run(capsys, "maclaurin", "--p", "11", "--m", "0", "--n", "1", "--J", "100")
    assert code == 0
    table = sg.maclaurin(sg.SquigParams(p=11, m=0, n=1), 100)
    assert [float(line.split(",")[2]) for line in lines[1:]] == [table.signed(j) for j in range(101)]
    n = str(10 ** 104)
    code = cli.main(["maclaurin", "--p", "2", "--m", "0", "--n", n, "--J", "5"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == f"error: MacLaurin coefficient overflows binary64 at p=2, m=0, n={n}, j=3\n"


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: squig")


@pytest.mark.parametrize("argv", [
    ["cache"],
    ["cache", "save", "--p", "4"],
    ["cache", "load", "--p", "4"],
    ["cache", "load", "--p", "4", "--eps", "1e-10", "--dir", "tables"],
])
def test_cache_is_not_a_command(capsys, argv):
    # Contexts come from build_context alone; no command saves or loads tables.
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'cache'" in err


# One valid invocation of every command.
COMMANDS = {
    "table1": ["table1", "--terms", "3"],
    "pi": ["pi", "--p-min", "3", "--p-max", "4"],
    "beta": ["beta", "--p", "4", "--m", "1", "--n", "0"],
    "eval": ["eval", "--p", "4", "--t", "0.5", "-7.25"],
    "plotdata": ["plotdata", "--p", "3", "--points", "5"],
    "triangle": ["triangle", "--p", "4", "--m", "1", "--n", "0", "--K", "4"],
    "roots": ["roots", "--p", "4", "--m", "1", "--n", "0", "--k-max", "4"],
    "factors": ["factors", "--p", "4", "--m", "1", "--n", "0", "--J", "3"],
    "maclaurin": ["maclaurin", "--p", "4", "--m", "1", "--n", "0", "--J", "3"],
    "verify": ["verify"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_takes_a_dir(capsys, tmp_path, command):
    # No command reads tables from a directory, so --dir is a bad argument
    # everywhere and the command prints nothing.
    code, lines = run(capsys, *COMMANDS[command], "--dir", str(tmp_path))
    assert code == 2 and lines == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["pi", "beta", "eval", "plotdata", "maclaurin"])
def test_command_writes_no_files(capsys, monkeypatch, tmp_path, command):
    # Tables are rebuilt on every run: with the working directory, HOME and
    # the old cache variable all pointing at an empty directory, the output
    # is what it is without them and the directory stays empty.
    want = run(capsys, *COMMANDS[command])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("SQUIG_CACHE_DIR", str(tmp_path))
    got = run(capsys, *COMMANDS[command])
    assert got == want and got[0] == 0 and len(got[1]) >= 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flag,value,message", [
    (command, flag, value, message)
    for command in ("pi", "beta", "eval", "plotdata", "maclaurin")
    for flag, value, message in (
        ("p", "1", "p must be an int in [2, inf], got 1"),
        ("eps", "1.5", "epsilon must be a real in (0, 1), got 1.5"),
    )
    if command in ("pi", "maclaurin") or flag == "p"
])
def test_bad_p_or_eps_is_named(capsys, command, flag, value, message):
    # A bad degree or tolerance is reported by its name, before any row.
    # maclaurin sizes its table from --eps only when no --J is given, and
    # checks it either way.  beta, eval and plotdata take no --eps.
    argvs = [list(COMMANDS[command])]
    if command == "maclaurin":
        argvs.append(COMMANDS[command][:-2])
    for argv in argvs:
        if command in ("pi", "maclaurin"):
            argv += ["--eps", "1e-10"]
        key = "--p-min" if command == "pi" and flag == "p" else f"--{flag}"
        argv[argv.index(key) + 1] = value
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_beta_takes_no_eps(capsys):
    # Beta values are correctly rounded, and sq and cq evaluated alike, at any
    # tolerance: squig beta, eval and plotdata take no --eps before any row.
    for command in ("beta", "eval", "plotdata"):
        code = cli.main([*COMMANDS[command], "--eps", "1e-10"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "unrecognized arguments: --eps 1e-10" in err, command


@pytest.mark.parametrize("terms", ["-1", "-40"])
def test_table1_negative_terms_names_the_flag(capsys, terms):
    # The error names the command's --terms flag, not the library's J.
    code = cli.main(["table1", "--terms", terms])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: --terms must be an int in [0, inf], got {terms}\n"
