from __future__ import annotations

import json
import math
import os

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

    code, lines = run(capsys, "table1", "--terms", "8")
    assert code == 0
    nums_c = sg.integer_maclaurin(sg.SquigParams(p=4, m=1, n=0), 8)
    nums_s = sg.integer_maclaurin(sg.SquigParams(p=4, m=0, n=1), 8)
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


def test_beta_overflow_exit_code(capsys):
    # The coefficients these powers need overflow binary64 at p = 10.
    code = cli.main(["beta", "--p", "10", "--m", "30", "--n", "30"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "overflows binary64" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


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
    (("pi", "--p-min", "9", "--p-max", "12"), 3),
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


def test_verify_passes(capsys):
    code, lines = run(capsys, "verify")
    assert code == 0
    assert lines, "verify must print at least one check line"
    assert all(ln.startswith("PASS ") for ln in lines)


@pytest.mark.parametrize("flag", [["--quick"], ["--eps", "1e-6"]])
def test_verify_takes_no_options(capsys, flag):
    # The checks' bounds are fixed for binary64, so verify has no knobs.
    code, lines = run(capsys, "verify", *flag)
    assert code == 2
    assert lines == []


def test_cache_save_load_bit_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SQUIG_CACHE_DIR", str(tmp_path))
    code, lines = run(capsys, "cache", "save", "--p", "4")
    assert code == 0
    path = os.path.join(str(tmp_path), cli.CACHE_BASENAME)
    assert os.path.exists(path)
    assert lines[0].startswith("saved p=4 tables to ")

    code, lines = run(capsys, "cache", "load", "--p", "4")
    assert code == 0
    assert lines[0].startswith("loaded p=4 ")

    cached = cli.load_context(path, 4)
    fresh = sg.build_context(4)
    assert cached.pi_p == fresh.pi_p
    assert cached.sq_table.floats == fresh.sq_table.floats
    assert cached.cq_table.floats == fresh.cq_table.floats
    for i in range(100):
        t = -8.0 + 16.0 * i / 99.0
        assert sg.sq(cached, t) == sg.sq(fresh, t)
        assert sg.cq(cached, t) == sg.cq(fresh, t)


@pytest.mark.parametrize("p", [2, 4, 10])
def test_loaded_context_equals_fresh(tmp_path, p):
    # A table is its params and floats, so the cached numerators and J do
    # not make the loaded context differ from a fresh one.
    path = os.path.join(str(tmp_path), cli.CACHE_BASENAME)
    cli.save_tables(path, p)
    assert cli.load_context(path, p) == sg.build_context(p)


def test_load_context_checks_its_arguments_first(tmp_path):
    # A bad p or epsilon is named as such, not reported as a missing entry.
    path = os.path.join(str(tmp_path), cli.CACHE_BASENAME)
    cli.save_tables(path, 4)
    with pytest.raises(sg.ParameterError, match="p must be an int"):
        cli.load_context(path, 4.0)
    with pytest.raises(sg.ParameterError, match="epsilon must be a real"):
        cli.load_context(path, 4, 1.5)


def test_cache_missing_entry(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SQUIG_CACHE_DIR", str(tmp_path))
    code, _ = run(capsys, "cache", "save", "--p", "4")
    assert code == 0
    # Different epsilon was never saved.
    code, _ = run(capsys, "cache", "load", "--p", "4", "--eps", "1e-10")
    assert code == 2
    code, _ = run(capsys, "cache", "load", "--p", "5")
    assert code == 2


_KEY = "4|0x1.0000000000000p-53"
_ENTRY = {"pi_p": 3.7, "sq": [1.0, 0.05], "cq": [1.0, 0.05]}
# A document as format 1 wrote it: one entry per table, with J and numerators.
_FORMAT_1 = json.dumps({"format": 1, "entries": {
    f"4|{m}|{n}|0x1.0000000000000p-53": {
        "p": 4, "m": m, "n": n, "J": 1, "epsilon": 2.0 ** -53, "pi_p": 3.7,
        "floats": [1.0, 0.05], "numerators": ["1", "6"]}
    for m, n in ((0, 1), (1, 0))
}})


# A document as format 2 wrote it: the full compute_pi tables, not the cut ones.
_FORMAT_2 = json.dumps({"format": 2, "entries": {_KEY: _ENTRY}})


def _doc(entry) -> str:
    return json.dumps({"format": 3, "entries": {_KEY: entry}})


_BAD_DOCUMENTS = ["{not json", "[1, 2]", '"tables"', '{"format": 1}',
                  '{"format": 1, "entries": []}', _FORMAT_1, _FORMAT_2, '{"format": 3}',
                  '{"format": 3, "entries": []}']
_BAD_ENTRIES = [
    {"pi_p": 3.7},
    [1, 2],
    "tables",
    None,
    *({k: v for k, v in _ENTRY.items() if k != missing} for missing in ("pi_p", "sq", "cq")),
    *({**_ENTRY, **change} for change in (
        {"sq": 1.0}, {"sq": None}, {"sq": {"1.0": 1}}, {"cq": "1.0"},
        {"sq": []}, {"cq": []},
        {"sq": [1.0, "x"]}, {"sq": [1.0, math.inf]}, {"sq": [1.0, math.nan]},
        {"sq": [1.0, True]}, {"cq": [1.0, "x"]}, {"cq": [1.0, -math.inf]},
        {"cq": [math.nan]}, {"cq": [True]},
        {"pi_p": math.inf}, {"pi_p": math.nan}, {"pi_p": None}, {"pi_p": True},
        {"pi_p": "3.7"}, {"pi_p": 0.0}, {"pi_p": -3.7},
    )),
]


@pytest.mark.parametrize("text", [None, *_BAD_DOCUMENTS, *map(_doc, _BAD_ENTRIES)])
def test_bad_cache_file_exits_2(capsys, tmp_path, monkeypatch, text):
    # None: no file at all.  Every case is bad input, never a traceback.
    monkeypatch.setenv("SQUIG_CACHE_DIR", str(tmp_path))
    path = os.path.join(str(tmp_path), cli.CACHE_BASENAME)
    if text is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    code, _ = run(capsys, "cache", "load", "--p", "4")
    assert code == 2
    with pytest.raises(sg.ParameterError):
        cli.load_context(path, 4)
    if text in _BAD_DOCUMENTS:
        # save merges into the file, so it refuses one that is not a cache document.
        code, _ = run(capsys, "cache", "save", "--p", "4")
        assert code == 2


@pytest.mark.parametrize("action", ["load", "save"])
@pytest.mark.parametrize("old", [1, 2])
def test_old_cache_file_names_its_format(capsys, tmp_path, action, old):
    path = os.path.join(str(tmp_path), cli.CACHE_BASENAME)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write({1: _FORMAT_1, 2: _FORMAT_2}[old])
    code = cli.main(["cache", action, "--p", "4", "--dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and f"has format {old}, not 3" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_cache_entry_holds_pi_p_and_the_two_tables(tmp_path):
    # The tables build_context cut, which are shorter than the record's.
    path = os.path.join(str(tmp_path), cli.CACHE_BASENAME)
    doc = cli.save_tables(path, 4)
    ctx = sg.build_context(4)
    assert doc == {"format": 3, "entries": {_KEY: {
        "pi_p": ctx.pi_p,
        "sq": list(ctx.sq_table.floats),
        "cq": list(ctx.cq_table.floats),
    }}}
    assert (len(doc["entries"][_KEY]["sq"]), len(doc["entries"][_KEY]["cq"])) == (28, 29)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == doc


def test_cache_file_checks_accept_a_good_entry(tmp_path):
    path = os.path.join(str(tmp_path), cli.CACHE_BASENAME)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_doc(_ENTRY))
    ctx = cli.load_context(path, 4)
    assert ctx.sq_table.floats == (1.0, 0.05)
    assert ctx.pi_p == 3.7
    # The entry passes through uncut: evaluation folds it whole and matches
    # horner_sparse on it.
    for t in (0.0, 0.4, 0.9):
        assert sg.sq(ctx, t) == sg.horner_sparse(ctx.sq_table, t)
        assert sg.cq(ctx, t) == sg.horner_sparse(ctx.cq_table, t)


def test_cache_merges_entries(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SQUIG_CACHE_DIR", str(tmp_path))
    run(capsys, "cache", "save", "--p", "3")
    run(capsys, "cache", "save", "--p", "4")
    path = os.path.join(str(tmp_path), cli.CACHE_BASENAME)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert len(doc["entries"]) == 2  # one entry per (p, epsilon)
    code, _ = run(capsys, "cache", "load", "--p", "3")
    assert code == 0


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
