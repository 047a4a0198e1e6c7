from __future__ import annotations

import importlib.util
import json
import struct
from pathlib import Path

import pytest

import squigonometry as sg
from squigonometry import evalcore

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _flip_last_bit(x: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    (flipped,) = struct.unpack("<d", struct.pack("<q", bits ^ 1))
    return flipped


def test_sq_digest_matches_golden_and_sees_one_flipped_bit(monkeypatch):
    # The sq sweep reproduces its stored digest; with the last bit of a_0 in
    # the sq prefix the p = 4 contexts fold flipped, the same sweep digests
    # differently.
    # (Below q / 2, where node tables leave the prefix folds, a_1 s^5 is under
    # 1 % of sq, so a flip of a_1's last bit moves no output of the sweep.)
    tool = _load_tool()
    golden = json.loads(tool.GOLDEN.read_text(encoding="utf-8"))
    assert tool.digest("sq") == golden["sq"]

    real = evalcore._nodes

    def flipped(ctx):
        nodes = real(ctx)
        if ctx.p != 4:
            return nodes
        floats = list(nodes.sq_prefix.floats)
        floats[0] = _flip_last_bit(floats[0])
        return nodes._replace(sq_prefix=sg.MacLaurinTable(nodes.sq_prefix.params, tuple(floats)))

    monkeypatch.setattr(evalcore, "_nodes", flipped)
    assert evalcore._nodes(sg.build_context(4)).sq_prefix != real(sg.build_context(4)).sq_prefix
    changed = tool.digest("sq")
    assert changed["outputs"] == golden["sq"]["outputs"]
    assert changed["sha256"] != golden["sq"]["sha256"]


def test_digest_encodes_floats_by_their_bits():
    tool = _load_tool()
    assert tool.encode((0.1, -0.0, 3, True, None)) == "(0x1.999999999999ap-4,-0x0.0p+0,3,True,None)"
    assert tool.call(sg.compute_pi, 1).startswith("(1,) -> !ParameterError: ")


@pytest.mark.parametrize("name", ["cq", "reduce_argument", "pow_general", "beta_value",
                                  "arcsq_oracle", "beta_quadrature_oracle"])
def test_evaluator_and_beta_digests_match_golden(name):
    # With the sq test above, the sweeps of the generated evaluators, of
    # beta_value and of the two quadrature oracles reproduce their stored
    # digests; the full check covers the rest.
    tool = _load_tool()
    golden = json.loads(tool.GOLDEN.read_text(encoding="utf-8"))
    assert tool.digest(name) == golden[name]


@pytest.mark.parametrize("p", [2, 3, 4, 10, 16, 64, 128])
def test_evaluation_sweep_straddles_every_node_boundary(p):
    # The tool counts the nodes itself; its seams are q / 2, then the first
    # point of each later node, each with its neighbours, then q: the node
    # index the evaluators compute steps by one at each of those points.
    tool = _load_tool()
    ctx = sg.build_context(p)
    nodes, mid = sg.evalcore._nodes(ctx), ctx.quarter / 2.0
    seams = tool._seams(ctx)
    triples = [seams[i:i + 3] for i in range(0, len(seams) - 1, 3)]
    assert len(triples) == len(nodes.sq) - 1 and seams[-1] == ctx.quarter
    assert triples[0][1] == mid and triples[0][0] < mid < triples[0][2]
    for k, (below, first, above) in enumerate(triples[1:], 1):
        assert int((below - mid) * nodes.scale) == k - 1
        assert int((first - mid) * nodes.scale) == int((above - mid) * nodes.scale) == k
