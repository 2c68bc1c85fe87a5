import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import random
import re
import tempfile
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from layered_wheels import (WheelPrefix, build_prefix, parse_f_spec,
                            verify_rules)
from layered_wheels import cli, kernels, structure, wheel, widths
from layered_wheels.cli import graph6_pieces, to_dot
from layered_wheels.wheel import PIECE, canonical_violation, read_export

from conftest import (PREFIXES_300, assert_same_text, doctored_records,
                      lwheel, masks_of, orphan_record, reference_dot,
                      reference_json, reference_separate_report, targets)


def test_build_json(tmp_path):
    out = tmp_path / "p.json"
    code, _, err = lwheel("build", "--ell", "4", "--f", "cap:3",
                          "--layers", "4", "--out", out)
    assert code == 0 and "68 vertices" in err
    obj = json.loads(out.read_text())
    assert obj["layers"] == [4, 8, 16, 40]


def test_build_round_trip_byte_identical(tmp_path):
    out = tmp_path / "p.json"
    lwheel("build", "--ell", "5", "--f", "identity", "--layers", "3",
           "--out", out)
    text = out.read_text().strip()
    assert WheelPrefix.from_json(text).to_json() == text


def test_build_rejects_small_ell():
    code, _, err = lwheel("build", "--ell", "3", "--f", "identity",
                          "--layers", "1")
    assert code != 0 and "error" in err


def test_build_rejects_bad_fspec():
    code, _, err = lwheel("build", "--ell", "4", "--f", "bogus:1",
                          "--layers", "1")
    assert code != 0


def test_build_size_cap_error():
    code, _, err = lwheel("build", "--ell", "4", "--f", "identity",
                          "--layers", "10", "--size-cap", "100")
    assert code != 0 and "cap" in err


def test_build_size_cap_checks_layer_one():
    code, out, err = lwheel("build", "--ell", "6", "--f", "cap:3",
                            "--layers", "1", "--size-cap", "3")
    assert code == 1 and out == ""
    assert err == ("error: layer 1 would bring the prefix to 6 vertices "
                   "(cap 3)\n")
    code, _, _ = lwheel("build", "--ell", "6", "--f", "cap:3",
                        "--layers", "1", "--size-cap", "6")
    assert code == 0


@pytest.mark.parametrize("command", [
    ["build", "--ell", "4", "--f", "cap:3", "--layers", "3"],
    ["demo", "hajebi", "--ell", "5"],
])
def test_negative_size_cap_is_a_usage_error(command):
    code, _, err = lwheel(*command, "--size-cap", "-5")
    assert code == 2
    assert "--size-cap: must be >= 0, got -5" in err and "cap -5" not in err


def test_graph6_c4():
    # C4 on vertices 0-1-2-3-0: bits (01)(02)(12)(03)(13)(23) = 101101
    assert "".join(graph6_pieces(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) \
        == "Cl\n"


def test_graph6_refuses_too_many_vertices_before_any_piece():
    # the call raises, so no piece is ever asked for
    with pytest.raises(ValueError, match="at most 258047 vertices"):
        graph6_pieces(258048, [])
    assert next(graph6_pieces(258047, [])) == "~}~~"


@pytest.mark.parametrize("t", [2, 4], ids=["n12", "n68"])  # n68: 4-byte header
def test_graph6_matches_prefix_edges(tmp_path, t):
    out = tmp_path / "p.g6"
    lwheel("build", "--ell", "4", "--f", "cap:3", "--layers", t,
           "--out", out, "--format", "graph6")
    p = build_prefix(4, parse_f_spec("cap:3"), t)
    n = p.n_vertices
    line = out.read_text().strip()
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    assert line.startswith(head)
    bits = []
    for ch in line[len(head):]:
        bits.extend((ord(ch) - 63) >> (5 - i) & 1 for i in range(6))
    assert len(bits) == -(-n * (n - 1) // 12) * 6
    edges = set()
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.add((i, j))
            pos += 1
    assert edges == set(p.edges())


# sha256 of the `build` exports: a faster writer must not change a byte.
# At t=10 the last layer (12,776 records) spans several pieces of the
# JSON and DOT writers, and at n=3020 the graph6 body spans several pieces.
# The last layer of l=6 cap:4 t=8 (n=155,022, 118,368 records) is the only
# one whose positions pass 100,000.  `--out -` streams the same pieces to
# stdout.
@pytest.mark.parametrize("ell, f, t, fmt, out, digest", [
    (4, "cap:3", 8, "json", "p.out",
     "09cfb2aadb88c5537a02708d0a935c966e4f447258fb51e688a3e5cdd7ce9975"),
    (4, "cap:3", 8, "dot", "p.out",
     "3dfc64ada92d306fe308806fbe487820dd3217bc9e9a5d5e80946dfafb74b6fe"),
    (6, "cap:4", 5, "json", "p.out",
     "5b3100f36b98fcf6e6b157f742e8d70e801818b89c7fba6c61adc6714c6a6cca"),
    (6, "cap:4", 5, "dot", "p.out",
     "0272adadd30f7b0f3465eae8787eeb85bfedbf11cc57b1e0416d26e472377932"),
    (4, "cap:3", 10, "json", "p.out",
     "612132b27cc8054e13150de5edfbfa3038abfc9dd10ddc6bd2a00621f79ea0e6"),
    (4, "cap:3", 10, "dot", "p.out",
     "eedbef071a0b83e75acd512c3e26720702e7d74632d3b9f2b5dca50446e2c466"),
    (4, "cap:3", 8, "graph6", "p.out",
     "3647f661513adf9abb50b4a5f36314f1e9d7dcc1e7640b173fd9732351eada76"),
    (6, "cap:4", 8, "json", "p.out",
     "1034e76f1d08c9ab6ec203fb62e44e877b0a47d99fd462acaafbf67329da857b"),
    (6, "cap:4", 8, "dot", "p.out",
     "544c0e7ab9087181727dc472d1e4137f3526d351d18d5bf3527b438984d907dc"),
    (4, "cap:3", 10, "json", "-",
     "612132b27cc8054e13150de5edfbfa3038abfc9dd10ddc6bd2a00621f79ea0e6"),
    (4, "cap:3", 10, "dot", "-",
     "eedbef071a0b83e75acd512c3e26720702e7d74632d3b9f2b5dca50446e2c466"),
    (4, "cap:3", 8, "graph6", "-",
     "3647f661513adf9abb50b4a5f36314f1e9d7dcc1e7640b173fd9732351eada76"),
], ids=["n3020-json", "n3020-dot", "n2094-json", "n2094-dot",
        "n20676-json", "n20676-dot", "n3020-graph6", "n155022-json",
        "n155022-dot", "n20676-json-stdout", "n20676-dot-stdout",
        "n3020-graph6-stdout"])
def test_build_export_bytes_pinned(tmp_path, ell, f, t, fmt, out, digest):
    path = "-" if out == "-" else tmp_path / out
    code, stdout, _ = lwheel("build", "--ell", ell, "--f", f, "--layers", t,
                             "--format", fmt, "--out", path)
    assert code == 0
    data = stdout.encode() if out == "-" else path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    # the whole-text functions join the same pieces the file received
    p = build_prefix(ell, parse_f_spec(f), t)
    if fmt == "json":
        text = p.to_json() + "\n"
    elif fmt == "dot":
        text = to_dot(p)
    else:
        text = "".join(graph6_pieces(p.n_vertices, p.edges()))
    assert text.encode() == data


def test_build_graph6_builds_no_adjacency(tmp_path, monkeypatch):
    # the graph6 writer reads the pairs off the layer cycles and the
    # upward lists; the bytes are the same as from the edge list
    def refuse(self):
        raise AssertionError("graph6 export built the adjacency")

    monkeypatch.setattr(WheelPrefix, "adjacency", refuse)
    out = tmp_path / "p.g6"
    code, _, _ = lwheel("build", "--ell", "4", "--f", "cap:3",
                        "--layers", "8", "--format", "graph6", "--out", out)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "3647f661513adf9abb50b4a5f36314f1e9d7dcc1e7640b173fd9732351eada76"


# traced memory of `build` beyond the prefix's own, against the size of
# the file it writes: the writers hold one piece at a time, not the text
@pytest.mark.parametrize("fmt, ratio", [("json", 3), ("dot", 3),
                                        ("graph6", 1)])
def test_build_export_memory_bounded(tmp_path, fmt, ratio):
    out = tmp_path / "p.out"
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prefix = build_prefix(4, parse_f_spec("cap:3"), 10)
        own = tracemalloc.get_traced_memory()[0] - base
        del prefix
        tracemalloc.reset_peak()
        code, _, _ = lwheel("build", "--ell", "4", "--f", "cap:3",
                            "--layers", "10", "--format", fmt, "--out", out)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak - own < ratio * out.stat().st_size


def test_dot_matches_reference():
    # at l=6 cap:4 t=6 the last layer spans two pieces
    for p in PREFIXES_300 + [build_prefix(6, parse_f_spec("cap:4"), 6)]:
        assert_same_text(p, "to_dot", to_dot(p), reference_dot(p))


def _piece_edge_record(size, third):
    """A hand-made record whose layer 2 holds ``size`` vertices, with
    records at both ends of its pieces: some with a parent and an up
    list, one with a parent only and one with an up list only.  With
    ``third``, a 5-vertex layer 3 names layer 2 at its piece edges and
    ends on a record with an up list; else layer 2 is the last."""
    p = WheelPrefix(4, parse_f_spec("cap:3"))
    p.layer_sizes = [4, size] + ([5] if third else [])
    p.offsets = [0, 4, 4 + size][:len(p.layer_sizes)]
    n = sum(p.layer_sizes)
    p.up = [()] * n
    p.parent = [-1] * n
    for pos in (0, 1, PIECE - 1, PIECE, size - 1):
        if pos < size:
            p.up[4 + pos] = (pos % 4,)
            p.parent[4 + pos] = pos % 4
    p.parent[4 + 2] = 1                  # a parent, no up list
    p.up[4 + 3] = (2,)                   # an up list, no parent
    if third:
        top = 4 + size
        edge = 4 + min(PIECE, size - 1)
        p.up[top] = (0, 4 + PIECE - 1)
        p.parent[top] = 4 + PIECE - 1
        p.up[top + 1] = (edge,)
        p.parent[top + 2] = 4 + size - 1
        p.up[top + 4] = (3, 4 + size - 1)
        p.parent[top + 4] = 4 + size - 1
    return p


# a DOT cycle arc: its tail and head lie in one layer
CYCLE_ARC = re.compile(r'"(\d+)_\d+" -> "\1_\d+"')


@pytest.mark.parametrize("third", [False, True], ids=["two", "three"])
@pytest.mark.parametrize("size", [PIECE, PIECE + 1, 2 * PIECE])
def test_writers_at_the_piece_edges(size, third):
    # the last cycle arc wraps at a piece edge, and at PIECE + 1 the last
    # piece of layer 2 holds one record
    p = _piece_edge_record(size, third)
    # compared first, so that a failure does not diff two long texts
    same_json = p.to_json() == reference_json(p)
    same_dot = to_dot(p) == reference_dot(p)
    assert same_json and same_dot
    records = [piece.count('{"layer": ') for piece in p.json_pieces()]
    assert max(records) <= PIECE and sum(records) == p.n_vertices
    for piece in cli.dot_pieces(p):
        if " -> " in piece:
            assert len(CYCLE_ARC.findall(piece)) <= PIECE
        else:
            assert piece.count('"') // 2 <= PIECE


def _largest_in_the_middle():
    """A hand-made record whose layer 2, of 1,001 vertices, is far larger
    than its last layer, of 7; layer 2 has records at its digit band
    edges, and layer 3 names its first and last vertices."""
    p = WheelPrefix(4, parse_f_spec("cap:3"))
    p.layer_sizes = [4, 1001, 7]
    p.offsets = [0, 4, 1005]
    p.up = [()] * 1012
    p.parent = [-1] * 1012
    for pos in (0, 9, 10, 99, 100, 999, 1000):
        p.up[4 + pos] = (pos % 4,)
        p.parent[4 + pos] = pos % 4
    p.up[1005] = (0, 4)
    p.parent[1005] = 4
    p.up[1011] = (3, 1004)
    p.parent[1011] = 1004
    return p


@pytest.mark.parametrize("p", [
    _largest_in_the_middle(),
    build_prefix(4, parse_f_spec("cap:3"), 1),
    # the wrap of the last arc, position 10, is the first of two digits
    build_prefix(10, parse_f_spec("identity"), 1),
], ids=["largest-in-the-middle", "one-layer", "one-layer-ell10"])
def test_writers_size_the_digit_text_by_the_largest_layer(p):
    same_json = p.to_json() == reference_json(p)
    same_dot = to_dot(p) == reference_dot(p)
    assert same_json and same_dot


@pytest.mark.parametrize("field", ["up", "parent"])
def test_json_writer_refuses_a_name_in_its_own_layer(field):
    # layer 2's names are made piece by piece but kept back until the
    # layer is written, so a record past the first piece cannot name a
    # vertex of the first
    p = _piece_edge_record(PIECE + 1, True)
    g = 4 + PIECE
    if field == "up":
        p.up[g] = (0, 4)
    else:
        p.parent[g] = 4
    with pytest.raises(IndexError):
        p.to_json()


def _rule4_mutants(p):
    """The two rule-4 mutants of a built prefix's record: (3, 0) with
    (2, 1) added to its up list, a second neighbor in the previous layer,
    and the first vertex with a parent moved to the next parent, its up
    entry with it."""
    two = json.loads(p.to_json())
    rec = next(v for v in two["vertices"] if (v["layer"], v["pos"]) == (3, 0))
    rec["up"].append([2, 1])
    moved = json.loads(p.to_json())
    rec = next(v for v in moved["vertices"] if v["parent"])
    old = rec["parent"]
    rec["parent"] = [old[0], old[1] + 1]
    rec["up"] = [rec["parent"] if w == old else w for w in rec["up"]]
    return [two, moved]


TWO_PARENTS, REPARENTED = _rule4_mutants(
    build_prefix(4, parse_f_spec("cap:3"), 5))


def _five_hole():
    """The l=6 cap:4 t=5 record with (1, 3) added to the up list of
    (3, 0), which closes a 5-hole."""
    obj = json.loads(build_prefix(6, parse_f_spec("cap:4"), 5).to_json())
    next(v for v in obj["vertices"]
         if (v["layer"], v["pos"]) == (3, 0))["up"].append([1, 3])
    return obj


def _huge_ell():
    """The l=4 cap:3 t=3 record relabelled l = 10**9: the hole check's
    BFS must stop when its frontier empties, not after 10**9 // 2
    rounds."""
    obj = json.loads(build_prefix(4, parse_f_spec("cap:3"), 3).to_json())
    obj["ell"] = 10 ** 9
    return obj


MUTANTS = [
    ("null-parent", orphan_record(), "rules",
     "recorded parent None but adjacency gives"),
    ("two-parents", TWO_PARENTS, "rules",
     "has 2 neighbors in the previous layer"),
    ("reparent", REPARENTED, "rules", "is not a child of"),
    ("5-hole", _five_hole(), "holes", '"shortest_up_to_ell": 5'),
    ("huge-ell", _huge_ell(), "holes", '"shortest_up_to_ell": 4'),
]


def test_verify_mutated_fails(tmp_path):
    for name, obj, check, mark in MUTANTS:
        f = tmp_path / (name + ".json")
        f.write_text(json.dumps(obj))
        code, out, _ = lwheel("verify", "--in", f, "--" + check)
        rep = json.loads(out)
        assert code == 1 and not rep["passed"] and mark in out, name
        if check == "rules":
            assert rep["checks"]["rules"] == verify_rules(
                WheelPrefix.from_json_obj(obj)), name


@pytest.mark.parametrize("mutate, field", [
    (lambda obj: obj["vertices"][5].update(up=[[9, 9]]), "'up'"),
    (lambda obj: obj.pop("ell"), "'ell'"),
    (lambda obj: obj["vertices"][5].update(parent=[1]), "'parent'"),
    (lambda obj: obj.update(num_layers=9), "'num_layers'"),
    (lambda obj: obj.update(layers=[]), "'layers'"),
    (lambda obj: obj.update(ell=4.5), "'ell'"),
    (lambda obj: obj.update(layers=[str(s) for s in obj["layers"]]),
     "'layers'"),
    (lambda obj: obj.update(layers=[4, -4, 4], vertices=obj["vertices"][:4]),
     "'layers'"),
    (lambda obj: obj["vertices"][9].update(layer=2.0), "'layer'"),
    (lambda obj: obj["vertices"][9].update(pos=5.0), "'pos'"),
    (lambda obj: obj["vertices"][5].update(up=[[1, 0.0]]), "'up'"),
    (lambda obj: obj["vertices"][5].update(parent=[1, 0.0]), "'parent'"),
    # vertex 5 is a padding vertex, whose up list is empty
    (lambda obj: obj["vertices"][5].update(up=""), "'up': not a list"),
    (lambda obj: obj["vertices"][5].update(up={}), "'up': not a list"),
    # records 1 and 2 swapped
    (lambda obj: obj["vertices"].insert(1, obj["vertices"].pop(2)),
     "error: vertex 1 field 'layer': vertices out of order at index 1\n"),
], ids=["unknown-up-vertex", "missing-ell", "short-parent",
        "num-layers-mismatch", "no-layers", "float-ell", "string-layers",
        "negative-layer", "float-layer", "float-pos", "float-up",
        "float-parent", "string-up", "object-up", "swapped-records"])
def test_verify_malformed_json_is_an_error(tmp_path, mutate, field):
    f = tmp_path / "p.json"
    lwheel("build", "--ell", "4", "--f", "cap:3", "--layers", "3",
           "--out", f)
    obj = json.loads(f.read_text())
    mutate(obj)
    f.write_text(json.dumps(obj))
    code, out, err = lwheel("verify", "--in", f)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("command", ["verify", "separate", "target"])
def test_deeply_nested_json_is_an_error(tmp_path, command):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    if command == "target":
        src = tmp_path / "p.json"
        src.write_text(build_prefix(4, parse_f_spec("cap:3"), 3).to_json())
        argv = ["separate", "--in", str(src), "--target", str(nested)]
    else:
        argv = [command, "--in", str(nested)]
    code, out, err = lwheel(*argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# 2: argparse usage error; 1: input or runtime error, its line first
EXIT_CODES = [
    ("build --ell 4 --f cap:3", 2, "--layers"),
    ("verify --in no.json", 1, "error: "),
    ("build --ell 4 --f cap:3 --layers 3 --size-cap -1", 2, "--size-cap"),
    ("demo conjecture85 --c-max 0", 1, "error: c_max"),
    ("demo conjecture85 --ell 0", 1, "error: ell must be >= 4, got 0\n"),
    ("demo question84 --k-max 2", 1, "error: k_max must be >= 3, got 2\n"),
    ("demo hajebi --samples 0", 1,
     "error: samples must be >= 1, got 0\n"),
    ("demo hajebi --samples -3", 2, "--samples"),
    # the removed --chordal-samples
    ("verify --in no.json --chordal-samples 5", 2,
     "unrecognized arguments: --chordal-samples 5"),
]


def test_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, code, err in EXIT_CODES:
        got, out, stderr = lwheel(*argv.split())
        assert (got, out) == (code, "") and err in stderr, (argv, stderr)
        assert code == 2 or stderr.startswith(err), (argv, stderr)


def test_separate_all_with_decomposition(tmp_path):
    f = tmp_path / "p.json"
    lwheel("build", "--ell", "4", "--f", "cap:3", "--layers", "4",
           "--out", f)
    code, out, err = lwheel("separate", "--in", f,
                            "--target", "all", "--emit-decomposition")
    assert code == 0
    rep = json.loads(out)
    assert rep["balanced"] and rep["verified"]
    assert rep["order"] <= 21
    assert rep["decomposition"]["valid"]


@pytest.mark.parametrize("applies", [True, False])
def test_separate_fails_an_order_above_an_applicable_bound(tmp_path,
                                                           monkeypatch,
                                                           applies):
    # ell=5 identity t=6 has k = 6 and order_bound 48; an order of 49
    # fails the command only when the augmenting guarantee holds
    src = tmp_path / "p.json"
    lwheel("build", "--ell", 5, "--f", "identity", "--layers", 6,
           "--out", src)
    separate = structure.balanced_separation
    monkeypatch.setattr(structure, "balanced_separation", lambda p, X:
                        dataclasses.replace(separate(p, X), order=49,
                                            bound_applies=applies))
    code, out, err = lwheel("separate", "--in", src, "--target", "all")
    rep = json.loads(out)
    assert (rep["order"], rep["order_bound"], rep["bound_applies"],
            rep["balanced"], rep["verified"]) == (49, 48, applies, True, True)
    assert code == (1 if applies else 0)
    tail = "bound=48 balanced=True\n"
    assert err.endswith(tail + "order 49 is above order_bound 48\n"
                        if applies else tail), err


# sha256 of the `separate --target all --emit-decomposition` report: a
# faster separation or decomposition must not change a bag or a witness
@pytest.mark.parametrize("ell, f, t, out, digest", [
    (4, "cap:3", 6, "sep.json",
     "da1fc895e220bbd7120694b6f0dd86d2c90cdb76e57c6929a38aca14e258ed6a"),
    (5, "identity", 4, "sep.json",
     "81995a8093fa23228d77a06fc19eafdbdc2df56b83c218886b66f59745a656c8"),
    # the instances of the command benchmark's separate workload
    (4, "cap:3", 8, "sep.json",
     "d2c35f8f8e5ed428f1352200a7dc95c0c82282ed185efeafcd9d9de347f15174"),
    (5, "identity", 6, "sep.json",
     "ab213feae76ebcfafcda41d1b130b20db236bad9356fd4319239b4d7278ead24"),
    # A, B and the bag and edge lists each span several pieces
    (4, "cap:3", 10, "sep.json",
     "3fb12d9adc4944d651b9e65b7f600a928ec772d4fb57b52b4cd89de482858567"),
    # `--out -` streams the same report to stdout
    (4, "cap:3", 6, "-",
     "da1fc895e220bbd7120694b6f0dd86d2c90cdb76e57c6929a38aca14e258ed6a"),
], ids=["n444", "n200", "n3020", "n1820", "n20676", "n444-stdout"])
def test_separate_report_bytes_pinned(tmp_path, ell, f, t, out, digest):
    src = tmp_path / "p.json"
    path = "-" if out == "-" else tmp_path / out
    lwheel("build", "--ell", ell, "--f", f, "--layers", t, "--out", src)
    code, stdout, _ = lwheel("separate", "--in", src, "--target", "all",
                             "--emit-decomposition", "--out", path)
    assert code == 0
    data = stdout.encode() if out == "-" else path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_separate_target_file_report_bytes_pinned(tmp_path):
    # a random 300-vertex target: many edges leave X, and every
    # separation check and decomposition bag is restricted to it
    src = tmp_path / "p.json"
    tgt = tmp_path / "x.json"
    out = tmp_path / "sep.json"
    p = build_prefix(4, parse_f_spec("cap:3"), 6)
    src.write_text(p.to_json())
    locs = [list(p.loc(g)) for g in range(p.n_vertices)]
    tgt.write_text(json.dumps(random.Random(0).sample(locs, 300)))
    code, _, _ = lwheel("separate", "--in", src, "--target",
                        tgt, "--emit-decomposition", "--out", out)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "3415297c6a309e40b2e83c9d95d0c2b1521f66a4f85c9c01c9402622d7b7d223"


def test_separate_iterating_report_bytes_pinned(tmp_path):
    # the first quarter of every layer: the A-side of the first fair pair
    # is too big, so the loop drops base layers and reroutes
    src = tmp_path / "p.json"
    tgt = tmp_path / "x.json"
    out = tmp_path / "sep.json"
    p = build_prefix(4, parse_f_spec("identity"), 6)
    src.write_text(p.to_json())
    tgt.write_text(json.dumps([[l, pos]
                               for l, size in enumerate(p.layer_sizes, 1)
                               for pos in range(size) if 4 * pos < size]))
    code, _, _ = lwheel("separate", "--in", src, "--target",
                        tgt, "--emit-decomposition", "--out", out)
    assert code == 0
    rep = json.loads(out.read_text())
    assert (rep["n"], rep["iterations"], rep["bound_applies"]) == (63, 3, True)
    assert (rep["order"], rep["order_bound"]) == (11, 42)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "3761b8359a13c4119242bd63e436edea5177887ce9af4dcdba4ffef628f8ec38"


# one [layer, pos] pair or tree edge as `json.dumps(indent=2)` writes it
PAIR = re.compile(r"\[\n *\d+,\n *\d+\n *\]")


def test_separate_report_streams_bounded_pieces(tmp_path, monkeypatch):
    src = tmp_path / "p.json"
    lwheel("build", "--ell", "4", "--f", "cap:3", "--layers", "10",
           "--out", src)
    pieces = []
    monkeypatch.setattr(cli, "_write",
                        lambda path, text: pieces.extend(text))
    code, _, _ = lwheel("separate", "--in", src, "--target", "all",
                        "--emit-decomposition")
    assert code == 0
    counts = [len(PAIR.findall(piece)) for piece in pieces]
    assert len(pieces) > 1
    assert max(counts) <= PIECE
    # every pair lies whole inside one piece
    assert sum(counts) == len(PAIR.findall("".join(pieces)))


CAP3_T4 = next(p for p in PREFIXES_300
               if (p.ell, p.f.descriptor, p.num_layers) == (4, "cap:3", 4))


# a single vertex, a disconnected pair, a target with A = B, three
# components (two layer-1 vertices and one of the last layer) whose root
# bags are chained into one tree, and a file naming every vertex, which
# gives the report of `--target all` too
@settings(max_examples=200, deadline=None)
@given(targets())
@example((PREFIXES_300[0], [0]))
@example((PREFIXES_300[-1], [0, 2]))
@example((CAP3_T4, [0, 1, 4]))
@example((CAP3_T4, [0, 2, CAP3_T4.offsets[-1]]))
@example((CAP3_T4, list(range(CAP3_T4.n_vertices))))
def test_separate_report_matches_reference(case):
    p, X = case
    with tempfile.TemporaryDirectory() as d:
        src = os.path.join(d, "p.json")
        tgt = os.path.join(d, "x.json")
        out = os.path.join(d, "sep.json")
        with open(src, "w") as fh:
            fh.write(p.to_json())
        with open(tgt, "w") as fh:
            json.dump([list(p.loc(g)) for g in X], fh)
        names = [tgt, "all"] if len(X) == p.n_vertices else [tgt]
        for name, emit in itertools.product(names, (False, True)):
            argv = ["separate", "--in", src, "--target", name, "--out", out]
            code = lwheel(*argv + ["--emit-decomposition"] if emit
                          else argv)[0]
            with open(out) as fh:
                assert (code, fh.read()) == (
                    0, reference_separate_report(p, X, emit))


# sha256 of the default `verify` report: pins the canonical check, the
# clique witness (the first vertex with the longest upward list and that
# list) and the rule-5 transversal verdict; `--seed` changes nothing
@pytest.mark.parametrize("ell, f, t, seed, digest", [
    (4, "cap:3", 6, 0,
     "0d7bf5438437bc3c3b68eed9b11a9bdefd8d6a561056410396bc7dc4dc3352ee"),
    (4, "cap:3", 6, 1,
     "0d7bf5438437bc3c3b68eed9b11a9bdefd8d6a561056410396bc7dc4dc3352ee"),
    (6, "cap:4", 4, 0,
     "61516ad89acd03d601b3627de02af49b822d51516995299767c174000874629b"),
    (6, "cap:4", 4, 1,
     "61516ad89acd03d601b3627de02af49b822d51516995299767c174000874629b"),
    (5, "identity", 5, 0,
     "65a7c8e29700cc26f034b281b49a9f088986f8159fba05845a26191360723b6e"),
    (7, "cap:3", 4, 0,
     "ae101872085a2a1d68b538309adfe6fff2b72562a711e38a81132623e120cf79"),
    # every spec form: the f_spec of the export reads back and builds it
    (4, "identity", 4, 0,
     "f57566cbb63cd15e2bd56751837cdd1e1dabab942e8304096868bc12a387ad0b"),
    (4, "cap:4", 4, 0,
     "f57566cbb63cd15e2bd56751837cdd1e1dabab942e8304096868bc12a387ad0b"),
    (4, "table:1,2,3,3,4", 4, 0,
     "62924111e95f79c846ba84ac299b4736fa3954510c428e11592afd6bfc575605"),
    (4, "cumulative:1,2,5", 4, 0,
     "62924111e95f79c846ba84ac299b4736fa3954510c428e11592afd6bfc575605"),
    (4, "cumulative:poly:2", 4, 0,
     "62924111e95f79c846ba84ac299b4736fa3954510c428e11592afd6bfc575605"),
    (4, "question84:coeffs:3", 4, 0,
     "62924111e95f79c846ba84ac299b4736fa3954510c428e11592afd6bfc575605"),
], ids=["n444-seed0", "n444-seed1", "n510-seed0", "n510-seed1", "n605-seed0",
        "n1127-seed0", "n60-identity", "n60-cap4", "n68-table",
        "n68-cumulative", "n68-cumulative-poly", "n68-question84"])
def test_verify_report_bytes_pinned(tmp_path, ell, f, t, seed,
                                    digest):
    src = tmp_path / "p.json"
    out = tmp_path / "verify.json"
    lwheel("build", "--ell", ell, "--f", f, "--layers", t,
           "--out", src)
    code, _, _ = lwheel("verify", "--in", src, "--seed", seed,
                        "--out", out)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_demo_conjecture85_report_bytes_pinned(tmp_path):
    # each row's omega and ta bound come from the clique route on its prefix
    out = tmp_path / "conjecture85.json"
    code, _, _ = lwheel("demo", "conjecture85", "--F", "poly:2",
                        "--c-max", "2", "--size-cap", "200000",
                        "--out", out)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "c082fa778767a6611e1a24a0e3acf6a9977118a782d139d430d076bdc412ce3d"


def test_demo_conjecture85_certifies_each_prefix_once(tmp_path, monkeypatch):
    # rows c=2 and c=3 share the t=10 prefix; its bounds are certified
    # once and only ta_lower >= c is tested per row
    certified = []
    certify = widths.ta_lower_bound_certified

    def counted(prefix):
        certified.append(prefix.n_vertices)
        return certify(prefix)

    monkeypatch.setattr(widths, "ta_lower_bound_certified", counted)
    out = tmp_path / "conjecture85.json"
    code, _, _ = lwheel("demo", "conjecture85", "--F", "poly:2",
                        "--c-max", "3", "--size-cap", "200000",
                        "--out", out)
    assert code == 0
    assert certified == [4, 20676]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "0c3dfe36d905443cca3aecbbd368c4b8e867ccca20a8cb06425a85c366cdc71c"


_CAP3_7 = {"status": "size-cap",
           "note": "layer 7 would bring the prefix to 1156 vertices "
                   "(cap 1000)"}
_NO_F = {"status": "FAIL", "note": "no finite F(k) >= ck"}
_PAST_CAP = {"status": "FAIL",
             "note": "no F(k) >= ck up to size_cap // ell = 50000"}


@pytest.mark.parametrize("argv, tail", [
    (["question84", "--k-max", "4", "--size-cap", "50000"],
     [{"k": 4, "t": 17, "g_k": 16, "status": "size-cap",
       "note": "layer 12 would bring the prefix to 113124 vertices "
               "(cap 50000)"}]),
    (["conjecture85", "--c-max", "3", "--size-cap", "1000"],
     [dict(c=2, k=3, t=10, **_CAP3_7), dict(c=3, k=3, t=10, **_CAP3_7)]),
    (["conjecture85", "--F", "cumulative:1,2,5", "--c-max", "3"],
     [dict(c=2, **_NO_F), dict(c=3, **_NO_F)]),
    # F(k) < 2k for every k: the search stops where no t fits the cap
    (["conjecture85", "--F", "poly:1", "--c-max", "2"],
     [dict(c=2, **_PAST_CAP)]),
    (["conjecture85", "--F", "poly:0", "--c-max", "3"],
     [dict(c=2, **_PAST_CAP), dict(c=3, **_PAST_CAP)]),
], ids=["question84-size-cap", "conjecture85-size-cap",
        "conjecture85-no-finite-F", "conjecture85-poly1",
        "conjecture85-poly0"])
def test_demo_rows_that_certify_nothing_fail_the_run(argv, tail):
    code, out, err = lwheel("demo", *argv)
    rep = json.loads(out)
    assert code == 1 and not rep["all_certified"]
    rows = rep["rows"]
    assert rows[-len(tail):] == tail
    assert all(row["status"] == "ok" for row in rows[:-len(tail)]
               if row["status"] != "out-of-scope")
    assert "Traceback" not in err


def test_demo_conjecture85_builds_each_t_once(monkeypatch):
    # rows c=2 and c=3 share t=10, past the cap: it is tried once
    built = []
    build = widths.build_prefix

    def counted(ell, f, t, size_cap):
        built.append(t)
        return build(ell, f, t, size_cap=size_cap)

    monkeypatch.setattr(widths, "build_prefix", counted)
    code, _, _ = lwheel("demo", "conjecture85", "--c-max", "3",
                        "--size-cap", "1000")
    assert code == 1
    assert built == [1, 10]


@pytest.mark.parametrize("argv, want", [
    (["question84", "--k-max", "12"], [10, 17]),
    (["conjecture85", "--c-max", "9"], [1, 10, 17]),
], ids=["question84", "conjecture85"])
def test_demos_build_no_t_past_the_first_one_over_the_cap(monkeypatch, argv,
                                                          want):
    # t only grows down the rows, so every t after the first one past the
    # 200,000 cap fails at its layer too: the rows take its note unbuilt
    built = []
    build = widths.build_prefix

    def counted(ell, f, t, size_cap):
        built.append(t)
        return build(ell, f, t, size_cap=size_cap)

    monkeypatch.setattr(widths, "build_prefix", counted)
    code, out, _ = lwheel("demo", *argv)
    assert code == 1
    assert built == want
    capped = [row for row in json.loads(out)["rows"]
              if row.get("status") == "size-cap"]
    assert capped[0]["t"] == want[-1] and len(capped) > 1
    assert {row["note"] for row in capped} == {
        "layer 13 would bring the prefix to 304052 vertices (cap 200000)"}


def test_no_command_runs_the_clique_search(tmp_path, monkeypatch):
    # omega is read off the upward lists; the kernel clique search and the
    # exact treewidth solver (at most 32 vertices) are the tests' oracles
    for name in ("max_clique", "treewidth_exact"):
        def refuse(*args, name=name, **kwargs):
            raise AssertionError("kernels.%s called" % name)

        monkeypatch.setattr(kernels, name, refuse)
    src = tmp_path / "p.json"
    lwheel("build", "--ell", "4", "--f", "cap:3", "--layers", "5",
           "--out", src)
    code, out, _ = lwheel("verify", "--in", src)
    assert code == 0 and json.loads(out)["checks"]["clique"]["omega"] == 3
    code, out, _ = lwheel("separate", "--in", src, "--target",
                          "all", "--emit-decomposition")
    assert code == 0 and json.loads(out)["k"] == 3
    for argv in (["question84", "--k-max", "3"],
                 ["conjecture85", "--c-max", "2"],
                 ["hajebi", "--c", "3", "--ell", "5", "--t", "5",
                  "--samples", "5"]):
        code, out, _ = lwheel("demo", *argv)
        assert code == 0 and json.loads(out)["all_certified"], argv


@pytest.mark.parametrize("argv, digest", [
    (["--c", "3", "--ell", "5", "--t", "5", "--samples", "20",
      "--size-cap", "200000"],
     "00d49c70b41a62262062058b97b61e425332d5268a80421cafcbf9f0ebe803e7"),
    ([], "aa91372160502ce4fc07a1eb14e2ee87891b18d65591a276c5a6a2406b75708a"),
    (["--c", "4", "--ell", "6", "--t", "5", "--samples", "10"],
     "075dfec0c11e6e7751290670660610872109af821536d333a5a7df0dc37e4cb2"),
], ids=["c3-ell5", "default-c2", "c4-ell6"])
def test_demo_hajebi_report_bytes_pinned(tmp_path, argv, digest):
    # each row carries the sample's clique number k and its order bound;
    # the report records --size-cap, here the default.  The digests were
    # taken from the sampler that intersected adjacency sets, whose draws
    # its counters must repeat
    out = tmp_path / "hajebi.json"
    code, _, _ = lwheel("demo", "hajebi", *argv, "--out", out)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_separate_small_target_file(tmp_path):
    f = tmp_path / "p.json"
    lwheel("build", "--ell", "4", "--f", "cap:3", "--layers", "4",
           "--out", f)
    tgt = tmp_path / "x.json"
    tgt.write_text(json.dumps([[1, 0], [1, 1], [2, 0]]))
    code, out, _ = lwheel("separate", "--in", f,
                          "--target", tgt)
    rep = json.loads(out)
    assert code == 0 and rep["n"] == 3 and rep["A"] == rep["B"]


@pytest.mark.parametrize("locs, names", [
    ([[1]], "entry 0"),
    ([1, 2], "entry 0"),
    ([[1, 0, 5]], "entry 0"),
    ([["a", 0]], "entry 0"),
    ({"x": 1}, "a list"),
    ([], "target set is empty"),
    ([[9, 0]], "error: no vertex (9, 0) in the prefix\n"),
], ids=["short-pair", "bare-ints", "long-pair", "string-layer", "object",
        "empty", "outside-pair"])
def test_separate_malformed_target_file_is_an_error(tmp_path, locs,
                                                    names):
    f = tmp_path / "p.json"
    lwheel("build", "--ell", "4", "--f", "cap:3", "--layers", "3",
           "--out", f)
    tgt = tmp_path / "x.json"
    tgt.write_text(json.dumps(locs))
    code, out, err = lwheel("separate", "--in", f,
                            "--target", tgt)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and names in err


def test_record_checks_build_no_adjacency(tmp_path, monkeypatch):
    # the rules, the canonical check, omega, the minor and the omega and
    # minor demos read the record, and so does the hole check at ell=4
    # when layer 1 holds a 4-hole and on every built prefix at ell >= 5:
    # with the adjacency refused, every report is the one they give with it
    records = [json.loads(p.to_json()) for p in PREFIXES_300]
    records += [obj for _, obj, _, _ in doctored_records()]
    records += [TWO_PARENTS, REPARENTED]
    runs = []
    for i, obj in enumerate(records):
        src = tmp_path / ("p%d.json" % i)
        src.write_text(json.dumps(obj))
        runs.append(["verify", "--in", str(src), "--rules", "--canonical",
                     "--clique", "--minor"])
        p = WheelPrefix.from_json_obj(obj)
        size = p.layer_sizes[0]
        layer_one = [{u for u in a if u < size} for a in p.adjacency()[:size]]
        if (p.ell >= 5 and i < len(PREFIXES_300) or p.ell == 4
                and kernels.shortest_hole(size, layer_one, 4)):
            runs.append(["verify", "--in", str(src), "--holes"])
    # every built prefix at ell >= 5, and every ell=4 record but the one
    # whose layer 1 is a triangle
    assert (sum("--holes" in argv for argv in runs)
            == sum(p.ell >= 5 for p in PREFIXES_300)
            + sum(obj["ell"] == 4 for obj in records) - 1)
    runs += [["demo", "conjecture85", "--c-max", "2"],
             ["demo", "question84", "--k-max", "3"]]
    expected = [lwheel(*argv) for argv in runs]

    def refuse(self):
        raise AssertionError("adjacency built")

    monkeypatch.setattr(WheelPrefix, "adjacency", refuse)
    for argv, want in zip(runs, expected):
        assert lwheel(*argv) == want, argv


def _quarter(p):
    """The first quarter of every layer, as [layer, pos] pairs: the CI's
    target on which the separation loop iterates."""
    return [[layer, pos] for layer, size in enumerate(p.layer_sizes, 1)
            for pos in range(size) if 4 * pos < size]


def test_separate_builds_no_adjacency(tmp_path, monkeypatch):
    # the clique route, the separation, its check, the decomposition, its
    # validation and the bag searches read the record: with the adjacency
    # refused, every run gives what it gives with it
    runs = []
    for i, p in enumerate(PREFIXES_300):
        src = tmp_path / ("p%d.json" % i)
        src.write_text(p.to_json())
        quarter = tmp_path / ("q%d.json" % i)
        quarter.write_text(json.dumps(_quarter(p)))
        runs += [["separate", "--in", str(src), "--target", "all"],
                 ["separate", "--in", str(src), "--target", "all",
                  "--emit-decomposition"],
                 ["separate", "--in", str(src), "--target", str(quarter),
                  "--emit-decomposition"]]

    def outcome(k, argv):
        report = tmp_path / ("r%d.json" % k)
        report.unlink(missing_ok=True)
        code, out, err = lwheel(*argv, "--out", report)
        return code, out, err, report.read_bytes()
    expected = [outcome(k, argv) for k, argv in enumerate(runs)]

    def refuse(self):
        raise AssertionError("adjacency built")

    monkeypatch.setattr(WheelPrefix, "adjacency", refuse)
    for k, (argv, want) in enumerate(zip(runs, expected)):
        assert outcome(k, argv) == want, argv


def test_demos_build_no_adjacency(tmp_path, monkeypatch):
    # hajebi's sampler reads the record through its own index, and the
    # other two demos read it alone: with the adjacency refused, every
    # demo gives the report and the summary it gives with it
    runs = [["hajebi"],
            ["hajebi", "--c", "3", "--ell", "5", "--t", "5", "--samples", "5"],
            ["conjecture85"], ["question84"]]

    def outcome(k, argv):
        report = tmp_path / ("r%d.json" % k)
        report.unlink(missing_ok=True)
        code, out, err = lwheel("demo", *argv, "--out", report)
        return code, out, err, report.read_bytes()
    expected = [outcome(k, argv) for k, argv in enumerate(runs)]
    assert all(code == 0 for code, _, _, _ in expected)

    def refuse(self):
        raise AssertionError("adjacency built")

    monkeypatch.setattr(WheelPrefix, "adjacency", refuse)
    for k, (argv, want) in enumerate(zip(runs, expected)):
        assert outcome(k, argv) == want, argv


def _parent_mutant(ell, f_spec, t, where):
    """The JSON of a built prefix with one parent changed: the first
    vertex that has one loses it (``where`` None), or the vertex at
    ``where`` gets the vertex two positions after its parent, which is not
    its neighbor."""
    p = build_prefix(ell, parse_f_spec(f_spec), t)
    obj = json.loads(p.to_json())
    if where is None:
        next(v for v in obj["vertices"] if v["parent"])["parent"] = None
    else:
        rec = obj["vertices"][p.vid(*where)]
        layer, pos = rec["parent"]
        rec["parent"] = [layer, (pos + 2) % p.layer_sizes[layer - 1]]
    return p, obj


NO_REPORT = hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize("spec, where, quarter, code, err, digest", [
    ((4, "cap:3", 5), None, False, 1,
     "error: vertex (1, 0) has no children\n", NO_REPORT),
    ((4, "cap:3", 5), (4, 0), False, 0,
     "n=172 k=3 order=11 bound=inf balanced=True\n",
     "1d23209d74adb11106f09419e2dd81605d35d4b807b4d1835763626188cbae39"),
    ((4, "cap:3", 5), (4, 0), True, 0,
     "n=43 k=3 order=9 bound=inf balanced=True\n",
     "de852e572806be035b2757042fd66bf72d7b657a0c0b08e17ec401ce8218736b"),
    ((4, "identity", 6), (4, 0), False, 1,
     "error: vertex (3, 0) has no children\n", NO_REPORT),
], ids=["null-parent", "far-parent", "far-parent-quarter",
        "far-parent-childless"])
def test_separate_on_a_parent_the_adjacency_denies(tmp_path, spec,
                                                   where, quarter, code,
                                                   err, digest):
    # pinned from the children read off the adjacency: a child is a
    # neighbor whose parent is the vertex
    p, obj = _parent_mutant(*spec, where)
    src = tmp_path / "p.json"
    src.write_text(json.dumps(obj))
    target = "all"
    if quarter:
        target = tmp_path / "q.json"
        target.write_text(json.dumps(_quarter(p)))
    got, out, stderr = lwheel("separate", "--in", src, "--target",
                              target, "--emit-decomposition")
    assert (got, stderr) == (code, err)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_demo_subcommand(tmp_path):
    code, out, err = lwheel("demo", "hajebi", "--c", "2", "--ell", "5",
                            "--t", "3", "--samples", "3",
                            "--size-cap", "10000")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_certified"] and "sample" in err


def test_demo_hajebi_runs_with_no_options():
    # hajebi needs ell >= 5, and its --ell defaults to 5
    code, out, _ = lwheel("demo", "hajebi")
    rep = json.loads(out)
    assert code == 0 and rep["all_certified"]
    assert (rep["c"], rep["ell"], rep["t"], rep["samples"]) == (2, 5, 4, 50)


@pytest.mark.parametrize("argv", [
    ["question84", "--samples", "3", "--c", "9", "--t", "2"],
    ["conjecture85", "--k-max", "3"],
    ["hajebi", "--g", "poly:2"],
])
def test_demo_rejects_another_demos_option(argv):
    code, _, err = lwheel("demo", *argv)
    assert code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in err


@pytest.mark.parametrize("argv, error", [
    (["--t", "-1"], "t must be >= 0, got -1"),
    (["--t", "1"], "t must be >= c for omega = c+1, got c=2 t=1"),
    (["--c", "3", "--t", "2"], "t must be >= c for omega = c+1, got c=3 t=2"),
], ids=["negative", "below-c2", "below-c3"])
def test_demo_hajebi_names_the_t_given(argv, error):
    code, out, err = lwheel("demo", "hajebi", *argv)
    assert code == 1 and out == ""
    assert err == "error: %s\n" % error


def test_demo_reproducible():
    a = lwheel("demo", "hajebi", "--c", "2", "--ell", "5", "--t", "3",
               "--samples", "3", "--seed", "5", "--size-cap", "10000")
    b = lwheel("demo", "hajebi", "--c", "2", "--ell", "5", "--t", "3",
               "--samples", "3", "--seed", "5", "--size-cap", "10000")
    assert a == b


def test_verify_proves_every_small_transversal_chordal(tmp_path):
    # every one-per-layer transversal of each prefix that has at most
    # 20,000 of them is chordal, and holds the ceil(t / omega) stable set
    # that ta_lower_bound_certified's bound rests on
    small = [p for p in PREFIXES_300 if math.prod(p.layer_sizes) <= 20_000]
    assert len(small) == 29
    total = 0
    for p in small:
        src = tmp_path / "p.json"
        src.write_text(p.to_json())
        code, out, _ = lwheel("verify", "--in", src, "--rules")
        assert code == 0
        assert json.loads(out)["checks"]["chordal_transversals"] == {
            "by": "rule 5", "passed": True}
        omega, _ = structure.clique_number_exact(p)
        bound = -(-p.num_layers // omega)
        for Y in itertools.product(*map(p.layer_range,
                                        range(1, p.num_layers + 1))):
            cert = structure.transversal_chordality_check(p, set(Y))
            assert cert.verdict, (p.ell, p.f.descriptor, Y)
            order, local = structure.induced_adjacency(p, Y)
            alpha = len(kernels.max_independent_set(len(order),
                                                    masks_of(local), 0))
            assert alpha >= bound, (p.ell, p.f.descriptor, Y)
            total += 1
    assert total == 86_699


def test_verify_help_hides_seed():
    # --seed stays accepted (the pins above pass it) but shows nowhere
    code, text, _ = lwheel("verify", "--help")
    assert code == 0
    assert "--seed" not in text and "--chordal-samples" not in text


_CAP_AND_OUT = {"--size-cap": "200000", "--out": "-"}


@pytest.mark.parametrize("argv, defaults", [
    (["build"], {"--ell": None, "--f": None, "--layers": None,
                 **_CAP_AND_OUT, "--format": "json"}),
    (["verify"], {"--in": None, "--rules": None, "--canonical": None,
                  "--holes": None, "--clique": None, "--minor": None,
                  "--out": "-"}),
    (["separate"], {"--in": None, "--target": "all",
                    "--emit-decomposition": None, "--out": "-"}),
    (["demo", "question84"], {**_CAP_AND_OUT, "--g": "poly:2",
                              "--ell": "4", "--k-max": "3"}),
    (["demo", "conjecture85"], {**_CAP_AND_OUT, "--F": "poly:2",
                                "--ell": "4", "--c-max": "2"}),
    (["demo", "hajebi"], {**_CAP_AND_OUT, "--c": "2", "--ell": "5",
                          "--t": "4", "--samples": "50", "--seed": "0"}),
], ids=lambda a: "-".join(a) if isinstance(a, list) else "")
def test_help_shows_each_default(argv, defaults):
    # every listed option, and no other, shows "(default: ...)" exactly
    # when it has a value default: none on a required option or a switch
    code, text, _ = lwheel(*argv, "--help")
    assert code == 0
    body = " ".join(text.split("options:", 1)[1].split())
    shown = {}
    for entry in re.split(r" (?=--[A-Za-z])", body)[1:]:
        found = re.search(r"\(default: (.*?)\)", entry)
        shown[entry.split()[0]] = found and found.group(1)
    assert shown == {"--help": None, **defaults}


@pytest.mark.parametrize("name, obj, where, reason", doctored_records(),
                         ids=[case[0] for case in doctored_records()])
def test_doctored_record_fails_verify_and_separate(tmp_path, name,
                                                   obj, where, reason):
    src = tmp_path / "p.json"
    src.write_text(json.dumps(obj))
    code, out, _ = lwheel("verify", "--in", src)
    checks = json.loads(out)["checks"]
    clique = checks["clique"]
    assert code == 1 and not clique["passed"]
    assert clique["certificate"]["data"]["first_violation"] == where
    # the four up-list edits break rule 5; the 3-vertex layer breaks rule 2
    rule5 = next(r for r in checks["rules"]["rules"] if r["rule"] == 5)
    assert rule5["passed"] == (name == "short-layer")
    assert checks["chordal_transversals"] == {"by": "rule 5",
                                              "passed": rule5["passed"]}
    code, out, err = lwheel("separate", "--in", src,
                            "--emit-decomposition")
    assert code == 1 and out == ""
    assert err.startswith("error: no clique certificate: vertex (%d, %d): "
                          % tuple(where)) and reason in err


# -- the canonical check --------------------------------------------------

CAP3_T3 = build_prefix(4, parse_f_spec("cap:3"), 3).to_json()


@pytest.mark.parametrize("spec", ["cap:5", "identity", "table:1,2,3,3,3"])
def test_f_spec_mutants_that_build_the_same_prefix_pass(tmp_path, spec):
    # f agrees with cap:3 on layers 1..3, so the file is that prefix
    obj = json.loads(CAP3_T3)
    obj["f_spec"] = spec
    src = tmp_path / "p.json"
    src.write_text(json.dumps(obj))
    code, out, _ = lwheel("verify", "--in", src)
    assert code == 0
    assert json.loads(out)["checks"]["canonical"] == {"passed": True,
                                                      "detail": ""}


CAP3_T4_JSON = build_prefix(4, parse_f_spec("cap:3"), 4).to_json()


@pytest.mark.parametrize("mutate, detail", [
    (lambda obj: obj.update(f_spec="cap:4"),
     "vertex (4, 32): layer 4 holds 40 vertices, where "
     "build_prefix(4, cap:4, 4) has 32"),
    (lambda obj: obj.update(ell=5),
     "vertex (1, 4): layer 1 holds 4 vertices, where "
     "build_prefix(5, cap:3, 4) has 5"),
    (lambda obj: obj["vertices"][12]["up"].reverse(),
     "vertex (3, 0): up [(2, 0), (1, 0)], where build_prefix(4, cap:3, 4) "
     "has [(1, 0), (2, 0)]"),
    (lambda obj: obj["vertices"][13].update(parent=[2, 0]),
     "vertex (3, 1): parent (2, 0), where build_prefix(4, cap:3, 4) has "
     "None"),
], ids=["f_spec", "ell", "up-order", "parent"])
def test_canonical_check_names_the_first_difference(tmp_path, mutate,
                                                     detail):
    obj = json.loads(CAP3_T4_JSON)
    mutate(obj)
    src = tmp_path / "p.json"
    src.write_text(json.dumps(obj))
    code, out, _ = lwheel("verify", "--in", src, "--canonical")
    rep = json.loads(out)
    assert code == 1 and set(rep["checks"]) == {"canonical"}
    assert rep["checks"]["canonical"] == {"passed": False, "detail": detail}


F_SPECS = ["cap:3", "cap:4", "cap:5", "identity", "table:1,2,3,3,3",
           "table:1,2,2,3", "cumulative:poly:2", "cumulative:1,2,5",
           "question84:coeffs:3", "cap:2", "nonsense"]


@st.composite
def one_field_mutants(draw):
    """The l=4 cap:3 t=4 prefix's JSON with one field changed: f_spec,
    ell, one layer size, one up entry (or one added to an empty list) or
    one parent.  Every slow function starts 1, 2, 3, so only from t=4 on
    can an f_spec mutant build another prefix."""
    obj = json.loads(CAP3_T4_JSON)
    sizes = obj["layers"]
    recs = obj["vertices"]

    def vertex():
        layer = draw(st.integers(1, len(sizes)))
        return [layer, draw(st.integers(0, sizes[layer - 1] - 1))]
    kind = draw(st.sampled_from(["f_spec", "ell", "layer", "up", "parent"]))
    if kind == "f_spec":
        obj["f_spec"] = draw(st.sampled_from(F_SPECS))
    elif kind == "ell":
        obj["ell"] = draw(st.integers(3, 7))
    elif kind == "layer":
        sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(1, 30))
    else:
        rec = draw(st.sampled_from(recs))
        if kind == "parent":
            rec["parent"] = draw(st.one_of(st.none(), st.builds(vertex)))
        elif rec["up"]:
            rec["up"][draw(st.integers(0, len(rec["up"]) - 1))] = vertex()
        else:
            rec["up"].append(vertex())
    return obj


@settings(max_examples=300, deadline=None)
@given(one_field_mutants())
def test_verify_one_field_mutant_fails_or_is_canonical(obj):
    with tempfile.TemporaryDirectory() as d:
        src = os.path.join(d, "p.json")
        with open(src, "w") as fh:
            json.dump(obj, fh)
        code, out, _ = lwheel("verify", "--in", src)
    assert code in (0, 1)
    if code == 0:
        assert json.loads(out)["checks"]["canonical"]["passed"]
        p = WheelPrefix.from_json_obj(obj)
        ref = build_prefix(p.ell, p.f, p.num_layers)
        assert (p.layer_sizes, p.up, p.parent) == \
            (ref.layer_sizes, ref.up, ref.parent)


# -- the export read by byte comparison ----------------------------------

def _reports(src):
    """The exit code and output of default ``verify`` and of ``separate
    --target all --emit-decomposition`` on the file."""
    return [lwheel(*argv)[:2] for argv in [
        ("verify", "--in", str(src)),
        ("separate", "--in", str(src), "--target", "all",
         "--emit-decomposition")]]


def test_reports_identical_for_the_export_and_a_relaid_copy(tmp_path):
    # the export takes the byte comparison; an indent=1 copy, with or
    # without the final newline, is parsed and compared list by list
    exact = tmp_path / "exact.json"
    relaid = tmp_path / "relaid.json"
    for p in PREFIXES_300:
        exact.write_text(p.to_json() + "\n")
        prefix, is_export = cli._load_prefix(exact)
        assert is_export and prefix.to_json() == p.to_json()
        want = _reports(exact)
        text = json.dumps(json.loads(p.to_json()), indent=1)
        for copy in (text, text + "\n"):
            relaid.write_text(copy)
            assert cli._load_prefix(relaid)[1] is False
            assert _reports(relaid) == want


def _edited_export(p, tail=""):
    """The export of p with its last record's up list replaced, and
    ``tail`` put before the closing brace."""
    obj = json.loads(p.to_json())
    obj["vertices"][-1]["up"] = [[1, 0]]
    return json.dumps(obj)[:-1] + tail + "}\n"


@pytest.mark.parametrize("tail, want", [
    ("", "vertex (6, 271): up [(1, 0)], where build_prefix(4, cap:3, 6) "
     "has []"),
    # a later duplicate key, which json.loads keeps, gives the record
    # another f than the header
    (', "f_spec": "cap:4"', "vertex (4, 32): layer 4 holds 40 vertices, "
     "where build_prefix(4, cap:4, 6) has 32"),
], ids=["edited", "duplicate-f_spec"])
def test_verify_of_an_edited_export_builds_the_header_and_grows_the_record(
        tmp_path, monkeypatch, tail, want):
    # the header's build only recognises the export; the canonical check
    # grows its own construction for the parsed record, so a file that
    # differs from the export in its last record starts two, and the
    # detail is the layer-by-layer one
    text = _edited_export(build_prefix(4, parse_f_spec("cap:3"), 6), tail)
    src = tmp_path / "edited.json"
    src.write_text(text)
    grown = []
    extend = WheelPrefix._extend

    def counted(self, size_cap):
        grown.append(self.num_layers + 1)
        return extend(self, size_cap)
    monkeypatch.setattr(WheelPrefix, "_extend", counted)
    code, out, _ = lwheel("verify", "--in", src)
    assert code == 1
    assert json.loads(out)["checks"]["canonical"] == {
        "passed": False, "detail": want}
    starts = [i for i, layer in enumerate(grown) if layer == 2]
    assert len(starts) == 2
    assert grown[:5] == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("argv", [
    ["separate", "--target", "all"],
    ["verify", "--rules"],
    ["verify", "--canonical"],
    ["verify"],
], ids=["separate", "verify-rules", "verify-canonical", "verify"])
def test_the_rebuild_is_dropped_before_the_parse_unless_canonical_reads_it(
        tmp_path, monkeypatch, argv):
    # no check reads the header's build of a file that is not the export,
    # the canonical one included, so it is freed before the file is parsed
    src = tmp_path / "edited.json"
    src.write_text(_edited_export(build_prefix(4, parse_f_spec("cap:3"), 5)))
    refs, seen = [], []
    build, from_json = wheel.build_prefix, WheelPrefix.from_json

    def building(*args, **kwargs):
        prefix = build(*args, **kwargs)
        refs.append(weakref.ref(prefix))
        return prefix

    def parsing(text):
        seen.append([ref() is not None for ref in refs])
        return from_json(text)
    monkeypatch.setattr(wheel, "build_prefix", building)
    monkeypatch.setattr(WheelPrefix, "from_json", parsing)
    lwheel(argv[0], "--in", src, *argv[1:])
    assert seen == [[False]]


def test_an_export_past_the_default_cap_reads_as_exact(tmp_path,
                                                      monkeypatch):
    # the header's build is capped by the text's length when that is
    # larger than the default cap, so an export built with --size-cap
    # above the default is recognised and never parsed
    monkeypatch.setattr(wheel, "DEFAULT_SIZE_CAP", 1000)
    src = tmp_path / "p.json"
    code, _, _ = lwheel("build", "--ell", "4", "--f", "cap:3",
                        "--layers", "8", "--size-cap", "5000", "--out", src)
    assert code == 0
    text = src.read_text()
    # a record one vertex short of its header's build, which is past the
    # record's own size, gets the detail of the construction grown to it
    obj = json.loads(text)
    obj["layers"][-1] -= 1
    del obj["vertices"][-1]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(obj))
    want = canonical_violation(WheelPrefix.from_json(short.read_text()))
    assert "passes 3019" in want
    code, out, _ = lwheel("verify", "--canonical", "--in", short)
    assert code == 1
    assert json.loads(out)["checks"]["canonical"]["detail"] == want

    def refuse(text):
        raise AssertionError("the export was parsed")
    monkeypatch.setattr(WheelPrefix, "from_json", refuse)
    assert read_export(text).n_vertices == 3020
    code, out, _ = lwheel("verify", "--in", src)
    assert code == 0
    assert json.loads(out)["checks"]["canonical"]["passed"]
    # a header that asks for more vertices than its text has bytes
    head = text[:text.index('"vertices": [')] + '"vertices": []}'
    assert len(head) < 1000
    assert read_export(head) is None


@pytest.mark.parametrize("field, value, error", [
    ("ell", 3, "prefix field 'ell': ell must be >= 4, got 3"),
    ("f_spec", "bogus", "prefix field 'f_spec': cannot parse f spec "
     "'bogus'"),
    ("num_layers", 0, "prefix field 'num_layers': 0, but the file holds 3 "
     "layers"),
    ("num_layers", 40, "prefix field 'num_layers': 40, but the file holds "
     "3 layers"),
    ("ell", "4", "prefix field 'ell': not an integer: \"4\""),
], ids=["ell-3", "bogus-f", "no-layers", "past-the-cap", "string-ell"])
def test_header_that_does_not_build_is_parsed(tmp_path, field,
                                              value, error):
    # the header alone cannot be built, so the file is parsed, and the
    # parse names the field
    obj = json.loads(CAP3_T3)
    obj[field] = value
    src = tmp_path / "p.json"
    src.write_text(json.dumps(obj))
    for command in ("verify", "separate"):
        assert lwheel(command, "--in", src) == (
            1, "", "error: %s\n" % error)


# -- never a traceback ----------------------------------------------------

# small integers only, so that no header builds a prefix near the cap
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6)
    | st.floats(allow_nan=False) | st.text(max_size=8)
    | st.sampled_from(F_SPECS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


@st.composite
def export_edits(draw):
    """A small export with one header field or one vertex field set to
    another JSON value, or a small [layer, pos] pair; or its bytes from
    the layer sizes on with a few runs replaced, mostly by JSON
    punctuation, digits and letters (so num_layers stays 3)."""
    obj = json.loads(CAP3_T3)
    kind = draw(st.sampled_from(["header", "vertex", "bytes"]))
    if kind == "header":
        field = draw(st.sampled_from(["ell", "f_spec", "num_layers",
                                      "layers", "vertices"]))
        obj[field] = draw(json_values)
    elif kind == "vertex":
        rec = draw(st.sampled_from(obj["vertices"]))
        pair = st.lists(st.integers(-1, 4), min_size=2, max_size=2)
        field = draw(st.sampled_from(["layer", "pos", "parent", "up"]))
        rec[field] = draw(json_values | pair | st.lists(pair, max_size=3))
    else:
        data = bytearray(CAP3_T3.encode())
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(CAP3_T3.index('"layers"'), len(data)))
            cut = draw(st.integers(0, 3))
            data[at:at + cut] = draw(
                st.binary(max_size=3)
                | st.text(alphabet='0123456789-,.:[]{}" aeflnrstu',
                          max_size=3).map(str.encode))
        return bytes(data)
    return json.dumps(obj).encode()


def nested(depth):
    return ("[" * depth + "]" * depth).encode()


inputs = st.one_of(
    json_values.map(lambda v: json.dumps(v).encode()),
    st.integers(1, 5000).map(nested),
    export_edits(),
    st.binary(max_size=64))


def _assert_no_traceback(*argv):
    """Run the command: exit 0 or 1, and on exit 1 either an ``error:``
    line, which ``lwheel`` checks comes alone, or a failing report.
    Returns the exit code."""
    code, out, err = lwheel(*argv)
    assert code in (0, 1), (argv, code, err)
    if err.startswith("error: "):
        return code
    report = json.loads(out)
    if argv[0] == "verify":
        passed = report["passed"]
    else:
        passed = report["verified"] and report.get(
            "decomposition", {"valid": True})["valid"]
    assert passed is (code == 0), (argv, code, err)
    return code


@settings(max_examples=300, deadline=None)
@given(inputs)
@example(nested(100_000))
@example(b"\xff\xfe\x00")
def test_never_a_traceback(data):
    with tempfile.TemporaryDirectory() as d:
        src = os.path.join(d, "in.json")
        with open(src, "wb") as fh:
            fh.write(data)
        good = os.path.join(d, "p.json")
        with open(good, "w") as fh:
            fh.write(CAP3_T3)
        if _assert_no_traceback("verify", "--in", src) == 0:
            # a default verify passes only the record its header builds
            p = WheelPrefix.from_json(data.decode())
            ref = build_prefix(p.ell, p.f, p.num_layers)
            assert (p.layer_sizes, p.up, p.parent) == \
                (ref.layer_sizes, ref.up, ref.parent)
        for argv in (["separate", "--in", src, "--emit-decomposition"],
                     ["separate", "--in", good, "--target", src,
                      "--emit-decomposition"]):
            _assert_no_traceback(*argv)
