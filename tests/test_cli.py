import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from layered_wheels import WheelPrefix, build_prefix, parse_f_spec
from layered_wheels import cli, kernels, structure, widths
from layered_wheels.cli import main, to_dot, to_graph6
from layered_wheels.wheel import PIECE

from conftest import (PREFIXES_300, doctored_records, reference_dot,
                      reference_separate_report, targets)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_json(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _, err = run(capsys, "build", "--ell", "4", "--f", "cap:3",
                       "--layers", "4", "--out", str(out))
    assert code == 0 and "68 vertices" in err
    obj = json.loads(out.read_text())
    assert obj["layers"] == [4, 8, 16, 40]


def test_build_round_trip_byte_identical(tmp_path, capsys):
    out = tmp_path / "p.json"
    run(capsys, "build", "--ell", "5", "--f", "identity", "--layers", "3",
        "--out", str(out))
    text = out.read_text().strip()
    assert WheelPrefix.from_json(text).to_json() == text


def test_build_rejects_small_ell(capsys):
    code, _, err = run(capsys, "build", "--ell", "3", "--f", "identity",
                       "--layers", "1")
    assert code != 0 and "error" in err


def test_build_rejects_bad_fspec(capsys):
    code, _, err = run(capsys, "build", "--ell", "4", "--f", "bogus:1",
                       "--layers", "1")
    assert code != 0


def test_build_size_cap_error(capsys):
    code, _, err = run(capsys, "build", "--ell", "4", "--f", "identity",
                       "--layers", "10", "--size-cap", "100")
    assert code != 0 and "cap" in err


def test_build_size_cap_checks_layer_one(capsys):
    code, out, err = run(capsys, "build", "--ell", "6", "--f", "cap:3",
                         "--layers", "1", "--size-cap", "3")
    assert code == 1 and out == ""
    assert err == ("error: layer 1 would bring the prefix to 6 vertices "
                   "(cap 3)\n")
    code, _, _ = run(capsys, "build", "--ell", "6", "--f", "cap:3",
                     "--layers", "1", "--size-cap", "6")
    assert code == 0


@pytest.mark.parametrize("command", [
    ["build", "--ell", "4", "--f", "cap:3", "--layers", "3"],
    ["demo", "hajebi", "--ell", "5"],
])
def test_negative_size_cap_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--size-cap", "-5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--size-cap: must be >= 0, got -5" in err and "cap -5" not in err


def test_graph6_c4():
    # C4 on vertices 0-1-2-3-0: bits (01)(02)(12)(03)(13)(23) = 101101
    assert to_graph6(4, [(0, 1), (1, 2), (2, 3), (0, 3)]) == "Cl\n"


@pytest.mark.parametrize("t", [2, 4], ids=["n12", "n68"])  # n68: 4-byte header
def test_graph6_matches_prefix_edges(tmp_path, capsys, t):
    out = tmp_path / "p.g6"
    run(capsys, "build", "--ell", "4", "--f", "cap:3", "--layers", str(t),
        "--out", str(out), "--format", "graph6")
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
@pytest.mark.parametrize("ell, f, t, fmt, digest", [
    (4, "cap:3", 8, "json",
     "09cfb2aadb88c5537a02708d0a935c966e4f447258fb51e688a3e5cdd7ce9975"),
    (4, "cap:3", 8, "dot",
     "3dfc64ada92d306fe308806fbe487820dd3217bc9e9a5d5e80946dfafb74b6fe"),
    (6, "cap:4", 5, "json",
     "5b3100f36b98fcf6e6b157f742e8d70e801818b89c7fba6c61adc6714c6a6cca"),
    (6, "cap:4", 5, "dot",
     "0272adadd30f7b0f3465eae8787eeb85bfedbf11cc57b1e0416d26e472377932"),
    (4, "cap:3", 10, "json",
     "612132b27cc8054e13150de5edfbfa3038abfc9dd10ddc6bd2a00621f79ea0e6"),
    (4, "cap:3", 10, "dot",
     "eedbef071a0b83e75acd512c3e26720702e7d74632d3b9f2b5dca50446e2c466"),
    (4, "cap:3", 8, "graph6",
     "3647f661513adf9abb50b4a5f36314f1e9d7dcc1e7640b173fd9732351eada76"),
], ids=["n3020-json", "n3020-dot", "n2094-json", "n2094-dot",
        "n20676-json", "n20676-dot", "n3020-graph6"])
def test_build_export_bytes_pinned(tmp_path, capsys, ell, f, t, fmt, digest):
    out = tmp_path / "p.out"
    code, _, _ = run(capsys, "build", "--ell", str(ell), "--f", f,
                     "--layers", str(t), "--format", fmt, "--out", str(out))
    assert code == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    # the whole-text functions join the same pieces the file received
    p = build_prefix(ell, parse_f_spec(f), t)
    if fmt == "json":
        text = p.to_json() + "\n"
    elif fmt == "dot":
        text = to_dot(p)
    else:
        text = to_graph6(p.n_vertices, p.edges())
    assert text.encode() == data


def test_build_graph6_builds_no_adjacency(tmp_path, capsys, monkeypatch):
    # the graph6 writer reads the pairs off the layer cycles and the
    # upward lists; the bytes are the same as from the edge list
    def refuse(self):
        raise AssertionError("graph6 export built the adjacency")

    monkeypatch.setattr(WheelPrefix, "adjacency", refuse)
    out = tmp_path / "p.g6"
    code, _, _ = run(capsys, "build", "--ell", "4", "--f", "cap:3",
                     "--layers", "8", "--format", "graph6", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "3647f661513adf9abb50b4a5f36314f1e9d7dcc1e7640b173fd9732351eada76"


# traced memory of `build` beyond the prefix's own, against the size of
# the file it writes: the writers hold one piece at a time, not the text
@pytest.mark.parametrize("fmt, ratio", [("json", 3), ("dot", 3),
                                        ("graph6", 1)])
def test_build_export_memory_bounded(tmp_path, capsys, fmt, ratio):
    out = tmp_path / "p.out"
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prefix = build_prefix(4, parse_f_spec("cap:3"), 10)
        own = tracemalloc.get_traced_memory()[0] - base
        del prefix
        tracemalloc.reset_peak()
        code, _, _ = run(capsys, "build", "--ell", "4", "--f", "cap:3",
                         "--layers", "10", "--format", fmt, "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak - own < ratio * out.stat().st_size


def test_dot_matches_reference():
    # at l=6 cap:4 t=6 the last layer spans two pieces
    for p in PREFIXES_300 + [build_prefix(6, parse_f_spec("cap:4"), 6)]:
        assert to_dot(p) == reference_dot(p)


def test_dot_has_layer_ranks():
    p = build_prefix(4, parse_f_spec("identity"), 2)
    dot = to_dot(p)
    assert dot.count("rank=same") == 2
    assert '"1_0" -> "1_1"' in dot


def test_verify_pass_and_exit_zero(tmp_path, capsys):
    f = tmp_path / "p.json"
    run(capsys, "build", "--ell", "4", "--f", "cap:3", "--layers", "3",
        "--out", str(f))
    code, out, _ = run(capsys, "verify", "--in", str(f))
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"]
    assert set(rep["checks"]) == {"rules", "canonical", "holes", "clique",
                                  "minor", "chordal_transversals"}


def test_verify_mutated_fails(tmp_path, capsys):
    f = tmp_path / "p.json"
    run(capsys, "build", "--ell", "4", "--f", "cap:3", "--layers", "3",
        "--out", str(f))
    obj = json.loads(f.read_text())
    victim = next(v for v in obj["vertices"]
                  if v["layer"] == 2 and v["parent"])
    victim["parent"] = None
    f.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--in", str(f), "--rules")
    assert code == 1
    assert not json.loads(out)["passed"]


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
], ids=["unknown-up-vertex", "missing-ell", "short-parent",
        "num-layers-mismatch", "no-layers", "float-ell", "string-layers",
        "negative-layer", "float-layer", "float-pos", "float-up",
        "float-parent"])
def test_verify_malformed_json_is_an_error(tmp_path, capsys, mutate, field):
    f = tmp_path / "p.json"
    run(capsys, "build", "--ell", "4", "--f", "cap:3", "--layers", "3",
        "--out", str(f))
    obj = json.loads(f.read_text())
    mutate(obj)
    f.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--in", str(f))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and field in err


def test_exit_codes(tmp_path, capsys):
    # 2: argparse usage error; 1: input or runtime error
    with pytest.raises(SystemExit) as exc:
        main(["build", "--ell", "4", "--f", "cap:3"])
    assert exc.value.code == 2
    assert "--layers" in capsys.readouterr().err
    code, out, err = run(capsys, "verify", "--in", str(tmp_path / "no.json"))
    assert code == 1 and out == "" and err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        main(["build", "--ell", "4", "--f", "cap:3", "--layers", "3",
              "--size-cap", "-1"])
    assert exc.value.code == 2
    assert "--size-cap" in capsys.readouterr().err
    code, out, err = run(capsys, "demo", "conjecture85", "--c-max", "0")
    assert code == 1 and out == "" and err.startswith("error: c_max")
    with pytest.raises(SystemExit) as exc:
        main(["demo", "hajebi", "--samples", "-3"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_separate_all_with_decomposition(tmp_path, capsys):
    f = tmp_path / "p.json"
    run(capsys, "build", "--ell", "4", "--f", "cap:3", "--layers", "4",
        "--out", str(f))
    code, out, err = run(capsys, "separate", "--in", str(f),
                         "--target", "all", "--emit-decomposition")
    assert code == 0
    rep = json.loads(out)
    assert rep["balanced"] and rep["verified"]
    assert rep["order"] <= 21
    assert rep["decomposition"]["valid"]


# sha256 of the `separate --target all --emit-decomposition` report: a
# faster separation or decomposition must not change a bag or a witness
@pytest.mark.parametrize("ell, f, t, digest", [
    (4, "cap:3", 6,
     "da1fc895e220bbd7120694b6f0dd86d2c90cdb76e57c6929a38aca14e258ed6a"),
    (5, "identity", 4,
     "81995a8093fa23228d77a06fc19eafdbdc2df56b83c218886b66f59745a656c8"),
    # the instances of the command benchmark's separate workload
    (4, "cap:3", 8,
     "d2c35f8f8e5ed428f1352200a7dc95c0c82282ed185efeafcd9d9de347f15174"),
    (5, "identity", 6,
     "ab213feae76ebcfafcda41d1b130b20db236bad9356fd4319239b4d7278ead24"),
    # A, B and the bag and edge lists each span several pieces
    (4, "cap:3", 10,
     "3fb12d9adc4944d651b9e65b7f600a928ec772d4fb57b52b4cd89de482858567"),
], ids=["n444", "n200", "n3020", "n1820", "n20676"])
def test_separate_report_bytes_pinned(tmp_path, capsys, ell, f, t, digest):
    src = tmp_path / "p.json"
    out = tmp_path / "sep.json"
    run(capsys, "build", "--ell", str(ell), "--f", f, "--layers", str(t),
        "--out", str(src))
    code, _, _ = run(capsys, "separate", "--in", str(src), "--target", "all",
                     "--emit-decomposition", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_separate_target_file_report_bytes_pinned(tmp_path, capsys):
    # a random 300-vertex target: many edges leave X, and every
    # separation check and decomposition bag is restricted to it
    src = tmp_path / "p.json"
    tgt = tmp_path / "x.json"
    out = tmp_path / "sep.json"
    p = build_prefix(4, parse_f_spec("cap:3"), 6)
    src.write_text(p.to_json())
    locs = [list(p.loc(g)) for g in range(p.n_vertices)]
    tgt.write_text(json.dumps(random.Random(0).sample(locs, 300)))
    code, _, _ = run(capsys, "separate", "--in", str(src), "--target",
                     str(tgt), "--emit-decomposition", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "3415297c6a309e40b2e83c9d95d0c2b1521f66a4f85c9c01c9402622d7b7d223"


# one [layer, pos] pair or tree edge as `json.dumps(indent=2)` writes it
PAIR = re.compile(r"\[\n *\d+,\n *\d+\n *\]")


def test_separate_report_streams_bounded_pieces(tmp_path, capsys,
                                                monkeypatch):
    src = tmp_path / "p.json"
    run(capsys, "build", "--ell", "4", "--f", "cap:3", "--layers", "10",
        "--out", str(src))
    pieces = []
    monkeypatch.setattr(cli, "_write",
                        lambda path, text: pieces.extend(text))
    code, _, _ = run(capsys, "separate", "--in", str(src), "--target", "all",
                     "--emit-decomposition")
    assert code == 0
    counts = [len(PAIR.findall(piece)) for piece in pieces]
    assert len(pieces) > 1
    assert max(counts) <= PIECE
    # every pair lies whole inside one piece
    assert sum(counts) == len(PAIR.findall("".join(pieces)))


CAP3_T4 = next(p for p in PREFIXES_300
               if (p.ell, p.f.descriptor, p.num_layers) == (4, "cap:3", 4))


# a single vertex, a disconnected pair, and a target with A = B
@settings(max_examples=200, deadline=None)
@given(targets())
@example((PREFIXES_300[0], [0]))
@example((PREFIXES_300[-1], [0, 2]))
@example((CAP3_T4, [0, 1, 4]))
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
        for emit in (False, True):
            argv = ["separate", "--in", src, "--target", tgt, "--out", out]
            with contextlib.redirect_stderr(io.StringIO()):
                main(argv + ["--emit-decomposition"] if emit else argv)
            with open(out) as fh:
                assert fh.read() == reference_separate_report(p, X, emit)


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
], ids=["n444-seed0", "n444-seed1", "n510-seed0", "n510-seed1", "n605-seed0",
        "n1127-seed0"])
def test_verify_report_bytes_pinned(tmp_path, capsys, ell, f, t, seed,
                                    digest):
    src = tmp_path / "p.json"
    out = tmp_path / "verify.json"
    run(capsys, "build", "--ell", str(ell), "--f", f, "--layers", str(t),
        "--out", str(src))
    code, _, _ = run(capsys, "verify", "--in", str(src), "--seed", str(seed),
                     "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_demo_conjecture85_report_bytes_pinned(tmp_path, capsys):
    # each row's omega and ta bound come from the clique route on its prefix
    out = tmp_path / "conjecture85.json"
    code, _, _ = run(capsys, "demo", "conjecture85", "--F", "poly:2",
                     "--c-max", "2", "--size-cap", "200000",
                     "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "c082fa778767a6611e1a24a0e3acf6a9977118a782d139d430d076bdc412ce3d"


def test_demo_conjecture85_certifies_each_prefix_once(tmp_path, capsys,
                                                      monkeypatch):
    # rows c=2 and c=3 share the t=10 prefix; its bounds are certified
    # once and only ta_lower >= c is tested per row
    certified = []
    certify = widths.ta_lower_bound_certified

    def counted(prefix):
        certified.append(prefix.n_vertices)
        return certify(prefix)

    monkeypatch.setattr(widths, "ta_lower_bound_certified", counted)
    out = tmp_path / "conjecture85.json"
    code, _, _ = run(capsys, "demo", "conjecture85", "--F", "poly:2",
                     "--c-max", "3", "--size-cap", "200000",
                     "--out", str(out))
    assert code == 0
    assert certified == [4, 20676]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "0c3dfe36d905443cca3aecbbd368c4b8e867ccca20a8cb06425a85c366cdc71c"


def test_no_command_runs_the_clique_search(tmp_path, capsys, monkeypatch):
    # omega is read off the upward lists; the kernel search is an oracle
    def refuse(*args, **kwargs):
        raise AssertionError("kernels.max_clique called")

    monkeypatch.setattr(kernels, "max_clique", refuse)
    src = tmp_path / "p.json"
    run(capsys, "build", "--ell", "4", "--f", "cap:3", "--layers", "5",
        "--out", str(src))
    code, out, _ = run(capsys, "verify", "--in", str(src))
    assert code == 0 and json.loads(out)["checks"]["clique"]["omega"] == 3
    code, out, _ = run(capsys, "separate", "--in", str(src), "--target",
                       "all", "--emit-decomposition")
    assert code == 0 and json.loads(out)["k"] == 3
    for argv in (["question84", "--k-max", "3"],
                 ["conjecture85", "--c-max", "2"],
                 ["hajebi", "--c", "3", "--ell", "5", "--t", "5",
                  "--samples", "5"]):
        code, out, _ = run(capsys, "demo", *argv)
        assert code == 0 and json.loads(out)["all_certified"], argv


def test_demo_hajebi_report_bytes_pinned(tmp_path, capsys):
    # each row carries the sample's clique number k and its order bound;
    # the report records --size-cap, here the default
    out = tmp_path / "hajebi.json"
    code, _, _ = run(capsys, "demo", "hajebi", "--c", "3", "--ell", "5",
                     "--t", "5", "--samples", "20", "--size-cap", "200000",
                     "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "00d49c70b41a62262062058b97b61e425332d5268a80421cafcbf9f0ebe803e7"


def test_separate_small_target_file(tmp_path, capsys):
    f = tmp_path / "p.json"
    run(capsys, "build", "--ell", "4", "--f", "cap:3", "--layers", "4",
        "--out", str(f))
    tgt = tmp_path / "x.json"
    tgt.write_text(json.dumps([[1, 0], [1, 1], [2, 0]]))
    code, out, _ = run(capsys, "separate", "--in", str(f),
                       "--target", str(tgt))
    rep = json.loads(out)
    assert code == 0 and rep["n"] == 3 and rep["A"] == rep["B"]


@pytest.mark.parametrize("locs, names", [
    ([[1]], "entry 0"),
    ([1, 2], "entry 0"),
    ([[1, 0, 5]], "entry 0"),
    ([["a", 0]], "entry 0"),
    ({"x": 1}, "a list"),
    ([], "target set is empty"),
], ids=["short-pair", "bare-ints", "long-pair", "string-layer", "object",
        "empty"])
def test_separate_malformed_target_file_is_an_error(tmp_path, capsys, locs,
                                                    names):
    f = tmp_path / "p.json"
    run(capsys, "build", "--ell", "4", "--f", "cap:3", "--layers", "3",
        "--out", str(f))
    tgt = tmp_path / "x.json"
    tgt.write_text(json.dumps(locs))
    code, out, err = run(capsys, "separate", "--in", str(f),
                         "--target", str(tgt))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and names in err


def test_clique_number_searches_the_prefix_adjacency(tmp_path, capsys,
                                                      monkeypatch, prefix_68):
    # omega of the whole prefix needs no re-indexed copy of its adjacency
    induced = structure.induced_adjacency

    def refuse_whole_prefix(prefix, X):
        if len(set(X)) == prefix.n_vertices:
            raise AssertionError("re-indexed copy of the whole prefix")
        return induced(prefix, X)

    monkeypatch.setattr(structure, "induced_adjacency", refuse_whole_prefix)
    omega, cert = structure.clique_number_exact(prefix_68)
    assert omega == 3 and cert.verdict
    src = tmp_path / "p.json"
    src.write_text(prefix_68.to_json())
    code, out, _ = run(capsys, "verify", "--in", str(src))
    assert code == 0 and json.loads(out)["passed"]


def test_demo_subcommand(tmp_path, capsys):
    code, out, err = run(capsys, "demo", "hajebi", "--c", "2", "--ell", "5",
                         "--t", "3", "--samples", "3",
                         "--size-cap", "10000")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_certified"] and "sample" in err


def test_demo_hajebi_runs_with_no_options(capsys):
    # hajebi needs ell >= 5, and its --ell defaults to 5
    code, out, _ = run(capsys, "demo", "hajebi")
    rep = json.loads(out)
    assert code == 0 and rep["all_certified"]
    assert (rep["c"], rep["ell"], rep["t"], rep["samples"]) == (2, 5, 4, 50)


@pytest.mark.parametrize("argv", [
    ["question84", "--samples", "3", "--c", "9", "--t", "2"],
    ["conjecture85", "--k-max", "3"],
    ["hajebi", "--g", "poly:2"],
])
def test_demo_rejects_another_demos_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["demo"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: " + " ".join(argv[1:]) in err


def test_demo_hajebi_names_the_t_given(capsys):
    code, out, err = run(capsys, "demo", "hajebi", "--t", "-1")
    assert code == 1 and out == ""
    assert err == "error: t must be >= 0, got -1\n"


def test_demo_reproducible(capsys):
    a = run(capsys, "demo", "hajebi", "--c", "2", "--ell", "5", "--t", "3",
            "--samples", "3", "--seed", "5", "--size-cap", "10000")
    b = run(capsys, "demo", "hajebi", "--c", "2", "--ell", "5", "--t", "3",
            "--samples", "3", "--seed", "5", "--size-cap", "10000")
    assert a == b


def test_verify_proves_every_small_transversal_chordal(tmp_path, capsys):
    # every one-per-layer transversal of each prefix that has at most
    # 20,000 of them is chordal, and holds the ceil(t / omega) stable set
    # that ta_lower_bound_certified's bound rests on
    small = [p for p in PREFIXES_300 if math.prod(p.layer_sizes) <= 20_000]
    assert len(small) == 29
    total = 0
    for p in small:
        src = tmp_path / "p.json"
        src.write_text(p.to_json())
        code, out, _ = run(capsys, "verify", "--in", str(src), "--rules")
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
            alpha = len(kernels.max_independent_set(len(order), local, 0))
            assert alpha >= bound, (p.ell, p.f.descriptor, Y)
            total += 1
    assert total == 86_699


def test_verify_help_hides_seed(capsys):
    # --seed stays accepted (the pins above pass it) but shows nowhere
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = capsys.readouterr().out
    assert "--seed" not in text and "--chordal-samples" not in text


@pytest.mark.parametrize("name, obj, where, reason", doctored_records(),
                         ids=[case[0] for case in doctored_records()])
def test_doctored_record_fails_verify_and_separate(tmp_path, capsys, name,
                                                   obj, where, reason):
    src = tmp_path / "p.json"
    src.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--in", str(src))
    checks = json.loads(out)["checks"]
    clique = checks["clique"]
    assert code == 1 and not clique["passed"]
    assert clique["certificate"]["data"]["first_violation"] == where
    # the four up-list edits break rule 5; the 3-vertex layer breaks rule 2
    rule5 = next(r for r in checks["rules"]["rules"] if r["rule"] == 5)
    assert rule5["passed"] == (name == "short-layer")
    assert checks["chordal_transversals"] == {"by": "rule 5",
                                              "passed": rule5["passed"]}
    code, out, err = run(capsys, "separate", "--in", str(src),
                         "--emit-decomposition")
    assert code == 1 and out == ""
    assert err.startswith("error: no clique certificate: vertex (%d, %d): "
                          % tuple(where)) and reason in err


# -- the canonical check --------------------------------------------------

CAP3_T3 = build_prefix(4, parse_f_spec("cap:3"), 3).to_json()


@pytest.mark.parametrize("spec", ["cap:5", "identity", "table:1,2,3,3,3"])
def test_f_spec_mutants_that_build_the_same_prefix_pass(tmp_path, capsys,
                                                        spec):
    # f agrees with cap:3 on layers 1..3, so the file is that prefix
    obj = json.loads(CAP3_T3)
    obj["f_spec"] = spec
    src = tmp_path / "p.json"
    src.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--in", str(src))
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
def test_canonical_check_names_the_first_difference(tmp_path, capsys,
                                                     mutate, detail):
    obj = json.loads(CAP3_T4_JSON)
    mutate(obj)
    src = tmp_path / "p.json"
    src.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--in", str(src), "--canonical")
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
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--in", src])
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1)
    if code == 0:
        assert json.loads(out.getvalue())["checks"]["canonical"]["passed"]
        p = WheelPrefix.from_json_obj(obj)
        ref = build_prefix(p.ell, p.f, p.num_layers)
        assert (p.layer_sizes, p.up, p.parent) == \
            (ref.layer_sizes, ref.up, ref.parent)
