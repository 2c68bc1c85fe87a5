import hashlib
import json

import pytest

from layered_wheels import WheelPrefix, build_prefix, parse_f_spec
from layered_wheels import structure
from layered_wheels.cli import main, to_dot, to_graph6


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
    assert set(rep["checks"]) == {"rules", "holes", "clique", "minor",
                                  "chordal_transversals"}


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
], ids=["unknown-up-vertex", "missing-ell", "short-parent"])
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
     "81ed6279eadcf6b450e8d29c6686de68702caaf528ed6ec057184c04778f055b"),
    (5, "identity", 4,
     "354d5aad8d3600836c2af4babf897d669cd57d5e85ac884a4a14937735b521a9"),
], ids=["n444", "n200"])
def test_separate_report_bytes_pinned(tmp_path, capsys, ell, f, t, digest):
    src = tmp_path / "p.json"
    out = tmp_path / "sep.json"
    run(capsys, "build", "--ell", str(ell), "--f", f, "--layers", str(t),
        "--out", str(src))
    code, _, _ = run(capsys, "separate", "--in", str(src), "--target", "all",
                     "--emit-decomposition", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_separate_searches_root_clique_once(tmp_path, capsys, monkeypatch):
    src = tmp_path / "p.json"
    run(capsys, "build", "--ell", "4", "--f", "cap:3", "--layers", "4",
        "--out", str(src))
    searched = []
    search = structure.induced_max_clique

    def counted(prefix, X, *args, **kwargs):
        searched.append(len(X))
        return search(prefix, X, *args, **kwargs)

    monkeypatch.setattr(structure, "induced_max_clique", counted)
    code, out, _ = run(capsys, "separate", "--in", str(src), "--target",
                       "all", "--emit-decomposition")
    assert code == 0 and json.loads(out)["decomposition"]["valid"]
    assert searched == [68]


def test_demo_hajebi_report_bytes_pinned(tmp_path, capsys):
    # each row carries the sample's clique number k and its order bound;
    # --size-cap repeats the default so that LWHEEL_SIZE_CAP cannot change it
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


def test_demo_subcommand(tmp_path, capsys):
    code, out, err = run(capsys, "demo", "hajebi", "--c", "2", "--ell", "5",
                         "--t", "3", "--samples", "3",
                         "--size-cap", "10000")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_certified"] and "sample" in err


def test_demo_reproducible(capsys):
    a = run(capsys, "demo", "hajebi", "--c", "2", "--ell", "5", "--t", "3",
            "--samples", "3", "--seed", "5", "--size-cap", "10000")
    b = run(capsys, "demo", "hajebi", "--c", "2", "--ell", "5", "--t", "3",
            "--samples", "3", "--seed", "5", "--size-cap", "10000")
    assert a == b


def test_size_cap_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LWHEEL_SIZE_CAP", "50")
    code, _, err = run(capsys, "build", "--ell", "4", "--f", "identity",
                       "--layers", "4")
    assert code != 0 and "cap" in err
