import hashlib
import json
import random

import pytest

from layered_wheels import WheelPrefix, build_prefix, parse_f_spec
from layered_wheels import structure, widths
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


# sha256 of the `build` JSON and DOT exports: a faster writer must not
# change a byte of either
@pytest.mark.parametrize("ell, f, t, fmt, digest", [
    (4, "cap:3", 8, "json",
     "09cfb2aadb88c5537a02708d0a935c966e4f447258fb51e688a3e5cdd7ce9975"),
    (4, "cap:3", 8, "dot",
     "3dfc64ada92d306fe308806fbe487820dd3217bc9e9a5d5e80946dfafb74b6fe"),
    (6, "cap:4", 5, "json",
     "5b3100f36b98fcf6e6b157f742e8d70e801818b89c7fba6c61adc6714c6a6cca"),
    (6, "cap:4", 5, "dot",
     "0272adadd30f7b0f3465eae8787eeb85bfedbf11cc57b1e0416d26e472377932"),
], ids=["n3020-json", "n3020-dot", "n2094-json", "n2094-dot"])
def test_build_export_bytes_pinned(tmp_path, capsys, ell, f, t, fmt, digest):
    out = tmp_path / "p.out"
    code, _, _ = run(capsys, "build", "--ell", str(ell), "--f", f,
                     "--layers", str(t), "--format", fmt, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_verify_with_no_check_selected_is_an_error(tmp_path, capsys):
    f = tmp_path / "p.json"
    run(capsys, "build", "--ell", "4", "--f", "cap:3", "--layers", "3",
        "--out", str(f))
    code, out, err = run(capsys, "verify", "--in", str(f),
                         "--chordal-samples", "0")
    assert code == 1 and out == ""
    assert err == "error: no check selected\n"


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
        main(["verify", "--in", str(tmp_path / "no.json"),
              "--chordal-samples", "-3"])
    assert exc.value.code == 2
    assert "--chordal-samples" in capsys.readouterr().err
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


# sha256 of the default `verify` report: pins the clique witness, which
# comes from a maximum clique search on the prefix's own adjacency
@pytest.mark.parametrize("ell, f, t, seed, digest", [
    (4, "cap:3", 6, 0,
     "fc87788e4359c06586150b16b56f2b47e7ded5233c5cd38a255363ce4e5208da"),
    (4, "cap:3", 6, 1,
     "fc87788e4359c06586150b16b56f2b47e7ded5233c5cd38a255363ce4e5208da"),
    (6, "cap:4", 4, 0,
     "abd355a64ad12d5d28f403f7ca83c902dde8094fe3b13a51d9392a296eba4fd8"),
    (6, "cap:4", 4, 1,
     "abd355a64ad12d5d28f403f7ca83c902dde8094fe3b13a51d9392a296eba4fd8"),
    (5, "identity", 5, 0,
     "63606f86da959f95995b2e513885b4c88c361c38a838dc38e2e42cd3419bf3f2"),
    (7, "cap:3", 4, 0,
     "1ecf487af9d5056e5bff639d7a1ae1f0aa16592dbfa08668850eb6fadbce8b79"),
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
    # each row's omega and ta bound come from the clique search of its prefix
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


def test_demo_reproducible(capsys):
    a = run(capsys, "demo", "hajebi", "--c", "2", "--ell", "5", "--t", "3",
            "--samples", "3", "--seed", "5", "--size-cap", "10000")
    b = run(capsys, "demo", "hajebi", "--c", "2", "--ell", "5", "--t", "3",
            "--samples", "3", "--seed", "5", "--size-cap", "10000")
    assert a == b
