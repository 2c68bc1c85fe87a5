"""``lwheel`` as a separate process: the exit code, the report bytes and
the error lines of ``python -m layered_wheels.cli``, never a traceback.

The instances that several checks read are built once per module, in one
directory that every launch runs in, so the rows name them plainly."""

import json
import os
import random
import re
import subprocess
import sys

import pytest

import layered_wheels

# the child imports the package that this test run imports
ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
    os.path.abspath(layered_wheels.__file__))))


def lwheel(cwd, argv, code=0, out=None):
    """Run ``lwheel`` in ``cwd`` with the words of ``argv``, where
    ``{out}`` stands for the path ``out``; assert its exit code and that no
    traceback is printed, showing stderr when not.  Returns the report
    (the bytes at ``out``, else stdout) and stderr."""
    args = [str(out) if a == "{out}" else a for a in argv.split()]
    proc = subprocess.run([sys.executable, "-m", "layered_wheels.cli"]
                          + args, cwd=cwd, env=ENV, capture_output=True)
    err = proc.stderr.decode()
    report = out.read_bytes() if out and out.exists() else proc.stdout
    assert (proc.returncode == code and "Traceback" not in err
            and b"Traceback" not in report), (
        "lwheel %s: exit %d, want %d; stderr:\n%s"
        % (argv, proc.returncode, code, err))
    return report, err


def assert_indent2(report):
    """The report is laid out as ``json.dumps(indent=2)`` lays it out."""
    text = report.decode()
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def edit(d, src, name, change):
    """Write ``name``: the JSON object of ``src`` after ``change``."""
    obj = json.loads((d / src).read_text())
    change(obj)
    (d / name).write_text(json.dumps(obj))


def record(obj, layer, pos):
    return next(v for v in obj["vertices"]
                if (v["layer"], v["pos"]) == (layer, pos))


def null_parent(obj):
    next(v for v in obj["vertices"] if v["parent"])["parent"] = None


def reparent(obj):
    # a child moved to the next parent, its up entry with it
    rec = next(v for v in obj["vertices"] if v["parent"])
    old = rec["parent"]
    rec["parent"] = [old[0], old[1] + 1]
    rec["up"] = [rec["parent"] if w == old else w for w in rec["up"]]


def float_up(obj):
    rec = next(v for v in obj["vertices"] if v["up"])
    rec["up"][0][1] = float(rec["up"][0][1])


def not_clique(obj):
    rec = max(obj["vertices"], key=lambda v: len(v["up"]))
    layer, pos = rec["up"][0]
    rec["up"].append([layer, (pos + 2) % obj["layers"][layer - 1]])


def pairs(d, src, keep=lambda pos, size: True):
    """Every [layer, pos] pair of the prefix in ``src`` that ``keep``s."""
    sizes = json.loads((d / src).read_text())["layers"]
    return [[layer, pos] for layer, size in enumerate(sizes, 1)
            for pos in range(size) if keep(pos, size)]


@pytest.fixture(scope="module")
def d(tmp_path_factory):
    """p.json (ell=4 cap:3 t=5), id6.json, p6.json (ell=6 cap:4 t=5), the
    reports of p.json and their doctored inputs and target files."""
    d = tmp_path_factory.mktemp("lwheel")
    for argv in ("build --ell 4 --f cap:3 --layers 5 --out p.json",
                 "verify --in p.json --out verify.json",
                 "separate --in p.json --target all --emit-decomposition"
                 " --out separate.json",
                 "build --ell 4 --f identity --layers 6 --out id6.json",
                 "build --ell 6 --f cap:4 --layers 5 --out p6.json"):
        lwheel(d, argv)
    (d / "p-indent.json").write_text(
        json.dumps(json.loads((d / "p.json").read_text()), indent=1))
    # (1, 3) in the up list of (3, 0) closes a 5-hole
    edit(d, "p6.json", "p6-hole5.json",
         lambda obj: record(obj, 3, 0)["up"].append([1, 3]))
    edit(d, "p.json", "null-parent.json", null_parent)
    # (2, 1) in the up list of (3, 0): a second previous-layer neighbor
    edit(d, "p.json", "two-parents.json",
         lambda obj: record(obj, 3, 0)["up"].append([2, 1]))
    edit(d, "p.json", "reparent.json", reparent)
    edit(d, "p.json", "bad-count.json",
         lambda obj: obj.update(num_layers=obj["num_layers"] + 1))
    edit(d, "p.json", "float-up.json", float_up)
    edit(d, "p.json", "not-clique.json", not_clique)
    every = pairs(d, "p.json")
    targets = {
        "every": every,
        "quarter": pairs(d, "id6.json", lambda pos, size: 4 * pos < size),
        "x": [[1, 0], [1, 2], [3, 0], [3, 5]],
        "three": [[1, 0], [1, 2], [5, 0]],
        "half": random.Random(0).sample(every, len(every) // 2),
        "pair": [[1]], "empty": [], "outside": [[9, 0]]}
    for name, locs in targets.items():
        (d / (name + ".json")).write_text(json.dumps(locs))
    (d / "nested.json").write_text("[" * 100000 + "]" * 100000)
    return d


@pytest.mark.parametrize("argv, want", [
    # an indent=1 copy of the export is parsed, where the export is
    # compared byte for byte with its rebuild: the same reports
    ("verify --in p-indent.json --out {out}", "verify.json"),
    ("separate --in p-indent.json --target all --emit-decomposition"
     " --out {out}", "separate.json"),
    # a target file that names every vertex gives the same report
    ("separate --in p.json --target every.json --emit-decomposition"
     " --out {out}", "separate.json"),
    # separate streams the same report to stdout as to a file
    ("separate --in p.json --target all --emit-decomposition --out -",
     "separate.json"),
], ids=["verify-indent", "separate-indent", "separate-every",
        "separate-stdout"])
def test_same_report_as_from_the_export(d, tmp_path, argv, want):
    report = lwheel(d, argv, out=tmp_path / "report.json")[0]
    assert report == (d / want).read_bytes()
    assert_indent2(report)


@pytest.mark.parametrize("argv, code, marks", [
    # the first quarter of every layer of an identity prefix: the
    # separation loop iterates, and the order bound applies
    ("separate --in id6.json --target quarter.json --emit-decomposition",
     0, ['"iterations": 3', '"bound_applies": true', '"verified": true']),
    # an ell=6 prefix: the hole scan finds its 6-holes and none shorter
    ("verify --in p6.json", 0, ['"shortest_up_to_ell": 6']),
    # the 5-hole: the hole check fails and reports it
    ("verify --in p6-hole5.json --holes", 1, ['"shortest_up_to_ell": 5']),
    # a disconnected target: the decomposition chains its components
    ("separate --in p.json --target x.json --emit-decomposition", 0,
     ['"valid": true']),
    # three components, two layer-1 vertices and one of the last layer:
    # their root bags are chained into one tree
    ("separate --in p.json --target three.json --emit-decomposition", 0,
     ['"valid": true']),
    # a random half of the vertices (fixed seed): the elimination's local
    # ids differ from the global ones
    ("separate --in p.json --target half.json --emit-decomposition", 0,
     ['"valid": true', '"verified": true']),
    # the report without a decomposition
    ("separate --in p.json --target all", 0, []),
    # each demo has its own defaults (hajebi's --ell is 5)
    ("demo hajebi", 0, []),
    # a demo row past the size cap certifies nothing
    ("demo question84 --k-max 4 --size-cap 50000", 1,
     ['"status": "size-cap"']),
], ids=["quarter", "ell6-holes", "5-hole", "disconnected", "three",
        "half", "plain", "hajebi", "q84-size-cap"])
def test_report_to_a_file(d, tmp_path, argv, code, marks):
    report = lwheel(d, argv + " --out {out}", code,
                    tmp_path / "report.json")[0]
    for mark in marks:
        assert mark.encode() in report
    assert_indent2(report)


@pytest.mark.parametrize("argv, marks", [
    # a record that breaks a rule is a failed check
    ("verify --in null-parent.json --rules",
     ['"passed": false', "recorded parent None but adjacency gives"]),
    # (3, 0) with a second neighbor in the previous layer
    ("verify --in two-parents.json --rules",
     ["has 2 neighbors in the previous layer"]),
    # a reparented child breaks the descendant paths
    ("verify --in reparent.json --rules", ['"passed": false']),
    # an upward list that is not a clique fails verify's checks
    ("verify --in not-clique.json", ['"passed": false']),
], ids=["null-parent", "two-parents", "reparent", "not-clique"])
def test_failed_check(d, argv, marks):
    report = lwheel(d, argv, 1)[0]
    for mark in marks:
        assert mark.encode() in report


@pytest.mark.parametrize("argv, error", [
    # a malformed target file
    ("separate --in p.json --target pair.json", "error:"),
    # JSON nested too deeply to parse, as a prefix and as a target file
    ("verify --in nested.json", "error:"),
    ("separate --in nested.json", "error:"),
    ("separate --in p.json --target nested.json", "error:"),
    # an empty target
    ("separate --in p.json --target empty.json --emit-decomposition",
     "error:"),
    # separate finds (1, 0) childless on the null-parent record
    ("separate --in null-parent.json --target all --emit-decomposition",
     "error:.*has no children"),
    # a num_layers that disagrees with the layer list
    ("verify --in bad-count.json", "error:"),
    # a float coordinate in an upward entry
    ("verify --in float-up.json", "error:"),
    # separate refuses an upward list that is not a clique
    ("separate --in not-clique.json --target all --emit-decomposition",
     "error:"),
    # a target pair outside the prefix
    ("separate --in p.json --target outside.json", "error:"),
], ids=["malformed-target", "nested-verify", "nested-separate",
        "nested-target", "empty-target", "null-parent", "bad-count",
        "float-up", "not-clique", "outside"])
def test_input_error(d, argv, error):
    # exit 1 and one error line
    err = lwheel(d, argv, 1)[1]
    assert len(re.findall("^error:", err, re.M)) == 1, err
    assert re.search("^" + error, err, re.M), err


@pytest.mark.parametrize("argv", [
    # the removed --chordal-samples
    "verify --in p.json --chordal-samples 5",
    # another demo's option
    "demo question84 --samples 3",
], ids=["chordal-samples", "demo-option"])
def test_usage_error(d, argv):
    lwheel(d, argv, 2)


def test_verify_seed_changes_nothing(d):
    assert (lwheel(d, "verify --in p.json --seed 0")[0]
            == lwheel(d, "verify --in p.json --seed 7")[0])


# at ell=4 t=9 the last layer and the graph6 body span several pieces,
# and at ell=6 cap:4 t=6 three of every four records are empty
@pytest.mark.parametrize("fmt", ["json", "dot", "graph6"])
@pytest.mark.parametrize("spec", ["4 cap:3 9", "6 cap:4 6"],
                         ids=["ell4-t9", "ell6-t6"])
def test_build_streams_the_same_pieces_to_stdout(tmp_path, spec, fmt):
    argv = "build --ell %s --f %s --layers %s --format %s --out " % (
        tuple(spec.split()) + (fmt,))
    report = lwheel(tmp_path, argv + "{out}", out=tmp_path / "big")[0]
    assert report == lwheel(tmp_path, argv + "-")[0]
    if fmt == "json":
        # laid out as json.dumps lays out its object
        text = report.decode()
        assert json.dumps(json.loads(text)) + "\n" == text


@pytest.mark.parametrize("spec", [
    "identity", "cap:4", "table:1,2,3,3,4", "cumulative:1,2,5",
    "cumulative:poly:2", "question84:coeffs:3"])
def test_every_spec_form_reads_back(tmp_path, spec):
    lwheel(tmp_path, "build --ell 4 --f %s --layers 4 --out spec.json" % spec)
    lwheel(tmp_path, "verify --in spec.json --rules --minor --clique"
           " --out spec-verify.json")
