"""The four workloads of the lwheel command benchmark.

Each workload is a fixed list of ``lwheel`` commands on fixed instances,
with the inputs it needs generated in set-up and a semantic check of every
command's output.  Checks look at named fields (verdicts, n, omega, bounds,
byte digests of exports), never at the digest of a whole report, so a
report that gains a field does not count as a failure.

``full`` is the benchmarked scale; ``tiny`` runs the same commands on small
instances and serves the self-test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from layered_wheels import build_prefix, parse_f_spec
from layered_wheels.wheel import WheelPrefix

NAMES = ("build_export", "certify", "separate", "demos")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Instance:
    """One prefix: the (ell, f spec, t) that defines it and its size n."""

    ell: int
    f: str
    t: int
    n: int

    @property
    def tag(self):
        return "ell%d-%s-t%d" % (self.ell, self.f.replace(":", ""), self.t)

    def record(self):
        return {"ell": self.ell, "f": self.f, "t": self.t, "n": self.n}


@dataclass
class Command:
    """An ``lwheel`` argv and the check of its output.

    ``check(first)`` returns a problem description, or None when the output
    is right; ``first`` is true on the first pass of a run only, for checks
    too costly to repeat.  ``observed`` collects numbers read off the
    output (such as the decomposition width) for the report.
    """

    argv: list
    check: object
    out: str
    observed: dict = field(default_factory=dict)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _bound(value):
    return math.inf if value == "inf" else value


def _write_input(inst, workdir):
    path = os.path.join(workdir, inst.tag + ".json")
    text = build_prefix(inst.ell, parse_f_spec(inst.f), inst.t).to_json()
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


# -- build_export -----------------------------------------------------------

# instance -> sha256 of the JSON and the DOT export
BUILD = {
    "full": [
        (Instance(4, "cap:3", 12, 141692),
         "c4330e7badabbc9d24e628c9a2024a93c48f34072526a089ea6039feb6fe08bb",
         "cc2b9e47495245c160a0224e52cb377d8e562dea5dff146cf05281819da20e70"),
        (Instance(6, "cap:4", 8, 155022),
         "1034e76f1d08c9ab6ec203fb62e44e877b0a47d99fd462acaafbf67329da857b",
         "544c0e7ab9087181727dc472d1e4137f3526d351d18d5bf3527b438984d907dc"),
    ],
    "tiny": [
        (Instance(4, "cap:3", 4, 68),
         "e5c2e009222bbd695ab0c045845fae1fb613d5a9934dce3d976c635adb9e4a4e",
         "e8336db97d3848252b79525a6695602236789d756faae12c163ed217f1b04645"),
        (Instance(6, "cap:4", 3, 102),
         "da94e773d19af4f6af744e2c75b4dc95f736a62b535cd68f1b98306c58775cad",
         "8089413fc4337161f16f787ecf3e6ca5f64b30d209dc81fb7ec31977210844ba"),
    ],
}


def _digest_check(path, expected):
    def check(first):
        got = _sha256(path)
        if got != expected:
            return "%s: sha256 %s, recorded %s" % (
                os.path.basename(path), got[:12], expected[:12])
        return None
    return check


def _build_export(scale, workdir, seed):
    commands = []
    for inst, json_sha, dot_sha in BUILD[scale]:
        for fmt, sha in (("json", json_sha), ("dot", dot_sha)):
            out = os.path.join(workdir, "%s.%s" % (inst.tag, fmt))
            argv = ["build", "--ell", str(inst.ell), "--f", inst.f,
                    "--layers", str(inst.t), "--format", fmt, "--out", out]
            commands.append(Command(argv, _digest_check(out, sha), out))
    return commands


# -- certify ----------------------------------------------------------------

# instance -> omega = f(t)
CERTIFY = {
    "full": [(Instance(4, "cap:3", 10, 20676), 3),
             (Instance(6, "cap:4", 6, 8718), 4)],
    "tiny": [(Instance(4, "cap:3", 5, 172), 3),
             (Instance(6, "cap:4", 4, 510), 4)],
}


def _verify_check(inst, omega, inpath, out):
    def check(first):
        rep = _load(out)
        checks = rep.get("checks", {})
        if rep.get("passed") is not True:
            return "%s: verify did not pass" % inst.tag
        if rep.get("n") != inst.n:
            return "%s: n=%s, expected %d" % (inst.tag, rep.get("n"), inst.n)
        got = checks.get("clique", {}).get("omega")
        if got != omega:
            return "%s: omega=%s, expected f(t)=%d" % (inst.tag, got, omega)
        verdict = checks.get("minor", {}).get("certificate", {}).get("verdict")
        if verdict != "pass":
            return "%s: minor verdict %s" % (inst.tag, verdict)
        if first:
            with open(inpath) as fh:
                text = fh.read().rstrip("\n")
            if WheelPrefix.from_json(text).to_json() != text:
                return "%s: from_json/to_json does not round-trip" % inst.tag
        return None
    return check


def _certify(scale, workdir, seed):
    commands = []
    for inst, omega in CERTIFY[scale]:
        inpath = os.path.join(workdir, inst.tag + ".json")
        out = os.path.join(workdir, inst.tag + ".verify.json")
        argv = ["verify", "--in", inpath, "--seed", str(seed), "--out", out]
        commands.append(Command(argv, _verify_check(inst, omega, inpath, out),
                                out))
    return commands


# -- separate ---------------------------------------------------------------

SEPARATE = {
    "full": [Instance(4, "cap:3", 8, 3020), Instance(5, "identity", 6, 1820)],
    "tiny": [Instance(4, "cap:3", 5, 172), Instance(5, "identity", 4, 200)],
}


def _separate_check(inst, out, observed):
    def check(first):
        rep = _load(out)
        dec = rep.get("decomposition", {})
        if rep.get("verified") is not True:
            return "%s: separation not verified" % inst.tag
        if rep.get("n") != inst.n:
            return "%s: n=%s, expected %d" % (inst.tag, rep.get("n"), inst.n)
        if dec.get("valid") is not True:
            return "%s: decomposition not valid" % inst.tag
        if not rep["order"] <= _bound(rep["order_bound"]):
            return "%s: order %s above bound %s" % (
                inst.tag, rep["order"], rep["order_bound"])
        observed["decomp_width." + inst.tag] = dec["width"]
        return None
    return check


def _separate(scale, workdir, seed):
    commands = []
    for inst in SEPARATE[scale]:
        inpath = os.path.join(workdir, inst.tag + ".json")
        out = os.path.join(workdir, inst.tag + ".separate.json")
        argv = ["separate", "--in", inpath, "--target", "all",
                "--emit-decomposition", "--out", out]
        observed = {}
        commands.append(Command(argv, _separate_check(inst, out, observed),
                                out, observed))
    return commands


# -- demos ------------------------------------------------------------------

# conjecture85 argv tail and its rows as (c, n, omega, ta_lower); hajebi
# argv tail (without --seed) and its (n, omega, tw_lower)
DEMOS = {
    "full": {
        "conjecture85": (["--F", "poly:2", "--c-max", "2"],
                         [(1, 4, 2, 1), (2, 20676, 3, 4)]),
        "hajebi": (["--c", "3", "--ell", "5", "--t", "5", "--samples", "50"],
                   (2090, 4, 5)),
    },
    "tiny": {
        "conjecture85": (["--F", "poly:2", "--c-max", "1"], [(1, 4, 2, 1)]),
        "hajebi": (["--c", "2", "--ell", "5", "--t", "3", "--samples", "5"],
                   (215, 3, 3)),
    },
}

# the prefixes the demos build, for the run record
DEMO_INSTANCES = {
    "full": [Instance(4, "cumulative:poly:2", 1, 4),
             Instance(4, "cumulative:poly:2", 10, 20676),
             Instance(5, "cap:4", 6, 2090)],
    "tiny": [Instance(4, "cumulative:poly:2", 1, 4),
             Instance(5, "cap:3", 4, 215)],
}


def _conjecture85_check(rows, out):
    def check(first):
        rep = _load(out)
        if rep.get("all_certified") is not True:
            return "conjecture85: not all certified"
        got = [(r.get("c"), r.get("n"), r.get("omega"), r.get("ta_lower"))
               for r in rep.get("rows", [])]
        if got != rows:
            return "conjecture85: rows %s, recorded %s" % (got, rows)
        return None
    return check


def _hajebi_check(expected, out):
    def check(first):
        rep = _load(out)
        if rep.get("all_certified") is not True:
            return "hajebi: not all certified"
        got = (rep.get("n"), rep.get("omega"), rep.get("tw_lower"))
        if got != expected:
            return "hajebi: (n, omega, tw_lower) %s, recorded %s" % (
                got, expected)
        return None
    return check


def _demos(scale, workdir, seed):
    tail85, rows = DEMOS[scale]["conjecture85"]
    tailh, expected = DEMOS[scale]["hajebi"]
    out85 = os.path.join(workdir, "conjecture85.json")
    outh = os.path.join(workdir, "hajebi.json")
    return [
        Command(["demo", "conjecture85"] + tail85 + ["--out", out85],
                _conjecture85_check(rows, out85), out85),
        Command(["demo", "hajebi"] + tailh + ["--seed", str(seed),
                                              "--out", outh],
                _hajebi_check(expected, outh), outh),
    ]


# -- registry ---------------------------------------------------------------

def instances(name, scale):
    """The prefixes a workload touches, for the run record."""
    if name == "build_export":
        return [inst for inst, _, _ in BUILD[scale]]
    if name == "certify":
        return [inst for inst, _ in CERTIFY[scale]]
    if name == "separate":
        return list(SEPARATE[scale])
    return list(DEMO_INSTANCES[scale])


def setup(name, scale, workdir):
    """Generate the workload's input files (build and write the JSON)."""
    if name == "certify":
        for inst, _ in CERTIFY[scale]:
            _write_input(inst, workdir)
    elif name == "separate":
        for inst in SEPARATE[scale]:
            _write_input(inst, workdir)


def commands(name, scale, workdir, seed):
    """The workload's commands, in the order one pass runs them."""
    make = {"build_export": _build_export, "certify": _certify,
            "separate": _separate, "demos": _demos}[name]
    return make(scale, workdir, seed)
