"""Command-line surface: build prefixes, verify them, run separations and
the counterexample demos, with JSON / DOT / graph6 export.

Exit codes: 0 when every selected check passes, 1 on a failed certificate
or runtime error, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import structure, widths
from .functions import (INF, SlowFunctionError, CumulativeFunctionError,
                        parse_f_spec)
from .wheel import (SizeCapError, WheelPrefix, build_prefix,
                    default_size_cap, verify_rules)


# -- export formats -------------------------------------------------------

# graph6 stores six bits per byte, offset by 63
_G6_OFFSET = bytes((b + 63) % 256 for b in range(256))


def to_graph6(n, edges):
    """Standard graph6 encoding of the underlying undirected graph."""
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        raise ValueError("graph6 export supports at most 258047 vertices")
    # bit k = j(j-1)/2 + i stands for the pair i < j, most significant first
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for (u, v) in edges:
        if u != v:
            i, j = (u, v) if u < v else (v, u)
            k = j * (j - 1) // 2 + i
            body[k // 6] |= 32 >> (k % 6)
    return (bytes(head) + body.translate(_G6_OFFSET)).decode("ascii") + "\n"


def to_dot(prefix):
    """DOT digraph with one rank per layer and directed arcs."""
    lines = ["digraph wheel {", "  rankdir=TB;", "  node [shape=circle];"]
    names = []
    for layer, size in enumerate(prefix.layer_sizes, 1):
        ranked = ['"%d_%d"' % (layer, pos) for pos in range(size)]
        lines.append("  { rank=same; %s }" % " ".join(ranked))
        names += ranked
    heads = [[] for _ in names]
    for v, ups in enumerate(prefix.up):
        for w in ups:
            heads[w].append(v)
    # arcs in sorted (tail, head) order: the cycle successor of u lies in
    # u's own layer and every upward head in a later one, so it comes first
    for u, tail in enumerate(names):
        lines.append("  %s -> %s;" % (tail, names[prefix.cycle_next(u)]))
        for v in heads[u]:
            lines.append("  %s -> %s;" % (tail, names[v]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_prefix(path):
    with open(path) as fh:
        return WheelPrefix.from_json(fh.read())


# -- subcommands ----------------------------------------------------------

def cmd_build(args):
    f = parse_f_spec(args.f)
    cap = args.size_cap if args.size_cap is not None else default_size_cap()
    prefix = build_prefix(args.ell, f, args.layers, size_cap=cap)
    if args.format == "json":
        _write(args.out, prefix.to_json() + "\n")
    elif args.format == "dot":
        _write(args.out, to_dot(prefix))
    else:
        _write(args.out, to_graph6(prefix.n_vertices, prefix.edges()))
    print("built %d layers, %d vertices (ell=%d, f=%s)"
          % (prefix.num_layers, prefix.n_vertices, prefix.ell, f.descriptor),
          file=sys.stderr)
    return 0


def cmd_verify(args):
    prefix = _load_prefix(args.infile)
    selected = [name for name in ("rules", "holes", "clique", "minor")
                if getattr(args, name)]
    chordal_n = args.chordal_samples
    if not selected and chordal_n is None:
        selected = ["rules", "holes", "clique", "minor"]
        chordal_n = 100
    report = {"n": prefix.n_vertices, "num_layers": prefix.num_layers,
              "checks": {}}
    ok = True
    if "rules" in selected:
        rr = verify_rules(prefix)
        report["checks"]["rules"] = rr.to_dict()
        ok &= rr.passed
    if "holes" in selected:
        shortest = structure.shortest_hole_up_to(prefix, prefix.ell)
        good = shortest is None or shortest >= prefix.ell
        report["checks"]["holes"] = {
            "shortest_up_to_ell": shortest, "passed": good}
        ok &= good
    if "clique" in selected:
        omega, cert = structure.clique_number_exact(prefix)
        expect = prefix.f(prefix.num_layers)
        good = cert.verdict and (prefix.num_layers < 2 or omega == expect)
        report["checks"]["clique"] = {
            "omega": omega, "expected": expect, "passed": good,
            "certificate": cert.to_dict()}
        ok &= good
    if "minor" in selected:
        cert = structure.layer_minor_check(prefix)
        report["checks"]["minor"] = {
            "passed": cert.verdict, "certificate": cert.to_dict()}
        ok &= cert.verdict
    if chordal_n:
        import random
        rng = random.Random(args.seed)
        bad = 0
        for _ in range(chordal_n):
            Y = {rng.choice(prefix.layer_range(l))
                 for l in range(1, prefix.num_layers + 1)}
            if not structure.transversal_chordality_check(prefix, Y).verdict:
                bad += 1
        report["checks"]["chordal_transversals"] = {
            "samples": chordal_n, "failures": bad, "passed": bad == 0}
        ok &= bad == 0
    report["passed"] = bool(ok)
    _write(args.out, json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


def cmd_separate(args):
    prefix = _load_prefix(args.infile)
    if args.target == "all":
        X = frozenset(range(prefix.n_vertices))
    else:
        with open(args.target) as fh:
            locs = json.load(fh)
        X = frozenset(prefix.vid(*v) for v in locs)
    res = structure.balanced_separation(prefix, X)
    k = len(structure.induced_max_clique(prefix, X))
    bound = structure.order_bound(prefix.ell, prefix.f, k)
    report = res.sep.to_dict(loc=lambda g: list(prefix.loc(g)))
    report.update(n=res.n, k=k,
                  order_bound=bound if bound != INF else "inf",
                  bound_applies=res.bound_applies, balanced=res.balanced,
                  iterations=res.iterations)
    ok = res.balanced and structure.verify_separation_on_prefix(
        prefix, res.sep, X)
    report["verified"] = ok
    if args.emit_decomposition:
        dec = widths.decomposition_from_separators(prefix, X)
        adj = prefix.adjacency()
        edges = [(u, v) for u in X for v in adj[u] if v in X and u < v]
        valid = dec.validate(X, edges)
        report["decomposition"] = dec.to_dict(
            loc=lambda g: list(prefix.loc(g)))
        report["decomposition"]["valid"] = valid
        report["decomposition"]["independent_width"] = \
            widths.independent_width(prefix, dec)
        ok &= valid
    _write(args.out, json.dumps(report, indent=2) + "\n")
    print("n=%d k=%d order=%d bound=%s balanced=%s"
          % (res.n, k, res.order, bound, res.balanced),
          file=sys.stderr)
    return 0 if ok else 1


def cmd_demo(args):
    cap = args.size_cap if args.size_cap is not None else default_size_cap()
    if args.which == "question84":
        report = widths.demo_question84(args.g, args.ell, args.k_max, cap)
    elif args.which == "conjecture85":
        report = widths.demo_conjecture85(args.F, args.ell, args.c_max, cap)
    else:
        report = widths.demo_hajebi(args.c, args.ell, args.t, args.samples,
                                    cap, seed=args.seed)
    print(report["summary"], file=sys.stderr)
    summary = report.pop("summary")
    _write(args.out, json.dumps(report, indent=2) + "\n")
    report["summary"] = summary
    return 0 if report["all_certified"] else 1


def make_parser():
    p = argparse.ArgumentParser(
        prog="lwheel",
        description="Generate and analyze finite layered-wheel prefixes.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a prefix and export it")
    b.add_argument("--ell", type=int, required=True)
    b.add_argument("--f", required=True, help="slow-function spec, e.g. "
                   "identity, cap:3, table:1,2,3,3, cumulative:poly:2")
    b.add_argument("--layers", type=int, required=True)
    b.add_argument("--size-cap", type=int, default=None)
    b.add_argument("--out", default="-")
    b.add_argument("--format", choices=("json", "dot", "graph6"),
                   default="json")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="check structural invariants of a prefix")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--rules", action="store_true")
    v.add_argument("--holes", action="store_true")
    v.add_argument("--clique", action="store_true")
    v.add_argument("--minor", action="store_true")
    v.add_argument("--chordal-samples", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default="-")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("separate", help="balanced separation of G[X]")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--target", default="all",
                   help="'all' or a JSON file of [layer, pos] pairs")
    s.add_argument("--emit-decomposition", action="store_true")
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_separate)

    d = sub.add_parser("demo", help="run a counterexample demo")
    d.add_argument("which", choices=("question84", "conjecture85", "hajebi"))
    d.add_argument("--g", default="poly:2", help="growth target for question84")
    d.add_argument("--F", default="poly:2", help="cumulative spec for "
                   "conjecture85")
    d.add_argument("--ell", type=int, default=4)
    d.add_argument("--k-max", type=int, default=3)
    d.add_argument("--c-max", type=int, default=2)
    d.add_argument("--c", type=int, default=2)
    d.add_argument("--t", type=int, default=4)
    d.add_argument("--samples", type=int, default=50)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--size-cap", type=int, default=None)
    d.add_argument("--out", default="-")
    d.set_defaults(func=cmd_demo)
    return p


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SlowFunctionError, CumulativeFunctionError, SizeCapError,
            ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
