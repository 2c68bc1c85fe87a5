"""Command-line surface: build prefixes, verify them, run separations and
the counterexample demos, with JSON / DOT / graph6 export.

Exit codes: 0 when every selected check passes; 1 on a failed check or on
an input or runtime error (a malformed, missing or unreadable file, a bad
slow-function spec, the size cap); 2 on a command-line usage error, which
argparse reports by raising SystemExit(2) from ``main``.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import sys

from . import structure, widths
from .functions import INF, parse_f_spec
from .wheel import (DEFAULT_SIZE_CAP, PIECE, SizeCapError, WheelPrefix,
                    build_prefix, canonical_violation, digit_text,
                    positions, read_export, verify_rules)


# -- export formats -------------------------------------------------------

# graph6 stores six bits per byte, offset by 63
_G6_OFFSET = bytes((b + 63) % 256 for b in range(256))
# body bytes in one piece of a streamed graph6 export
_G6_PIECE = 1 << 16


def graph6_pieces(n, edges):
    """Standard graph6 encoding of the underlying undirected graph, as its
    header, body pieces of at most ``_G6_PIECE`` bytes and the final
    newline.  A repeated pair sets its bit again and changes nothing.  Too
    many vertices raise ValueError here, before any piece is made."""
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph6 export supports at most 258047 vertices")
    # bit k = j(j-1)/2 + i stands for the pair i < j, most significant first
    bits = sorted(v * (v - 1) // 2 + u if u < v else u * (u - 1) // 2 + v
                  for u, v in edges if u != v)
    return _graph6_body(head, (n * (n - 1) // 2 + 5) // 6, bits)


def _graph6_body(head, size, bits):
    """The header, then ``size`` body bytes with the sorted ``bits`` set,
    one piece at a time, then the newline."""
    yield head
    lo = 0
    for start in range(0, size, _G6_PIECE):
        piece = bytearray(min(_G6_PIECE, size - start))
        hi = bisect.bisect_left(bits, 6 * (start + len(piece)), lo)
        for k in bits[lo:hi]:
            piece[k // 6 - start] |= 32 >> (k % 6)
        lo = hi
        yield piece.translate(_G6_OFFSET).decode("ascii")
    yield "\n"


def to_dot(prefix):
    """DOT digraph with one rank per layer and directed arcs: the join of
    ``dot_pieces``."""
    return "".join(dot_pieces(prefix))


def dot_pieces(prefix):
    """``to_dot`` in pieces of at most ``PIECE`` names or arc tails.
    Upward neighbors must lie in earlier layers, as in a built prefix.

    Each piece is one join over the position strings of its vertices,
    cut by ``wheel.positions`` from one ``digit_text`` of the largest
    layer's size, made once per export, not converted one int at a time.
    A rank piece joins them with the quoted layer prefix between them,
    and a piece of arcs fills a list in six strides: the constant tail
    prefix, the tail position, the constant arrow, the head position,
    the constant line end, and the tail's upward arcs.  The upward arcs
    out of a vertex are gathered first as their heads'
    ``' -> "layer_pos";\\n'`` lines, and get the tail's name put in
    front of each arrow when their piece is joined.  ``lwheel build
    --format dot`` writes the pieces as they come."""
    yield "digraph wheel {\n  rankdir=TB;\n  node [shape=circle];\n"
    layers = list(enumerate(zip(prefix.offsets, prefix.layer_sizes), 1))
    # positions up to the largest layer's size, the wrap of its last arc
    digits = digit_text(max(prefix.layer_sizes))
    for layer, (_, size) in layers:
        q = '"%d_' % layer
        for a in range(0, size, PIECE):
            pos = positions(digits, a, min(a + PIECE, size))
            yield ((" " if a else "  { rank=same; ") + q
                   + ('" ' + q).join(pos) + '"')
        yield " }\n"
    # arcs[g] = the heads of the upward arcs out of g, as lines without
    # their tail; a head's line is made once, for all of its tails
    up = prefix.up
    arcs = [""] * prefix.n_vertices
    for layer, (start, size) in layers:
        line = ' -> "%d_%%d";\n' % layer
        ups = up[start:start + size]
        for h in itertools.compress(range(size), ups):
            head = line % h
            for w in ups[h]:
                arcs[w] += head
    # arcs in sorted (tail, head) order: the cycle successor of u lies in
    # u's own layer and every upward head in a later one, so it comes first
    for layer, (start, size) in layers:
        q = '  "%d_' % layer
        arrow = '" -> "%d_' % layer
        for a in range(0, size, PIECE):
            b = min(a + PIECE, size)
            pos = positions(digits, a, b + 1)
            if b == size:      # the last vertex's arc wraps to position 0
                pos[-1] = "0"
            out = arcs[start + a:start + b]
            for j in itertools.compress(range(b - a), out):
                out[j] = out[j].replace(" -> ", q + pos[j] + '" -> ')
            parts = [q, None, arrow, None, '";\n', None] * (b - a)
            parts[1::6] = pos[:-1]
            parts[3::6] = pos[1:]
            parts[5::6] = out
            yield "".join(parts)
    yield "}\n"


def separate_pieces(prefix, sep, fields, dec, dec_fields):
    """The ``separate`` report as ``json.dumps(report, indent=2)`` and a
    newline: the sides A and B as sorted [layer, pos] lists, then the
    (key, value) ``fields``, then, when ``dec`` is given, a "decomposition"
    object with its bags and tree edges followed by ``dec_fields``.

    Yields the text in pieces of at most ``PIECE`` pairs, so the report
    is never held whole.  Each pair is formatted from a per-layer template
    at its fixed indent depth."""
    ends = prefix.offsets[1:] + [prefix.n_vertices]

    def locs(depth):
        pad = "\n" + "  " * depth
        pairs = ["%s[%s  %d,%s  %%d%s]" % (pad, pad, layer, pad, pad)
                 for layer in range(1, prefix.num_layers + 1)]

        def text(ids):         # sorted ids, split into runs of one layer
            runs = []
            i = 0
            while i < len(ids):
                layer = bisect.bisect_right(ends, ids[i])
                j = bisect.bisect_left(ids, ends[layer], i)
                start, pair = prefix.offsets[layer], pairs[layer]
                runs.append(",".join([pair % (g - start)
                                      for g in ids[i:j]]))
                i = j
            return ",".join(runs)
        return text

    side = locs(2)
    yield '{\n  "A": '
    yield from _list_pieces(sorted(sep.A), 1, side)
    yield ',\n  "B": '
    yield from _list_pieces(sorted(sep.B), 1, side)
    yield _field_lines(fields, 1)
    if dec is not None:
        bag = locs(4)
        yield ',\n  "decomposition": {\n    "bags": ['
        for i, b in enumerate(dec.bags):
            yield ",\n      " if i else "\n      "
            yield from _list_pieces(sorted(b), 3, bag)
        edge = "\n      [\n        %d,\n        %d\n      ]"
        yield '\n    ],\n    "edges": '
        yield from _list_pieces(dec.edges, 2, lambda edges: ",".join(
            [edge % e for e in edges]))
        yield _field_lines(dec_fields, 2) + "\n  }"
    yield "\n}\n"


def _list_pieces(items, depth, text):
    """A list at ``depth`` as ``json.dumps(indent=2)`` writes it: "[",
    then ``text`` of each run of at most ``PIECE`` items, then "]"."""
    if not items:
        yield "[]"
        return
    yield "["
    for a in range(0, len(items), PIECE):
        yield ("," if a else "") + text(items[a:a + PIECE])
    yield "\n" + "  " * depth + "]"


def _field_lines(fields, depth):
    """The (key, value) scalar fields as ``json.dumps(indent=2)`` writes
    them after an earlier field of an object at ``depth - 1``."""
    return "".join(",\n%s%s: %s" % ("  " * depth, json.dumps(key),
                                     json.dumps(value, indent=2))
                   for key, value in fields)


def _write(path, pieces):
    """Write the text pieces as they come, to stdout for '-' or else to
    the file at path."""
    if path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w") as fh:
            fh.writelines(pieces)


def _load_prefix(path):
    """The prefix in the JSON file at path, and whether the file is byte
    for byte its ``lwheel build`` export (``read_export``).  Any other
    file is parsed."""
    with open(path) as fh:
        text = fh.read()
    prefix = read_export(text)
    if prefix is not None:
        return prefix, True
    return WheelPrefix.from_json(text), False


def _load_target(prefix, path):
    """The vertex set of a JSON file holding a list of [layer, pos] pairs,
    the file that ``separate --target`` names.  A file of another shape,
    or a pair outside the prefix, raises ValueError naming the entry."""
    with open(path) as fh:
        locs = json.load(fh)
    if not isinstance(locs, list):
        raise ValueError("target file must hold a list of [layer, pos] pairs")
    for i, v in enumerate(locs):
        if not (isinstance(v, list) and len(v) == 2
                and all(type(c) is int for c in v)):
            raise ValueError("target entry %d is not a [layer, pos] pair: %s"
                             % (i, json.dumps(v)))
    return frozenset(prefix.vid(*v) for v in locs)


def count(text):
    """argparse type for a count: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


# -- subcommands ----------------------------------------------------------

def cmd_build(args):
    f = parse_f_spec(args.f)
    prefix = build_prefix(args.ell, f, args.layers, size_cap=args.size_cap)
    if args.format == "json":
        _write(args.out, itertools.chain(prefix.json_pieces(), ["\n"]))
    elif args.format == "dot":
        _write(args.out, dot_pieces(prefix))
    else:
        _write(args.out, graph6_pieces(prefix.n_vertices, prefix.edges()))
    print("built %d layers, %d vertices (ell=%d, f=%s)"
          % (prefix.num_layers, prefix.n_vertices, prefix.ell, f.descriptor),
          file=sys.stderr)
    return 0


CHECKS = ("rules", "canonical", "holes", "clique", "minor")


def cmd_verify(args):
    selected = [name for name in CHECKS if getattr(args, name)] or CHECKS
    prefix, exact = _load_prefix(args.infile)
    report = {"n": prefix.n_vertices, "num_layers": prefix.num_layers,
              "checks": {}}
    ok = True
    rr = None
    if "rules" in selected:
        rr = verify_rules(prefix)
        report["checks"]["rules"] = rr
        ok &= rr["passed"]
    if "canonical" in selected:
        # a file equal to the export of build_prefix(ell, f, t) is that
        # prefix, a stronger proof than comparing the parsed lists; any
        # other record is compared with the construction grown for it
        detail = None if exact else canonical_violation(prefix)
        report["checks"]["canonical"] = {"passed": detail is None,
                                         "detail": detail or ""}
        ok &= detail is None
    if "holes" in selected:
        shortest = structure.shortest_hole_up_to(prefix)
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
    if rr is not None:
        # a rule-5 pass proves every one-per-layer transversal chordal
        # (wheel.upward_violation); rule 5 already counts in rr["passed"]
        report["checks"]["chordal_transversals"] = {
            "by": "rule 5", "passed": rr["rules"][4]["passed"]}
    report["passed"] = bool(ok)
    _write(args.out, [json.dumps(report, indent=2) + "\n"])
    return 0 if ok else 1


def cmd_separate(args):
    prefix = _load_prefix(args.infile)[0]
    if args.target == "all":
        X = frozenset(range(prefix.n_vertices))
    else:
        X = _load_target(prefix, args.target)
    # the clique route runs first, so a record that breaks its premise
    # never reaches the separation loop
    k, cert = structure.induced_clique_number(
        prefix, None if args.target == "all" else X)
    if not cert.verdict:
        raise ValueError("no clique certificate: vertex %s: %s" % (
            tuple(cert.data["first_violation"]), cert.data["reason"]))
    res = structure.balanced_separation(prefix, X)
    bound = structure.order_bound(prefix.ell, prefix.f, k)
    ok = res.balanced and structure.verify_separation_on_prefix(
        prefix, res.sep, X)
    fields = [("order", res.order), ("n", res.n), ("k", k),
              ("order_bound", bound if bound != INF else "inf"),
              ("bound_applies", res.bound_applies),
              ("balanced", res.balanced), ("iterations", res.iterations),
              ("verified", ok)]
    dec = dec_fields = None
    if args.emit_decomposition:
        dec = widths.decomposition_from_separators(prefix, X)
        valid = dec.validate(X, ((u, v) for u, v in prefix.edges()
                                 if u in X and v in X))
        dec_fields = [("width", dec.width), ("valid", valid),
                      ("independent_width",
                       widths.independent_width(prefix, dec))]
        ok &= valid
    _write(args.out, separate_pieces(prefix, res.sep, fields, dec,
                                     dec_fields))
    print("n=%d k=%d order=%d bound=%s balanced=%s"
          % (res.n, k, res.order, bound, res.balanced),
          file=sys.stderr)
    return 0 if ok else 1


def cmd_demo(args):
    cap = args.size_cap
    if args.which == "question84":
        report = widths.demo_question84(args.g, args.ell, args.k_max, cap)
    elif args.which == "conjecture85":
        report = widths.demo_conjecture85(args.F, args.ell, args.c_max, cap)
    else:
        report = widths.demo_hajebi(args.c, args.ell, args.t, args.samples,
                                    cap, seed=args.seed)
    print(report.pop("summary"), file=sys.stderr)
    _write(args.out, [json.dumps(report, indent=2) + "\n"])
    return 0 if report["all_certified"] else 1


# ends the help text of every option that has a default; argparse's
# ArgumentDefaultsHelpFormatter skips options with no help text and prints
# "(default: None)" for required ones
DEFAULT = "(default: %(default)s)"


def make_parser():
    """The ``lwheel`` parser.  Each demo takes only the options it reads,
    ``--size-cap`` and ``--out`` on all three, so another demo's option is
    a usage error.  ``--ell`` defaults to 4 for question84 and
    conjecture85 and to 5 for hajebi, so every demo runs with no
    options.  ``--help`` shows every default except a switch's (off)."""
    p = argparse.ArgumentParser(
        prog="lwheel",
        description="Generate and analyze finite layered-wheel prefixes.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a prefix and export it")
    b.add_argument("--ell", type=int, required=True)
    b.add_argument("--f", required=True, help="slow-function spec, e.g. "
                   "identity, cap:3, table:1,2,3,3, cumulative:poly:2")
    b.add_argument("--layers", type=int, required=True)
    b.add_argument("--size-cap", type=count, default=DEFAULT_SIZE_CAP,
                   help=DEFAULT)
    b.add_argument("--out", default="-", help=DEFAULT)
    b.add_argument("--format", choices=("json", "dot", "graph6"),
                   default="json", help=DEFAULT)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="check structural invariants of a prefix")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--rules", action="store_true")
    v.add_argument("--canonical", action="store_true")
    v.add_argument("--holes", action="store_true")
    v.add_argument("--clique", action="store_true")
    v.add_argument("--minor", action="store_true")
    # no effect; kept because the command benchmark passes it to verify
    v.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    v.add_argument("--out", default="-", help=DEFAULT)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("separate", help="balanced separation of G[X]")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--target", default="all",
                   help="'all' or a JSON file of [layer, pos] pairs "
                   + DEFAULT)
    s.add_argument("--emit-decomposition", action="store_true")
    s.add_argument("--out", default="-", help=DEFAULT)
    s.set_defaults(func=cmd_separate)

    d = sub.add_parser("demo", help="run a counterexample demo")
    d.set_defaults(func=cmd_demo)
    demos = d.add_subparsers(dest="which", required=True)
    # every demo reads these two, and each takes only the options it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--size-cap", type=count, default=DEFAULT_SIZE_CAP,
                        help=DEFAULT)
    common.add_argument("--out", default="-", help=DEFAULT)
    q = demos.add_parser("question84", parents=[common])
    q.add_argument("--g", default="poly:2", help="growth target " + DEFAULT)
    q.add_argument("--ell", type=int, default=4, help=DEFAULT)
    q.add_argument("--k-max", type=int, default=3, help=DEFAULT)
    c = demos.add_parser("conjecture85", parents=[common])
    c.add_argument("--F", default="poly:2", help="cumulative spec " + DEFAULT)
    c.add_argument("--ell", type=int, default=4, help=DEFAULT)
    c.add_argument("--c-max", type=int, default=2, help=DEFAULT)
    h = demos.add_parser("hajebi", parents=[common])
    h.add_argument("--c", type=int, default=2, help=DEFAULT)
    h.add_argument("--ell", type=int, default=5, help=DEFAULT)
    h.add_argument("--t", type=int, default=4, help=DEFAULT)
    h.add_argument("--samples", type=count, default=50, help=DEFAULT)
    h.add_argument("--seed", type=int, default=0, help=DEFAULT)
    return p


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SizeCapError, ValueError, OSError, RecursionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
