import contextlib
import heapq
import io
import json
import random

import pytest
from hypothesis import strategies as st

from layered_wheels import WheelPrefix, build_prefix, parse_f_spec
from layered_wheels import structure as S
from layered_wheels import widths as W
from layered_wheels.cli import main
from layered_wheels.functions import INF
from layered_wheels.wheel import ConstructionError, SizeCapError
from layered_wheels.widths import TreeDecomposition


def lwheel(*argv):
    """Run ``lwheel`` in-process on the words of ``argv`` (paths are
    turned to text) and return its exit code, stdout and stderr.  A
    usage error, or ``--help``, ends in argparse's SystemExit, whose code
    (2, or 0) is returned; any other exception propagates, so a test
    fails where the process would print a traceback, and no traceback may
    be printed either.  Takes no fixture, so Hypothesis tests call it too.
    An ``error:`` line must come alone: exit 1, no report and no other
    line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err, (argv, err)
    if err.startswith("error: "):
        assert (code, out, err.count("\n")) == (1, "", 1), (argv, code, err)
    return code, out, err


def small_prefixes(max_vertices=2000, ells=(4, 5, 6),
                   fspecs=("identity", "cap:3", "cap:4")):
    """All prefixes of the standard test families up to a vertex budget."""
    out = []
    for ell in ells:
        for fs in fspecs:
            t = 1
            while True:
                try:
                    p = build_prefix(ell, parse_f_spec(fs), t,
                                     size_cap=max_vertices)
                except Exception:
                    break
                out.append(p)
                t += 1
    return out


PREFIXES_300 = small_prefixes(max_vertices=300)


def random_vertical_path(prefix, start, end_layer, rng):
    """A path from ``start`` up to ``end_layer``, one random child per
    layer."""
    verts = [start]
    cur = start
    for _ in range(prefix.layer_of(start), end_layer):
        cur = rng.choice(prefix.children(cur))
        verts.append(cur)
    return verts


def json_loc(prefix):
    """The [layer, pos] list that the JSON reports write for a global id."""
    return lambda g: list(prefix.loc(g))


@st.composite
def targets(draw):
    """A prefix and a random target X: single vertices and sparse,
    disconnected sets are common, so the component roots get chained."""
    p = draw(st.sampled_from(PREFIXES_300))
    size = draw(st.one_of(st.integers(1, min(32, p.n_vertices)),
                          st.integers(1, p.n_vertices)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return p, random.Random(seed).sample(range(p.n_vertices), size)


@st.composite
def arbitrary_records(draw):
    """A record of 1- to 6-vertex layers whose up entries are any ids:
    the vertex itself, its own layer, a later layer, or a repeat; and
    whose parents are any ids or -1."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    n = sum(sizes)
    p = WheelPrefix(4, parse_f_spec("identity"))
    p.layer_sizes = sizes
    p.offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    p.up = [tuple(draw(st.lists(st.integers(0, n - 1), max_size=4)))
            for _ in range(n)]
    p.parent = draw(st.lists(st.integers(-1, n - 1), min_size=n,
                             max_size=n))
    return p


def reference_extend(prefix, size_cap):
    """``WheelPrefix._extend`` one vertex and one block at a time: the
    layer size counted vertex by vertex, then each block's first vertex
    and its ell-3 empty ones appended in turn.  The oracle for the
    slice-filled construction."""
    i = prefix.num_layers
    fi1 = prefix.f(i + 1)
    ell = prefix.ell
    top = list(prefix.layer_range(i))
    new_size = 0
    for v in top:
        m = len(prefix.up[v])
        if m > fi1 - 1:
            raise ConstructionError(
                "vertex %s has %d upward neighbors but f(%d)-1 = %d"
                % (prefix.loc(v), m, i + 1, fi1 - 1))
        new_size += (fi1 - 1) * (ell - 2) if m == fi1 - 1 else ell - 2
    if prefix.n_vertices + new_size > size_cap:
        raise SizeCapError("layer %d would bring the prefix to %d vertices "
                           "(cap %d)" % (i + 1, prefix.n_vertices + new_size,
                                         size_cap))
    prefix.offsets.append(prefix.n_vertices)
    prefix.layer_sizes.append(new_size)
    up, parent = prefix.up, prefix.parent
    for v in top:
        upv = up[v]
        if len(upv) < fi1 - 1:
            blocks = [upv + (v,)]
        else:
            blocks = [upv[:j] + upv[j + 1:] + (v,) for j in range(len(upv))]
        for first_up in blocks:
            up.append(first_up)
            parent.append(v)
            up += ((),) * (ell - 3)
            parent += (-1,) * (ell - 3)
    prefix._layer = prefix._kids = None


def reference_spans(prefix):
    """The descendant path of each vertex as (global start, count), or None
    for a vertex without a child, recovered from the parents: each path
    runs from its parent's first child to the next parent's first child,
    the last one to the end of the layer.  The oracle for the tiling half
    of rule 4 and for the construction tests."""
    span = [None] * prefix.n_vertices
    for layer in range(1, prefix.num_layers):
        parents = prefix.layer_range(layer)
        nxt = prefix.layer_range(layer + 1)
        first = {}
        for u in nxt:
            p = prefix.parent[u]
            if p in parents and p not in first:
                first[p] = u
        starts = sorted(first.values())
        for s, end in zip(starts, starts[1:] + [nxt.stop]):
            span[prefix.parent[s]] = (s, end - s)
    return span


def reference_elimination(prefix, X):
    """Min-degree elimination of G[X] over a heap of (degree, id) pairs, as
    (vertex, bags, parent) before any merge: vertex[i] is the vertex
    eliminated at step i, bags[i] the set of it and its remaining
    neighbours, and parent[i] the earliest step among those neighbours, or
    None at a component root."""
    xset = frozenset(X)
    adj = prefix.adjacency()
    nbr = {v: adj[v] & xset for v in xset}
    heap = sorted((len(s), v) for v, s in nbr.items())   # a valid heap
    step = {}
    vertex = []
    bags = []
    while heap:
        d, v = heapq.heappop(heap)
        if v in step or d != len(nbr[v]):
            continue                 # stale entry
        later = nbr.pop(v)
        step[v] = len(bags)
        vertex.append(v)
        bags.append(later | {v})
        for u in later:
            nbr[u] |= later
            nbr[u] -= {u, v}
            heapq.heappush(heap, (len(nbr[u]), u))
    parent = [min((step[u] for u in bag if step[u] > i), default=None)
              for i, bag in enumerate(bags)]
    return vertex, bags, parent


def reference_decomposition(prefix, X):
    """``reference_elimination`` with the bag merging of
    ``widths.decomposition_from_separators``, on set unions: the oracle for
    its bucket-queue elimination and its counted merge, which must give
    the same bags and tree edges."""
    _, bags, parent = reference_elimination(prefix, X)
    roots = [i for i, p in enumerate(parent) if p is None]
    for r, nxt in zip(roots, roots[1:]):
        parent[r] = nxt
    widest = max(map(len, bags))
    into = {}
    for i, p in enumerate(parent):
        if p is not None and len(bags[i] | bags[p]) <= widest:
            bags[p] |= bags[i]
            into[i] = p
    kept = [i for i in reversed(range(len(bags))) if i not in into]
    index = {i: k for k, i in enumerate(kept)}
    for i in reversed(range(len(bags))):
        if i in into:
            index[i] = index[into[i]]
    return TreeDecomposition(
        [frozenset(bags[i]) for i in kept],
        [(index[parent[i]], index[i]) for i in kept if parent[i] is not None])


def reference_validate(dec, vertices, graph_edges):
    """The decomposition axioms by rescanning every bag, O(edges x bags)."""
    nodes = range(len(dec.bags))
    covered = set().union(*dec.bags) if dec.bags else set()
    if not set(vertices) <= covered:
        return False
    for (u, v) in graph_edges:
        if not any(u in b and v in b for b in dec.bags):
            return False
    if len(dec.edges) != len(dec.bags) - 1:
        return False
    nbr = {i: set() for i in nodes}
    for (i, j) in dec.edges:
        nbr[i].add(j)
        nbr[j].add(i)
    seen = {0} if dec.bags else set()
    stack = [0] if dec.bags else []
    while stack:
        i = stack.pop()
        for j in nbr[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != len(dec.bags):
        return False
    for v in set(vertices) | covered:
        holds = {i for i in nodes if v in dec.bags[i]}
        if not holds:
            continue
        root = next(iter(holds))
        reach = {root}
        stack = [root]
        while stack:
            i = stack.pop()
            for j in nbr[i]:
                if j in holds and j not in reach:
                    reach.add(j)
                    stack.append(j)
        if reach != holds:
            return False
    return True


def reference_separate_report(prefix, X, emit_decomposition):
    """The text of ``lwheel separate`` on the target X, assembled as nested
    dicts of [layer, pos] lists and written by ``json.dumps(indent=2)``:
    the oracle for the streamed report."""
    X = frozenset(X)
    loc = json_loc(prefix)
    res = S.balanced_separation(prefix, X)
    k = len(S.induced_max_clique(prefix, X))
    bound = S.order_bound(prefix.ell, prefix.f, k)
    report = {"A": sorted(map(loc, res.sep.A)),
              "B": sorted(map(loc, res.sep.B)),
              "order": res.sep.order}
    report.update(n=res.n, k=k,
                  order_bound=bound if bound != INF else "inf",
                  bound_applies=res.bound_applies, balanced=res.balanced,
                  iterations=res.iterations)
    report["verified"] = res.balanced and reference_verify_separation(
        prefix, res.sep, X)
    if emit_decomposition:
        dec = W.decomposition_from_separators(prefix, X)
        adj = prefix.adjacency()
        edges = [(u, v) for u in X for v in adj[u] if v in X and u < v]
        report["decomposition"] = {
            "bags": [sorted(map(loc, b)) for b in dec.bags],
            "edges": [list(e) for e in dec.edges],
            "width": dec.width,
            "valid": reference_validate(dec, X, edges),
            "independent_width": W.independent_width(prefix, dec),
        }
    return json.dumps(report, indent=2) + "\n"


def reference_verify_separation(prefix, sep, vertices):
    """``structure.verify_separation_on_prefix`` by a scan of every edge of
    the record (``WheelPrefix.edges``): the oracle for its look-up of the
    A-only and B-only vertices' edges."""
    vs = set(vertices)
    if not vs <= (sep.A | sep.B):
        return False
    a_only = (sep.A - sep.B) & vs
    b_only = (sep.B - sep.A) & vs
    return not any(u in a_only and v in b_only or u in b_only and v in a_only
                   for u, v in prefix.edges())


def reference_layer_minor(prefix):
    """``structure.layer_minor_check(prefix).to_dict()`` by a scan of every
    up entry of the record: the oracle for its stop once every pair of
    layers has a witness."""
    t = prefix.num_layers
    layer = prefix._layers()
    witness = {}
    for v, ups in enumerate(prefix.up):
        for w in ups:
            witness.setdefault((layer[w], layer[v]), (w, v))
    missing = [(i, j) for i in range(1, t + 1) for j in range(i + 1, t + 1)
               if (i, j) not in witness]
    data = {
        "num_layers": t,
        "edges": {"%d,%d" % p: [list(prefix.loc(witness[p][0])),
                                list(prefix.loc(witness[p][1]))]
                  for p in sorted(witness) if p[0] < p[1]},
    }
    if missing:
        data["first_missing_pair"] = list(missing[0])
    return S.Certificate(kind="minor", data=data, verdict=not missing,
                         bound=t - 1).to_dict()


def masks_of(adj):
    """Neighbour sets or lists as the bitmasks that the kernels' bitset
    searches (``max_clique``, ``max_independent_set``) take: bit u of
    masks[v] for each u in adj[v]."""
    return [sum(1 << u for u in set(a)) for a in adj]


def reference_json(prefix):
    """``json.dumps`` of the prefix as nested dicts and [layer, pos] lists:
    the oracle for the streamed JSON writer."""
    loc = json_loc(prefix)
    return json.dumps({
        "ell": prefix.ell, "f_spec": prefix.f.descriptor,
        "num_layers": prefix.num_layers, "layers": prefix.layer_sizes,
        "vertices": [
            {"layer": layer, "pos": pos,
             "parent": loc(p) if p >= 0 else None,
             "up": [loc(w) for w in ups]}
            for (layer, pos), p, ups in zip(
                map(prefix.loc, range(prefix.n_vertices)), prefix.parent,
                prefix.up)]})


def assert_same_text(prefix, what, got, want):
    """Fail naming the prefix's (ell, f, t) and the first offset at which
    ``got`` differs from ``want``.  The texts are compared first, so a
    writer bug does not make pytest diff two texts of hundreds of
    kilobytes."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    pytest.fail("%s of ell=%d f=%s t=%d differs from the reference at "
                "offset %d: %r, where the reference has %r"
                % (what, prefix.ell, prefix.f.descriptor, prefix.num_layers,
                   at, got[at:at + 40], want[at:at + 40]))


def reference_dot(prefix):
    """The DOT digraph with the arcs out of each tail gathered in a dict of
    growing strings, one cycle arc and one tail string at a time: the
    oracle for ``cli.dot_pieces``."""
    out = ["digraph wheel {\n  rankdir=TB;\n  node [shape=circle];\n"]
    layers = list(enumerate(zip(prefix.offsets, prefix.layer_sizes), 1))
    for layer, (_, size) in layers:
        out.append("  { rank=same; " + " ".join(
            ['"%d_%d"' % (layer, pos) for pos in range(size)]) + " }\n")
    names = []
    arcs = {}
    for layer, (start, size) in layers:
        line = '  %%s -> "%d_%%d";\n' % layer
        for pos, ups in enumerate(prefix.up[start:start + size]):
            for w in ups:
                arcs[w] = arcs.get(w, "") + line % (names[w], pos)
        names += ['"%d_%d"' % (layer, pos) for pos in range(size)]
    for layer, (start, size) in layers:
        cycle = '  "%d_%%d" -> "%d_%%d";\n' % (layer, layer)
        for pos in range(size):
            out.append(cycle % (pos, (pos + 1) % size))
            out.append(arcs.pop(start + pos, ""))
    out.append("}\n")
    return "".join(out)


def orphan_record():
    """The JSON object of the l=4 cap:3 t=3 prefix whose first vertex with
    a parent (in layer 2) has lost it: a record that fails rule 4."""
    obj = json.loads(build_prefix(4, parse_f_spec("cap:3"), 3).to_json())
    next(v for v in obj["vertices"] if v["parent"])["parent"] = None
    return obj


def doctored_records():
    """Records that break the clique route, as (name, JSON object, the
    [layer, pos] of the vertex its certificate must name, a phrase of the
    reason).  Each one adds an up entry to one vertex of the l=4 cap:3
    t=4 prefix, except the last, a lone 3-vertex layer."""
    p = build_prefix(4, parse_f_spec("cap:3"), 4)
    # the first vertex with the longest upward list, which the route takes
    top = max(range(p.n_vertices), key=lambda g: len(p.up[g]))
    layer, pos = p.loc(p.up[top][0])
    edits = [
        # a second, non-adjacent entry in the first entry's layer
        ("not-a-clique", top, [layer, (pos + 2) % p.layer_sizes[layer - 1]],
         "not adjacent"),
        # the cycle predecessor, the first vertex of the layer
        ("own-layer", p.vid(3, 1), [3, 0], "not in an earlier layer"),
        ("later-layer", p.vid(2, 1), [4, 0], "not in an earlier layer"),
        ("repeated", top, [layer, pos], "repeats an entry"),
    ]
    out = []
    for name, g, entry, reason in edits:
        obj = json.loads(p.to_json())
        obj["vertices"][g]["up"].append(entry)
        out.append((name, obj, list(p.loc(g)), reason))
    short = {"ell": 4, "f_spec": "cap:3", "num_layers": 1, "layers": [3],
             "vertices": [{"layer": 1, "pos": i, "parent": None, "up": []}
                          for i in range(3)]}
    out.append(("short-layer", short, [1, 0], "layer 1 has 3 < 4 vertices"))
    return out


def expected_intersection(prefix, P, Q):
    """V(P) ∪ V(Q) ∪ the up-closures along the base segment -- the exact
    value of A ∩ B proved for this construction."""
    out = set(P) | set(Q)
    for u in S._forward_segment(prefix, P[0], Q[0]):
        out.add(u)
        out.update(prefix.up[u])
    return out


@pytest.fixture(scope="session")
def prefixes_2000():
    return small_prefixes()


@pytest.fixture(scope="session")
def prefix_68():
    return build_prefix(4, parse_f_spec("cap:3"), 4)


@pytest.fixture()
def rng():
    return random.Random(0)
