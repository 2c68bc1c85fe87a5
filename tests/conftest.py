import heapq
import json
import random

import pytest
from hypothesis import strategies as st

from layered_wheels import build_prefix, parse_f_spec
from layered_wheels import structure as S
from layered_wheels import widths as W
from layered_wheels.functions import INF
from layered_wheels.widths import TreeDecomposition


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


@st.composite
def targets(draw):
    """A prefix and a random target X: single vertices and sparse,
    disconnected sets are common, so the component roots get chained."""
    p = draw(st.sampled_from(PREFIXES_300))
    size = draw(st.one_of(st.integers(1, min(32, p.n_vertices)),
                          st.integers(1, p.n_vertices)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return p, random.Random(seed).sample(range(p.n_vertices), size)


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


def reference_decomposition(prefix, X):
    """Min-degree elimination of G[X] over a heap of (degree, id) pairs,
    with the bag merging of ``widths.decomposition_from_separators``: the
    oracle for its bucket-queue elimination, which must give the same bags
    and tree edges."""
    xset = frozenset(X)
    adj = prefix.adjacency()
    nbr = {v: adj[v] & xset for v in xset}
    heap = sorted((len(s), v) for v, s in nbr.items())   # a valid heap
    step = {}
    bags = []
    while heap:
        d, v = heapq.heappop(heap)
        if v in step or d != len(nbr[v]):
            continue                 # stale entry
        later = nbr.pop(v)
        step[v] = len(bags)
        bags.append(later | {v})
        for u in later:
            nbr[u] |= later
            nbr[u] -= {u, v}
            heapq.heappush(heap, (len(nbr[u]), u))
    parent = [min((step[u] for u in bag if step[u] > i), default=None)
              for i, bag in enumerate(bags)]
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

    def loc(g):
        return list(prefix.loc(g))
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
    report["verified"] = res.balanced and S.verify_separation_on_prefix(
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
    out = set(P.vertices) | set(Q.vertices)
    for u in S._forward_segment(prefix, P.vertices[0], Q.vertices[0]):
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
