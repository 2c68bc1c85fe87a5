import heapq
import random

import pytest

from layered_wheels import build_prefix, parse_f_spec
from layered_wheels import structure as S
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
