"""Structural analysis of wheel prefixes: holes, cliques, the layer clique
minor, chordal transversals, vertical/augmenting paths and the fair /
balanced separation machinery.

All operations are read-only; vertices are global ids of the prefix unless
a function explicitly deals in (layer, pos) pairs.  A path is the plain list
of its vertex ids, one per layer, from the layer of its first vertex up.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from . import kernels


class BudgetExceeded(RuntimeError):
    """Raised by nothing: the exact searches have no size budget.  The
    command benchmark's tracer (perfbench/spans.py) still counts this class
    as a budget refusal when it leaves a traced span, so it stays."""


class ProgressError(RuntimeError):
    """The balanced-separation loop failed to make progress (a bug)."""


@dataclass
class Certificate:
    """A machine-checkable witness with an independent verdict."""

    kind: str                  # clique | minor | peo | stable | ta-lower
    data: dict
    verdict: bool
    bound: int | None = None

    def to_dict(self):
        return {
            "kind": self.kind,
            "data": self.data,
            "verdict": "pass" if self.verdict else "fail",
            "bound": self.bound,
        }


@dataclass(frozen=True)
class Separation:
    A: frozenset
    B: frozenset

    @property
    def order(self):
        return len(self.A & self.B)


# -- induced subgraphs and exact invariants -------------------------------

def induced_adjacency(prefix, X):
    """(vertex list, local adjacency) of G[X], read off the record: each
    vertex's cycle successor and upward entries, when both ends lie in X.
    Local ids ascend with the global ones; the sets are the caller's.
    The elimination behind ``separate --emit-decomposition`` runs on it,
    so ``separate`` builds no adjacency of the whole prefix."""
    order = sorted(X)
    index = {g: i for i, g in enumerate(order)}
    local = [set() for _ in order]
    up = prefix.up
    for first, size in zip(prefix.offsets, prefix.layer_sizes):
        lo, hi = bisect_left(order, first), bisect_left(order, first + size)
        for i, g in enumerate(order[lo:hi], lo):
            for j in map(index.get, (first + (g + 1 - first) % size, *up[g])):
                if j is not None:
                    local[i].add(j)
                    local[j].add(i)
    return order, local


def induced_masks(prefix, X):
    """(vertex list, neighbour bitmasks) of G[X], read off the record like
    ``induced_adjacency``: bit j of masks[i] is set when the i-th and j-th
    vertices of the sorted X are adjacent, and bit i may be set by a
    self-loop.  No sets are made; meant for small X (a bag, or a graph of
    a few hundred vertices for the tests' clique oracle).  Each bag search
    of ``widths.independent_width`` runs on these masks."""
    order = sorted(X)
    index = {g: i for i, g in enumerate(order)}
    masks = [0] * len(order)
    layer = prefix._layers()
    offsets, sizes, up = prefix.offsets, prefix.layer_sizes, prefix.up
    for i, g in enumerate(order):
        start = offsets[layer[g] - 1]
        succ = start + (g + 1 - start) % sizes[layer[g] - 1]
        for j in map(index.get, (succ, *up[g])):
            if j is not None:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return order, masks


def induced_max_clique(prefix, X):
    """A maximum clique of G[X] by the kernel's bitset search on the masks
    of ``induced_masks``: the tests' oracle for ``induced_clique_number``,
    kept here because the command benchmark's trace wraps it by this
    name."""
    order, masks = induced_masks(prefix, X)
    return [order[i] for i in kernels.max_clique(len(order), masks)]


def clique_number_exact(prefix):
    """omega(G) read off the upward lists, with a two-sided certificate.

    When every layer has >= 4 vertices and every upward entry lies in a
    strictly earlier layer, a layer holds no triangle and every edge out
    of a layer's vertex v to an earlier layer goes to up[v].  So the last
    layer of a clique holds one vertex v of it, or two, v and its cycle
    successor v+, and the rest lies in up[v] (and in up[v+]).  The upper
    side, proved from the record, is the largest of 1 + |up[v]| and
    2 + |up[v] & up[v+]| over the vertices; the lower side is the
    maximizer's set, checked to be a clique read off the record.

    The verdict fails, naming the first violating vertex as
    ``first_violation`` with a ``reason``, when a layer has fewer than 4
    vertices, an upward list repeats an entry or holds one that is not in
    an earlier layer, or the maximizer's set is not a clique.  No search
    runs in any case.
    """
    return induced_clique_number(prefix, None)


def induced_clique_number(prefix, X):
    """omega(G[X]) by the route of ``clique_number_exact``, as (omega,
    certificate): each upward list is cut down to X, and a pair counts only
    when v and v+ both lie in X.  X None stands for the whole prefix."""
    premise = _up_route_violation(prefix)
    if premise is not None:
        g, reason = premise
        return 0, Certificate(kind="clique", data={
            "clique": [], "first_violation": list(prefix.loc(g)),
            "reason": reason}, verdict=False)
    # lens[v] = |up[v] cut to X|, or -1 for v outside X
    if X is None:
        ups = prefix.up
        lens = list(map(len, ups))
    else:
        X = frozenset(X)
        ups = {v: [w for w in prefix.up[v] if w in X] for v in X}
        lens = [-1] * prefix.n_vertices
        for v, cut in ups.items():
            lens[v] = len(cut)
    m = max(lens, default=-1)
    if m < 0:
        return 0, Certificate(kind="clique", data={"clique": []},
                              verdict=True, bound=0)
    top = lens.index(m)
    witness = [top, *ups[top]]
    # a pair beats 1 + m only when both its lists have m entries, and then
    # it reaches 2 + m, the most any clique can have
    for v, s in _pairs_at(prefix, lens, m):
        common = set(ups[v]).intersection(ups[s])
        if len(common) == m:
            top = v
            witness = [v, s, *common]
            break
    witness.sort()
    data = {"clique": [prefix.loc(g) for g in witness]}
    apart = next(((u, w) for i, u in enumerate(witness)
                  for w in witness[i + 1:] if not prefix.adjacent(u, w)),
                 None)
    if apart is not None:
        data.update(first_violation=list(prefix.loc(top)),
                    reason="its clique candidate holds %s and %s, which "
                           "are not adjacent" % (prefix.loc(apart[0]),
                                                 prefix.loc(apart[1])))
    return len(witness), Certificate(kind="clique", data=data,
                                     verdict=apart is None,
                                     bound=len(witness))


def _pairs_at(prefix, lens, m):
    """The vertices v, with their cycle successors v+, for which lens[v]
    and lens[v+] both equal m, the largest entry, in id order."""
    for start, size in zip(prefix.offsets, prefix.layer_sizes):
        seg = lens[start:start + size]
        both = map((2 * m).__eq__, map(operator.add, seg, seg[1:] + seg[:1]))
        for v in itertools.compress(range(start, start + size), both):
            yield v, (v + 1 if v + 1 < start + size else start)


def _up_route_violation(prefix):
    """The first vertex, with the reason, that breaks the premise of the
    local clique route, or None: each layer has >= 4 vertices, and each
    upward list holds distinct entries, all in earlier layers.  Ids run
    layer by layer, so an entry lies in an earlier layer exactly when it
    is below its layer's first id.  One scan reads the non-empty lists."""
    up = prefix.up
    for layer, (start, size) in enumerate(zip(prefix.offsets,
                                              prefix.layer_sizes), 1):
        if size < 4:
            return start, "layer %d has %d < 4 vertices" % (layer, size)
        # an empty list breaks nothing, so only the others are scanned
        for g in itertools.compress(range(start, start + size),
                                    up[start:start + size]):
            if len(set(up[g])) != len(up[g]):
                return g, "its upward list repeats an entry"
            for w in up[g]:
                if w >= start:
                    return g, "its upward entry %s is not in an earlier " \
                              "layer" % (prefix.loc(w),)
    return None


def max_independent_set_exact(prefix, X):
    """Exact independence number of G[X] with a witness."""
    order, masks = induced_masks(prefix, X)
    mis = [order[i]
           for i in kernels.max_independent_set(len(order), masks, 0)]
    ok = not any(prefix.adjacent(u, v)
                 for i, u in enumerate(mis) for v in mis[i + 1:])
    cert = Certificate(
        kind="stable",
        data={"stable": sorted(prefix.loc(g) for g in mis)},
        verdict=ok,
        bound=len(mis),
    )
    return len(mis), cert


def shortest_hole_up_to(prefix):
    """Shortest chordless cycle of length in [4, ell], or None.  Exact:
    ``kernels.shortest_hole`` peels the vertices no hole shorter than ell
    needs, scans what is left, and then looks for a hole of length ell.

    The kernel first scans G[L_1] alone for a 4-hole, at every ell, read
    off the record by ``induced_adjacency``.  A hole of an induced
    subgraph is a hole of G, and none is shorter than 4, so a 4-hole there
    is the answer on any record; layer 1 of a built ell = 4 prefix is a
    4-cycle, so ``verify`` then builds no adjacency of the whole prefix.
    When the probe finds none, the whole graph is scanned as above."""
    size = prefix.layer_sizes[0]
    if kernels.shortest_hole(
            size, induced_adjacency(prefix, range(size))[1], 4):
        return 4
    adj = prefix.adjacency()
    return kernels.shortest_hole(prefix.n_vertices, adj, prefix.ell)


def layer_minor_check(prefix):
    """Certify that the layers form a clique minor (tw >= t-1).

    Each layer induces a cycle (connected); the certificate lists one
    witness edge for every pair of layers: the first ``up`` entry in id
    order that joins them.  The scan stops after the vertex at which every
    pair i < j has its witness.  Later entries could only add pairs that
    are never reported, so the witnesses are those of a full scan.
    """
    t = prefix.num_layers
    layer = prefix._layers()
    witness = {}
    need = t * (t - 1) // 2
    found = 0
    for v, ups in enumerate(prefix.up):
        for w in ups:
            pair = (layer[w], layer[v])
            if pair not in witness:
                witness[pair] = (w, v)
                found += pair[0] < pair[1]
        if found == need:
            break
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
    return Certificate(kind="minor", data=data, verdict=not missing,
                       bound=t - 1)


def transversal_chordality_check(prefix, X):
    """Perfect elimination ordering of a one-per-layer transversal.

    Removes the highest-layer vertex first and verifies it is simplicial
    at each step; the resulting order certifies chordality of G[X].  The
    tests' oracle for the rule-5 proof that every transversal is chordal
    (``wheel.upward_violation``), kept here because the command
    benchmark's trace wraps it by this name.
    """
    layers = {}
    for g in X:
        l = prefix.layer_of(g)
        if l in layers:
            raise ValueError(
                "transversal has two vertices in layer %d" % l)
        layers[l] = g
    adjacent = prefix.adjacent
    remaining = set(X)
    order = []
    ok = True
    for l in sorted(layers, reverse=True):
        v = layers[l]
        nb = [u for u in remaining if u != v and adjacent(v, u)]
        if any(not adjacent(a, b) for i, a in enumerate(nb)
               for b in nb[i + 1:]):
            ok = False
            break
        order.append(v)
        remaining.discard(v)
    return Certificate(
        kind="peo",
        data={"order": [list(prefix.loc(g)) for g in order]},
        verdict=ok and not remaining,
        bound=None,
    )


# -- vertical and augmenting paths ----------------------------------------
# A vertical path p_i, p_{i+1}, ... is the list of its vertex ids, one per
# layer from layer_of(p_i) up, each a child of the one before.

def _is_augmenting(prefix, v, u, X):
    """Whether the arc vu is augmenting for X: N^up(u) and N^up[v] meet X
    in the same vertices."""
    return set(prefix.up[u]) & X == ({v} | set(prefix.up[v])) & X


def augmenting_child(prefix, v, X):
    """The smallest-position child u of v with an augmenting arc vu,
    falling back to the first child."""
    kids = prefix.children(v)
    if not kids:
        raise ValueError("vertex %s has no children" % (prefix.loc(v),))
    return next((u for u in kids if _is_augmenting(prefix, v, u, X)),
                kids[0])


def augmenting_path(prefix, v, X, t_max):
    """The augmenting path out of v, each vertex followed by its
    ``augmenting_child``, up to layer t_max (just [v] when v lies at or
    above it); ``augmenting_child`` is deterministic, so none is kept."""
    path = [v]
    for _ in range(prefix.layer_of(v), t_max):
        v = augmenting_child(prefix, v, X)
        path.append(v)
    return path


# -- separations ----------------------------------------------------------

def _forward_segment(prefix, a, b):
    """Vertex set of the directed path from a to b on their layer cycle."""
    layer = prefix.layer_of(a)
    start = prefix.offsets[layer - 1]
    size = prefix.layer_sizes[layer - 1]
    pa, pb = a - start, b - start
    length = (pb - pa) % size + 1
    return [start + (pa + d) % size for d in range(length)]


def build_AB(prefix, P, Q, X):
    """The separation (A(P,Q), B(P,Q)) over layers 1..m, where m is the
    common truncation layer of the two paths, restricted to X.

    X is a sorted vertex sequence; members above layer m lie on neither
    side.  Beyond the base segment's up-closure no vertex is tested one by
    one: layers 1..i are one slice of X, and in a later layer j two bisects
    find the forward segment p_j..q_j in X.  It is one id range, or two
    when it wraps past the layer's first vertex; A takes those slices and
    B the rest of the layer's slice, plus p_j and q_j when they lie in X.
    """
    i = prefix.layer_of(P[0])
    if prefix.layer_of(Q[0]) != i:
        raise ValueError("paths start in different layers (%d vs %d)"
                         % (i, prefix.layer_of(Q[0])))
    if len(P) != len(Q):
        raise ValueError("paths end in different layers (%d vs %d)"
                         % (i + len(P) - 1, i + len(Q) - 1))
    m = i + len(P) - 1
    closure = set()
    for u in _forward_segment(prefix, P[0], Q[0]):
        closure.add(u)
        closure.update(prefix.up[u])
    hi = bisect_left(X, prefix.offsets[i - 1] + prefix.layer_sizes[i - 1])
    B = list(X[:hi])
    A = [x for x in B if x in closure]
    for j in range(i + 1, m + 1):
        lo, hi = hi, bisect_left(
            X, prefix.offsets[j - 1] + prefix.layer_sizes[j - 1])
        pj = P[j - i]
        qj = Q[j - i]
        a = bisect_left(X, pj, lo, hi)     # first member >= pj
        b = bisect_right(X, qj, lo, hi)    # past the last member <= qj
        if pj <= qj:
            A += X[a:b]
            B += X[lo:a]
            B += X[b:hi]
        else:                              # the segment wraps: b <= a
            A += X[lo:b]
            A += X[a:hi]
            B += X[b:a]
        if a < hi and X[a] == pj:
            B.append(pj)
        if b > lo and X[b - 1] == qj:
            B.append(qj)
    return Separation(frozenset(A), frozenset(B))


def verify_separation_on_prefix(prefix, sep, vertices):
    """Independent separation check of G[X] for X = ``vertices``: A and B
    cover X and no edge of the record inside X joins A-only to B-only.
    Every edge is a vertex's cycle successor or one of its ``up`` entries,
    so only the A-only and B-only vertices are read, each looked up from
    both sides.

    B-only is X - A, and A and B cover X when X - A lies in B; A-only is
    then X - B.  X is copied only when it is not a set."""
    vs = vertices if isinstance(vertices, (set, frozenset)) else set(vertices)
    b_only = vs - sep.A
    if not b_only <= sep.B:
        return False
    a_only = vs - sep.B
    layer = prefix._layers()
    offsets, sizes, up = prefix.offsets, prefix.layer_sizes, prefix.up

    def joins(side, other):
        for g in side:
            start = offsets[layer[g] - 1]
            if (start + (g + 1 - start) % sizes[layer[g] - 1] in other
                    or not other.isdisjoint(up[g])):
                return True
        return False

    return not (joins(a_only, b_only) or joins(b_only, a_only))


def _fair_pair(prefix, pairs, order):
    """The first (P, Q, build_AB(P, Q)) among the candidate path pairs whose
    A-side holds at least a third of the target set ``order`` (sorted)."""
    for P, Q in pairs:
        sep = build_AB(prefix, P, Q, order)
        if 3 * len(sep.A) >= len(order):
            return P, Q, sep
    raise ProgressError("no candidate path pair gives a fair separation")


def order_bound(ell, f, k):
    """The separation-order bound 2F(k+1) + (ell+1)k - 2 for a target set
    with clique number k; infinite when F(k+1) is."""
    F1 = f.cumulative()(k + 1)
    if F1 == math.inf:
        return math.inf
    return 2 * F1 + (ell + 1) * k - 2


@dataclass
class BalancedSeparationResult:
    sep: Separation          # restricted to X
    n: int
    order: int
    bound_applies: bool      # both maintained tails fully augmenting
    balanced: bool
    iterations: int


def balanced_separation(prefix, X):
    """A balanced separation of G[X], following the local-improvement loop:
    keep a fair separation, and while the A-side is too big either drop the
    base layer or reroute through a parented interior vertex.

    The order is within ``order_bound(ell, f, omega(G[X]))`` when every
    arc after the first, on the final P and on the final Q, is augmenting
    (``bound_applies``); callers that check the bound compute the clique
    number themselves.

    Every path, the initial two and each reroute, climbs to t_max, the
    layer of X's largest id, taken once, and every pair is chosen by the
    one fairness test ``_fair_pair``.  A progress monitor requires each
    step to raise the base layer or, at the same base layer, shorten the
    segment between the two paths, and raises ProgressError otherwise.
    """
    if not X:
        raise ValueError("target set is empty")
    n = len(X)

    if n <= 5:
        sep = Separation(frozenset(X), frozenset(X))
        return BalancedSeparationResult(sep, n, sep.order, True, True, 0)

    order = sorted(X)
    # the paths run to the top layer that meets X: global ids run layer by
    # layer, so the largest id lies in it
    t_max = prefix.layer_of(order[-1])
    # augmenting paths out of two non-adjacent first-layer vertices
    P = augmenting_path(prefix, prefix.vid(1, 0), X, t_max)
    Q = augmenting_path(prefix, prefix.vid(1, 2), X, t_max)
    P, Q, sep = _fair_pair(prefix, ((P, Q), (Q, P)), order)
    i = 1              # the base layer, layer_of(P[0])
    iterations = 0
    monitor = (0, 0)   # (i, -len(seg)) must rise at every step
    while 3 * len(sep.A - sep.B) > 2 * n:
        iterations += 1
        seg = _forward_segment(prefix, P[1], Q[1])
        if (i, -len(seg)) <= monitor:
            raise ProgressError("no progress at layer %d, segment %d"
                                % (i, len(seg)))
        monitor = (i, -len(seg))
        u = next((u for u in seg[1:-1] if prefix.parent[u] >= 0), None)
        if u is None:
            P, Q = P[1:], Q[1:]
            i += 1
            sep = build_AB(prefix, P, Q, order)
        else:
            R = [prefix.parent[u]] + augmenting_path(prefix, u, X, t_max)
            P, Q, sep = _fair_pair(prefix, ((P, R), (R, Q)), order)
    aug_ok = all(_is_augmenting(prefix, v, u, X)
                 for path in (P, Q) for v, u in zip(path[1:], path[2:]))
    balanced = (3 * len(sep.A - sep.B) <= 2 * n
                and 3 * len(sep.B - sep.A) <= 2 * n)
    return BalancedSeparationResult(sep, n, sep.order, aug_ok, balanced,
                                    iterations)
