"""Certified width bounds for wheel prefixes.

Treewidth lower bounds come from the layer clique minor, upper bounds from
the separation-order formula (with the 15x balanced-separator constant) or
from a min-degree elimination decomposition; tree-independence lower
bounds combine the minor with the chordal-transversal argument.  The tiny
exact treewidth solver that cross-checks them is ``kernels.treewidth_exact``.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field

from . import kernels, structure
from .functions import INF, _parse_g, parse_f_spec
from .wheel import SizeCapError, build_prefix, upward_violation

SEPARATOR_CONSTANT = 15


@dataclass
class TreeDecomposition:
    """Bags indexed by node; ``edges`` are index pairs forming a tree."""

    bags: list                       # list of frozensets of vertices
    edges: list = field(default_factory=list)

    @property
    def width(self):
        return max(len(b) for b in self.bags) - 1

    def validate(self, vertices, graph_edges):
        """The three decomposition axioms, in O(sum of bag sizes + edges).

        The bags form a tree when there are one fewer tree edges than bags
        and a search from bag 0 reaches every bag.  In a tree, a vertex's
        bags form a subtree exactly when they hold one more bag than the
        tree edges both of whose bags hold the vertex.  Two subtrees meet
        exactly when one holds the other's top, its bag nearest bag 0, so
        an edge uv is covered when one end lies in the other's top bag."""
        bags = self.bags
        nodes = range(len(bags))
        if len(self.edges) != len(bags) - 1 or not all(
                i in nodes and j in nodes for (i, j) in self.edges):
            return False
        nbr = [[] for _ in bags]
        for (i, j) in self.edges:
            nbr[i].append(j)
            nbr[j].append(i)
        order = [0]                  # the bags in search order from bag 0
        seen = [False] * len(bags)
        seen[0] = True
        for i in order:
            for j in nbr[i]:
                if not seen[j]:
                    seen[j] = True
                    order.append(j)
        if len(order) != len(bags):
            return False
        # count[v] = bags holding v minus tree edges both of whose bags do
        count = Counter(itertools.chain.from_iterable(bags))
        count.subtract(itertools.chain.from_iterable(
            bags[i] & bags[j] for (i, j) in self.edges))
        if any(c != 1 for c in count.values()):
            return False
        top = {}                     # top[v] = v's bag nearest bag 0
        for i in reversed(order):
            top.update(dict.fromkeys(bags[i], bags[i]))
        if not all(v in top for v in vertices):
            return False
        none = frozenset()
        return all(v in top.get(u, none) or u in top.get(v, none)
                   for (u, v) in graph_edges)


def tw_upper_bound_formula(ell, f, omega):
    """15 * (2 F(omega+1) + (ell+1) omega - 2), or infinity.

    Uses the separation-order bound 2F(k+1) + (ell+1)k - 2 with the 15x
    balanced-separator-to-treewidth constant; conservative by a factor of
    roughly two against the sharpest stated form.
    """
    if omega < 1:
        raise ValueError("omega must be >= 1, got %d" % omega)
    return SEPARATOR_CONSTANT * structure.order_bound(ell, f, omega)


def tw_lower_bound_minor(prefix):
    """t-1 with the layer clique-minor certificate; the bound holds only
    when the certificate's verdict is true."""
    cert = structure.layer_minor_check(prefix)
    return cert.bound, cert


def decomposition_from_separators(prefix, X):
    """A valid tree decomposition of G[X] by min-degree elimination
    (Bodlaender & Koster, Inf. Comput. 2010) on the local ids of
    ``structure.induced_adjacency``, ties to the smallest id.

    Each bag is a vertex plus its remaining neighbours and hangs below the
    bag of its earliest-eliminated later neighbour; the component roots are
    chained.  A bag then merges into its parent while the union is no wider
    than the widest bag.  The name predates this route and stays because
    the benchmark's trace wraps the function by it.

    The union's size is counted, not built.  Before any merge, a bag less
    its own vertex lies in its parent's bag: the elimination makes its
    later vertices a clique, and none of them goes before the parent's
    vertex.  A root bag is its vertex alone, so the roots of different
    components share nothing.  A bag that has absorbed the vertices M
    thus adds its own vertex and M to its parent.  These were all
    eliminated before the parent's step, so none lies in the parent's own
    bag, and no vertex is absorbed twice, so none came from another child:
    the union has |parent| + 1 + |M| vertices, on a tree edge and on the
    root chain alike.  M is kept as a list per bag, and each kept bag
    becomes a frozenset of global ids once, at the end.

    The next vertex comes from a bucket queue, one min-heap of local ids
    per degree, whose scan restarts one degree below the last eliminated
    vertex.  An eliminated vertex's entry of the local adjacency becomes
    None, and each bag is held as a tuple of local ids until the end.
    """
    order, nbr = structure.induced_adjacency(prefix, X)
    if not order:
        raise ValueError("target set is empty")
    # buckets[d] is a min-heap of ids, filled in order, so each starts as a
    # heap; a remaining vertex always has an entry at its current degree,
    # and other entries are dropped.  nbr[v] is None once v is eliminated.
    buckets = [[] for _ in range(max(map(len, nbr)) + 1)]
    for v, nv in enumerate(nbr):
        buckets[len(nv)].append(v)
    step = [0] * len(order)          # step[v] = when v was eliminated
    bags = []                        # bags[i] = (v, *later) of step i
    d = 0
    while len(bags) < len(order):
        while True:
            if not buckets[d]:
                d += 1
                continue
            v = heapq.heappop(buckets[d])
            if nbr[v] is not None and len(nbr[v]) == d:
                break
        later, nbr[v] = nbr[v], None
        step[v] = len(bags)
        bags.append((v, *later))
        for u in later:
            nu = nbr[u]
            du = len(nu)
            nu |= later
            nu.discard(u)
            nu.discard(v)
            if len(nu) != du:
                du = len(nu)
                while len(buckets) <= du:
                    buckets.append([])
                heapq.heappush(buckets[du], u)
        # now nbr[u] holds later - {u} for each u in later, so no
        # remaining degree is below d - 1
        d = max(d - 1, 0)
    # the parent is the earliest step among the later vertices
    parent = [min(map(step.__getitem__, bag[1:])) if len(bag) > 1 else None
              for bag in bags]
    roots = [i for i, p in enumerate(parent) if p is None]
    for r, nxt in zip(roots, roots[1:]):
        parent[r] = nxt
    # a parent comes after its children, so one pass merges bottom-up;
    # size[i] counts bag i with the vertices merged[i] it has absorbed
    widest = max(map(len, bags))
    size = list(map(len, bags))
    merged = {}
    into = {}
    for i, p in enumerate(parent):
        if p is not None and size[p] + 1 + len(merged.get(i, ())) <= widest:
            mine = merged.pop(i, [])
            mine.append(bags[i][0])
            size[p] += len(mine)
            merged.setdefault(p, []).extend(mine)
            into[i] = p
    kept = [i for i in reversed(range(len(bags))) if i not in into]
    index = {i: k for k, i in enumerate(kept)}
    for i in reversed(range(len(bags))):
        if i in into:
            index[i] = index[into[i]]
    return TreeDecomposition(
        [frozenset(map(order.__getitem__,
                       itertools.chain(bags[i], merged.get(i, ()))))
         for i in kept],
        [(index[parent[i]], index[i]) for i in kept if parent[i] is not None])


def independent_width(prefix, decomposition):
    """max over bags of the exact independence number.

    The bags are searched largest first, each only for a set larger than
    the best so far, which the search takes as its floor; once a bag is no
    larger than the best, no later one can beat it.  Each bag is cut to
    bitmasks by ``structure.induced_masks`` for
    ``kernels.max_independent_set``, and each improving set is re-checked
    for independence on the record (``WheelPrefix.adjacent``), not on the
    bitmasks the search read.
    """
    best = 0
    for bag in sorted(decomposition.bags, key=len, reverse=True):
        if len(bag) <= best:
            break
        order, masks = structure.induced_masks(prefix, bag)
        found = kernels.max_independent_set(len(order), masks, best)
        if found:
            stable = [order[i] for i in found]
            if any(prefix.adjacent(u, v)
                   for i, u in enumerate(stable) for v in stable[i + 1:]):
                raise RuntimeError("the independent set search returned "
                                   "adjacent vertices")
            best = len(stable)
    return best


def ta_lower_bound_certified(prefix):
    """ceil(t / omega) as a tree-independence lower bound, with certificate.

    The layer clique minor forces some bag of any decomposition to meet
    every layer; any one-per-layer transversal Y of that bag is chordal,
    so it splits into at most omega(Y) <= omega color classes and contains
    a stable set of size >= t / omega.  omega comes from
    ``structure.clique_number_exact``, whose upper side is proved from the
    upward lists, not searched for.  Rule 5 (``wheel.upward_violation``)
    proves every transversal chordal at once, so the certificate carries
    the minor, the clique certificate and rule 5's verdict, with its first
    violation as the detail.  A failed minor or clique certificate raises
    ValueError, so the certificate's verdict is rule 5's.
    """
    t = prefix.num_layers
    minor = structure.layer_minor_check(prefix)
    if not minor.verdict:
        raise ValueError("layer clique-minor check failed; no ta bound")
    k, clique_cert = structure.clique_number_exact(prefix)
    if not clique_cert.verdict:
        raise ValueError("clique certificate failed; no ta bound")
    bound = -(-t // k)
    detail = upward_violation(prefix)
    cert = structure.Certificate(
        kind="ta-lower",
        data={
            "t": t,
            "omega": k,
            "minor": minor.to_dict(),
            "clique": clique_cert.to_dict(),
            "chordal_transversals": {"by": "rule 5",
                                     "passed": detail is None,
                                     "detail": detail or ""},
        },
        verdict=detail is None,
        bound=bound,
    )
    return bound, cert


# -- counterexample demos -------------------------------------------------

def _table(rows, columns):
    widths = [max(len(str(r.get(c, ""))) for r in rows + [{c: c}])
              for c in columns]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(w)
                               for c, w in zip(columns, widths)))
    return "\n".join(lines)


def demo_question84(g_spec, ell, k_max, size_cap):
    """Wheels with clique number exactly k and treewidth >= g(k).

    Builds the profile F(k) = max(F(k-1)+1, g(k)+1), then for each k in
    3..k_max certifies omega = k and tw >= F(k)-1 >= g(k) on the
    t = F(k)-layer prefix.  The k=2 case needs an external triangle-free
    graph and is reported out of scope.  F increases, so every t after
    the first one past the size cap fails at the same layer: its row takes
    that note, unbuilt.
    """
    if k_max < 3:
        raise ValueError("k_max must be >= 3, got %d" % k_max)
    g = _parse_g(g_spec)
    f = parse_f_spec("question84:" + g_spec)
    F = f.cumulative()
    rows = [{"k": 2, "status": "out-of-scope",
             "note": "needs an external triangle-free graph"}]
    ok = True
    capped = None
    for k in range(3, k_max + 1):
        t = F(k)
        row = {"k": k, "t": t, "g_k": g(k)}
        if capped is None:
            try:
                prefix = build_prefix(ell, f, t, size_cap=size_cap)
            except SizeCapError as exc:
                capped = str(exc)
        if capped is not None:
            row.update(status="size-cap", note=capped)
            rows.append(row)
            ok = False
            continue
        omega, cert = structure.clique_number_exact(prefix)
        tw_lo, minor = tw_lower_bound_minor(prefix)
        good = (omega == k and cert.verdict and minor.verdict
                and tw_lo >= g(k))
        row.update(n=prefix.n_vertices, omega=omega, tw_lower=tw_lo,
                   certified=good, status="ok" if good else "FAIL")
        rows.append(row)
        ok = ok and good
    return {
        "demo": "question84",
        "g": g_spec, "ell": ell, "k_max": k_max, "size_cap": size_cap,
        "rows": rows,
        "all_certified": ok,
        "summary": _table(rows, ["k", "t", "g_k", "n", "omega",
                                 "tw_lower", "status"]),
    }


def demo_conjecture85(F_spec, ell, c_max, size_cap):
    """Wheels of arbitrarily large tree-independence number with the
    treewidth upper-bound formula staying finite.

    For each c <= c_max, takes the smallest k with F(k) >= ck, builds the
    t = F(k)-layer prefix and certifies ta >= ceil(t/k) >= c next to the
    finite formula value.  Rows with the same t share one prefix, which is
    built and certified once; t never falls down the rows, so each t after
    the first one past the size cap takes its note, unbuilt.

    The search for k gives up, with a FAIL row, once F(k) passes
    size_cap // ell while still below ck: every layer holds at least ell
    vertices and F only grows, so no t it could still reach fits under
    the cap.  Without that stop an F below ck for every k, such as
    poly:0 or poly:1 against c = 2, would be searched forever.
    """
    if c_max < 1:
        raise ValueError("c_max must be >= 1, got %d" % c_max)
    f = parse_f_spec("cumulative:%s" % F_spec
                     if not F_spec.startswith("cumulative:") else F_spec)
    F = f.cumulative()
    # build_prefix's own check, made before size_cap // ell is taken
    if ell < 4:
        raise ValueError("ell must be >= 4, got %d" % ell)
    rows = []
    ok = True
    # t -> (verdict without the c test, row fields)
    certified = {}
    # (None, the size-cap fields) of the first t past the cap
    capped = None
    # the most layers that can fit under the cap, at >= ell vertices each
    fits = size_cap // ell
    for c in range(1, c_max + 1):
        k = 1
        while F(k) != INF and F(k) < c * k and F(k) <= fits:
            k += 1
        if F(k) == INF or F(k) < c * k:
            rows.append({"c": c, "status": "FAIL", "note": (
                "no finite F(k) >= ck" if F(k) == INF else
                "no F(k) >= ck up to size_cap // ell = %d" % fits)})
            ok = False
            continue
        t = F(k)
        row = {"c": c, "k": k, "t": t}
        rows.append(row)
        if capped is None and t not in certified:
            try:
                prefix = build_prefix(ell, f, t, size_cap=size_cap)
            except SizeCapError as exc:
                capped = (None, dict(status="size-cap", note=str(exc)))
            else:
                ta_lo, ta_cert = ta_lower_bound_certified(prefix)
                omega = ta_cert.data["omega"]
                tw_up = tw_upper_bound_formula(ell, f, omega)
                # a failed minor or clique certificate raises, so the
                # verdict is rule 5's
                certified[t] = (ta_cert.verdict and tw_up != INF, dict(
                    n=prefix.n_vertices, omega=omega, ta_lower=ta_lo,
                    tw_upper=tw_up if tw_up != INF else "inf"))
        verdict, fields = capped or certified[t]
        row.update(fields)
        if verdict is None:
            ok = False
            continue
        good = verdict and fields["ta_lower"] >= c
        row.update(certified=good, status="ok" if good else "FAIL")
        ok = ok and good
    return {
        "demo": "conjecture85",
        "F": F_spec, "ell": ell, "c_max": c_max, "size_cap": size_cap,
        "rows": rows,
        "all_certified": ok,
        "summary": _table(rows, ["c", "k", "t", "n", "omega", "ta_lower",
                                 "tw_upper", "status"]),
    }


def _sample_clique_bounded(prefix, adj, rng, max_omega):
    """A random induced subgraph with clique number <= max_omega, by a
    greedy clique-avoiding pass over a shuffled vertex order; ``adj`` is
    ``prefix.adjacency()``, which the caller builds once for all samples.

    Returns ``{v: 1 + omega(G[N(v) & chosen before v])}`` over the accepted
    vertices v.  A vertex is accepted when that neighbourhood has no clique
    of size max_omega, so every value is exact.  Every clique of the sample
    lies in its last-added vertex's closed neighbourhood among the vertices
    chosen before it, so the largest value is the sample's clique number.

    On a built prefix no cycle edge (u, u+) lies in a triangle
    (``test_no_cycle_edge_lies_in_a_triangle``): layer cycles have no
    chords, an up list holds at most one vertex of a layer, and only
    block-firsts, ell-2 >= 2 apart on their cycle, have up lists.  So a
    clique of nb = N(v) & chosen has one vertex per layer, its top vertex
    u plus part of the clique up[u], and omega(G[nb]) is the largest
    1 + |up[u] & nb| over u in nb.
    """
    up = prefix.up
    order = list(range(prefix.n_vertices))
    rng.shuffle(order)
    chosen = set()
    values = {}
    for v in order:
        nb = adj[v] & chosen
        w = 0                   # min(max_omega, omega(G[nb]))
        for u in nb:
            k = 1 + len(nb.intersection(up[u])) if up[u] else 1
            if k > w:
                w = k
                if w >= max_omega:
                    break
        if w < max_omega:
            chosen.add(v)
            values[v] = w + 1
    return values


def demo_hajebi(c, ell, t, samples, size_cap, seed=0):
    """A wheel with omega = c+1 and tw >= t whose K_c-free induced
    subgraphs all have small treewidth.

    Builds f(i) = min(i, c+1) with t+1 layers, so omega reaches c+1 only
    when t >= c and a smaller t is refused.  Certifies omega and the
    minor bound, then runs balanced separation on ``samples`` random
    induced subgraphs with clique number <= c-1 and checks every achieved
    order against 2F(k+1) + (ell+1)k - 2.  Each sample's k is the largest
    value the sampler returns: every clique has a last-added vertex, whose
    value counts it, so no clique search over the sample is needed.
    """
    if c < 2:
        raise ValueError("c must be >= 2, got %d" % c)
    if ell < 5:
        raise ValueError("ell must be >= 5, got %d" % ell)
    if t < 0:
        raise ValueError("t must be >= 0, got %d" % t)
    if t < c:
        raise ValueError("t must be >= c for omega = c+1, got c=%d t=%d"
                         % (c, t))
    f = parse_f_spec("cap:%d" % (c + 1))
    prefix = build_prefix(ell, f, t + 1, size_cap=size_cap)
    omega, cert = structure.clique_number_exact(prefix)
    tw_lo, minor = tw_lower_bound_minor(prefix)
    rng = random.Random(seed)
    adj = prefix.adjacency()
    rows = []
    ok = omega == c + 1 and cert.verdict and minor.verdict and tw_lo >= t
    for s in range(samples):
        values = _sample_clique_bounded(prefix, adj, rng, c - 1)
        k = max(values.values())
        bound = structure.order_bound(ell, f, k)
        res = structure.balanced_separation(prefix, set(values))
        within = res.order <= bound
        rows.append({
            "sample": s, "size": res.n, "k": k, "order": res.order,
            "bound": bound, "balanced": res.balanced,
            "status": "ok" if (within and res.balanced) else "FAIL",
        })
        ok = ok and within and res.balanced
    return {
        "demo": "hajebi",
        "c": c, "ell": ell, "t": t, "samples": samples, "seed": seed,
        "size_cap": size_cap,
        "n": prefix.n_vertices, "omega": omega, "tw_lower": tw_lo,
        "rows": rows,
        "all_certified": ok,
        "summary": _table(rows, ["sample", "size", "k", "order", "bound",
                                 "status"]),
    }
