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
from .functions import INF
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
    (Bodlaender & Koster, Inf. Comput. 2010), ties to the smallest id.

    Each bag is a vertex plus its remaining neighbours and hangs below the
    bag of its earliest-eliminated later neighbour; the component roots are
    chained.  A bag then merges into its parent while the union is no wider
    than the widest bag.  The name predates this route and stays because
    the benchmark's trace wraps the function by it.
    """
    xset = frozenset(X)
    if not xset:
        raise ValueError("target set is empty")
    adj = prefix.adjacency()
    nbr = {v: adj[v] & xset for v in xset}
    # buckets[d] is a min-heap of ids, filled in ascending id order so that
    # each starts as a heap.  A remaining vertex always has an entry at its
    # current degree; an entry at any other degree, or for an eliminated
    # vertex, is dropped when it surfaces.
    buckets = [[] for _ in range(max(map(len, nbr.values())) + 1)]
    for v in sorted(xset):
        buckets[len(nbr[v])].append(v)
    step = {}                        # step[v] = when v was eliminated
    bags = []                        # bags[i] = (v, *later) of step i
    d = 0
    while nbr:
        while True:
            if not buckets[d]:
                d += 1
                continue
            v = heapq.heappop(buckets[d])
            if v in nbr and len(nbr[v]) == d:
                break
        later = nbr.pop(v)
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
    del nbr, buckets
    # the parent is the earliest step among the later vertices
    parent = [min(map(step.__getitem__, bag[1:])) if len(bag) > 1 else None
              for bag in bags]
    del step
    roots = [i for i, p in enumerate(parent) if p is None]
    for r, nxt in zip(roots, roots[1:]):
        parent[r] = nxt
    # a parent comes after its children, so one pass merges bottom-up; a
    # bag becomes a set only when another merges into it
    widest = max(map(len, bags))
    into = {}
    for i, p in enumerate(parent):
        if p is not None:
            union = set(bags[p])
            union.update(bags[i])
            if len(union) <= widest:
                bags[p] = union
                bags[i] = None
                into[i] = p
    kept = [i for i in reversed(range(len(bags))) if i not in into]
    index = {i: k for k, i in enumerate(kept)}
    for i in reversed(range(len(bags))):
        if i in into:
            index[i] = index[into[i]]
    return TreeDecomposition(
        [frozenset(bags[i]) for i in kept],
        [(index[parent[i]], index[i]) for i in kept if parent[i] is not None])


def independent_width(prefix, decomposition):
    """max over bags of the exact independence number.

    The bags are searched largest first, each only for a set larger than
    the best so far, which the search takes as its floor; once a bag is no
    larger than the best, no later one can beat it.  Each improving set is
    re-checked for independence in the prefix.
    """
    adj = prefix.adjacency()
    best = 0
    for bag in sorted(decomposition.bags, key=len, reverse=True):
        if len(bag) <= best:
            break
        order, local = structure.induced_adjacency(prefix, bag)
        found = kernels.max_independent_set(len(order), local, best)
        if found:
            stable = [order[i] for i in found]
            if any(v in adj[u]
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
    violation as the detail.
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
        verdict=minor.verdict and clique_cert.verdict and detail is None,
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
    graph and is reported out of scope.
    """
    from .functions import _parse_g, parse_f_spec
    if k_max < 3:
        raise ValueError("k_max must be >= 3, got %d" % k_max)
    g = _parse_g(g_spec)
    f = parse_f_spec("question84:" + g_spec)
    F = f.cumulative()
    rows = [{"k": 2, "status": "out-of-scope",
             "note": "needs an external triangle-free graph"}]
    ok = True
    for k in range(3, k_max + 1):
        t = F(k)
        row = {"k": k, "t": t, "g_k": g(k)}
        try:
            prefix = build_prefix(ell, f, t, size_cap=size_cap)
        except SizeCapError as exc:
            row.update(status="size-cap", note=str(exc))
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
    built and certified once.
    """
    from .functions import parse_f_spec
    if c_max < 1:
        raise ValueError("c_max must be >= 1, got %d" % c_max)
    f = parse_f_spec("cumulative:%s" % F_spec
                     if not F_spec.startswith("cumulative:") else F_spec)
    F = f.cumulative()
    rows = []
    ok = True
    certified = {}   # t -> (verdict without the c test, row fields)
    for c in range(1, c_max + 1):
        k = 1
        while F(k) != INF and F(k) < c * k:
            k += 1
        if F(k) == INF:
            rows.append({"c": c, "status": "FAIL",
                         "note": "no finite F(k) >= ck"})
            ok = False
            continue
        t = F(k)
        row = {"c": c, "k": k, "t": t}
        if t not in certified:
            try:
                prefix = build_prefix(ell, f, t, size_cap=size_cap)
            except SizeCapError as exc:
                row.update(status="size-cap", note=str(exc))
                rows.append(row)
                ok = False
                continue
            ta_lo, ta_cert = ta_lower_bound_certified(prefix)
            omega = ta_cert.data["omega"]
            tw_up = tw_upper_bound_formula(ell, f, omega)
            # ta_cert.verdict includes the clique certificate's verdict
            certified[t] = (ta_cert.verdict and tw_up != INF, dict(
                n=prefix.n_vertices, omega=omega, ta_lower=ta_lo,
                tw_upper=tw_up if tw_up != INF else "inf"))
        verdict, fields = certified[t]
        good = verdict and fields["ta_lower"] >= c
        row.update(fields, certified=good, status="ok" if good else "FAIL")
        rows.append(row)
        ok = ok and good
    return {
        "demo": "conjecture85",
        "F": F_spec, "ell": ell, "c_max": c_max, "size_cap": size_cap,
        "rows": rows,
        "all_certified": ok,
        "summary": _table(rows, ["c", "k", "t", "n", "omega", "ta_lower",
                                 "tw_upper", "status"]),
    }


def _sample_clique_bounded(prefix, rng, max_omega):
    """A random induced subgraph with clique number <= max_omega, by a
    greedy clique-avoiding pass over a shuffled vertex order.

    Returns ``{v: 1 + omega(G[N(v) & chosen before v])}`` over the accepted
    vertices v.  A vertex is accepted when that neighbourhood has no clique
    of size max_omega, so every value is exact.  Every clique of the sample
    lies in its last-added vertex's closed neighbourhood among the vertices
    chosen before it, so the largest value is the sample's clique number.

    The clique number of a set S is read off the upward lists, by the route
    of ``structure.clique_number_exact``: the largest of 1 + |up[u] & S|
    over u in S and, where the cycle successor u+ is in S too,
    2 + |up[u] & up[u+] & S|.  It is exact on a built prefix, whose layers
    have >= 4 vertices and whose upward lists are cliques of earlier
    layers.
    """
    adj = prefix.adjacency()
    up = prefix.up
    succ = []                   # succ[u] = u+, u's cycle successor
    for start, size in zip(prefix.offsets, prefix.layer_sizes):
        succ += range(start + 1, start + size)
        succ.append(start)
    order = list(range(prefix.n_vertices))
    rng.shuffle(order)
    chosen = set()
    values = {}
    if max_omega == 0:
        return values
    for v in order:
        nb = adj[v] & chosen
        w = 0                   # min(max_omega, omega(G[nb]))
        for u in nb:
            cut = nb.intersection(up[u])
            k = 1 + len(cut)
            if succ[u] in nb:
                k = max(k, 2 + len(cut.intersection(up[succ[u]])))
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

    Builds f(i) = min(i, c+1) with t+1 layers, certifies omega and the
    minor bound, then runs balanced separation on ``samples`` random
    induced subgraphs with clique number <= c-1 and checks every achieved
    order against 2F(k+1) + (ell+1)k - 2.  Each sample's k is the largest
    value the sampler returns: every clique has a last-added vertex, whose
    value counts it, so no clique search over the sample is needed.
    """
    from .functions import parse_f_spec
    if c < 2:
        raise ValueError("c must be >= 2, got %d" % c)
    if ell < 5:
        raise ValueError("ell must be >= 5, got %d" % ell)
    if t < 0:
        raise ValueError("t must be >= 0, got %d" % t)
    f = parse_f_spec("cap:%d" % (c + 1))
    prefix = build_prefix(ell, f, t + 1, size_cap=size_cap)
    omega, cert = structure.clique_number_exact(prefix)
    tw_lo, minor = tw_lower_bound_minor(prefix)
    rng = random.Random(seed)
    rows = []
    ok = omega == c + 1 and cert.verdict and minor.verdict and tw_lo >= t
    for s in range(samples):
        values = _sample_clique_bounded(prefix, rng, c - 1)
        if not values:
            rows.append({"sample": s, "size": 0, "k": 0, "order": 0,
                         "bound": 0, "status": "ok"})
            continue
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
