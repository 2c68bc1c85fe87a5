"""Certified width bounds for wheel prefixes.

Treewidth lower bounds come from the layer clique minor, upper bounds from
the separation-order formula (with the 15x balanced-separator constant) or
from a min-degree elimination decomposition; tree-independence lower
bounds combine the minor with the chordal-transversal argument.  The tiny
exact treewidth solver that cross-checks them is ``kernels.treewidth_exact``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from . import kernels, structure
from .functions import INF
from .wheel import SizeCapError, build_prefix

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
        """The three decomposition axioms, checked structurally."""
        nodes = range(len(self.bags))
        holds = {}                   # holds[v] = indices of the bags with v
        for i, bag in enumerate(self.bags):
            for v in bag:
                holds.setdefault(v, set()).add(i)
        if not all(v in holds for v in vertices):
            return False
        empty = frozenset()
        for (u, v) in graph_edges:
            if not holds.get(u, empty) & holds.get(v, empty):
                return False
        # tree shape: connected and acyclic on the node set
        if len(self.edges) != len(self.bags) - 1:
            return False
        nbr = {i: set() for i in nodes}
        for (i, j) in self.edges:
            nbr[i].add(j)
            nbr[j].add(i)
        seen = {0} if self.bags else set()
        stack = [0] if self.bags else []
        while stack:
            i = stack.pop()
            for j in nbr[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(self.bags):
            return False
        # per-vertex bag sets induce subtrees
        for mine in holds.values():
            root = next(iter(mine))
            reach = {root}
            stack = [root]
            while stack:
                i = stack.pop()
                for j in nbr[i]:
                    if j in mine and j not in reach:
                        reach.add(j)
                        stack.append(j)
            if reach != mine:
                return False
        return True

    def to_dict(self, loc):
        return {
            "bags": [sorted(map(loc, b)) for b in self.bags],
            "edges": [list(e) for e in self.edges],
            "width": self.width,
        }


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
    heap = sorted((len(s), v) for v, s in nbr.items())   # a valid heap
    step = {}                        # step[v] = when v was eliminated
    bags = []                        # bags[i] = bag of the i-th elimination
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
    # a parent comes after its children, so one pass merges bottom-up
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


def independent_width(prefix, decomposition):
    """max over bags of the exact independence number."""
    best = 0
    for bag in decomposition.bags:
        a, _ = structure.max_independent_set_exact(prefix, bag)
        best = max(best, a)
    return best


def ta_lower_bound_certified(prefix):
    """ceil(t / omega) as a tree-independence lower bound, with certificate.

    The layer clique minor forces some bag of any decomposition to meet
    every layer; any one-per-layer transversal Y of that bag is chordal,
    so it splits into at most omega(Y) <= omega color classes and contains
    a stable set of size >= t / omega.  The certificate carries the minor,
    a sample transversal's elimination ordering, its coloring, and the
    resulting stable set, all independently re-checked.
    """
    t = prefix.num_layers
    minor = structure.layer_minor_check(prefix)
    if not minor.verdict:
        raise ValueError("layer clique-minor check failed; no ta bound")
    k, clique_cert = structure.clique_number_exact(prefix)
    bound = -(-t // k)
    path = structure.vertical_path_first_child(prefix, prefix.vid(1, 0), t)
    peo = structure.transversal_chordality_check(prefix, set(path.vertices))
    classes = structure.transversal_coloring(prefix, peo)
    stable = max(classes.values(), key=len)
    adj = prefix.adjacency()
    stable_ok = all(v not in adj[u]
                    for i, u in enumerate(stable) for v in stable[i + 1:])
    verdict = (minor.verdict and clique_cert.verdict and peo.verdict
               and stable_ok and len(classes) <= k
               and len(stable) >= -(-t // len(classes)) >= bound)
    cert = structure.Certificate(
        kind="ta-lower",
        data={
            "t": t,
            "omega": k,
            "minor": minor.to_dict(),
            "clique": clique_cert.to_dict(),
            "peo": peo.to_dict(),
            "num_colors": len(classes),
            "stable": sorted(prefix.loc(g) for g in stable),
        },
        verdict=verdict,
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
    """
    adj = prefix.adjacency()
    order = list(range(prefix.n_vertices))
    rng.shuffle(order)
    chosen = set()
    values = {}
    if max_omega == 0:
        return values
    for v in order:
        w = kernels.clique_size_within(adj, adj[v] & chosen, max_omega)
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
