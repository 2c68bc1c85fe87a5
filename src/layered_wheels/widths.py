"""Certified width bounds for wheel prefixes.

Treewidth lower bounds come from the layer clique minor, upper bounds from
the separation-order formula (with the 15x balanced-separator constant) or
from an explicitly constructed decomposition; tree-independence lower
bounds combine the minor with the chordal-transversal argument.  A tiny
exact treewidth solver serves as a cross-check oracle.
"""

from __future__ import annotations

import math
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

    def to_dict(self, loc=None):
        conv = loc if loc is not None else (lambda g: g)
        return {
            "bags": [sorted(map(conv, b)) for b in self.bags],
            "edges": [list(e) for e in self.edges],
            "width": self.width,
        }

    def to_dot(self, loc=None):
        conv = loc if loc is not None else (lambda g: g)
        lines = ["graph decomposition {", "  node [shape=box];"]
        for i, b in enumerate(self.bags):
            label = "\\n".join(str(conv(v)) for v in sorted(b))
            lines.append('  n%d [label="%s"];' % (i, label))
        for (i, j) in self.edges:
            lines.append("  n%d -- n%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass
class WidthReport:
    tw_lower: int
    tw_lower_cert: structure.Certificate
    tw_upper: float
    tw_upper_source: str             # formula | decomposition | exact
    ta_lower: int
    ta_lower_cert: structure.Certificate
    formula_inputs: tuple            # (ell, omega, F(omega+1))

    def to_dict(self):
        ell, omega, F1 = self.formula_inputs
        return {
            "tw_lower": self.tw_lower,
            "tw_lower_cert": self.tw_lower_cert.to_dict(),
            "tw_upper": self.tw_upper if self.tw_upper != INF else "inf",
            "tw_upper_source": self.tw_upper_source,
            "ta_lower": self.ta_lower,
            "ta_lower_cert": self.ta_lower_cert.to_dict(),
            "formula_inputs": {
                "ell": ell, "omega": omega,
                "F_omega_plus_1": F1 if F1 != INF else "inf",
            },
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
    """t-1 with the layer clique-minor certificate.

    If some layer pair lost all its edges (mutated input), falls back to
    the largest pairwise-linked layer subset and bounds by its size - 1.
    """
    cert = structure.layer_minor_check(prefix)
    if cert.verdict:
        return cert.bound, cert
    t = prefix.num_layers
    linked = [[False] * (t + 1) for _ in range(t + 1)]
    for key in cert.data["edges"]:
        i, j = map(int, key.split(","))
        linked[i][j] = linked[j][i] = True
    adj = [{j - 1 for j in range(1, t + 1) if linked[i][j]}
           for i in range(1, t + 1)]
    best = kernels.max_clique(t, adj)
    sub = structure.Certificate(
        kind="minor",
        data=dict(cert.data, surviving_layers=sorted(v + 1 for v in best)),
        verdict=True,
        bound=len(best) - 1,
    )
    return sub.bound, sub


def exact_treewidth_small(graph):
    """Exact treewidth of a prefix or an (n, adjacency) pair; n <= 32."""
    if hasattr(graph, "adjacency"):
        n, adj = graph.n_vertices, graph.adjacency()
    else:
        n, adj = graph
    return kernels.treewidth_exact(n, adj)


def decomposition_from_separators(prefix, X):
    """A valid tree decomposition of G[X] by recursive balanced separation.

    Each node's bag is its anchor (inherited boundary) plus the separator;
    recursion stops on cliques, parts of <= 5 vertices, or when a split
    makes no progress (single bag fallback).  Only validity is guaranteed;
    the width is whatever the recursion achieves.
    """
    xset = frozenset(X)
    if not xset:
        raise ValueError("target set is empty")
    adj = prefix.adjacency()
    bags = []
    edges = []

    def is_clique(W):
        ws = list(W)
        return all(v in adj[u] for i, u in enumerate(ws) for v in ws[i + 1:])

    def add_bag(bag, parent):
        bags.append(frozenset(bag))
        idx = len(bags) - 1
        if parent is not None:
            edges.append((parent, idx))
        return idx

    def decompose(W, anchor, parent):
        if len(W) <= 5 or is_clique(W):
            add_bag(W, parent)
            return
        try:
            res = structure.balanced_separation(prefix, W)
        except structure.ProgressError:
            add_bag(W, parent)
            return
        sep = res.sep
        T = sep.A & sep.B
        sides = [frozenset(sep.A - sep.B), frozenset(sep.B - sep.A)]
        if any(len(side | T) >= len(W) for side in sides) or not all(sides):
            add_bag(W, parent)
            return
        me = add_bag(anchor | T, parent)
        for side in sides:
            decompose(side | T, (anchor & side) | T, me)

    decompose(xset, frozenset(), None)
    # decompose refers to itself through its closure; breaking that cycle
    # frees the prefix on return instead of at the next cyclic collection
    del decompose
    return TreeDecomposition(bags, edges)


def independent_width(prefix, decomposition):
    """max over bags of the exact independence number."""
    best = 0
    for bag in decomposition.bags:
        a, _ = structure.max_independent_set_exact(prefix, bag)
        best = max(best, a)
    return best


def ta_lower_bound_certified(prefix, transversal=None):
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
    if transversal is None:
        path = structure.vertical_path_first_child(prefix, prefix.vid(1, 0), t)
        transversal = set(path.vertices)
    peo = structure.transversal_chordality_check(prefix, transversal)
    classes = structure.transversal_coloring(prefix, transversal, peo)
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


def width_report(prefix):
    """All certified bounds for one prefix, formula inputs included."""
    tw_lo, lo_cert = tw_lower_bound_minor(prefix)
    ta_lo, ta_cert = ta_lower_bound_certified(prefix)
    omega = ta_cert.data["omega"]
    tw_up = tw_upper_bound_formula(prefix.ell, prefix.f, omega)
    F1 = prefix.f.cumulative()(omega + 1)
    return WidthReport(tw_lo, lo_cert, tw_up, "formula", ta_lo, ta_cert,
                       (prefix.ell, omega, F1))


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
    from .functions import (CumulativeFunction, _parse_g,
                            slow_from_cumulative)
    if k_max < 3:
        raise ValueError("k_max must be >= 3, got %d" % k_max)
    g, g_desc = _parse_g(g_spec)
    F = CumulativeFunction.dominating(g, descriptor="question84:%s" % g_desc)
    f = slow_from_cumulative(F)
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
        "g": g_desc, "ell": ell, "k_max": k_max, "size_cap": size_cap,
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
    finite formula value.
    """
    from .functions import parse_f_spec
    f = parse_f_spec("cumulative:%s" % F_spec
                     if not F_spec.startswith("cumulative:") else F_spec)
    F = f.cumulative()
    rows = []
    ok = True
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
        good = ta_cert.verdict and ta_lo >= c and tw_up != INF
        row.update(n=prefix.n_vertices, omega=omega, ta_lower=ta_lo,
                   tw_upper=tw_up if tw_up != INF else "inf",
                   certified=good, status="ok" if good else "FAIL")
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
    greedy clique-avoiding pass over a shuffled vertex order."""
    adj = prefix.adjacency()
    order = list(range(prefix.n_vertices))
    rng.shuffle(order)
    chosen = set()
    for v in order:
        if max_omega == 0:
            break
        nb = adj[v] & chosen
        if len(nb) < max_omega - 1:
            chosen.add(v)
            continue
        local = structure.induced_max_clique(prefix, nb)
        if len(local) <= max_omega - 1:
            chosen.add(v)
    return chosen


def demo_hajebi(c, ell, t, samples, size_cap, seed=0):
    """A wheel with omega = c+1 and tw >= t whose K_c-free induced
    subgraphs all have small treewidth.

    Builds f(i) = min(i, c+1) with t+1 layers, certifies omega and the
    minor bound, then runs balanced separation on ``samples`` random
    induced subgraphs with clique number <= c-1 and checks every achieved
    order against 2F(k+1) + (ell+1)k - 2.
    """
    from .functions import SlowFunction
    if c < 2:
        raise ValueError("c must be >= 2, got %d" % c)
    if ell < 5:
        raise ValueError("ell must be >= 5, got %d" % ell)
    f = SlowFunction.capped(c + 1)
    prefix = build_prefix(ell, f, t + 1, size_cap=size_cap)
    omega, cert = structure.clique_number_exact(prefix)
    tw_lo, minor = tw_lower_bound_minor(prefix)
    rng = random.Random(seed)
    rows = []
    ok = omega == c + 1 and cert.verdict and minor.verdict and tw_lo >= t
    for s in range(samples):
        chosen = _sample_clique_bounded(prefix, rng, c - 1)
        if not chosen:
            rows.append({"sample": s, "size": 0, "k": 0, "order": 0,
                         "bound": 0, "status": "ok"})
            continue
        k = len(structure.induced_max_clique(prefix, chosen))
        bound = structure.order_bound(ell, f, k)
        res = structure.balanced_separation(prefix, chosen)
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
