import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from layered_wheels import build_prefix, kernels, parse_f_spec

from conftest import PREFIXES_300, masks_of


def random_graph(rng, n, p):
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].add(j)
                adj[j].add(i)
    return [sorted(a) for a in adj]


def cycle(n):
    return [[(i - 1) % n, (i + 1) % n] for i in range(n)]


def complete(n):
    return [[j for j in range(n) if j != i] for i in range(n)]


def complement(n, adj):
    return [[j for j in range(n) if j != i and j not in adj[i]]
            for i in range(n)]


# -- brute-force oracles --------------------------------------------------

def oracle_max_clique_size(n, adj):
    adjsets = [set(a) for a in adj]
    best = 0
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if all(v in adjsets[u] for u, v in itertools.combinations(combo, 2)):
                return r
    return best


def oracle_shortest_hole(n, adj, bound):
    adjsets = [set(a) for a in adj]
    for length in range(4, bound + 1):
        for combo in itertools.combinations(range(n), length):
            for perm in itertools.permutations(combo[1:]):
                cyc = (combo[0],) + perm
                edges = {frozenset((cyc[i], cyc[(i + 1) % length]))
                         for i in range(length)}
                if any(cyc[(i + 1) % length] not in adjsets[cyc[i]]
                       for i in range(length)):
                    continue
                pairs = {frozenset(pr)
                         for pr in itertools.combinations(cyc, 2)
                         if pr[1] in adjsets[pr[0]]}
                if pairs == edges:
                    return length
    return None


def reference_shortest_hole(n, adj, bound):
    """The unpruned scan: a DFS over chordless paths from every vertex s
    through ids above s, each cycle counted from its minimum vertex."""
    if bound < 4:
        return None
    best = None

    for s in range(n):
        limit = bound if best is None else best - 1
        if limit < 4:
            break
        # path[0] == s is the minimum vertex of any cycle reported here
        stack = [(s, iter(sorted(adj[s])))]
        path = [s]
        on_path = {s}
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w <= s or w in on_path:
                    continue
                nb = adj[w]
                if len(path) == 1:
                    # first edge of the path; nothing to close or chord yet
                    path.append(w)
                    on_path.add(w)
                    stack.append((w, iter(sorted(nb))))
                    advanced = True
                    break
                # chord against any internal path vertex (not the tip)
                if any(x in nb for x in path[1:-1]):
                    continue
                if s in nb:
                    k = len(path) + 1
                    if k >= 4 and path[1] < w and (best is None or k < best):
                        best = k
                        limit = best - 1
                    # w sees s: extending past w would leave a chord
                    continue
                if len(path) + 1 < limit:
                    path.append(w)
                    on_path.add(w)
                    stack.append((w, iter(sorted(nb))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())
        if best == 4:
            break
    return best


def oracle_treewidth(n, adj):
    """Subset DP over elimination prefixes (independent of the kernel)."""
    adjsets = [frozenset(a) for a in adj]

    @lru_cache(maxsize=None)
    def q(S, v):
        # neighbors of v reachable through eliminated set S
        seen = set()
        stack = [v]
        out = set()
        while stack:
            u = stack.pop()
            for w in adjsets[u]:
                if w in seen:
                    continue
                seen.add(w)
                if (S >> w) & 1:
                    stack.append(w)
                else:
                    out.add(w)
        return len(out - {v})

    @lru_cache(maxsize=None)
    def dp(S):
        if S == (1 << n) - 1:
            return -1
        best = n
        for v in range(n):
            if not (S >> v) & 1:
                best = min(best, max(q(S, v), dp(S | (1 << v))))
        return best

    return max(0, dp(0)) if n else 0


def reference_degeneracy_order(n, adj):
    """The O(n^2) smallest-last order: each step scans for the least
    nonempty degree bucket and takes its smallest id."""
    deg = [len(adj[v]) for v in range(n)]
    removed = [False] * n
    buckets = {}
    for v in range(n):
        buckets.setdefault(deg[v], set()).add(v)
    order = []
    degeneracy = 0
    for _ in range(n):
        d = 0
        while d not in buckets or not buckets[d]:
            d += 1
        v = min(buckets[d])
        buckets[d].discard(v)
        degeneracy = max(degeneracy, d)
        removed[v] = True
        order.append(v)
        for u in adj[v]:
            if not removed[u]:
                buckets[deg[u]].discard(u)
                deg[u] -= 1
                buckets.setdefault(deg[u], set()).add(u)
    return order, degeneracy


@st.composite
def graphs(draw):
    """Adjacency lists of simple graphs, weighted toward equal degrees."""
    n = draw(st.integers(0, 24))
    kind = draw(st.sampled_from(
        ["random", "edgeless", "matching", "complete", "cycles", "cliques"]))
    pairs = set()
    if kind == "random" and n > 1:
        p = draw(st.floats(0, 1))
        seed = draw(st.integers(0, 2 ** 32))
        rng = random.Random(seed)
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p}
    elif kind == "matching":
        pairs = {(i, i + 1) for i in range(0, n - 1, 2)}
    elif kind == "complete":
        pairs = set(itertools.combinations(range(n), 2))
    elif kind in ("cycles", "cliques"):
        # disjoint equal parts: every vertex has the same degree
        k = draw(st.integers(3, 6))
        for s in range(0, n - k + 1, k):
            part = range(s, s + k)
            if kind == "cycles":
                pairs |= {tuple(sorted((part[i], part[(i + 1) % k])))
                          for i in range(k)}
            else:
                pairs |= set(itertools.combinations(part, 2))
    adj = [set() for _ in range(n)]
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)
    perm = draw(st.permutations(range(n)))
    return [sorted(perm[u] for u in adj[perm.index(v)]) for v in range(n)]


@st.composite
def hole_cases(draw):
    """(n, adj, bound) with bound in 3..8: random graphs, the same with
    edges subdivided (many degree-2 vertices), disjoint cycles of lengths
    3..bound+1, and cycles beside a random part.  Shapes that reach each
    case of the kernel's peel are added to any of them: a path of 2..5
    vertices closing on one vertex, a path of 1..3 vertices joining the
    ends of an edge, a pendant tree, and a cycle with one or two
    simplicial vertices hung on one of its edges; so are a few
    self-loops.  Everything is randomly relabelled."""
    bound = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(["random", "subdivided", "cycles", "mixed"]))
    n = 0
    edges = []
    if kind != "cycles":
        n = draw(st.integers(0, 9 if kind == "random" else 7))
        pairs = list(itertools.combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                             max_size=len(pairs)))
        edges = [pr for pr, k in zip(pairs, keep) if k]
    if kind == "subdivided":
        chains = []
        for u, v in edges:
            extra = draw(st.integers(0, 3))
            chain = [u, *range(n, n + extra), v]
            n += extra
            chains += zip(chain, chain[1:])
        edges = chains
    if kind in ("cycles", "mixed"):
        for length in draw(st.lists(st.integers(3, bound + 1), max_size=3)):
            part = range(n, n + length)
            edges += [(part[i], part[i - 1]) for i in range(length)]
            n += length
    shapes = ["closed run", "ear", "tree", "hung"]
    for shape in draw(st.lists(st.sampled_from(shapes), max_size=3)):
        if shape == "hung":
            length = draw(st.integers(3, bound + 1))
            part = range(n, n + length)
            edges += [(part[i], part[i - 1]) for i in range(length)]
            # one or two vertices that close a clique with the first edge
            hung = range(n + length, n + length + draw(st.integers(1, 2)))
            edges += itertools.combinations([n, n + 1, *hung], 2)
            n = hung.stop
            continue
        if n < 2:
            continue
        a = draw(st.integers(0, n - 1))
        if shape == "tree":
            size = draw(st.integers(1, 4))
            nodes = [a, *range(n, n + size)]
            edges += [(nodes[j], nodes[draw(st.integers(0, j - 1))])
                      for j in range(1, size + 1)]
            n += size
            continue
        if shape == "closed run":
            b = a
            k = draw(st.integers(2, 5))
        else:
            b = draw(st.integers(0, n - 2))
            b += b >= a
            edges.append((a, b))
            k = draw(st.integers(1, 3))
        path = [a, *range(n, n + k), b]
        edges += zip(path, path[1:])
        n += k
    if n:
        edges += [(v, v) for v in draw(st.lists(st.integers(0, n - 1),
                                                max_size=2))]
    perm = draw(st.permutations(range(n)))
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[perm[u]].add(perm[v])
        adj[perm[v]].add(perm[u])
    return n, adj, bound


# -- oracle tests ---------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(graphs())
def test_degeneracy_order_matches_reference(adj):
    n = len(adj)
    assert (kernels._degeneracy_order(n, adj)
            == reference_degeneracy_order(n, adj))


def test_max_clique_witness_pinned():
    # the witness depends on the degeneracy order's tie-break
    p = build_prefix(4, parse_f_spec("cap:3"), 6)
    n, adj = p.n_vertices, p.adjacency()
    assert n == 444
    assert kernels.max_clique(n, adj) == [12, 68, 174]
    assert kernels._degeneracy_order(n, adj) == reference_degeneracy_order(
        n, adj)


def test_clique_against_brute_force():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(0, 9)
        adj = random_graph(rng, n, rng.random())
        got = kernels.max_clique(n, adj)
        adjsets = [set(a) for a in adj]
        assert all(v in adjsets[u]
                   for u, v in itertools.combinations(got, 2))
        assert len(got) == oracle_max_clique_size(n, adj)


def test_independent_set_against_complement_clique():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(0, 9)
        adj = random_graph(rng, n, rng.random())
        comp = complement(n, adj)
        got = kernels.max_independent_set(n, masks_of(adj), 0)
        assert all(v not in adj[u]
                   for u, v in itertools.combinations(got, 2))
        assert len(got) == oracle_max_clique_size(n, comp)


def test_independent_set_floor_against_brute_force():
    # [] exactly when alpha <= floor, and otherwise a maximum set
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(0, 9)
        adj = random_graph(rng, n, rng.random())
        alpha = oracle_max_clique_size(n, complement(n, adj))
        for floor in range(n + 2):
            got = kernels.max_independent_set(n, masks_of(adj), floor)
            assert (got == []) == (alpha <= floor)
            if got:
                assert all(v not in adj[u]
                           for u, v in itertools.combinations(got, 2))
                assert len(got) == alpha


def test_shortest_hole_against_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(4, 8)
        adj = random_graph(rng, n, rng.uniform(0.2, 0.7))
        assert (kernels.shortest_hole(n, adj, 7)
                == oracle_shortest_hole(n, adj, 7))


@settings(max_examples=500, deadline=None)
@given(hole_cases())
def test_shortest_hole_matches_reference(case):
    n, adj, bound = case
    got = kernels.shortest_hole(n, adj, bound)
    assert got == reference_shortest_hole(n, adj, bound)
    if n <= 8:
        assert got == oracle_shortest_hole(n, adj, bound)


def test_shortest_hole_matches_reference_on_prefixes():
    for ell, f, t in [(4, "cap:3", 5), (5, "identity", 4), (6, "cap:4", 4),
                      (7, "cap:3", 3)]:
        p = build_prefix(ell, parse_f_spec(f), t)
        n, adj = p.n_vertices, p.adjacency()
        for bound in (ell - 1, ell, ell + 1):
            assert (kernels.shortest_hole(n, adj, bound)
                    == reference_shortest_hole(n, adj, bound))


def test_peel_empties_prefixes():
    # at limit ell-1 the last layer's runs go, then its first children
    # (simplicial on their up cliques), and so on up the layers: no core
    # is left for the pruned scan
    for p in PREFIXES_300:
        if p.ell >= 5:
            assert kernels._peel(p.n_vertices, p.adjacency(), p.ell - 1) \
                == [], (p.ell, p.f.descriptor, p.num_layers)


@pytest.mark.parametrize("change, shortest", [
    (lambda p, up: up + (p.vid(1, 3),), 5),   # closes a 5-hole
    (lambda p, up: up + (p.vid(1, 2),), 4),   # closes a 4-hole
    (lambda p, up: up + (p.vid(3, 0),), 6),   # a self-loop
    (lambda p, up: up[1:], 4),                # drops an up entry
])
def test_shortest_hole_on_prefix_mutants(change, shortest):
    # one doctored up list of an ell=6 prefix; the entries that close a
    # short hole or drop an edge leave a core for the peel's scan, and at
    # each bound the result equals the pruned scan of the whole graph
    p = build_prefix(6, parse_f_spec("cap:4"), 5)
    g = p.vid(3, 0)
    p.up[g] = change(p, p.up[g])
    n, adj = p.n_vertices, p.adjacency()
    assert kernels.shortest_hole(n, adj, 6) == shortest
    for bound in (5, 6, 7):
        assert (kernels.shortest_hole(n, adj, bound)
                == kernels._pruned_scan(n, adj, bound, 4))


def test_shortest_hole_known_graphs():
    assert kernels.shortest_hole(5, cycle(5), 10) == 5
    assert kernels.shortest_hole(4, complete(4), 10) is None
    assert kernels.shortest_hole(6, cycle(6), 5) is None  # bound too low
    petersen = [[1, 4, 5], [0, 2, 6], [1, 3, 7], [2, 4, 8], [0, 3, 9],
                [0, 7, 8], [1, 8, 9], [2, 5, 9], [3, 5, 6], [4, 6, 7]]
    assert kernels.shortest_hole(10, petersen, 10) == 5
    # theta graph: hubs 0 and 7 joined by runs of 1, 2 and 3 vertices, so
    # holes of 5, 6 and 7; at bound 6 the peel must keep the 2-run, whose
    # ends are not adjacent, as its shortest hole has k + 3 = 5 vertices
    theta = [[1, 5, 6], [0, 3], [6, 7], [1, 4], [3, 7], [0, 7], [0, 2],
             [2, 4, 5]]
    assert [kernels.shortest_hole(8, theta, b) for b in (4, 5, 6, 7)] \
        == [None, 5, 5, 5]


def test_treewidth_against_subset_dp():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(1, 9)
        adj = random_graph(rng, n, rng.uniform(0.1, 0.8))
        assert kernels.treewidth_exact(n, adj) == oracle_treewidth(n, adj)


def test_treewidth_known_graphs():
    for ell in (4, 5, 6, 8):
        assert kernels.treewidth_exact(ell, cycle(ell)) == 2
    assert kernels.treewidth_exact(4, complete(4)) == 3
    assert kernels.treewidth_exact(0, []) == 0
    assert kernels.treewidth_exact(3, [[], [], []]) == 0


def test_treewidth_size_limit():
    with pytest.raises(ValueError):
        kernels.treewidth_exact(33, [[] for _ in range(33)])


def test_clique_and_independent_set_on_wide_bitsets():
    # bitsets wider than a machine word; the degeneracy-order clique search
    # and the full-bitset independent-set search must agree on complements
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(65, 80)
        adj = random_graph(rng, n, 0.1)
        comp = complement(n, adj)
        clique = kernels.max_clique(n, adj)
        stable = kernels.max_independent_set(n, masks_of(adj), 0)
        assert all(v in adj[u] for u, v in itertools.combinations(clique, 2))
        assert all(v not in adj[u]
                   for u, v in itertools.combinations(stable, 2))
        assert len(clique) == len(kernels.max_independent_set(
            n, masks_of(comp), 0))
        assert len(stable) == len(kernels.max_clique(n, comp))


def test_kernels_on_prefix():
    p = build_prefix(5, parse_f_spec("cap:3"), 4, size_cap=10 ** 4)
    n, adj = p.n_vertices, p.adjacency()
    assert n == 215
    assert len(kernels.max_clique(n, adj)) == 3
    assert kernels.shortest_hole(n, adj, 7) == 5
