import itertools
import random
from functools import lru_cache

import pytest

from layered_wheels import build_prefix, kernels, parse_f_spec


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


# -- oracle tests ---------------------------------------------------------

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
        got = kernels.max_independent_set(n, adj)
        assert all(v not in adj[u]
                   for u, v in itertools.combinations(got, 2))
        assert len(got) == oracle_max_clique_size(n, comp)


def test_shortest_hole_against_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(4, 8)
        adj = random_graph(rng, n, rng.uniform(0.2, 0.7))
        assert (kernels.shortest_hole(n, adj, 7)
                == oracle_shortest_hole(n, adj, 7))


def test_shortest_hole_known_graphs():
    assert kernels.shortest_hole(5, cycle(5), 10) == 5
    assert kernels.shortest_hole(4, complete(4), 10) is None
    assert kernels.shortest_hole(6, cycle(6), 5) is None  # bound too low
    petersen = [[1, 4, 5], [0, 2, 6], [1, 3, 7], [2, 4, 8], [0, 3, 9],
                [0, 7, 8], [1, 8, 9], [2, 5, 9], [3, 5, 6], [4, 6, 7]]
    assert kernels.shortest_hole(10, petersen, 10) == 5


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
        stable = kernels.max_independent_set(n, adj)
        assert all(v in adj[u] for u, v in itertools.combinations(clique, 2))
        assert all(v not in adj[u]
                   for u, v in itertools.combinations(stable, 2))
        assert len(clique) == len(kernels.max_independent_set(n, comp))
        assert len(stable) == len(kernels.max_clique(n, comp))


def test_kernels_on_prefix():
    p = build_prefix(5, parse_f_spec("cap:3"), 4, size_cap=10 ** 4)
    n, adj = p.n_vertices, p.adjacency()
    assert n == 215
    assert len(kernels.max_clique(n, adj)) == 3
    assert kernels.shortest_hole(n, adj, 7) == 5
