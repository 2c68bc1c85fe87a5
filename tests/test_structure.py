import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from layered_wheels import WheelPrefix, build_prefix, parse_f_spec
from layered_wheels import structure as S
from layered_wheels.functions import INF

from conftest import (PREFIXES_300, doctored_records, expected_intersection,
                      reference_spans, targets)


def random_vertical_path(prefix, start, end_layer, rng):
    verts = [start]
    cur = start
    for _ in range(prefix.layer_of(start), end_layer):
        cur = rng.choice(prefix.children(cur))
        verts.append(cur)
    return S.VerticalPath(prefix.layer_of(start), verts)


# -- cliques, holes, minors, transversals ---------------------------------

def test_clique_number_matches_f(prefixes_2000):
    for p in prefixes_2000:
        if p.num_layers < 2:
            continue
        omega, cert = S.clique_number_exact(p)
        assert cert.verdict
        assert omega == p.f(p.num_layers), (p.ell, p.f.descriptor,
                                            p.num_layers)


def test_induced_adjacency_of_every_vertex_is_the_prefix_adjacency(
        prefix_68):
    everything = frozenset(range(prefix_68.n_vertices))
    order, adj = S.induced_adjacency(prefix_68, everything)
    assert order == list(range(68))
    assert adj is prefix_68.adjacency()
    # the same vertices are the first four layers of the t=5 prefix, where
    # the general path re-indexes them: the result is equal, not the same
    p5 = build_prefix(4, parse_f_spec("cap:3"), 5)
    order5, local = S.induced_adjacency(p5, everything)
    assert order5 == order
    assert local == adj and local is not adj


def test_hole_floor(prefixes_2000):
    for p in prefixes_2000:
        shortest = S.shortest_hole_up_to(p, p.ell)
        assert shortest == p.ell, (p.ell, p.f.descriptor, p.num_layers)


def test_hole_budget_rejects_small_bound(prefix_68):
    with pytest.raises(ValueError):
        S.shortest_hole_up_to(prefix_68, 3)


def test_layer_minor(prefixes_2000):
    for p in prefixes_2000:
        cert = S.layer_minor_check(p)
        assert cert.verdict and cert.bound == p.num_layers - 1


def test_layer_minor_mutation():
    q = build_prefix(4, parse_f_spec("cap:3"), 4)
    for g in q.layer_range(3):
        q.up[g] = tuple(w for w in q.up[g] if q.layer_of(w) != 1)
    cert = S.layer_minor_check(q)
    assert not cert.verdict
    assert cert.data["first_missing_pair"] == [1, 3]


def test_transversals_are_chordal(prefixes_2000, rng):
    for p in prefixes_2000:
        for _ in range(20):
            Y = {rng.choice(list(p.layer_range(l)))
                 for l in range(1, p.num_layers + 1)}
            cert = S.transversal_chordality_check(p, Y)
            assert cert.verdict, (p.ell, p.f.descriptor, sorted(Y))


def test_transversal_rejects_two_per_layer(prefix_68):
    with pytest.raises(ValueError):
        S.transversal_chordality_check(
            prefix_68, {prefix_68.vid(1, 0), prefix_68.vid(1, 1)})


# -- vertical and augmenting paths ----------------------------------------

def test_vertical_paths_with_distinct_starts_are_disjoint(rng):
    p = build_prefix(4, parse_f_spec("cap:3"), 5, size_cap=10 ** 4)
    for _ in range(30):
        layer = rng.randint(1, 4)
        a, b = rng.sample(list(p.layer_range(layer)), 2)
        P = random_vertical_path(p, a, 5, rng)
        Q = random_vertical_path(p, b, 5, rng)
        assert not set(P.vertices) & set(Q.vertices)


def test_upward_sets_stay_inside_path_closure(rng):
    # along a vertical path, N^up[p_j] is contained in V(P) plus N^up(p_i)
    p = build_prefix(4, parse_f_spec("cap:4"), 5, size_cap=10 ** 4)
    for _ in range(30):
        layer = rng.randint(1, 4)
        start = rng.choice(list(p.layer_range(layer)))
        P = random_vertical_path(p, start, 5, rng)
        allowed = set(P.vertices) | set(p.up[start])
        for v in P.vertices:
            assert {v} | set(p.up[v]) <= allowed


def test_augmenting_arc_definition(rng):
    p = build_prefix(4, parse_f_spec("cap:3"), 4)
    xs = frozenset(rng.sample(range(p.n_vertices), 30))
    for _ in range(20):
        v = rng.choice([g for g in range(p.n_vertices)
                        if p.layer_of(g) < p.num_layers])
        u, aug = S.augmenting_child(p, v, xs)
        assert u in p.children(v)
        if aug:
            assert set(p.up[u]) & xs == ({v} | set(p.up[v])) & xs


def test_augmenting_path_vertex_count_bound(rng):
    # |V(P) cap X| <= F(k+1) + k - 1 whenever F(k+1) is finite
    p = build_prefix(4, parse_f_spec("identity"), 6, size_cap=10 ** 4)
    F = p.f.cumulative()
    for _ in range(15):
        xs = frozenset(rng.sample(range(p.n_vertices), 50))
        k = len(S.induced_max_clique(p, xs))
        if F(k + 1) == INF:
            continue
        path = S.augmenting_path(p, p.vid(1, 0), xs, {})
        if not path.tail_augmenting():
            continue
        assert len(set(path.vertices) & xs) <= F(k + 1) + k - 1


def test_augmenting_path_top_layer_matches_layer_scan(rng):
    # the truncation layer is the top layer that meets X, found by scanning
    # every vertex of X, and the start vertex's layer when X is empty
    p = build_prefix(4, parse_f_spec("cap:3"), 6, size_cap=10 ** 4)
    for _ in range(40):
        xs = frozenset(rng.sample(range(p.n_vertices),
                                  rng.randint(0, p.n_vertices)))
        v = rng.choice(range(p.offsets[-1]))
        top = max((p.layer_of(g) for g in xs), default=p.layer_of(v))
        path = S.augmenting_path(p, v, xs, {})
        assert path.truncation_layer == max(p.layer_of(v),
                                            min(p.num_layers, top))


# -- separations ----------------------------------------------------------

def test_build_AB_is_verified_separation_with_exact_intersection(rng):
    for (ell, fs, t) in [(4, "cap:3", 4), (5, "identity", 4),
                         (6, "cap:3", 3)]:
        p = build_prefix(ell, parse_f_spec(fs), t, size_cap=10 ** 4)
        for _ in range(40):
            layer = rng.randint(1, t)
            a, b = rng.sample(list(p.layer_range(layer)), 2)
            P = random_vertical_path(p, a, t, rng)
            Q = random_vertical_path(p, b, t, rng)
            sep = S.build_AB(p, P, Q, range(p.n_vertices))
            assert S.verify_separation_on_prefix(p, sep,
                                                 range(p.n_vertices))
            assert sep.A | sep.B == frozenset(range(p.n_vertices))
            assert sep.A & sep.B == frozenset(
                expected_intersection(p, P, Q))


def reference_build_AB(prefix, P, Q):
    """(A(P,Q), B(P,Q)) as sets over every vertex of layers 1..m."""
    i = P.start_layer
    A, B = set(), set()
    for u in S._forward_segment(prefix, P.vertices[0], Q.vertices[0]):
        A.add(u)
        A.update(prefix.up[u])
    for j in range(1, i + 1):
        B.update(prefix.layer_range(j))
    for j in range(i + 1, P.truncation_layer + 1):
        pj, qj = P.vertices[j - i], Q.vertices[j - i]
        fw = set(S._forward_segment(prefix, pj, qj))
        A.update(fw)
        B.update({pj, qj} | (set(prefix.layer_range(j)) - fw))
    return A, B


AB_INSTANCES = [(4, "cap:3", 4), (5, "identity", 4), (6, "cap:3", 3)]


@lru_cache(maxsize=None)
def ab_prefix(index):
    ell, fs, t = AB_INSTANCES[index]
    return build_prefix(ell, parse_f_spec(fs), t, size_cap=10 ** 4)


@st.composite
def ab_cases(draw):
    """A prefix, two same-layer vertical paths and a target set X."""
    p = ab_prefix(draw(st.integers(0, len(AB_INSTANCES) - 1)))
    t = p.num_layers
    layer = draw(st.integers(1, t))
    size = p.layer_sizes[layer - 1]
    a = draw(st.integers(0, size - 1))
    b = (a + draw(st.integers(1, size - 1))) % size   # b < a wraps past 0
    end = draw(st.integers(layer, t))                 # X may lie above it
    rng = draw(st.randoms(use_true_random=False))
    P = random_vertical_path(p, p.vid(layer, a), end, rng)
    Q = random_vertical_path(p, p.vid(layer, b), end, rng)
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    empty_layers = draw(st.sets(st.integers(1, t)))
    X = {v for v in range(p.n_vertices)
         if p.layer_of(v) not in empty_layers and rng.random() < density}
    return p, P, Q, X


@settings(max_examples=300, deadline=None)
@given(ab_cases())
def test_build_AB_restricted_matches_reference(case):
    p, P, Q, X = case
    A, B = reference_build_AB(p, P, Q)
    full = S.build_AB(p, P, Q, range(p.n_vertices))
    assert (full.A, full.B) == (A, B)
    sep = S.build_AB(p, P, Q, sorted(X))
    assert (sep.A, sep.B) == (A & X, B & X)


def test_build_AB_rejects_mismatched_paths(prefix_68):
    P = S._chain(prefix_68, prefix_68.vid(1, 0), frozenset(), 4, {})
    Q = S._chain(prefix_68, prefix_68.vid(2, 3), frozenset(), 4, {})
    with pytest.raises(ValueError):
        S.build_AB(prefix_68, P, Q, range(prefix_68.n_vertices))


def test_verify_separation_detects_crossing_edge(prefix_68):
    p = prefix_68
    X = range(p.n_vertices)
    P = S._chain(p, p.vid(1, 0), frozenset(), 4, {})
    Q = S._chain(p, p.vid(1, 2), frozenset(), 4, {})
    good = S.build_AB(p, P, Q, X)
    assert S.verify_separation_on_prefix(p, good, X)
    # a separator vertex dropped from B leaves its B-only neighbours
    # joined to the A-only side
    s = min(good.A & good.B)
    assert p.adjacency()[s] & (good.B - good.A)
    dropped = S.Separation(good.A, good.B - {s})
    assert not S.verify_separation_on_prefix(p, dropped, X)
    uncovered = S.Separation(good.A - {s}, good.B - {s})
    assert not S.verify_separation_on_prefix(p, uncovered, X)
    # moving a separator vertex w to the B-only side makes its edge to an
    # A-only neighbour cross, unless w leaves X and takes that edge along
    w = next(w for w in sorted(good.A & good.B)
             if p.adjacency()[w] & (good.A - good.B))
    moved = S.Separation(good.A - {w}, good.B)
    assert not S.verify_separation_on_prefix(p, moved, X)
    assert S.verify_separation_on_prefix(p, moved, set(X) - {w})


def test_fair_initial_separation(prefix_68):
    X = frozenset(range(prefix_68.n_vertices))
    P = S.augmenting_path(prefix_68, prefix_68.vid(1, 0), X, {})
    Q = S.augmenting_path(prefix_68, prefix_68.vid(1, 2), X, {})
    first, second, sep = S._fair_pair(prefix_68, ((P, Q), (Q, P)),
                                      sorted(X))
    assert 3 * len(sep.A & X) >= len(X)
    assert first.vertices[0] != second.vertices[0]
    assert sep == S.build_AB(prefix_68, first, second, sorted(X))


def test_balanced_separation_full_and_random(prefixes_2000, rng):
    sample = [p for p in prefixes_2000 if p.num_layers >= 2][::3]
    for p in sample:
        targets = [frozenset(range(p.n_vertices))]
        for _ in range(5):
            xs = rng.sample(range(p.n_vertices),
                            max(6, p.n_vertices // 4))
            targets.append(frozenset(xs))
        for X in targets:
            res = S.balanced_separation(p, X)
            bound = S.order_bound(p.ell, p.f,
                                  len(S.induced_max_clique(p, X)))
            A, B = res.sep.A, res.sep.B
            assert 3 * len((A - B) & X) <= 2 * len(X)
            assert 3 * len((B - A) & X) <= 2 * len(X)
            assert S.verify_separation_on_prefix(p, res.sep, X)
            if res.bound_applies and bound != INF:
                assert res.order <= bound


def test_balanced_separation_trivial_small_set(prefix_68):
    X = frozenset(prefix_68.vid(*v) for v in [(1, 0), (1, 1), (2, 0)])
    res = S.balanced_separation(prefix_68, X)
    assert res.sep.A == res.sep.B == X


def test_balanced_separation_lopsided_target_iterates():
    p = build_prefix(4, parse_f_spec("identity"), 6, size_cap=10 ** 4)
    span = reference_spans(p)
    desc = {p.vid(1, 1)}
    for layer in range(1, 6):
        nxt = set()
        for g in desc:
            if p.layer_of(g) == layer and span[g]:
                s, c = span[g]
                nxt.update(range(s, s + c))
        desc |= nxt
    res = S.balanced_separation(p, desc)
    assert res.iterations > 0
    assert res.balanced
    if res.bound_applies:
        assert res.order <= S.order_bound(
            p.ell, p.f, len(S.induced_max_clique(p, desc)))


def test_balanced_separation_rejects_empty(prefix_68):
    with pytest.raises(ValueError):
        S.balanced_separation(prefix_68, frozenset())


# -- omega read off the upward lists --------------------------------------

def _assert_clique_certificate(p, X, k, cert):
    assert cert.verdict and cert.bound == k
    witness = [p.vid(*v) for v in cert.data["clique"]]
    assert len(set(witness)) == k and set(witness) <= set(X)
    adj = p.adjacency()
    assert all(w in adj[u] for i, u in enumerate(witness)
               for w in witness[i + 1:])


def test_clique_route_matches_search_on_every_small_prefix():
    for p in PREFIXES_300:
        everything = range(p.n_vertices)
        omega, cert = S.clique_number_exact(p)
        assert omega == len(S.induced_max_clique(p, everything))
        _assert_clique_certificate(p, everything, omega, cert)
        # half of the vertices, drawn at random
        X = random.Random(p.n_vertices).sample(everything,
                                               (p.n_vertices + 1) // 2)
        k, cert = S.induced_clique_number(p, X)
        assert k == len(S.induced_max_clique(p, X))
        _assert_clique_certificate(p, X, k, cert)


@settings(max_examples=300, deadline=None)
@given(targets())
def test_induced_clique_route_matches_search(case):
    p, X = case
    k, cert = S.induced_clique_number(p, X)
    assert k == len(S.induced_max_clique(p, X))
    _assert_clique_certificate(p, X, k, cert)


def test_clique_route_on_empty_and_pair_targets(prefix_68):
    assert S.induced_clique_number(prefix_68, [])[0] == 0
    # a layer-1 cycle edge: the pair route, with no upward entry
    k, cert = S.induced_clique_number(prefix_68, [3, 0])
    assert k == 2 and cert.data["clique"] == [(1, 0), (1, 3)]


@pytest.mark.parametrize("name, obj, where, reason", doctored_records(),
                         ids=[case[0] for case in doctored_records()])
def test_clique_route_fails_on_doctored_records(name, obj, where, reason):
    p = WheelPrefix.from_json_obj(obj)
    for omega, cert in (S.clique_number_exact(p),
                        S.induced_clique_number(p, range(p.n_vertices))):
        assert not cert.verdict
        assert cert.data["first_violation"] == where, cert.data
        assert reason in cert.data["reason"]


def test_clique_route_takes_a_pair_with_equal_lists():
    # built prefixes never give two cycle neighbours the same nonempty up
    # list; copying one onto its successor makes a clique of size 2 + m
    obj = json.loads(build_prefix(4, parse_f_spec("cap:3"), 4).to_json())
    recs = obj["vertices"]
    g = next(i for i, r in enumerate(recs) if len(r["up"]) == 2)
    recs[g + 1]["up"] = list(recs[g]["up"])
    p = WheelPrefix.from_json_obj(obj)
    omega, cert = S.clique_number_exact(p)
    assert omega == 4 == len(S.induced_max_clique(p, range(p.n_vertices)))
    _assert_clique_certificate(p, range(p.n_vertices), omega, cert)
    assert {g, g + 1} <= {p.vid(*v) for v in cert.data["clique"]}
