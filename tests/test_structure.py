import json
import operator
import random
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from layered_wheels import WheelPrefix, build_prefix, kernels, parse_f_spec
from layered_wheels import structure as S
from layered_wheels.functions import INF

from conftest import (PREFIXES_300, arbitrary_records, doctored_records,
                      masks_of, orphan_record, random_vertical_path,
                      reference_layer_minor, reference_spans,
                      reference_verify_separation, targets)


# -- induced subgraphs, holes, minors, transversals -----------------------

def reference_induced_adjacency(prefix, X):
    """G[X] cut out of the prefix adjacency: the definition that
    ``induced_adjacency``, which reads the record, must meet."""
    order = sorted(X)
    index = {g: i for i, g in enumerate(order)}
    adj = prefix.adjacency()
    return order, [{index[u] for u in adj[g] if u in index} for g in order]


def _assert_induced_adjacency_is_the_cut(p, X):
    want = reference_induced_adjacency(p, X)
    order, local = S.induced_adjacency(p, X)
    assert (order, local) == want, sorted(X)
    assert S.induced_masks(p, X) == (order, masks_of(local))
    # the sets are the caller's: emptying them changes neither a later
    # call nor the prefix adjacency
    for s in local:
        s.clear()
    assert S.induced_adjacency(p, X) == want
    assert reference_induced_adjacency(p, X) == want


@st.composite
def records_and_sets(draw):
    """An arbitrary record and a vertex set of it: empty, one vertex,
    every vertex or any subset."""
    p = draw(arbitrary_records())
    ids = st.integers(0, p.n_vertices - 1)
    X = draw(st.one_of(st.just(frozenset()), ids.map(lambda g: {g}),
                       st.just(frozenset(range(p.n_vertices))),
                       st.frozensets(ids)))
    return p, X


@settings(max_examples=300, deadline=None)
@given(st.one_of(records_and_sets(), targets()))
def test_induced_adjacency_is_the_cut_of_the_adjacency(case):
    _assert_induced_adjacency_is_the_cut(*case)


def test_induced_adjacency_is_the_cut_on_built_prefixes():
    rng = random.Random(0)
    for p in PREFIXES_300:
        if p.n_vertices > 120:
            continue
        n = p.n_vertices
        sets = [frozenset(), frozenset(range(n))]
        sets += [{g} for g in range(n)]
        sets += [rng.sample(range(n), rng.randint(1, n)) for _ in range(20)]
        for X in sets:
            _assert_induced_adjacency_is_the_cut(p, X)


def test_induced_adjacency_of_every_vertex_is_a_copy(prefix_68):
    # every vertex gives the prefix adjacency, in new sets; the same
    # vertices as the first four layers of the t=5 prefix give it too
    everything = frozenset(range(prefix_68.n_vertices))
    order, adj = S.induced_adjacency(prefix_68, everything)
    assert order == list(range(68))
    assert adj == prefix_68.adjacency()
    assert not any(map(operator.is_, adj, prefix_68.adjacency()))
    p5 = build_prefix(4, parse_f_spec("cap:3"), 5)
    assert S.induced_adjacency(p5, everything) == (order, adj)


def _cycles_record(sizes):
    """An ell=4 record of bare layer cycles: no up entries, no parents."""
    p = WheelPrefix(4, parse_f_spec("cap:3"))
    p.layer_sizes = list(sizes)
    p.offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    p.up = [()] * sum(sizes)
    p.parent = [-1] * sum(sizes)
    return p


def _layer_one_edits():
    """Records whose layer 1 is not the bare ell-cycle of a built prefix,
    and one built ell = 5 prefix, as (record, whether G[L_1] holds a
    4-hole, the shortest hole up to ell)."""
    rows = [(_cycles_record(sizes), False, hole) for sizes, hole in [
        ([1], None), ([2], None), ([3], None), ([5], None),
        # the only 4-hole lies in layer 2
        ([3, 4], 4), ([5, 4], 4)]]
    for pos, probe, hole in [(2, False, None), (1, True, 4), (0, True, 4)]:
        # a chord of layer 1, which leaves no 4-hole anywhere; a repeated
        # cycle edge; a self-loop
        p = build_prefix(4, parse_f_spec("cap:3"), 3)
        p.up[0] += (pos,)
        rows.append((p, probe, hole))
    # holes of 5 and more only: at ell=4 the check finds none
    relabelled = build_prefix(5, parse_f_spec("cap:3"), 4)
    relabelled.ell = 4
    rows.append((relabelled, False, None))
    # at ell=5 the probe runs too: the built layer-1 5-cycle holds no
    # 4-hole, and the chord 2 -> 0 leaves the 4-hole 0, 2, 3, 4
    built = build_prefix(5, parse_f_spec("cap:3"), 3)
    chord = build_prefix(5, parse_f_spec("cap:3"), 3)
    chord.up[0] += (2,)
    rows += [(built, False, 5), (chord, True, 4)]
    return rows


def test_shortest_hole_up_to_is_the_kernel_on_the_adjacency(monkeypatch):
    # the probe of layer 1 answers as the whole-graph scan does, and
    # a record whose layer 1 holds no 4-hole takes the whole-graph route
    edits = _layer_one_edits()
    records = list(PREFIXES_300) + [p for p, _, _ in edits]
    records += [WheelPrefix.from_json_obj(obj)
                for _, obj, _, _ in doctored_records()]
    for p in records:
        want = kernels.shortest_hole(p.n_vertices, p.adjacency(), p.ell)
        assert S.shortest_hole_up_to(p) == want, (p.ell, p.layer_sizes[:3])
    built = []
    adjacency = WheelPrefix.adjacency
    monkeypatch.setattr(WheelPrefix, "adjacency",
                        lambda self: built.append(self) or adjacency(self))
    for p, probe, hole in edits:
        built.clear()
        assert S.shortest_hole_up_to(p) == hole, p.layer_sizes[:3]
        assert built == ([] if probe else [p]), p.layer_sizes[:3]


def test_shortest_hole_up_to_at_ell_4_holds_no_adjacency():
    p = build_prefix(4, parse_f_spec("cap:3"), 10)
    assert p.n_vertices == 20676
    tracemalloc.start()
    try:
        assert S.shortest_hole_up_to(p) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_minor_matches_the_full_scan_on_built_prefixes(prefixes_2000):
    for p in prefixes_2000:
        assert S.layer_minor_check(p).to_dict() == reference_layer_minor(p)


def _minor_records():
    """Records whose minor scan meets entries that no built prefix has, so
    that the stop must not count them as pairs, one param each."""
    rows = [pytest.param(WheelPrefix.from_json(json.dumps(obj)), id=name)
            for name, obj in [("orphan", orphan_record())]
            + [(name, obj) for name, obj, _, _ in doctored_records()]]
    # no edge between layers 1 and 3: the pair stays missing
    q = build_prefix(4, parse_f_spec("cap:3"), 4)
    for g in q.layer_range(3):
        q.up[g] = tuple(w for w in q.up[g] if q.layer_of(w) != 1)
    rows.append(pytest.param(q, id="missing-1-3"))
    # layer 2's first vertex lists a layer-4 vertex, before any pair with
    # layer 4 has a witness: the pair (4, 2) is never reported
    d = build_prefix(4, parse_f_spec("cap:3"), 4)
    d.up[d.offsets[1]] += (d.offsets[3],)
    rows.append(pytest.param(d, id="downward"))
    return rows


@pytest.mark.parametrize("p", _minor_records())
def test_minor_matches_the_full_scan_on_edited_records(p):
    assert S.layer_minor_check(p).to_dict() == reference_layer_minor(p)


@settings(max_examples=200, deadline=None)
@given(arbitrary_records())
def test_minor_matches_the_full_scan_on_arbitrary_records(p):
    assert S.layer_minor_check(p).to_dict() == reference_layer_minor(p)


def test_transversal_check_reads_an_up_list_edited_in_place():
    # (1, 0) and (2, 1) are not adjacent, so once they are the up list of
    # (3, 2), it is not simplicial in the transversal of the three
    p = build_prefix(4, parse_f_spec("cap:3"), 5)
    Y = {p.vid(1, 0), p.vid(2, 1), p.vid(3, 2)}
    assert S.transversal_chordality_check(p, Y).verdict
    p.up[p.vid(3, 2)] = (p.vid(1, 0), p.vid(2, 1))
    cert = S.transversal_chordality_check(p, Y)
    assert not cert.verdict and cert.data["order"] == []


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
        assert not set(P) & set(Q)


def test_upward_sets_stay_inside_path_closure(rng):
    # along a vertical path, N^up[p_j] is contained in V(P) plus N^up(p_i)
    p = build_prefix(4, parse_f_spec("cap:4"), 5, size_cap=10 ** 4)
    for _ in range(30):
        layer = rng.randint(1, 4)
        start = rng.choice(list(p.layer_range(layer)))
        P = random_vertical_path(p, start, 5, rng)
        allowed = set(P) | set(p.up[start])
        for v in P:
            assert {v} | set(p.up[v]) <= allowed


def test_augmenting_arc_definition(rng):
    # the chosen child is the smallest-position child u whose N^up(u) meets
    # X as N^up[v] does, or the first child when no child's does
    p = build_prefix(4, parse_f_spec("cap:3"), 4)
    seen = set()
    for xs in (frozenset(rng.sample(range(p.n_vertices), 30)),
               frozenset(range(p.n_vertices))):
        for v in range(p.offsets[-1]):
            kids = p.children(v)
            good = [u for u in kids
                    if set(p.up[u]) & xs == ({v} | set(p.up[v])) & xs]
            assert S.augmenting_child(p, v, xs) == (good or kids)[0]
            seen.add(bool(good))
    # with every vertex as X, (3, 0) has no augmenting child
    assert seen == {True, False}


def test_augmenting_path_vertex_count_bound(rng):
    # |V(P) cap X| <= F(k+1) + k - 1 whenever F(k+1) is finite
    p = build_prefix(4, parse_f_spec("identity"), 6, size_cap=10 ** 4)
    F = p.f.cumulative()
    for _ in range(15):
        xs = frozenset(rng.sample(range(p.n_vertices), 50))
        k = len(S.induced_max_clique(p, xs))
        if F(k + 1) == INF:
            continue
        path = S.augmenting_path(p, p.vid(1, 0), xs, p.layer_of(max(xs)))
        if not all(S._is_augmenting(p, v, u, xs)
                   for v, u in zip(path[1:], path[2:])):
            continue
        assert len(set(path) & xs) <= F(k + 1) + k - 1


def test_augmenting_path_top_layer_matches_layer_scan(rng):
    # balanced_separation truncates at the layer of X's largest id, which
    # is the top layer that meets X, found by scanning every vertex of X;
    # the path climbs by children to that layer, or stays at a start
    # vertex above it
    p = build_prefix(4, parse_f_spec("cap:3"), 6, size_cap=10 ** 4)
    for _ in range(40):
        xs = frozenset(rng.sample(range(p.n_vertices),
                                  rng.randint(1, p.n_vertices)))
        v = rng.choice(range(p.offsets[-1]))
        top = max(p.layer_of(g) for g in xs)
        assert p.layer_of(max(xs)) == top
        path = S.augmenting_path(p, v, xs, top)
        assert p.layer_of(path[-1]) == max(p.layer_of(v), top)
        assert all(u in p.children(w) for w, u in zip(path, path[1:]))


# -- separations ----------------------------------------------------------

def reference_build_AB(prefix, P, Q):
    """(A(P,Q), B(P,Q)) as sets over every vertex of layers 1..m."""
    i = prefix.layer_of(P[0])
    A, B = set(), set()
    for u in S._forward_segment(prefix, P[0], Q[0]):
        A.add(u)
        A.update(prefix.up[u])
    for j in range(1, i + 1):
        B.update(prefix.layer_range(j))
    for j in range(i + 1, i + len(P)):
        pj, qj = P[j - i], Q[j - i]
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
    P = S.augmenting_path(prefix_68, prefix_68.vid(1, 0), frozenset(), 4)
    for b, b_top, message in [
            ((2, 3), 4, r"paths start in different layers \(1 vs 2\)"),
            ((1, 2), 3, r"paths end in different layers \(4 vs 3\)")]:
        Q = S.augmenting_path(prefix_68, prefix_68.vid(*b), frozenset(),
                              b_top)
        with pytest.raises(ValueError, match=message):
            S.build_AB(prefix_68, P, Q, range(prefix_68.n_vertices))


def test_verify_separation_detects_crossing_edge(prefix_68):
    p = prefix_68
    X = range(p.n_vertices)
    P = S.augmenting_path(p, p.vid(1, 0), frozenset(), 4)
    Q = S.augmenting_path(p, p.vid(1, 2), frozenset(), 4)
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


@st.composite
def records_and_separations(draw):
    """An arbitrary record or a built prefix, with any sides A and B and
    any target set over its vertices."""
    p = draw(st.one_of(arbitrary_records(), st.sampled_from(PREFIXES_300)))
    ids = st.frozensets(st.integers(0, p.n_vertices - 1))
    return p, S.Separation(draw(ids), draw(ids)), draw(ids)


@st.composite
def cut_separations(draw):
    """A built prefix with a target X split by a random cut: A and B cover
    X and share a random part of it, so crossing edges are rare and the
    check often passes."""
    p, X = draw(targets())
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    side = {g: rng.choice("AB") for g in X}
    shared = set(rng.sample(X, rng.randint(0, len(X))))
    A = frozenset(g for g in X if side[g] == "A" or g in shared)
    B = frozenset(g for g in X if side[g] == "B" or g in shared)
    return p, S.Separation(A, B), X


@settings(max_examples=300, deadline=None)
@given(st.one_of(records_and_separations(), cut_separations()))
def test_verify_separation_matches_the_edge_scan(case):
    p, sep, X = case
    assert S.verify_separation_on_prefix(p, sep, X) == \
        reference_verify_separation(p, sep, X)


def test_fair_initial_separation(prefix_68):
    X = frozenset(range(prefix_68.n_vertices))
    P = S.augmenting_path(prefix_68, prefix_68.vid(1, 0), X, 4)
    Q = S.augmenting_path(prefix_68, prefix_68.vid(1, 2), X, 4)
    first, second, sep = S._fair_pair(prefix_68, ((P, Q), (Q, P)),
                                      sorted(X))
    assert 3 * len(sep.A & X) >= len(X)
    assert first[0] != second[0]
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


def _lopsided_target():
    """The l=4 identity t=6 prefix and the descendants of (1, 1)."""
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
    return p, desc


def test_balanced_separation_lopsided_target_iterates():
    p, desc = _lopsided_target()
    res = S.balanced_separation(p, desc)
    assert res.iterations > 0
    assert res.balanced
    if res.bound_applies:
        assert res.order <= S.order_bound(
            p.ell, p.f, len(S.induced_max_clique(p, desc)))


def test_balanced_separation_monitor_stops_a_stalled_loop(monkeypatch):
    # a reroute that hands back the first fair pair leaves the base layer
    # and the segment as they were
    p, desc = _lopsided_target()
    fair_pair = S._fair_pair
    first = []

    def stalled(prefix, pairs, order):
        if not first:
            first.append(fair_pair(prefix, pairs, order))
        return first[0]

    monkeypatch.setattr(S, "_fair_pair", stalled)
    with pytest.raises(S.ProgressError,
                       match="no progress at layer 1, segment 5"):
        S.balanced_separation(p, desc)


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
    # the route cut to every vertex fails as the whole route does
    p = WheelPrefix.from_json_obj(obj)
    omega, cert = S.clique_number_exact(p)
    assert not cert.verdict
    assert cert.data["first_violation"] == where, cert.data
    assert reason in cert.data["reason"]
    k, cut = S.induced_clique_number(p, range(p.n_vertices))
    assert (k, cut.to_dict()) == (omega, cert.to_dict())


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
