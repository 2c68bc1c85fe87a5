import json

import pytest
from hypothesis import given, settings, strategies as st

from layered_wheels import (
    WheelPrefix,
    build_first_layer,
    build_prefix,
    extend_layer,
    parse_f_spec,
    verify_rules,
)
from layered_wheels.wheel import (SizeCapError, UnknownVertexError,
                                  up_closed_neighborhood)


def test_layer_sizes_ell4_cap3():
    p = build_prefix(4, parse_f_spec("cap:3"), 4)
    assert p.layer_sizes == [4, 8, 16, 40]
    assert p.n_vertices == 68


def test_layer_sizes_ell4_identity_doubles():
    p = build_prefix(4, parse_f_spec("identity"), 8)
    assert p.layer_sizes == [4 * 2 ** i for i in range(8)]


def test_layer_sizes_ell6_cap3():
    p = build_prefix(6, parse_f_spec("cap:3"), 4, size_cap=10 ** 4)
    assert p.layer_sizes == [6, 24, 96, 408]


def test_first_layer_is_a_cycle():
    p = build_first_layer(5)
    assert p.layer_sizes == [5]
    adj = p.adjacency()
    assert all(len(adj[g]) == 2 for g in range(5))


def test_rule7_child_pattern():
    # a layer-3 vertex with a full upward clique {w1 in L1, w2 in L2} gets
    # (f(4)-1)(ell-2) = 4 children; the two block-first children drop one
    # upward neighbor each, ordered by increasing layer of the dropped one
    p = build_prefix(4, parse_f_spec("cap:3"), 4)
    v = next(g for g in p.layer_range(3) if len(p.up[g]) == 2)
    kids = p.children(v)
    assert len(kids) == 2 and p.span[p.vid(*p.loc(v))][1] == 4
    w1, w2 = p.up[v]           # sorted by layer
    assert p.layer_of(w1) < p.layer_of(w2)
    ups = [set(p.up[u]) for u in range(p.span[v][0], sum(p.span[v]))]
    assert ups == [{v, w2}, set(), {v, w1}, set()]


def test_rule6_single_block():
    # identity f never saturates the upward budget, so every vertex gets
    # exactly ell-2 descendants with the first child taking the closed
    # upward neighborhood
    p = build_prefix(4, parse_f_spec("identity"), 4)
    for layer in range(1, 4):
        for v in p.layer_range(layer):
            start, count = p.span[v]
            assert count == 2
            assert set(p.up[start]) == {v} | set(p.up[v])


def test_determinism():
    a = build_prefix(5, parse_f_spec("cap:3"), 4, size_cap=10 ** 4)
    b = build_prefix(5, parse_f_spec("cap:3"), 4, size_cap=10 ** 4)
    assert a.to_json() == b.to_json()


def test_extend_layer_does_not_mutate_input():
    p = build_prefix(4, parse_f_spec("identity"), 2)
    before = p.to_json()
    q = extend_layer(p)
    assert p.to_json() == before
    assert q.num_layers == 3


@pytest.mark.parametrize("ell,fs,t,n", [
    (4, "cap:3", 4, 68),
    (6, "cap:4", 6, 8718),
    (4, "cap:3", 11, 54124),   # scale guard for span recovery
], ids=["n68", "n8718", "n54124"])
def test_json_round_trip_byte_identical(ell, fs, t, n):
    p = build_prefix(ell, parse_f_spec(fs), t)
    assert p.n_vertices == n
    text = p.to_json()
    q = WheelPrefix.from_json(text)
    assert q.to_json() == text
    assert q.span == p.span and q.parent == p.parent and q.up == p.up
    for layer in range(1, q.num_layers + 1):
        assert all(q.layer_of(g) == layer for g in q.layer_range(layer))


def test_layer_of_bounds_and_extend():
    p = build_prefix(4, parse_f_spec("cap:3"), 3)
    n = p.n_vertices
    for g in (-1, n):
        with pytest.raises(UnknownVertexError):
            p.layer_of(g)
    assert p.layer_of(n - 1) == 3
    p._extend(10 ** 4)   # in place: the layer index must be rebuilt
    assert p.n_vertices > n
    assert all(p.layer_of(g) == 4 for g in p.layer_range(4))
    assert p.loc(n) == (4, 0)


def test_size_cap_enforced():
    with pytest.raises(SizeCapError):
        build_prefix(4, parse_f_spec("identity"), 12, size_cap=1000)
    # the cap bounds the cumulative vertex count, not a single layer
    p = build_prefix(4, parse_f_spec("identity"), 8, size_cap=1021)
    assert p.n_vertices == 1020


def test_ell_below_four_rejected():
    with pytest.raises(ValueError):
        build_first_layer(3)


def test_up_closed_neighborhood_is_clique():
    p = build_prefix(4, parse_f_spec("cap:4"), 5, size_cap=10 ** 4)
    adj = p.adjacency()
    for g in range(p.n_vertices):
        closed = [p.vid(*w) for w in up_closed_neighborhood(p, p.loc(g))]
        for i, u in enumerate(closed):
            for v in closed[i + 1:]:
                assert v in adj[u]


def test_verify_rules_pass_on_built_prefixes(prefixes_2000):
    for p in prefixes_2000:
        report = verify_rules(p)
        assert report.passed, report.to_dict()


def test_verify_rules_detects_missing_cycle_arc(prefix_68):
    arcs = prefix_68.arcs()
    g = prefix_68.vid(2, 3)
    arcs.discard((g, prefix_68.cycle_next(g)))
    report = verify_rules(prefix_68, arcs)
    assert not report.check(2).passed


def test_verify_rules_detects_chord(prefix_68):
    arcs = prefix_68.arcs()
    arcs.add((prefix_68.vid(3, 0), prefix_68.vid(3, 7)))
    report = verify_rules(prefix_68, arcs)
    assert not report.check(2).passed


def test_verify_rules_detects_downward_arc(prefix_68):
    arcs = prefix_68.arcs()
    arcs.add((prefix_68.vid(4, 0), prefix_68.vid(1, 2)))
    report = verify_rules(prefix_68, arcs)
    assert not report.check(3).passed


def test_verify_rules_detects_second_parent(prefix_68):
    arcs = prefix_68.arcs()
    u = prefix_68.vid(3, 1)
    other = next(v for v in prefix_68.layer_range(2)
                 if v != prefix_68.parent[u])
    arcs.add((other, u))
    report = verify_rules(prefix_68, arcs)
    assert not report.check(4).passed


def test_verify_rules_detects_upward_mutation(prefix_68):
    q = prefix_68.copy()
    v = next(g for g in q.layer_range(3) if len(q.up[g]) == 2)
    q.up[v] = q.up[v][:1]
    report = verify_rules(q)
    assert not report.passed


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 6), st.sampled_from(["identity", "cap:3", "cap:4"]),
       st.integers(1, 4))
def test_random_prefixes_satisfy_rules(ell, fs, t):
    try:
        p = build_prefix(ell, parse_f_spec(fs), t, size_cap=3000)
    except SizeCapError:
        return
    assert verify_rules(p).passed

