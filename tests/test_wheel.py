import json

import pytest
from hypothesis import given, settings, strategies as st

from layered_wheels import (
    WheelPrefix,
    build_prefix,
    parse_f_spec,
    verify_rules,
)
from layered_wheels.wheel import (SizeCapError, UnknownVertexError,
                                  canonical_violation)

from conftest import reference_spans


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
    p = build_prefix(5, parse_f_spec("identity"), 1)
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
    start, count = reference_spans(p)[v]
    assert len(kids) == 2 and kids[0] == start and count == 4
    w1, w2 = p.up[v]           # sorted by layer
    assert p.layer_of(w1) < p.layer_of(w2)
    ups = [set(p.up[u]) for u in range(start, start + count)]
    assert ups == [{v, w2}, set(), {v, w1}, set()]


def test_rule6_single_block():
    # identity f never saturates the upward budget, so every vertex gets
    # exactly ell-2 descendants with the first child taking the closed
    # upward neighborhood
    p = build_prefix(4, parse_f_spec("identity"), 4)
    span = reference_spans(p)
    for layer in range(1, 4):
        for v in p.layer_range(layer):
            start, count = span[v]
            assert count == 2
            assert set(p.up[start]) == {v} | set(p.up[v])


def test_determinism():
    a = build_prefix(5, parse_f_spec("cap:3"), 4, size_cap=10 ** 4)
    b = build_prefix(5, parse_f_spec("cap:3"), 4, size_cap=10 ** 4)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("ell,fs,t,n", [
    (4, "cap:3", 4, 68),
    (6, "cap:4", 6, 8718),
    (4, "cap:3", 11, 54124),   # scale guard for the JSON read path
], ids=["n68", "n8718", "n54124"])
def test_json_round_trip_byte_identical(ell, fs, t, n):
    p = build_prefix(ell, parse_f_spec(fs), t)
    assert p.n_vertices == n
    text = p.to_json()
    q = WheelPrefix.from_json(text)
    assert q.to_json() == text
    assert q.parent == p.parent and q.up == p.up
    for layer in range(1, q.num_layers + 1):
        assert all(q.layer_of(g) == layer for g in q.layer_range(layer))


@pytest.mark.parametrize("spec", [
    "identity", "cap:4", "table:1,2,3,3,4", "cumulative:1,2,5",
    "cumulative:poly:2", "question84:poly:2", "question84:coeffs:3",
])
def test_json_round_trip_every_spec_form(spec):
    # the f_spec a prefix writes is the descriptor, which parses back to f
    f = parse_f_spec(spec)
    p = build_prefix(4, f, 4)
    text = p.to_json()
    assert WheelPrefix.from_json(text).to_json() == text
    g = parse_f_spec(f.descriptor)
    assert [g(i) for i in range(1, 31)] == [f(i) for i in range(1, 31)]


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
    # the first layer counts too
    with pytest.raises(SizeCapError):
        build_prefix(6, parse_f_spec("cap:3"), 1, size_cap=5)


def test_ell_below_four_rejected():
    with pytest.raises(ValueError):
        build_prefix(3, parse_f_spec("identity"), 1)


def test_up_closed_neighborhood_is_clique():
    p = build_prefix(4, parse_f_spec("cap:4"), 5, size_cap=10 ** 4)
    adj = p.adjacency()
    for g in range(p.n_vertices):
        closed = [g] + p.up[g]
        for i, u in enumerate(closed):
            for v in closed[i + 1:]:
                assert v in adj[u]


def test_verify_rules_pass_on_built_prefixes(prefixes_2000):
    for p in prefixes_2000:
        report = verify_rules(p)
        assert report.passed, report.to_dict()


# Each mutation doctors the record of a freshly built prefix (n=68, layers
# 4, 8, 16, 40): its up lists, parents, layer sizes or ell.  The rules are
# checked on that record, so there is no other graph to doctor.

def _fresh():
    return build_prefix(4, parse_f_spec("cap:3"), 4)


def _raise_ell(p):
    p.ell = 5


def _shorten_layer_1(p):
    # (1, 3) moves into layer 2, which leaves layer 1 below ell
    p.layer_sizes[:2] = [3, 9]
    p.offsets[1] = 3


def _same_layer_up(p):
    p.up[p.vid(3, 7)].append(p.vid(3, 0))


def _up_from_layer_4(p):
    p.up[p.vid(1, 2)].append(p.vid(4, 0))


def _second_previous_layer_up(p):
    u = p.vid(3, 0)
    p.up[u].append(next(v for v in p.layer_range(2) if v != p.parent[u]))


def _null_parent(p):
    p.parent[p.vid(3, 0)] = -1


def _cut_up_list(p):
    v = next(g for g in p.layer_range(3) if len(p.up[g]) == 2)
    p.up[v] = p.up[v][:1]


def _cycle_neighbours_up(p):
    # the predecessor's entry repeats the cycle arc (2, 2) -> (2, 3); the
    # successor's entry is the chord (2, 4) -> (2, 3)
    v = p.vid(2, 3)
    p.up[v] += [p.vid(2, 2), p.vid(2, 4)]


def _orphan_last_vertex(p):
    # (4, 38), the one child of (3, 15), moves to (3, 14) with its up entry
    u = p.vid(4, 38)
    p.parent[u] = p.vid(3, 14)
    p.up[u] = [p.vid(3, 14)]


def _orphan_middle_vertex(p):
    # (4, 4), the one child of (3, 1), moves to (3, 2) with its up entry
    u = p.vid(4, 4)
    p.parent[u] = p.vid(3, 2)
    p.up[u] = [p.vid(3, 2)]


def _late_child(p):
    # (4, 5) follows (4, 4), the first child of (3, 1), yet becomes a child
    # of (3, 0)
    u = p.vid(4, 5)
    p.parent[u] = p.vid(3, 0)
    p.up[u] = [p.vid(3, 0)]


def _first_vertex_reparented(p):
    # (4, 0) moves from (3, 0) to (3, 1) with its up entry
    u = p.vid(4, 0)
    p.parent[u] = p.vid(3, 1)
    p.up[u] = [p.vid(2, 0), p.vid(3, 1)]


def _mutated(mutate):
    p = _fresh()
    mutate(p)
    return verify_rules(p)


RULE_NAMES = ["layers partition V", "layers induce directed cycles",
              "cross arcs oriented by layer",
              "descendant paths tile the next layer",
              "upward neighborhoods are per-layer cliques"]


# the full report of each single mutation: which rules fail, and the first
# violation each one names
@pytest.mark.parametrize("mutate, failures", [
    (_raise_ell, {2: "layer 1 has 4 < ell vertices"}),
    (_shorten_layer_1, {
        2: "layer 1 has 3 < ell vertices",
        4: "vertex (2, 7): recorded parent (2, 0) but adjacency gives None",
        5: "vertex (2, 7): upward neighbor (2, 0) repeats a layer or is "
           "not above"}),
    (_same_layer_up, {
        2: "layer 3 has chord (3, 0) -> (3, 7)",
        5: "vertex (3, 7): upward neighbor (3, 0) repeats a layer or is "
           "not above"}),
    (_up_from_layer_4, {
        3: "arc (4, 0) -> (1, 2) goes downward in layers",
        5: "vertex (1, 2) has 1 > f(1)-1 upward neighbors"}),
    (_second_previous_layer_up, {
        4: "vertex (3, 0) has 2 neighbors in the previous layer",
        5: "vertex (3, 0) has 3 > f(3)-1 upward neighbors"}),
    (_null_parent, {
        4: "vertex (3, 0): recorded parent None but adjacency gives (2, 0)"}),
    (_cut_up_list, {
        4: "vertex (3, 0): recorded parent (2, 0) but adjacency gives None",
        5: "vertex (4, 0): upward neighbors (2, 0) and (3, 0) are not "
           "adjacent"}),
    (_cycle_neighbours_up, {
        2: "layer 2 has chord (2, 4) -> (2, 3)",
        5: "vertex (2, 3) has 2 > f(2)-1 upward neighbors"}),
    (_orphan_last_vertex, {4: "vertex (3, 15) has no child"}),
    (_orphan_middle_vertex, {
        4: "vertex (4, 4) has parent (3, 2) but follows a child of (3, 0)"}),
    (_late_child, {
        4: "vertex (4, 5) has parent (3, 0) but follows a child of (3, 1)"}),
    (_first_vertex_reparented, {
        4: "vertex (4, 0) is not a child of (3, 0)",
        5: "vertex (4, 0): upward neighbors (2, 0) and (3, 1) are not "
           "adjacent"}),
], ids=["ell-raised", "short-layer", "same-layer-up", "up-from-layer-4",
        "second-previous-layer-up", "null-parent", "cut-up-list",
        "cycle-neighbours-up", "orphan-last-vertex", "orphan-middle-vertex",
        "late-child",
        "first-vertex-reparented"])
def test_verify_rules_report_pinned(mutate, failures):
    assert _mutated(mutate).to_dict() == {
        "passed": False,
        "rules": [{"rule": rule, "name": name, "passed": rule not in failures,
                   "detail": failures.get(rule, "")}
                  for rule, name in enumerate(RULE_NAMES, 1)],
    }


def test_verify_rules_detects_short_layer():
    assert not _mutated(_shorten_layer_1).check(2).passed


def test_verify_rules_detects_chord():
    assert not _mutated(_same_layer_up).check(2).passed


def test_verify_rules_detects_downward_arc():
    assert not _mutated(_up_from_layer_4).check(3).passed


def test_verify_rules_detects_second_parent():
    assert not _mutated(_second_previous_layer_up).check(4).passed


def test_verify_rules_detects_upward_mutation():
    assert not _mutated(_cut_up_list).passed


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 6), st.sampled_from(["identity", "cap:3", "cap:4"]),
       st.integers(1, 4))
def test_random_prefixes_satisfy_rules(ell, fs, t):
    try:
        p = build_prefix(ell, parse_f_spec(fs), t, size_cap=3000)
    except SizeCapError:
        return
    assert verify_rules(p).passed



# -- the tiling half of rule 4 against descendant spans -------------------

def reference_rule4(p):
    """Rule 4 checked on the spans recovered from the parents: (the first
    violation or None, whether it lies in the tiling half)."""
    layer = p._layers()
    adj = p.adjacency()
    for u in range(p.n_vertices):
        prev = [w for w in adj[u] if layer[w] == layer[u] - 1]
        if len(prev) > 1:
            return "vertex %s has %d neighbors in the previous layer" % (
                p.loc(u), len(prev)), False
        rec_parent = p.parent[u] if p.parent[u] >= 0 else None
        got = prev[0] if prev else None
        if rec_parent != got:
            return "vertex %s: recorded parent %s but adjacency gives %s" % (
                p.loc(u),
                p.loc(rec_parent) if rec_parent is not None else None,
                p.loc(got) if got is not None else None), False
    span = reference_spans(p)
    for i in range(1, p.num_layers):
        cursor = p.offsets[i]  # position 0 of layer i+1
        for v in p.layer_range(i):
            sp = span[v]
            if sp is None or sp[0] != cursor or sp[1] < 1:
                return "vertex %s: descendant span %s does not tile " \
                       "layer %d" % (p.loc(v), sp, i + 1), True
            lo, cnt = sp
            below = {w for w in adj[v] if layer[w] == i + 1}
            if not below:
                return "vertex %s has no child" % (p.loc(v),), True
            if not below <= set(range(lo, lo + cnt)):
                return "vertex %s has a next-layer neighbor outside its " \
                       "span" % (p.loc(v),), True
            if lo not in below:
                return "vertex %s is not adjacent to the first vertex of " \
                       "its span" % (p.loc(v),), True
            cursor = lo + cnt
        if cursor != p.offsets[i] + p.layer_sizes[i]:
            return "spans of layer %d do not cover layer %d" % (
                i, i + 1), True
    return None, False


_MUTANT_BASES = [build_prefix(ell, parse_f_spec(fs), t).to_json()
                 for ell, fs, t in [(4, "cap:3", 4), (4, "identity", 4),
                                    (5, "cap:3", 3), (6, "cap:4", 3)]]


@st.composite
def json_mutants(draw):
    """A small prefix's JSON with one to three of: a vertex re-parented
    together with its up entry, the parent and up of two vertices of one
    layer swapped, an up entry dropped, a parent nulled."""
    obj = json.loads(draw(st.sampled_from(_MUTANT_BASES)))
    recs = obj["vertices"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["reparent", "swap", "drop-up",
                                     "null-parent"]))
        rec = draw(st.sampled_from(recs))
        layer = rec["layer"]
        if kind == "reparent" and layer > 1:
            # anywhere in the previous layer, or next to the position
            # proportional to rec's, where a one-step break is likeliest
            above, size = obj["layers"][layer - 2], obj["layers"][layer - 1]
            near = rec["pos"] * above // size
            new = [layer - 1, draw(st.one_of(
                st.integers(0, above - 1),
                st.integers(near - 2, near + 2).map(lambda q: q % above)))]
            old = rec["parent"]
            if old is None:
                rec["up"].append(new)
            else:
                rec["up"] = [new if w == old else w for w in rec["up"]]
            rec["parent"] = new
        elif kind == "swap":
            other = draw(st.sampled_from([r for r in recs
                                          if r["layer"] == layer]))
            rec["parent"], other["parent"] = other["parent"], rec["parent"]
            rec["up"], other["up"] = other["up"], rec["up"]
        elif kind == "drop-up" and rec["up"]:
            del rec["up"][draw(st.integers(0, len(rec["up"]) - 1))]
        elif kind == "null-parent":
            rec["parent"] = None
    return WheelPrefix.from_json_obj(obj)


@settings(max_examples=300, deadline=None)
@given(json_mutants())
def test_rule4_matches_span_reference_on_json_mutants(p):
    # the verdicts agree; only the wording of a tiling failure differs
    got = verify_rules(p).check(4)
    ref, tiling = reference_rule4(p)
    assert got.passed == (ref is None)
    if not tiling:
        assert got.detail == (ref or "")


def test_rule4_reference_passes_built_prefixes(prefixes_2000):
    for p in prefixes_2000:
        assert reference_rule4(p) == (None, False)


def test_canonical_violation_passes_built_prefixes(prefixes_2000):
    for p in prefixes_2000:
        assert canonical_violation(p) is None


def test_canonical_violation_at_a_layer_past_the_cap():
    # layers 1..15 are canonical; the construction's layer 16 alone would
    # bring it past the 200,000-vertex cap, so it is a size mismatch
    p = build_prefix(4, parse_f_spec("identity"), 15)
    n = p.n_vertices
    p.offsets.append(n)
    p.layer_sizes.append(4)
    p.up += [[] for _ in range(4)]
    p.parent += [-1] * 4
    assert canonical_violation(p) == (
        "vertex (16, 4): layer 16 holds 4 vertices, where the layer of "
        "build_prefix(4, identity, 16) passes 200000")
