import gc
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from layered_wheels import (
    WheelPrefix,
    build_prefix,
    parse_f_spec,
    verify_rules,
)
from layered_wheels import kernels, structure
from layered_wheels.wheel import (PIECE, SizeCapError, UnknownVertexError,
                                  _tiling_violation, canonical_violation,
                                  digit_text, positions, read_export)

from conftest import (PREFIXES_300, arbitrary_records, assert_same_text,
                      reference_extend, reference_json, reference_spans)


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


def test_up_entries_are_tuples():
    # a list never equals a tuple, so one list entry would make the
    # canonical check of a round-tripped record report a false mismatch
    for p in PREFIXES_300:
        q = WheelPrefix.from_json(p.to_json())
        assert all(type(ups) is tuple for ups in p.up + q.up)
        assert canonical_violation(q) is None


def test_up_entries_untracked_by_the_collector():
    # tuples of ints leave the collector's lists at the first collection
    # that sees them, where per-vertex lists would stay for good
    p = build_prefix(6, parse_f_spec("cap:4"), 6)
    gc.collect()
    assert not any(map(gc.is_tracked, p.up))


def test_json_writer_matches_reference():
    for p in PREFIXES_300:
        assert_same_text(p, "to_json", p.to_json(), reference_json(p))


def _null_parent_record(obj):
    # a record that keeps its up entries but loses its parent
    next(v for v in obj["vertices"] if v["parent"])["parent"] = None


def _empty_up_record(obj):
    # a record that keeps its parent but loses its up entries
    next(v for v in obj["vertices"] if v["parent"])["up"] = []


@pytest.mark.parametrize("edit", [_null_parent_record, _empty_up_record],
                         ids=["null-parent", "empty-up"])
def test_json_writer_on_parsed_mutants(edit):
    obj = json.loads(build_prefix(4, parse_f_spec("cap:3"), 4).to_json())
    edit(obj)
    q = WheelPrefix.from_json_obj(obj)
    assert q.to_json() == reference_json(q) == json.dumps(obj)


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


# -- position strings cut from one digit text ----------------------------

# the digit band edges 10^k - 1, 10^k, 10^k + 1 and the piece edges
# m * PIECE - 1, m * PIECE, m * PIECE + 1, with the pieces that cross
# 100,000 and reach 10^6
_EDGES = sorted({0} | {e + d for d in (-1, 0, 1)
                       for e in [10 ** k for k in range(1, 7)]
                       + [m * PIECE for m in (1, 2, 3, 24, 25, 244)]})


def test_positions_at_every_band_and_piece_edge():
    # every range that starts and ends at an edge, the empty ones too, up
    # to two pieces long: the writers cut at most PIECE + 1 at a time
    top = 10 ** 6 + 1
    text = digit_text(top)
    for a in _EDGES:
        for b in _EDGES:
            if a <= b <= a + 2 * PIECE + 2:
                assert positions(text, a, b) == list(map(str, range(a, b))), \
                    (a, b)
    assert positions(text, top, top + 1) == [str(top)]


@pytest.mark.parametrize("top", [
    0, 9, 10, 11, PIECE - 1, PIECE, PIECE + 1,
    # the edges of the 1000-number blocks, and the largest layers of
    # l=4 cap:3 t=12 and l=6 cap:4 t=8
    999, 1000, 1001, 1998, 1999, 2000, 10 ** 5 - 1, 10 ** 5, 10 ** 5 + 1,
    10 ** 6 - 1, 10 ** 6, 10 ** 6 + 1, 87568, 118368])
def test_digit_text_at_its_chunk_edges(top):
    text = digit_text(top)
    assert text == " ".join(map(str, range(top + 1)))
    assert positions(text, 0, top + 1) == text.split(" ")


# -- reading a file that is exactly its export ---------------------------

def _fields(p):
    return (p.ell, p.f.descriptor, p.layer_sizes, p.offsets, p.up, p.parent)


def test_exported_prefix_is_the_parsed_prefix():
    for p in PREFIXES_300:
        text = p.to_json()
        for exact in (text, text + "\n"):
            q = read_export(exact)
            assert _fields(q) == _fields(WheelPrefix.from_json(exact))


# characters that keep an edited export close to valid JSON
_EXPORT_CHARS = '0123456789[]{}, :"\nlnu-.'


@st.composite
def export_edits(draw):
    """A small prefix's export, with or without its final newline, and
    the same text with one character replaced, deleted or inserted."""
    p = draw(st.sampled_from(PREFIXES_300))
    text = p.to_json() + draw(st.sampled_from(["", "\n"]))
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(_EXPORT_CHARS))
    edit = draw(st.sampled_from(["replace", "delete", "insert"]))
    if edit == "insert":
        edited = text[:at] + char + text[at:]
    elif edit == "delete" or at == len(text):
        edited = text[:at] + text[at + 1:]
    else:
        edited = text[:at] + char + text[at + 1:]
    return p, edited


_SMALL = PREFIXES_300[2]


@settings(max_examples=300, deadline=None)
@given(export_edits())
@example((_SMALL, _SMALL.to_json() + "\n\n"))
@example((_SMALL, " " + _SMALL.to_json()))
@example((_SMALL, _SMALL.to_json()[:-1]))
@example((_SMALL, json.dumps(json.loads(_SMALL.to_json()), indent=1)))
def test_exported_prefix_refuses_any_edit(case):
    # every byte is compared: a text that reads back is the export of the
    # prefix it gives, and an edit past the header, which fixes the
    # prefix, reads back only as the export itself
    p, edited = case
    q = read_export(edited)
    if q is not None:
        assert edited in (q.to_json(), q.to_json() + "\n")
        assert _fields(q) == _fields(WheelPrefix.from_json(edited))
    text = p.to_json()
    head = text[:text.index(', "vertices": [')]
    if edited.startswith(head) and edited not in (text, text + "\n"):
        assert q is None


@pytest.mark.parametrize("field, value", [
    ("ell", 3), ("ell", "4"), ("ell", 4.0), ("ell", 10 ** 9),
    ("f_spec", "bogus"), ("f_spec", 5), ("f_spec", "cumulative:1,2,2"),
    ("num_layers", 0), ("num_layers", 40), ("num_layers", "3"),
], ids=["ell-3", "string-ell", "float-ell", "huge-ell", "bogus-f",
        "int-f", "bad-cumulative-f", "no-layers", "past-the-cap",
        "string-layers"])
def test_exported_prefix_is_none_for_a_header_that_does_not_build(field,
                                                                   value):
    obj = json.loads(build_prefix(4, parse_f_spec("cap:3"), 3).to_json())
    obj[field] = value
    assert read_export(json.dumps(obj)) is None


def _lists(p):
    """Copies of the four lists a construction step grows."""
    return [list(p.up), list(p.parent), list(p.offsets), list(p.layer_sizes)]


@pytest.mark.parametrize("spec", ["identity", "cap:3", "cap:4",
                                  "table:1,2,3,3,4", "cumulative:poly:2",
                                  "question84:poly:2"])
@pytest.mark.parametrize("ell", [4, 5, 6, 7])
def test_extend_matches_the_per_vertex_reference(ell, spec):
    # layer by layer up to a 5,000-vertex cap, then the same refusal,
    # which leaves the four lists as they were
    f = parse_f_spec(spec)
    p, q = build_prefix(ell, f, 1), build_prefix(ell, f, 1)
    while True:
        try:
            reference_extend(q, 5000)
        except SizeCapError as exc:
            want = str(exc)
            break
        p._extend(5000)
        assert _lists(p) == _lists(q)
    before = _lists(p)
    with pytest.raises(SizeCapError) as got:
        p._extend(5000)
    assert str(got.value) == want
    assert _lists(p) == before


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
        closed = (g,) + p.up[g]
        for i, u in enumerate(closed):
            for v in closed[i + 1:]:
                assert v in adj[u]


def _assert_adjacent_is_the_adjacency(p):
    adj = p.adjacency()
    for u in range(p.n_vertices):
        for w in range(p.n_vertices):
            assert p.adjacent(u, w) == (w in adj[u]), (p.loc(u), p.loc(w))
    # edges() gives every pair of the adjacency, and no other
    assert ({frozenset(e) for e in p.edges()}
            == {frozenset((u, w)) for u in range(p.n_vertices)
                for w in adj[u]})


@settings(max_examples=300, deadline=None)
@given(arbitrary_records())
def test_adjacent_is_adjacency_membership(p):
    _assert_adjacent_is_the_adjacency(p)


def test_adjacent_is_adjacency_membership_on_built_prefixes():
    for p in PREFIXES_300:
        if p.n_vertices <= 120:
            _assert_adjacent_is_the_adjacency(p)
            # each edge once, as (smaller id, larger id)
            edges = list(p.edges())
            assert len(set(edges)) == len(edges)
            assert all(u < w for u, w in edges)


def _assert_children_are_the_adjacency_ones(p):
    adj = p.adjacency()
    for g in range(p.n_vertices):
        want = sorted(u for u in adj[g] if p.parent[u] == g)
        kids = p.children(g)
        assert kids == want, p.loc(g)
        kids.append(g)          # the list is the caller's
        assert p.children(g) == want


@settings(max_examples=300, deadline=None)
@given(arbitrary_records())
def test_children_are_the_neighbors_with_that_parent(p):
    _assert_children_are_the_adjacency_ones(p)


def test_children_are_the_neighbors_with_that_parent_on_built_prefixes():
    for p in PREFIXES_300:
        if p.n_vertices <= 120:
            _assert_children_are_the_adjacency_ones(p)


def test_children_follow_a_new_layer():
    # the parent index is rebuilt when a layer is added
    p = build_prefix(4, parse_f_spec("cap:3"), 3)
    top = p.offsets[-1]
    assert p.children(top) == []
    p._extend(10 ** 4)
    assert p.children(top)[0] == p.offsets[-1]
    _assert_children_are_the_adjacency_ones(p)


def test_verify_rules_pass_on_built_prefixes(prefixes_2000, monkeypatch):
    # a passing record needs no adjacency
    def refused(self):
        raise AssertionError("verify_rules built the adjacency")

    monkeypatch.setattr(WheelPrefix, "adjacency", refused)
    for p in prefixes_2000:
        q = WheelPrefix.from_json(p.to_json())
        report = verify_rules(q)
        assert report["passed"], report


# Each mutation doctors the record of a freshly built prefix (n=68, layers
# 4, 8, 16, 40): its up lists, parents, layer sizes or ell.  The rules are
# checked on that record, so there is no other graph to doctor.

def _raise_ell(p):
    p.ell = 5


def _shorten_layer_1(p):
    # (1, 3) moves into layer 2, which leaves layer 1 below ell
    p.layer_sizes[:2] = [3, 9]
    p.offsets[1] = 3


def _same_layer_up(p):
    p.up[p.vid(3, 7)] += (p.vid(3, 0),)


def _up_from_layer_4(p):
    p.up[p.vid(1, 2)] += (p.vid(4, 0),)


def _second_previous_layer_up(p):
    u = p.vid(3, 0)
    p.up[u] += (next(v for v in p.layer_range(2) if v != p.parent[u]),)


def _three_previous_layer_neighbours(p):
    # (2, 1) twice, (2, 5), and (3, 0) in the up list of its parent (2, 0):
    # the adjacency merges the repeat and the two-way edge, so (3, 0) has
    # three neighbors in layer 2
    u = p.vid(3, 0)
    p.up[u] += (p.vid(2, 1), p.vid(2, 5), p.vid(2, 1))
    p.up[p.parent[u]] += (u,)


def _null_parent(p):
    p.parent[p.vid(3, 0)] = -1


def _cut_up_list(p):
    v = next(g for g in p.layer_range(3) if len(p.up[g]) == 2)
    p.up[v] = p.up[v][:1]


def _cycle_neighbours_up(p):
    # the predecessor's entry repeats the cycle arc (2, 2) -> (2, 3); the
    # successor's entry is the chord (2, 4) -> (2, 3)
    v = p.vid(2, 3)
    p.up[v] += (p.vid(2, 2), p.vid(2, 4))


def _orphan_last_vertex(p):
    # (4, 38), the one child of (3, 15), moves to (3, 14) with its up entry
    u = p.vid(4, 38)
    p.parent[u] = p.vid(3, 14)
    p.up[u] = (p.vid(3, 14),)


def _orphan_middle_vertex(p):
    # (4, 4), the one child of (3, 1), moves to (3, 2) with its up entry
    u = p.vid(4, 4)
    p.parent[u] = p.vid(3, 2)
    p.up[u] = (p.vid(3, 2),)


def _late_child(p):
    # (4, 5) follows (4, 4), the first child of (3, 1), yet becomes a child
    # of (3, 0)
    u = p.vid(4, 5)
    p.parent[u] = p.vid(3, 0)
    p.up[u] = (p.vid(3, 0),)


def _first_vertex_reparented(p):
    # (4, 0) moves from (3, 0) to (3, 1) with its up entry
    u = p.vid(4, 0)
    p.parent[u] = p.vid(3, 1)
    p.up[u] = (p.vid(2, 0), p.vid(3, 1))


def _last_layer_past_the_records(p):
    # no record holds (4, 40)
    p.layer_sizes[-1] += 1


def _layer_without_records(p):
    p.offsets.append(p.n_vertices)
    p.layer_sizes.append(80)


def _last_layer_short_of_the_records(p):
    # (4, 39) falls outside the layers
    p.layer_sizes[-1] -= 1


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
    (_three_previous_layer_neighbours, {
        3: "arc (3, 0) -> (2, 0) goes downward in layers",
        4: "vertex (3, 0) has 3 neighbors in the previous layer",
        5: "vertex (2, 0) has 2 > f(2)-1 upward neighbors"}),
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
    # rule 1 names a sum past the records, and no rule raises
    (_last_layer_past_the_records,
     {1: "layer sizes sum to 69, have 68 vertices"}),
    (_layer_without_records, {1: "layer sizes sum to 148, have 68 vertices"}),
    (_last_layer_short_of_the_records,
     {1: "layer sizes sum to 67, have 68 vertices"}),
], ids=["ell-raised", "short-layer", "same-layer-up", "up-from-layer-4",
        "second-previous-layer-up", "three-previous-layer-neighbours",
        "null-parent", "cut-up-list",
        "cycle-neighbours-up", "orphan-last-vertex", "orphan-middle-vertex",
        "late-child",
        "first-vertex-reparented", "last-layer-past-the-records",
        "layer-without-records", "last-layer-short-of-the-records"])
def test_verify_rules_report_pinned(mutate, failures):
    p = build_prefix(4, parse_f_spec("cap:3"), 4)
    mutate(p)
    assert verify_rules(p) == {
        "passed": False,
        "rules": [{"rule": rule, "name": name, "passed": rule not in failures,
                   "detail": failures.get(rule, "")}
                  for rule, name in enumerate(RULE_NAMES, 1)],
    }


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


def reference_rules23(p):
    """Rules 2 and 3 from a walk over every vertex and every up entry:
    (the first chord or short layer, the first downward arc), each None
    when the rule holds."""
    layer = p._layers()
    sizes = p.layer_sizes
    chords = [[] for _ in range(len(sizes) + 1)]
    downward = None
    for v in range(p.n_vertices):
        for w in p.up[v]:
            if layer[w] > layer[v]:
                if downward is None:
                    downward = (w, v)
            elif layer[w] == layer[v] and (v - w) % sizes[layer[v] - 1] != 1:
                chords[layer[v]].append((w, v))
    v2 = None
    for i, size in enumerate(sizes, 1):
        if size < p.ell:
            v2 = "layer %d has %d < ell vertices" % (i, size)
            break
        if chords[i]:
            u, v = min(chords[i])
            v2 = "layer %d has chord %s -> %s" % (i, p.loc(u), p.loc(v))
            break
    v3 = None
    if downward is not None:
        v3 = "arc %s -> %s goes downward in layers" % (
            p.loc(downward[0]), p.loc(downward[1]))
    return v2, v3


def reference_rule5(p):
    """Rule 5 with the pairs of each up list tested on the adjacency."""
    layer = p._layers()
    adj = p.adjacency()
    for v in range(p.n_vertices):
        i, upv = layer[v], p.up[v]
        if len(upv) > p.f(i) - 1:
            return "vertex %s has %d > f(%d)-1 upward neighbors" % (
                p.loc(v), len(upv), i)
        seen = set()
        for w in upv:
            if layer[w] >= i or layer[w] in seen:
                return "vertex %s: upward neighbor %s repeats a layer " \
                       "or is not above" % (p.loc(v), p.loc(w))
            seen.add(layer[w])
        for a, w in enumerate(upv):
            for x in upv[a + 1:]:
                if x not in adj[w]:
                    return "vertex %s: upward neighbors %s and %s are " \
                           "not adjacent" % (p.loc(v), p.loc(w), p.loc(x))
    return None


_MUTANT_BASES = [build_prefix(ell, parse_f_spec(fs), t).to_json()
                 for ell, fs, t in [(4, "cap:3", 4), (4, "identity", 4),
                                    (5, "cap:3", 3), (6, "cap:4", 3)]]


@st.composite
def json_mutants(draw):
    """A small prefix's JSON with one to three of: a vertex re-parented
    together with its up entry, the parent and up of two vertices of one
    layer swapped, an up entry dropped, an up list reversed, a parent
    nulled, and an up entry added that is from the next layer, a repeat,
    the vertex itself or from the vertex's own layer."""
    obj = json.loads(draw(st.sampled_from(_MUTANT_BASES)))
    recs = obj["vertices"]
    sizes = obj["layers"]

    def near(pos, size, other):
        # anywhere in a layer of other vertices, or next to the position
        # proportional to pos, where a one-step break is likeliest
        mid = pos * other // size
        return draw(st.one_of(
            st.integers(0, other - 1),
            st.integers(mid - 2, mid + 2).map(lambda q: q % other)))

    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["reparent", "swap", "drop-up",
                                     "reverse-up", "null-parent",
                                     "next-layer-up",
                                     "repeat-up", "self-up",
                                     "own-layer-up"]))
        rec = draw(st.sampled_from(recs))
        layer = rec["layer"]
        size = sizes[layer - 1]
        if kind == "reparent" and layer > 1:
            new = [layer - 1, near(rec["pos"], size, sizes[layer - 2])]
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
        elif kind == "reverse-up":
            # rule 5 puts no order on an up list: later layers may come
            # first, so a clique test must look both ways
            rec["up"].reverse()
        elif kind == "null-parent":
            rec["parent"] = None
        elif kind == "next-layer-up" and layer < len(sizes):
            # a downward arc that gives the next-layer vertex a neighbor
            # in its previous layer, often its parent again
            rec["up"].append([layer + 1,
                              near(rec["pos"], size, sizes[layer])])
        elif kind == "repeat-up" and rec["up"]:
            rec["up"].append(list(draw(st.sampled_from(rec["up"]))))
        elif kind == "self-up":
            rec["up"].append([layer, rec["pos"]])
        elif kind == "own-layer-up":
            # anywhere in the layer, or the cycle predecessor or successor
            rec["up"].append([layer, draw(st.one_of(
                st.integers(0, size - 1),
                st.sampled_from([-1, 1]).map(
                    lambda d: (rec["pos"] + d) % size)))])
    return WheelPrefix.from_json_obj(obj)


@settings(max_examples=300, deadline=None)
@given(json_mutants())
def test_verify_rules_matches_references_on_json_mutants(p):
    v2, v3 = reference_rules23(p)
    v4, tiling = reference_rule4(p)
    if tiling:
        # the verdicts agree; only the wording of a tiling failure differs
        v4 = _tiling_violation(p)
        assert v4 is not None
    details = [None, v2, v3, v4, reference_rule5(p)]
    report = verify_rules(p)
    assert report == {
        "passed": all(d is None for d in details),
        "rules": [{"rule": rule, "name": name, "passed": d is None,
                   "detail": d or ""}
                  for rule, (name, d) in enumerate(zip(RULE_NAMES, details),
                                                   1)],
    }


@settings(max_examples=200, deadline=None)
@given(json_mutants())
def test_shortest_hole_up_to_is_the_kernel_on_json_mutants(p):
    # at ell=4 the layer-1 probe, elsewhere the whole-graph scan: both
    # answer as the kernel does on the adjacency of the whole record
    assert structure.shortest_hole_up_to(p) == kernels.shortest_hole(
        p.n_vertices, p.adjacency(), p.ell)


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
    p.up += [()] * 4
    p.parent += [-1] * 4
    assert canonical_violation(p) == (
        "vertex (16, 4): layer 16 holds 4 vertices, where the layer of "
        "build_prefix(4, identity, 16) passes 200000")
