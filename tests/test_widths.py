import gc
import json
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from layered_wheels import WheelPrefix, build_prefix, parse_f_spec
from layered_wheels import kernels
from layered_wheels import structure as S
from layered_wheels import widths as W
from layered_wheels.functions import INF

from conftest import (PREFIXES_300, masks_of, reference_decomposition,
                      reference_elimination, reference_validate, targets)

# three components on l=4 cap:4 t=4: (1, 3) and (3, 2) alone, and the
# path (2, 3), (3, 6), (4, 12); both root-chain edges merge, the second
# from a root that has absorbed a vertex
_P44 = build_prefix(4, parse_f_spec("cap:4"), 4)
THREE_COMPONENTS = (_P44, [_P44.vid(*v) for v in
                           ((1, 3), (2, 3), (3, 2), (3, 6), (4, 12))])


# -- formula --------------------------------------------------------------

def test_formula_infinite_when_F_is():
    assert W.tw_upper_bound_formula(4, parse_f_spec("cap:3"), 3) == INF


def test_formula_finite_example():
    f = parse_f_spec("cumulative:1,2,3,4")   # F(4)=4 then infinite
    assert W.tw_upper_bound_formula(5, f, 3) == 360


def test_formula_omega_one():
    for ell in (4, 5, 7):
        assert (W.tw_upper_bound_formula(ell, parse_f_spec("identity"), 1)
                == 15 * (ell + 3))


def test_formula_monotone_in_omega_and_ell():
    f = parse_f_spec("identity")
    vals = [W.tw_upper_bound_formula(4, f, w) for w in range(1, 8)]
    assert vals == sorted(vals)
    by_ell = [W.tw_upper_bound_formula(ell, f, 3) for ell in range(4, 9)]
    assert by_ell == sorted(by_ell)


def test_formula_rejects_bad_omega():
    with pytest.raises(ValueError):
        W.tw_upper_bound_formula(4, parse_f_spec("identity"), 0)


# -- lower bounds and the exact oracle ------------------------------------

def test_minor_lower_bound_values():
    p5 = build_prefix(4, parse_f_spec("identity"), 5)
    lo, cert = W.tw_lower_bound_minor(p5)
    assert lo == 4 and cert.verdict
    p1 = build_prefix(4, parse_f_spec("identity"), 1)
    assert W.tw_lower_bound_minor(p1)[0] == 0


def test_minor_lower_bound_fails_on_mutation():
    # with no edge between layers 1 and 3 the minor certifies nothing
    q = build_prefix(4, parse_f_spec("cap:3"), 4)
    for g in q.layer_range(3):
        q.up[g] = tuple(w for w in q.up[g] if q.layer_of(w) != 1)
    lo, cert = W.tw_lower_bound_minor(q)
    assert not cert.verdict and lo == 3
    assert cert.data["first_missing_pair"] == [1, 3]


# -- decompositions -------------------------------------------------------

def test_decomposition_single_bag_cases(prefix_68):
    omega, cert = S.clique_number_exact(prefix_68)
    clique = {prefix_68.vid(*v) for v in cert.data["clique"]}
    dec = W.decomposition_from_separators(prefix_68, clique)
    assert len(dec.bags) == 1 and dec.bags[0] == frozenset(clique)
    # the path of three layer-1 vertices: one bag per edge
    tiny = set(list(prefix_68.layer_range(1))[:3])
    dec2 = W.decomposition_from_separators(prefix_68, tiny)
    assert len(dec2.bags) == 2 and dec2.width == 1


def test_decomposition_frees_prefix_without_cyclic_gc():
    p = build_prefix(4, parse_f_spec("cap:3"), 4)
    ref = weakref.ref(p)
    gc.disable()
    try:
        W.decomposition_from_separators(p, range(p.n_vertices))
        del p
        assert ref() is None
    finally:
        gc.enable()


def test_decomposition_valid_on_68(prefix_68):
    X = range(prefix_68.n_vertices)
    dec = W.decomposition_from_separators(prefix_68, X)
    assert dec.validate(range(prefix_68.n_vertices), prefix_68.edges())
    assert dec.width >= 3   # >= t-1 by the minor bound


@settings(max_examples=200, deadline=None)
@given(targets())
def test_decomposition_valid_on_random_targets(case):
    p, X = case
    dec = W.decomposition_from_separators(p, X)
    order, local = S.induced_adjacency(p, X)
    edges = [(order[i], order[j]) for i in range(len(order))
             for j in local[i] if i < j]
    assert dec.validate(X, edges)
    assert all(bag <= set(X) for bag in dec.bags)
    if len(X) <= 32:
        assert kernels.treewidth_exact(len(order), local) <= dec.width


# a single vertex, and two layer-1 vertices with no edge between them
@settings(max_examples=200, deadline=None)
@given(targets())
@example((PREFIXES_300[0], [0]))
@example((PREFIXES_300[-1], [0, 2]))
def test_decomposition_matches_reference_elimination(case):
    p, X = case
    dec = W.decomposition_from_separators(p, X)
    ref = reference_decomposition(p, X)
    assert dec.bags == ref.bags
    assert dec.edges == ref.edges


@settings(max_examples=200, deadline=None)
@given(targets())
@example(THREE_COMPONENTS)
def test_merge_premise_holds_before_any_merge(case):
    # what the counted merge of decomposition_from_separators relies on:
    # a bag less its vertex lies in its parent's bag, a root bag is its
    # vertex alone, so roots are pairwise disjoint, and then every union
    # the merge makes has the counted size
    p, X = case
    vertex, bags, parent = reference_elimination(p, X)
    for i, q in enumerate(parent):
        if q is not None:
            assert bags[i] - {vertex[i]} <= bags[q]
    roots = [i for i, q in enumerate(parent) if q is None]
    assert all(bags[r] == {vertex[r]} for r in roots)
    assert len(set().union(*(bags[r] for r in roots))) == len(roots)
    for r, nxt in zip(roots, roots[1:]):
        parent[r] = nxt
    widest = max(map(len, bags))
    absorbed = [set() for _ in bags]
    for i, q in enumerate(parent):
        if q is not None:
            union = bags[i] | bags[q]
            assert len(union) == len(bags[q]) + 1 + len(absorbed[i])
            if len(union) <= widest:
                bags[q] = union
                absorbed[q] |= absorbed[i] | {vertex[i]}


def test_three_components_merge_along_the_root_chain():
    p, X = THREE_COMPONENTS
    assert reference_elimination(p, X)[2].count(None) == 3
    dec = W.decomposition_from_separators(p, X)
    assert dec == reference_decomposition(p, X)
    assert len(dec.bags) == 2 and dec.width == 2


def _bag_independence(p, bag):
    # the oracle route: G[bag] as sets, each search from floor 0
    order, local = S.induced_adjacency(p, bag)
    return len(kernels.max_independent_set(len(order), masks_of(local), 0))


# a bag of a layer's last and first positions, joined by the wrap arc;
# and a 1-vertex bag
@settings(max_examples=100, deadline=None)
@given(targets())
@example((_P44, [_P44.vid(2, 0), _P44.vid(2, _P44.layer_sizes[1] - 1)]))
@example((PREFIXES_300[0], [3]))
def test_independent_width_is_the_largest_bag_independence(case):
    p, X = case
    dec = W.decomposition_from_separators(p, X)
    unbounded = max(_bag_independence(p, bag) for bag in dec.bags)
    assert W.independent_width(p, dec) == unbounded
    assert unbounded == max(S.max_independent_set_exact(p, bag)[0]
                            for bag in dec.bags)


def test_decomposition_validator_catches_violations(prefix_68):
    X = range(prefix_68.n_vertices)
    dec = W.decomposition_from_separators(prefix_68, X)
    edges = prefix_68.edges()
    vertices = range(prefix_68.n_vertices)
    broken = W.TreeDecomposition([b - {0} for b in dec.bags],
                                 list(dec.edges))
    assert not broken.validate(vertices, edges)
    if len(dec.bags) > 1:
        disconnected = W.TreeDecomposition(list(dec.bags),
                                           list(dec.edges)[:-1])
        assert not disconnected.validate(vertices, edges)


@st.composite
def decompositions(draw):
    """A valid decomposition (bags, tree) with graph edges inside bags."""
    k = draw(st.integers(1, 8))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]
    nbr = {i: set() for i in range(k)}
    for (i, j) in tree:
        nbr[i].add(j)
        nbr[j].add(i)
    n = draw(st.integers(1, 10))
    bags = [set() for _ in range(k)]
    for v in range(n):
        sub = {draw(st.integers(0, k - 1))}
        for _ in range(draw(st.integers(0, k - 1))):
            grow = sorted({j for i in sub for j in nbr[i]} - sub)
            if not grow:
                break
            sub.add(draw(st.sampled_from(grow)))
        for i in sub:
            bags[i].add(v)
    pairs = sorted({(u, v) for b in bags for u in b for v in b if u < v})
    edges = [e for e in pairs if draw(st.booleans())]
    return bags, tree, list(range(n)), edges


MUTATIONS = ("none", "drop-vertex", "drop-tree-edge", "add-cycle-edge",
             "rewire-tree-edge", "split-vertex", "uncovered-vertex",
             "duplicate-tree-edge", "self-loop-tree-edge",
             "edge-across-subtrees")


@settings(max_examples=400, deadline=None)
@given(decompositions(), st.sampled_from(MUTATIONS), st.data())
def test_validate_matches_reference(case, mutation, data):
    bags, tree, vertices, edges = case
    assert W.TreeDecomposition([frozenset(b) for b in bags],
                               list(tree)).validate(vertices, edges)
    k = len(bags)
    pick = data.draw
    non_tree = [(i, j) for i in range(k) for j in range(i + 1, k)
                if (i, j) not in tree and (j, i) not in tree]
    if mutation == "drop-vertex":
        i = pick(st.sampled_from([i for i in range(k) if bags[i]]))
        bags[i].discard(pick(st.sampled_from(sorted(bags[i]))))
    elif mutation == "drop-tree-edge" and tree:
        tree.remove(pick(st.sampled_from(tree)))
    elif mutation == "add-cycle-edge" and non_tree:
        tree.append(pick(st.sampled_from(non_tree)))
    elif mutation == "rewire-tree-edge" and non_tree:
        tree.remove(pick(st.sampled_from(tree)))
        tree.append(pick(st.sampled_from(non_tree)))
    elif mutation == "split-vertex" and non_tree:
        v = pick(st.sampled_from(vertices))
        for b in bags:
            b.discard(v)
        i, j = pick(st.sampled_from(non_tree))
        bags[i].add(v)
        bags[j].add(v)
    elif mutation == "uncovered-vertex":
        vertices = vertices + [len(vertices)]
    elif mutation == "duplicate-tree-edge" and len(tree) > 1:
        # the edge count stays right, but the tree falls apart
        i, j = pick(st.sampled_from(tree))
        tree.remove(pick(st.sampled_from([e for e in tree if e != (i, j)])))
        tree.append((j, i))
    elif mutation == "self-loop-tree-edge" and tree:
        tree.remove(pick(st.sampled_from(tree)))
        i = pick(st.integers(0, k - 1))
        tree.append((i, i))
    elif mutation == "edge-across-subtrees" and tree:
        # u's bags and v's bags are disjoint but joined by a tree edge
        i, j = pick(st.sampled_from(tree))
        u, v = len(vertices), len(vertices) + 1
        for w, near, far in ((u, i, j), (v, j, i)):
            # grown from one end of the tree edge, never across it
            sub = {near}
            for _ in range(pick(st.integers(0, k - 1))):
                grow = sorted({b for e in tree if sub & set(e) for b in e}
                              - sub - {far})
                if not grow:
                    break
                sub.add(pick(st.sampled_from(grow)))
            for a in sub:
                bags[a].add(w)
        vertices = vertices + [u, v]
        edges = edges + [(u, v)]
    dec = W.TreeDecomposition([frozenset(b) for b in bags], tree)
    assert dec.validate(vertices, edges) == \
        reference_validate(dec, vertices, edges)


def test_sandwich_on_small_prefixes():
    for (ell, t) in [(4, 3), (5, 2), (6, 2)]:
        p = build_prefix(ell, parse_f_spec("cap:3"), t)
        if p.n_vertices > 32:
            continue
        lo, _ = W.tw_lower_bound_minor(p)
        exact = kernels.treewidth_exact(p.n_vertices, p.adjacency())
        dec = W.decomposition_from_separators(p, range(p.n_vertices))
        assert dec.validate(range(p.n_vertices), p.edges())
        assert lo <= exact <= dec.width


def test_independent_width_examples(prefix_68):
    omega, cert = S.clique_number_exact(prefix_68)
    clique = frozenset(prefix_68.vid(*v) for v in cert.data["clique"])
    kdec = W.TreeDecomposition([clique])
    assert W.independent_width(prefix_68, kdec) == 1
    stable = frozenset(prefix_68.vid(1, i) for i in (0, 2))
    sdec = W.TreeDecomposition([stable])
    assert W.independent_width(prefix_68, sdec) == 2
    X = range(prefix_68.n_vertices)
    dec = W.decomposition_from_separators(prefix_68, X)
    assert W.independent_width(prefix_68, dec) <= dec.width + 1


def test_ta_lower_bound(prefix_68):
    ta, cert = W.ta_lower_bound_certified(prefix_68)
    assert ta == 2 and cert.verdict           # ceil(4/3)
    p22 = build_prefix(4, parse_f_spec("cap:3"), 2)
    assert W.ta_lower_bound_certified(p22)[0] == 1


def test_ta_lower_bound_on_small_prefixes():
    # ceil(t / omega) with omega from the kernel search, and rule 5 passes
    for p in PREFIXES_300:
        ta, cert = W.ta_lower_bound_certified(p)
        omega = len(S.induced_max_clique(p, range(p.n_vertices)))
        assert ta == -(-p.num_layers // omega) and cert.verdict, \
            (p.ell, p.f.descriptor, p.num_layers)
        assert cert.data["chordal_transversals"] == {
            "by": "rule 5", "passed": True, "detail": ""}


def test_ta_lower_bound_fails_on_a_non_clique_up_list():
    # (1, 0) and (2, 1) are not adjacent, so some transversal through
    # (3, 2) need not be chordal; the minor and the clique certificate
    # still pass, so only rule 5 can refuse the bound
    p = build_prefix(4, parse_f_spec("cap:3"), 5)
    p.up[p.vid(3, 2)] = (p.vid(1, 0), p.vid(2, 1))
    ta, cert = W.ta_lower_bound_certified(p)
    assert ta == 2 and not cert.verdict
    chordal = cert.data["chordal_transversals"]
    assert chordal["by"] == "rule 5" and not chordal["passed"]
    assert chordal["detail"].startswith("vertex (3, 2): ")


def test_ta_consistency_with_decomposition(prefix_68):
    ta, _ = W.ta_lower_bound_certified(prefix_68)
    dec = W.decomposition_from_separators(prefix_68,
                                          range(prefix_68.n_vertices))
    assert W.independent_width(prefix_68, dec) >= ta


# -- demos ----------------------------------------------------------------

def test_demo_question84_small():
    rep = W.demo_question84("coeffs:3", 4, 3, 10 ** 4)   # g constant 3
    assert rep["rows"][0]["status"] == "out-of-scope"
    k3 = next(r for r in rep["rows"] if r.get("k") == 3)
    assert k3["omega"] == 3 and k3["tw_lower"] >= 3
    assert rep["all_certified"]


def test_demo_conjecture85_small():
    rep = W.demo_conjecture85("poly:2", 4, 1, 10 ** 4)
    assert rep["all_certified"]
    c1 = next(r for r in rep["rows"] if r["c"] == 1)
    assert c1["ta_lower"] >= 1 and c1["tw_upper"] != "inf"


def test_demo_conjecture85_flags_infinite_formula():
    # a finite-table profile has F(omega+1) = inf, so the run reports FAIL
    rep = W.demo_conjecture85("1,2,5,9", 4, 2, 10 ** 4)
    c2 = next(r for r in rep["rows"] if r["c"] == 2)
    assert c2["status"] == "FAIL" and c2["tw_upper"] == "inf"
    assert not rep["all_certified"]


def test_omega_computed_once_per_prefix(monkeypatch):
    calls = []
    exact = S.clique_number_exact

    def counted(prefix, *args, **kwargs):
        calls.append(prefix)
        return exact(prefix, *args, **kwargs)

    monkeypatch.setattr(S, "clique_number_exact", counted)
    rep = W.demo_conjecture85("poly:2", 4, 1, 10 ** 4)
    assert len(calls) == len(rep["rows"]) == 1


def _sample_by_induced_search(prefix, rng, max_omega):
    """The greedy sampler with one induced clique search per accept test,
    and the sample's clique number from one more search over the sample."""
    adj = prefix.adjacency()
    order = list(range(prefix.n_vertices))
    rng.shuffle(order)
    chosen = set()
    for v in order:
        if max_omega == 0:
            break
        nb = adj[v] & chosen
        if len(nb) < max_omega - 1 or \
                len(S.induced_max_clique(prefix, nb)) <= max_omega - 1:
            chosen.add(v)
    return chosen, len(S.induced_max_clique(prefix, chosen))


@pytest.mark.parametrize("c, ell, t", [(2, 5, 3), (3, 5, 5), (4, 5, 5)])
def test_sample_clique_bounded_matches_induced_search(c, ell, t):
    # the hajebi demo's prefix shape: f = cap:(c+1), t+1 layers
    prefix = build_prefix(ell, parse_f_spec("cap:%d" % (c + 1)), t + 1,
                          size_cap=10 ** 5)
    adj = prefix.adjacency()
    for seed in range(4):
        rng_new, rng_old = random.Random(seed), random.Random(seed)
        for _ in range(2):          # the second draw checks the rng state
            values = W._sample_clique_bounded(prefix, adj, rng_new, c - 1)
            chosen, k = _sample_by_induced_search(prefix, rng_old, c - 1)
            assert set(values) == chosen
            assert max(values.values(), default=0) == k


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PREFIXES_300), st.integers(0, 4),
       st.integers(0, 2 ** 32 - 1))
def test_sample_clique_bounded_matches_induced_search_on_small_prefixes(
        prefix, max_omega, seed):
    rng_new, rng_old = random.Random(seed), random.Random(seed)
    values = W._sample_clique_bounded(prefix, prefix.adjacency(), rng_new,
                                      max_omega)
    chosen, k = _sample_by_induced_search(prefix, rng_old, max_omega)
    assert set(values) == chosen
    assert max(values.values(), default=0) == k


def test_sample_clique_bounded_counts_cycle_pairs():
    # built prefixes put no cycle edge in a triangle, so no neighbourhood
    # holds both u and u+; copying an up list onto its successor makes
    # cliques {w, u, u+, ...} that only the pair term of the test counts
    obj = json.loads(build_prefix(4, parse_f_spec("cap:3"), 4).to_json())
    recs = obj["vertices"]
    g = next(i for i, r in enumerate(recs) if len(r["up"]) == 2)
    recs[g + 1]["up"] = list(recs[g]["up"])
    p = WheelPrefix.from_json_obj(obj)
    adj = p.adjacency()
    for max_omega in range(1, 5):
        for seed in range(10):
            values = W._sample_clique_bounded(p, adj, random.Random(seed),
                                              max_omega)
            chosen, k = _sample_by_induced_search(p, random.Random(seed),
                                                  max_omega)
            assert set(values) == chosen
            assert max(values.values(), default=0) == k


def test_sample_clique_bounded_leaves_no_garbage():
    # a sample must free what it made without the cycle collector: the
    # hajebi demo takes one per row
    prefix = build_prefix(5, parse_f_spec("cap:4"), 6)
    adj = prefix.adjacency()
    rng = random.Random(0)
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            W._sample_clique_bounded(prefix, adj, rng, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("max_omega", [0, 1])
def test_sample_clique_bounded_edge_cases(prefix_68, max_omega):
    adj = prefix_68.adjacency()
    values = W._sample_clique_bounded(prefix_68, adj, random.Random(0),
                                      max_omega)
    chosen, k = _sample_by_induced_search(prefix_68, random.Random(0),
                                          max_omega)
    assert set(values) == chosen and max(values.values(), default=0) == k
    if max_omega == 0:
        assert values == {}
    else:                           # an independent set, every value 1
        assert values and set(values.values()) == {1}
        assert not any(adj[v] & chosen for v in chosen)


def test_demo_hajebi_small_and_reproducible():
    a = W.demo_hajebi(2, 5, 3, 5, 10 ** 4, seed=1)
    b = W.demo_hajebi(2, 5, 3, 5, 10 ** 4, seed=1)
    assert a == b
    assert a["omega"] == 3 and a["tw_lower"] >= 3
    assert a["all_certified"]
    c = W.demo_hajebi(2, 5, 3, 5, 10 ** 4, seed=2)
    assert c["rows"] != a["rows"]


@pytest.mark.parametrize("demo", [
    lambda: W.demo_question84("coeffs:3", 4, 3, 10 ** 4),
    lambda: W.demo_conjecture85("poly:2", 4, 1, 10 ** 4),
    lambda: W.demo_hajebi(2, 5, 3, 1, 10 ** 4),
], ids=["question84", "conjecture85", "hajebi"])
def test_demo_prefixes_round_trip_through_json(monkeypatch, demo):
    # the f each demo builds with writes an f_spec that reads back
    built = []

    def recorded(*args, **kwargs):
        built.append(build_prefix(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(W, "build_prefix", recorded)
    demo()
    assert built
    for p in built:
        text = p.to_json()
        assert WheelPrefix.from_json(text).to_json() == text
        g = parse_f_spec(p.f.descriptor)
        assert [g(i) for i in range(1, 31)] == [p.f(i) for i in range(1, 31)]


def test_demo_hajebi_rejects_bad_parameters():
    with pytest.raises(ValueError):
        W.demo_hajebi(1, 5, 3, 1, 10 ** 4)
    with pytest.raises(ValueError):
        W.demo_hajebi(2, 4, 3, 1, 10 ** 4)
    # t is checked as given, not as the t + 1 layers the demo builds
    with pytest.raises(ValueError, match=r"^t must be >= 0, got -1$"):
        W.demo_hajebi(2, 5, -1, 1, 10 ** 4)
    # omega = c+1 needs t >= c
    for c, t in [(2, 1), (3, 2)]:
        with pytest.raises(ValueError, match="c=%d t=%d" % (c, t)):
            W.demo_hajebi(c, 5, t, 1, 10 ** 4)
