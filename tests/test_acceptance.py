"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line.  All instances are desk-scale; tolerances are
pinned in the assertions."""

import random
import time

import pytest

from layered_wheels import build_prefix, parse_f_spec, verify_rules
from layered_wheels import structure as S
from layered_wheels import widths as W
from layered_wheels.functions import (INF, SlowFunction,
                                      cumulative_from_slow,
                                      slow_from_cumulative)
from layered_wheels.wheel import SizeCapError

from conftest import small_prefixes


def report(num, ok, text):
    print("\n[criterion %02d] %s: %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "[criterion %02d] %s" % (num, text)


def family(max_vertices, ells, fspecs):
    return small_prefixes(max_vertices, ells, fspecs)


def test_criterion_01_construction_fidelity():
    t0 = time.time()
    checked = 0
    ok = True
    for p in family(20_000, (4, 5), ("identity", "cap:3", "cap:4")):
        ok &= verify_rules(p).passed
        checked += 1
    p68 = build_prefix(4, parse_f_spec("cap:3"), 4)
    sizes_ok = p68.layer_sizes == [4, 8, 16, 40]
    dt = time.time() - t0
    ok = ok and sizes_ok and dt < 10
    report(1, ok, "rules 1-5 hold on %d prefixes (ell in {4,5}, cap 20k); "
           "layer sizes (4,8,16,40) %s; %.1fs < 10s"
           % (checked, "confirmed" if sizes_ok else "WRONG", dt))


def test_criterion_02_hole_floor():
    results = []
    for p in family(2_000, (4, 5, 6), ("identity", "cap:3", "cap:4")):
        results.append(S.shortest_hole_up_to(p, p.ell) == p.ell)
    ok = bool(results) and all(results)
    report(2, ok, "shortest hole equals ell exactly on all %d prefixes "
           "<= 2000 vertices, ell in {4,5,6}" % len(results))


def test_criterion_03_clique_exactness():
    results = []
    for p in family(2_000, (4, 5, 6), ("identity", "cap:3", "cap:4")):
        if p.num_layers < 2:
            continue
        omega, cert = S.clique_number_exact(p)
        results.append(cert.verdict and omega == p.f(p.num_layers))
    ok = bool(results) and all(results)
    report(3, ok, "exact omega == f(t) on all %d prefixes with t >= 2"
           % len(results))


def test_criterion_04_minor_lower_bound():
    prefixes = family(2_000, (4, 5, 6), ("identity", "cap:3", "cap:4"))
    minor_ok = all(S.layer_minor_check(p).verdict for p in prefixes)
    tiny = [p for p in prefixes if p.n_vertices <= 32]
    tw_ok = all(W.exact_treewidth_small(p) >= p.num_layers - 1
                for p in tiny)
    ok = minor_ok and tw_ok and tiny
    report(4, ok, "layer minor certified on %d prefixes; exact tw >= t-1 "
           "on the %d prefixes <= 32 vertices" % (len(prefixes), len(tiny)))


def test_criterion_05_separation_calculus():
    rng = random.Random(0)
    total = 0
    ok = True
    for (ell, fs, t) in [(4, "cap:3", 4), (5, "identity", 4),
                         (6, "cap:3", 3)]:
        p = build_prefix(ell, parse_f_spec(fs), t, size_cap=10 ** 4)
        for _ in range(100):
            layer = rng.randint(1, t)
            a, b = rng.sample(list(p.layer_range(layer)), 2)
            P = _random_path(p, a, t, rng)
            Q = _random_path(p, b, t, rng)
            sep = S.build_AB(p, P, Q)
            good = (S.verify_separation_on_prefix(p, sep,
                                                  range(p.n_vertices))
                    and sep.A & sep.B
                    == frozenset(S.expected_intersection(p, P, Q)))
            ok &= good
            total += 1
    report(5, ok, "verify_separation + exact A-cap-B equality on %d random "
           "same-layer path pairs" % total)


def _random_path(prefix, start, end_layer, rng):
    verts = [start]
    cur = start
    for _ in range(prefix.layer_of(start), end_layer):
        cur = rng.choice(prefix.children(cur))
        verts.append(cur)
    return S.VerticalPath(prefix.layer_of(start), verts)


def test_criterion_06_balanced_separations():
    rng = random.Random(1)
    ok = True
    runs = 0
    t0 = time.time()
    for (ell, fs, t) in [(4, "cap:3", 4), (5, "identity", 4),
                         (6, "cap:3", 3)]:
        p = build_prefix(ell, parse_f_spec(fs), t, size_cap=10 ** 4)
        targets = [frozenset(range(p.n_vertices))]
        for _ in range(50):
            xs = rng.sample(range(p.n_vertices), max(6, p.n_vertices // 4))
            targets.append(frozenset(xs))
        for X in targets:
            res = S.balanced_separation(p, X)   # progress monitor inside
            k = len(S.induced_max_clique(p, X))  # exact clique number
            bound = S.order_bound(p.ell, p.f, k)
            st = res.sep.stats(X)
            good = (3 * st["A_only"] <= 2 * len(X)
                    and 3 * st["B_only"] <= 2 * len(X)
                    and S.verify_separation_on_prefix(p, res.sep, X))
            if res.bound_applies and bound != INF:
                good &= res.order <= bound
            ok &= good
            runs += 1
    dt = time.time() - t0
    ok = ok and dt < 60
    report(6, ok, "%d balanced-separation runs: sides <= 2n/3, order within "
           "2F(k+1)+(ell+1)k-2 when the augmenting guarantee holds, all "
           "terminated; %.1fs < 60s" % (runs, dt))


def test_criterion_07_chordal_transversals():
    rng = random.Random(2)
    total = 0
    ok = True
    for p in family(2_000, (4, 5, 6), ("identity", "cap:3", "cap:4")):
        for _ in range(100):
            Y = {rng.choice(list(p.layer_range(l)))
                 for l in range(1, p.num_layers + 1)}
            ok &= S.transversal_chordality_check(p, Y).verdict
            total += 1
    report(7, ok, "%d random one-per-layer transversals all admit the "
           "highest-layer-first perfect elimination ordering" % total)


def test_criterion_08_conjecture85_counterexample():
    rep = W.demo_conjecture85("poly:2", 4, 2, 200_000)
    row = next((r for r in rep["rows"] if r.get("c") == 2), {})
    ok = (rep["all_certified"] and row.get("k") == 3 and row.get("t") == 10
          and row.get("ta_lower", 0) >= 4 and row.get("tw_upper") != "inf")
    report(8, ok, "F(k)=k^2 profile, k=3, t=10: ta lower bound %s >= 4 with "
           "finite tw formula %s; certificate chain %s"
           % (row.get("ta_lower"), row.get("tw_upper"),
              "validated" if rep["all_certified"] else "BROKEN"))


def test_criterion_09_hajebi_counterexample():
    rep = W.demo_hajebi(2, 5, 4, 50, 200_000, seed=0)
    orders_ok = all(r["order"] <= 16 for r in rep["rows"])
    ok = (rep["all_certified"] and rep["omega"] == 3 and rep["tw_lower"] >= 4
          and len(rep["rows"]) == 50 and orders_ok)
    report(9, ok, "c=2, ell=5, t=4: omega certified 3, tw >= 4; all 50 "
           "seeded K_2-free samples have separation order <= 16 "
           "(max observed %s)" % max(r["order"] for r in rep["rows"]))


def test_criterion_10_question84_demo():
    rep = W.demo_question84("poly:2", 4, 3, 200_000)
    k2 = rep["rows"][0]
    row = next((r for r in rep["rows"] if r.get("k") == 3), {})
    ok = (rep["all_certified"] and k2["status"] == "out-of-scope"
          and row.get("omega") == 3 and row.get("tw_lower", 0) >= 9)
    report(10, ok, "g(k)=k^2, k=3, ell=4: certified omega=3 and tw >= %s "
           ">= 9; k=2 reported out of scope" % row.get("tw_lower"))


def test_criterion_11_oracle_cross_checks():
    tw_ok = all(
        W.exact_treewidth_small(
            (ell, [[(i - 1) % ell, (i + 1) % ell] for i in range(ell)])) == 2
        for ell in (4, 5, 6, 7, 8))
    k4 = [[j for j in range(4) if j != i] for i in range(4)]
    tw_ok &= W.exact_treewidth_small((4, k4)) == 3
    rng = random.Random(11)
    round_trip_ok = True
    for _ in range(1_000):
        values = [1, 2, 3]
        for _ in range(rng.randint(0, 10)):
            values.append(values[-1] + rng.randint(0, 1))
        f = SlowFunction(tuple(values),
                         tail=rng.choice(["constant", "increment"]))
        g = slow_from_cumulative(cumulative_from_slow(f))
        round_trip_ok &= all(f(i) == g(i) for i in range(1, 40))
    ok = tw_ok and round_trip_ok
    report(11, ok, "exact tw oracle: C_ell -> 2, K_4 -> 3; slow/cumulative "
           "round trip on 1000 randomized profiles")
