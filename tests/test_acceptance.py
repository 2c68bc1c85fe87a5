"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line.  All instances are desk-scale; tolerances are
pinned in the assertions."""

import random
import time

from layered_wheels import build_prefix, parse_f_spec, verify_rules
from layered_wheels import kernels
from layered_wheels import structure as S
from layered_wheels import widths as W
from layered_wheels.functions import INF

from conftest import (expected_intersection, random_vertical_path,
                      small_prefixes)


def report(num, ok, text):
    print("\n[criterion %02d] %s: %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "[criterion %02d] %s" % (num, text)


def first_failure(failed):
    """"" when nothing failed, else the first of the (prefix, note) pairs
    that failed: the prefix as (ell, f, t) and what the check saw there."""
    if not failed:
        return ""
    p, note = failed[0]
    return "; first failure at (ell, f, t) = (%d, %s, %d): %s" % (
        p.ell, p.f.descriptor, p.num_layers, note)


def test_criterion_01_construction_fidelity():
    t0 = time.time()
    checked = 0
    ok = True
    for p in small_prefixes(20_000, (4, 5)):
        ok &= verify_rules(p)["passed"]
        checked += 1
    p68 = build_prefix(4, parse_f_spec("cap:3"), 4)
    sizes_ok = p68.layer_sizes == [4, 8, 16, 40] and p68.n_vertices == 68
    dt = time.time() - t0
    ok = ok and sizes_ok and dt < 10
    report(1, ok, "rules 1-5 hold on %d prefixes (ell in {4,5}, cap 20k); "
           "layer sizes (4,8,16,40) %s; %.1fs < 10s"
           % (checked, "confirmed" if sizes_ok else "WRONG", dt))


def test_criterion_02_hole_floor(prefixes_2000):
    failed = []
    for p in prefixes_2000:
        hole = S.shortest_hole_up_to(p)
        if hole != p.ell:
            failed.append((p, "shortest hole %s" % hole))
    ok = bool(prefixes_2000) and not failed
    report(2, ok, "shortest hole equals ell exactly on all %d prefixes "
           "<= 2000 vertices, ell in {4,5,6}%s"
           % (len(prefixes_2000), first_failure(failed)))


def test_criterion_03_clique_exactness(prefixes_2000):
    checked = [p for p in prefixes_2000 if p.num_layers >= 2]
    failed = []
    for p in checked:
        omega, cert = S.clique_number_exact(p)
        if not (cert.verdict and omega == p.f(p.num_layers)):
            failed.append((p, "omega %d" % omega))
    ok = bool(checked) and not failed
    report(3, ok, "exact omega == f(t) on all %d prefixes with t >= 2%s"
           % (len(checked), first_failure(failed)))


def test_criterion_04_minor_lower_bound(prefixes_2000):
    failed = []
    for p in prefixes_2000:
        cert = S.layer_minor_check(p)
        if not (cert.verdict and cert.bound == p.num_layers - 1):
            failed.append((p, "minor bound %s" % cert.bound))
    tiny = [p for p in prefixes_2000 if p.n_vertices <= 32]
    for p in tiny:
        tw = kernels.treewidth_exact(p.n_vertices, p.adjacency())
        if tw < p.num_layers - 1:
            failed.append((p, "exact tw %d" % tw))
    ok = bool(tiny) and not failed
    report(4, ok, "layer minor certifies tw >= t-1 on %d prefixes; exact "
           "tw >= t-1 on the %d prefixes <= 32 vertices%s"
           % (len(prefixes_2000), len(tiny), first_failure(failed)))


def test_criterion_05_separation_calculus():
    rng = random.Random(0)
    total = 0
    failed = []
    for (ell, fs, t) in [(4, "cap:3", 4), (5, "identity", 4),
                         (6, "cap:3", 3)]:
        p = build_prefix(ell, parse_f_spec(fs), t, size_cap=10 ** 4)
        everything = range(p.n_vertices)
        for _ in range(100):
            layer = rng.randint(1, t)
            a, b = rng.sample(list(p.layer_range(layer)), 2)
            P = random_vertical_path(p, a, t, rng)
            Q = random_vertical_path(p, b, t, rng)
            sep = S.build_AB(p, P, Q, everything)
            if not (S.verify_separation_on_prefix(p, sep, everything)
                    and sep.A | sep.B == frozenset(everything)
                    and sep.A & sep.B
                    == frozenset(expected_intersection(p, P, Q))):
                failed.append((p, "paths from %s and %s"
                               % (p.loc(a), p.loc(b))))
            total += 1
    report(5, not failed, "verify_separation, A-cup-B = V and exact A-cap-B "
           "equality on %d random same-layer path pairs%s"
           % (total, first_failure(failed)))


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
            A, B = res.sep.A, res.sep.B
            good = (3 * len((A - B) & X) <= 2 * len(X)
                    and 3 * len((B - A) & X) <= 2 * len(X)
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


def test_criterion_07_chordal_transversals(prefixes_2000):
    rng = random.Random(2)
    total = 0
    failed = []
    for p in prefixes_2000:
        for _ in range(100):
            Y = {rng.choice(list(p.layer_range(l)))
                 for l in range(1, p.num_layers + 1)}
            if not S.transversal_chordality_check(p, Y).verdict:
                failed.append((p, "transversal %s" % sorted(Y)))
            total += 1
    report(7, not failed, "%d random one-per-layer transversals all admit the "
           "highest-layer-first perfect elimination ordering%s"
           % (total, first_failure(failed)))


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
        kernels.treewidth_exact(
            ell, [[(i - 1) % ell, (i + 1) % ell] for i in range(ell)]) == 2
        for ell in (4, 5, 6, 7, 8))
    k4 = [[j for j in range(4) if j != i] for i in range(4)]
    tw_ok &= kernels.treewidth_exact(4, k4) == 3
    rng = random.Random(11)
    round_trip_ok = True
    for _ in range(1_000):
        values = [1, 2, 3]
        for _ in range(rng.randint(0, 10)):
            values.append(values[-1] + rng.randint(0, 1))
        f = parse_f_spec("table:" + ",".join(str(v) for v in values))
        F = f.cumulative()
        finite = [F(k) for k in range(1, values[-1])]
        g = parse_f_spec("cumulative:" + ",".join(str(v) for v in finite))
        table = values + [values[-1]] * 40
        round_trip_ok &= all(f(i) == g(i) == table[i - 1]
                             for i in range(1, 40))
    ok = tw_ok and round_trip_ok
    report(11, ok, "exact tw oracle: C_ell -> 2, K_4 -> 3; f of table:v and "
           "of cumulative: of its finite F equal the table on 1000 "
           "randomized profiles")
