"""Acceptance suite: one test per acceptance criterion.

Each test prints one ACCEPTANCE line (visible with pytest -s / -rA), checks
the criterion's values at exact equality, and checks the claim runtimes
against the stated budgets.  A single full ledger run is shared by all
criteria.

The budgets of criteria 3-6, 9 and 10, and criterion 4's per-claim
budgets, are ten times the slowest of three runs on a 2-core host (Python
3.11), rounded up to a whole second: a margin above the 1.5x swings seen
between runs on one host, close enough that a regression of that order
fails.  A budget may be tightened, never loosened.
"""

import json
import os
from fractions import Fraction

import pytest

from grpverify.claims import CD_CORPUS, builtin_claims, get_claim
from grpverify.construct import (
    Action, Alt, Cyc, Dih, ElemAb, PGroup, PSL32, Prod, Semi, Sym, WeylD,
    build, to_src,
)
from grpverify.lattice import all_subgroups, j_analysis
from grpverify.ledger import compare, run, run_claim
from test_lattice import generated_subgroups, powerset_subgroups


@pytest.fixture(scope="module")
def results():
    res = run(builtin_claims(), jobs=min(8, os.cpu_count() or 1))
    return {r.id: r for r in res}


def report(name, ok, ms, budget_s):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} "
          f"({ms / 1000:.1f}s, budget {budget_s}s)")
    assert ok
    assert ms <= budget_s * 1000


def claims_ok(results, ids):
    bad = [i for i in ids if results[i].status != "pass"]
    ms = sum(results[i].runtime_ms for i in ids)
    return not bad, ms, bad


def actual(results, cid):
    return json.loads(results[cid].actual)


def test_criterion_1_exceptional_isomorphisms(results):
    ok, ms, bad = claims_ok(results, ["THM-4.1-ISO", "THM-4.1-ORDERS"])
    iso = actual(results, "THM-4.1-ISO")
    ok = ok and all(iso[k] == "yes" for k in
                    ("pgl2_s3", "pgl3_s4", "psl3_a4", "psl4_a5", "psl5_a5",
                     "psl9_a6"))
    orders = actual(results, "THM-4.1-ORDERS")
    for q in (4, 5, 7, 8, 9):
        half = 1 if q % 2 == 0 else 2
        ok = ok and int(orders[f"pgl_q{q}"]) == q * (q * q - 1)
        ok = ok and int(orders[f"psl_q{q}"]) == q * (q * q - 1) // half
    report("1 (exceptional isomorphisms, orders)", ok, ms, 10)


def test_criterion_2_simplicity_instances(results):
    ids = ["THM-4.1-SIMPLE", "THM-4.1-CENT", "THM-4.1-DERIVED"]
    ok, ms, bad = claims_ok(results, ids)
    simple = actual(results, "THM-4.1-SIMPLE")
    for q in (4, 5, 7, 8, 9):
        parts = simple[f"q{q}"].split(",")
        ok = ok and len(parts) == 2 and parts[0] == "1"
    cent = actual(results, "THM-4.1-CENT")
    ok = ok and all(cent[f"centralizer_q{q}"] == "1" for q in (5, 7, 9))
    der = actual(results, "THM-4.1-DERIVED")
    ok = ok and all(der[f"q{q}"] == "yes" for q in (5, 7, 9))
    report("2 (simplicity, centralizers, derived subgroups)", ok, ms, 30)


def test_criterion_3_automorphism_orders(results):
    ids = ["PROP-4.4", "COR-4.5", "LEM-10.11", "THM-4.2-OUT"]
    ok, ms, bad = claims_ok(results, ids)
    a45 = actual(results, "COR-4.5")
    ok = ok and a45["aut_a4"] == "24" and a45["aut_s4"] == "24" \
        and a45["aut_a5"] == "120"
    l1011 = actual(results, "LEM-10.11")
    ok = ok and l1011["aut_order"] == "12" and l1011["dihedral"] == "yes"
    p44 = actual(results, "PROP-4.4")
    out = actual(results, "THM-4.2-OUT")
    ok = ok and p44["aut_psl_q9"] == "1440" and out["out_q9"] == "4"
    report("3 (automorphism orders)", ok, ms, 2)


def test_criterion_4_lemma_3_8_sweeps(results):
    ids = [f"LEM-3.8-{r}" for r in ("I", "II", "III", "IV", "V", "VI", "VII")]
    ok, ms, bad = claims_ok(results, ids)
    i = actual(results, "LEM-3.8-I")
    ok = ok and i["order_viol_p3"] == "20" and i["iso_p3"] == "mu5:mu4" \
        and i["rescue_p3_min_index"] == "4" and i["order_viol_p2"] == "5" \
        and i["iso_p2"] == "mu5" and i["bound_viol"] == "-"
    ii = actual(results, "LEM-3.8-II")
    ok = ok and ii["bound_viol_p3"] == "320" \
        and ii["viol_p3_iso"] == "mu2^4:(mu5:mu4)" \
        and all(ii[f"bound_viol_p{p}"] == "-" for p in (2, 5, 7))
    iii = actual(results, "LEM-3.8-III")
    ok = ok and all(iii[f"bound_viol_p{p}"] == "-" for p in (2, 3, 5, 7))
    iv = actual(results, "LEM-3.8-IV")
    ok = ok and iv["order_viol_p3_orders"] == "16,20" \
        and iv["order_viol_p2_orders"] == "5,9" and iv["bound_viol"] == "-"
    # (v): the computed violation set is exactly {Gamma}; the paper's extra
    # exempt order 162 exists but satisfies the bound (see decisions ledger)
    v = actual(results, "LEM-3.8-V")
    ok = ok and v["bound_viol_p5"] == "648" and v["viol_within_exempt"] == "yes" \
        and v["order_viol_p5"] == "162,216,648" and v["exempt_162_exists"] == "yes"
    vi = actual(results, "LEM-3.8-VI")
    ok = ok and vi["quot_bound_viol"] == "-" and vi["sumzero_bound_viol"] == "-"
    vii = actual(results, "LEM-3.8-VII")
    ok = ok and vii["p5_exceptions"] == "192,288,576"
    budgets = {"LEM-3.8-I": 1, "LEM-3.8-II": 10, "LEM-3.8-III": 2,
               "LEM-3.8-IV": 1, "LEM-3.8-V": 1, "LEM-3.8-VI": 2,
               "LEM-3.8-VII": 1}
    for cid, budget in budgets.items():
        assert results[cid].runtime_ms <= budget * 1000, (cid, budget)
    report("4 (Lemma 3.8 sweeps, exact exception sets)", ok, ms, 14)


def test_criterion_5_sharpness_witnesses(results):
    ids = ["SHARP-A5A5", "SHARP-PSL27", "SHARP-D10", "SHARP-CHAR2"]
    ok, ms, bad = claims_ok(results, ids)
    a = actual(results, "SHARP-A5A5")
    ok = ok and a["min_index_p7"] == "7200" and a["min_index_p11"] == "7200"
    ok = ok and actual(results, "SHARP-PSL27")["min_index_p5"] == "168"
    ok = ok and actual(results, "SHARP-D10")["min_index_p3"] == "10"
    ok = ok and actual(results, "SHARP-CHAR2")["min_index_p2"] == "3"
    report("5 (sharpness witnesses)", ok, ms, 1)


def test_criterion_6_chermak_delgado(results):
    ok, ms, bad = claims_ok(results, ["THM-3.2", "COR-3.3"])
    corpus_small = [e for e in CD_CORPUS if build(e).order <= 100]
    ok = ok and len(corpus_small) >= 25
    ok = ok and actual(results, "THM-3.2")["all_pass"] == "yes"
    report("6 (Chermak-Delgado over the corpus)", ok, ms, 15)


def test_criterion_7_semidirect_lemmas(results):
    ok, ms, bad = claims_ok(results, ["LEM-5.1", "COR-5.2"])
    l51 = actual(results, "LEM-5.1")
    ok = ok and all("VIOLATION" not in v for v in l51.values())
    c52 = actual(results, "COR-5.2")
    ok = ok and c52["all_characteristic"] == "yes" \
        and c52["all_within_bounds"] == "yes"
    report("7 (section 5 semidirect lemmas)", ok, ms, 60)


def test_criterion_8_constant_assembly(results):
    ids = ["PROP-9.2", "COR-9.3", "PROP-10.13-J-DP", "PROP-10.14-J-DP-ODD",
           "THM-1.9-ASSEMBLY", "LEM-10.2-DP6", "LEM-8.2", "COR-10.8"]
    ok, ms, bad = claims_ok(results, ids)
    # recompute the published tables in exact rationals
    from grpverify.claims import AUX_J, CB_J, DP_J, DP_ODD_J, P1XP1_J, P1_J

    ok = ok and [P1_J[p] for p in (7, 5, 3, 2)] == [60, 24, 4, 1]
    ok = ok and [P1XP1_J[p] for p in (7, 5, 3, 2)] == [7200, 72, 10, 1]
    ok = ok and [CB_J[p] for p in (7, 5, 3, 2)] == \
        [7200, 144, Fraction(800, 81), 2]
    ok = ok and [DP_J[p] for p in (7, 5, 3, 2)] == [7200, 144, 10, 3]
    ok = ok and [AUX_J[p] for p in (7, 5, 3, 2)] == [720, 144, 10, 3]
    ok = ok and [DP_ODD_J[p] for p in (7, 5, 3)] == [7200, 168, 10]
    final = actual(results, "THM-1.9-ASSEMBLY")
    ok = ok and (final["p7"], final["p5"], final["p3"]) == ("7200", "168", "10")
    report("8 (constant assembly, exact rationals)", ok, ms, 60)


# -- criterion 9: oracle equivalence -------------------------------------------


ORACLE_200 = tuple(CD_CORPUS) + (
    Semi(ElemAb(2, 4), PGroup(5, ("(1 2 3 4 5)", "(2 5)(3 4)")),
         Action("evenperm")),
    PSL32(), Sym(5), WeylD(4), Prod(Cyc(2), Sym(4)), Dih(32),
)


def test_criterion_9_oracle_equivalence():
    import time

    t0 = time.monotonic()
    small = [e for e in CD_CORPUS if build(e).order <= 24]
    assert len(small) >= 15
    for expr in small:
        m = build(expr).materialized()
        got = sorted(s.mask for s in all_subgroups(m))
        if m.n <= 16:
            assert got == powerset_subgroups(m), to_src(expr)
        else:
            assert got == generated_subgroups(m), to_src(expr)
    checked = 0
    for expr in ORACLE_200:
        m = build(expr).materialized()
        if m.n > 200:
            continue
        for p in (2, 3, 5):
            fast = j_analysis(m, p)
            best = m.n
            for s in all_subgroups(m):
                if s.order % p == 0:
                    continue
                if not m.is_abelian_set(s.gens):
                    continue
                if not m.is_normal_mask(s.mask, s.gens or None):
                    continue
                best = min(best, m.n // s.order)
            assert fast.min_index == best, (to_src(expr), p)
            checked += 1
    assert checked >= 90
    ms = (time.monotonic() - t0) * 1000
    report("9 (oracle equivalence)", True, ms, 35)


def test_criterion_10_negative_control(results):
    import time

    t0 = time.monotonic()
    ok = True
    n_keys = 0
    for rec in builtin_claims():
        res = results[rec.id]
        if res.status == "skip":
            continue
        act = json.loads(res.actual)
        status, _ = compare(rec.expected, act)
        ok = ok and status == "pass"
        for key in rec.expected:
            corrupted = rec.corrupted(key)
            status, witness = compare(corrupted.expected, act)
            ok = ok and status == "fail" and key in witness
            n_keys += 1
    assert n_keys > 200
    # end-to-end: a corrupted record re-run through the engine fails, and
    # neighbours are untouched
    sample = ["SHARP-CHAR2", "EX-2.8", "LEM-3.8-VII", "COR-10.8"]
    for cid in sample:
        rec = get_claim(cid)
        key = sorted(rec.expected)[0]
        res = run_claim(rec.corrupted(key))
        ok = ok and res.status == "fail" and key in res.witness
    neighbours = run([get_claim(c) for c in ("EX-2.9", "COR-10.8")])
    ok = ok and all(r.status == "pass" for r in neighbours)
    ms = (time.monotonic() - t0) * 1000
    report("10 (negative control)", ok, ms, 1)
