"""Negative controls: every output check rejects a deliberately wrong output.

    python3 -m pytest perfbench/test_checks.py

The groups here are small (S4, D4) and their right answers are computed in
the test by brute force, so the tests need neither grpverify nor a run.
"""

import json
import random
from itertools import combinations

import pytest

import checks
import inputs

S4_GENS = [(1, 2, 3, 0), (1, 0, 2, 3)]
D4_GENS = [(1, 2, 3, 0), (3, 2, 1, 0)]


def group(gens):
    perms = sorted(checks.closure(gens, 4))
    return {"n": len(perms), "degree": 4, "gens": [list(g) for g in gens],
            "perms": [list(p) for p in perms]}


def mask_of(elems, g) -> str:
    index = {tuple(p): i for i, p in enumerate(g["perms"])}
    return format(sum(1 << index[e] for e in elems), "x")


def all_subgroups(g):
    """Every subgroup of a group of degree 4: all are 2-generated."""
    perms = [tuple(p) for p in g["perms"]]
    subs = {}
    for a, b in combinations(perms, 2):
        s = frozenset(checks.closure([a, b], 4))
        subs.setdefault(s, [a, b])
    for a in perms:
        s = frozenset(checks.closure([a], 4))
        subs[s] = [a]
    return subs


def class_reps(g):
    subs = all_subgroups(g)
    reps = []
    for s, gens in sorted(subs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        if not any(checks.are_conjugate(s, gens, r, g["perms"]) for r, _ in reps):
            reps.append((s, gens))
    return reps


def sweep_output(g, src="S(4)"):
    reps = class_reps(g)
    subs = all_subgroups(g)
    centre = checks.centre(g["gens"], g["perms"])
    classes = [[mask_of(s, g), [list(x) for x in gens]] for s, gens in reps]
    spec = {"groups": [src, src],
            "ops": [(0, "subgroup_classes", 0), (0, "sweep_bound", 3),
                    (1, "all_subgroups", 0), (1, "chermak_delgado", 0)]}
    out = {"groups": [g, g], "results": [
        classes,
        {"n_classes": len(classes), "order_violations": [], "bound_violations": []},
        [[mask_of(s, g), [list(x) for x in gens]] for s, gens in subs.items()],
        mask_of(centre, g),
    ]}
    return spec, out


def sweep_problems(spec, out):
    return checks.check_sweep(spec, out, random.Random(7))


def test_sweep_accepts_the_right_output():
    spec, out = sweep_output(group(S4_GENS))
    assert len(out["results"][0]) == 11 and len(out["results"][2]) == 30
    assert sweep_problems(spec, out) == []


def test_dropped_class_representative(monkeypatch):
    monkeypatch.setitem(checks.KNOWN_CLASS_COUNTS, "S(4)", 11)
    spec, out = sweep_output(group(S4_GENS))
    del out["results"][0][5]
    problems = sweep_problems(spec, out)
    assert any("10 found, 11 known" in p for p in problems)
    assert any("classes swept" in p for p in problems)


def test_conjugate_representatives():
    g = group(S4_GENS)
    spec, out = sweep_output(g)
    classes = out["results"][0]
    order2 = [i for i, (m, _) in enumerate(classes)
              if len(checks.elements(m, g["perms"])) == 2]
    # replace the second class of involutions by a conjugate of the first
    first = checks.elements(classes[order2[0]][0], g["perms"])
    t = (1, 2, 3, 0)
    moved = {checks.conjugate(h, t) for h in first}
    if moved == first:
        t = (0, 2, 1, 3)
        moved = {checks.conjugate(h, t) for h in first}
    gen = next(x for x in moved if x != (0, 1, 2, 3))
    classes[order2[1]] = [mask_of(moved, g), [list(gen)]]
    assert any("are conjugate" in p for p in sweep_problems(spec, out))


def test_set_that_is_not_a_subgroup():
    g = group(S4_GENS)
    spec, out = sweep_output(g)
    mask_hex, gens = out["results"][0][-1]          # the whole group
    out["results"][0][-1] = [format(int(mask_hex, 16) & ~2, "x"), gens]
    assert any("is not the subgroup" in p for p in sweep_problems(spec, out))


def test_wrong_subgroup_count(monkeypatch):
    monkeypatch.setitem(checks.KNOWN_SUBGROUP_COUNTS, "S(4)", 30)
    spec, out = sweep_output(group(S4_GENS))
    out["results"][2].pop()
    assert any("29 found, 30 known" in p for p in sweep_problems(spec, out))


def test_invented_order_violation():
    spec, out = sweep_output(group(S4_GENS))
    out["results"][1]["order_violations"].append([24, 24])
    out["results"][1]["bound_violations"].append(24)
    problems = sweep_problems(spec, out)
    assert any("order violations [24]" in p for p in problems)


def test_chermak_delgado_without_the_centre():
    g = group(D4_GENS)
    spec, out = sweep_output(g, src="D(4)")
    assert sweep_problems(spec, out) == []
    out["results"][3] = "1"                          # the trivial subgroup
    assert any("does not contain the centre" in p
               for p in sweep_problems(spec, out))


def test_chermak_delgado_not_abelian():
    g = group(D4_GENS)
    spec, out = sweep_output(g, src="D(4)")
    out["results"][3] = format((1 << g["n"]) - 1, "x")   # D4 itself
    assert any("not abelian" in p for p in sweep_problems(spec, out))


# -- large ----------------------------------------------------------------------


V4 = [(1, 0, 3, 2), (2, 3, 0, 1)]                 # the normal Klein group
V4_NOT_NORMAL = [(1, 0, 2, 3), (0, 1, 3, 2)]


@pytest.fixture
def s4_as_large(monkeypatch):
    monkeypatch.setattr(checks, "LARGE_GROUPS",
                        (("S(4)", 24, {2: 24, 3: 6, 5: 6, 7: 6}),))
    g = group(S4_GENS)
    g["perms"] = None
    spec = {"groups": ["S(4)"], "ops": [(0, "conjugacy_classes", 0),
                                        (0, "normal_subgroups", 0),
                                        (0, "j_analysis", 3)]}
    out = {"groups": [g], "results": [
        [1, 3, 6, 6, 8],
        [["1", []], ["f", [list(x) for x in V4]]],
        {"min_index": 6, "p_part": 3, "j_ratio": "2/9", "witness_order": 4,
         "witness_gens": [list(x) for x in V4]},
    ]}
    return spec, out


def test_large_accepts_the_right_output(s4_as_large):
    spec, out = s4_as_large
    assert checks.check_large(spec, out) == []


def test_min_index_off_by_one(s4_as_large):
    spec, out = s4_as_large
    out["results"][2]["min_index"] = 7
    out["results"][2]["j_ratio"] = "7/27"
    problems = checks.check_large(spec, out)
    assert any("structure forces 6" in p for p in problems)


def test_witness_not_normal(s4_as_large):
    spec, out = s4_as_large
    out["results"][2]["witness_gens"] = [list(x) for x in V4_NOT_NORMAL]
    assert any("not normal" in p for p in checks.check_large(spec, out))


def test_order_disagrees_with_sympy(s4_as_large):
    spec, out = s4_as_large
    out["groups"][0]["n"] = 48
    assert any("sympy 24" in p for p in checks.check_large(spec, out))


def test_class_sizes_do_not_partition(s4_as_large):
    spec, out = s4_as_large
    out["results"][0] = [1, 3, 6, 8]
    assert any("partition" in p for p in checks.check_large(spec, out))


# -- ledger -----------------------------------------------------------------------


def good_report():
    claims = []
    heads = {}
    for cid, key, value in inputs.HEADLINES:
        heads.setdefault(cid, {})[key] = value
    for cid in inputs.LEDGER_CLAIMS:
        skip = cid == inputs.KNOWN_SKIP
        actual = {} if skip else heads.get(cid, {"ok": "yes"})
        claims.append({"id": cid, "paper_ref": "", "expected": "{}",
                       "status": "skip" if skip else "pass",
                       "actual": json.dumps(actual), "witness": None,
                       "runtime_ms": 1})
    n = len(claims)
    return {"version": 1, "claims": claims,
            "summary": {"pass": n - 1, "fail": 0, "skip": 1}}


def ledger_problems(report, code=0):
    return checks.check_ledger_report(report, code, inputs.LEDGER_CLAIMS)


def test_ledger_accepts_the_right_report():
    assert ledger_problems(good_report()) == []


def test_flipped_claim_status():
    report = good_report()
    report["claims"][0]["status"] = "fail"
    assert any("expected pass" in p for p in ledger_problems(report))


def test_known_skip_that_passes():
    report = good_report()
    c = next(c for c in report["claims"] if c["id"] == inputs.KNOWN_SKIP)
    c["status"] = "pass"
    assert any("expected skip" in p for p in ledger_problems(report))


def test_wrong_headline_constant():
    report = good_report()
    c = next(c for c in report["claims"] if c["id"] == "THM-1.9-ASSEMBLY")
    c["actual"] = json.dumps({"p7": "7201", "p5": "168", "p3": "10"})
    assert any("the paper gives 7200" in p for p in ledger_problems(report))


def test_missing_claim_and_exit_code():
    report = good_report()
    report["claims"].pop()
    problems = ledger_problems(report, code=1)
    assert any("verify exited 1" in p for p in problems)
    assert any("claims reported" in p for p in problems)
