"""Checks of the program's outputs, computed apart from the program.

Each check takes the plain data a worker or the CLI wrote (permutations as
lists, subgroups as hex bitmasks over element indices) and returns a list of
problems, empty when the output is right.  Permutation products, closures,
centres and conjugacy are recomputed here with the benchmark's own tuple
arithmetic; group orders of the large groups come from sympy.  None of it
runs in the measured process or inside a timed part.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from inputs import (
    AUX_J,
    HEADLINES,
    KNOWN_CLASS_COUNTS,
    KNOWN_SKIP,
    KNOWN_SUBGROUP_COUNTS,
    LARGE_GROUPS,
    LEMMA_3_8_IV_ORDER_FAILURES,
    LEMMA_3_8_V_GAMMA,
    LEMMA_3_8_V_STATED,
    LEMMA_3_8_VIOLATIONS,
)

# -- permutation arithmetic -------------------------------------------------


def mul(a, b):
    """a*b, applying b first (the program's convention)."""
    return tuple(a[i] for i in b)


def inverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def closure(gens, degree) -> set:
    """The group generated by gens, by breadth-first right multiplication."""
    gens = [tuple(g) for g in gens]
    ident = tuple(range(degree))
    seen = {ident}
    queue = [ident]
    for x in queue:
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def elements(mask_hex: str, perms) -> set:
    mask = int(mask_hex, 16)
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(tuple(perms[i]))
        mask >>= 1
        i += 1
    return out


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def centre(group_gens, all_perms) -> set:
    gens = [tuple(g) for g in group_gens]
    return {tuple(x) for x in all_perms
            if all(mul(tuple(x), g) == mul(g, tuple(x)) for g in gens)}


def conjugate(h, g):
    return mul(mul(inverse(g), h), g)


def are_conjugate(h_elems: set, h_gens, k_elems: set, all_perms) -> bool:
    """Is some g^-1 H g equal to K?  Cycle types first, then every g."""
    if len(h_elems) != len(k_elems):
        return False
    if sorted(map(_cycle_type, h_elems)) != sorted(map(_cycle_type, k_elems)):
        return False
    gens = [tuple(x) for x in h_gens]
    return any(all(conjugate(h, tuple(g)) in k_elems for h in gens)
               for g in all_perms)


def _cycle_type(a) -> tuple:
    seen = [False] * len(a)
    lengths = []
    for i in range(len(a)):
        if seen[i]:
            continue
        n = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths))


def _subgroup_problems(label, mask_hex, gens, group) -> list:
    """The set is exactly the group its generators generate; order divides |G|."""
    elems = elements(mask_hex, group["perms"])
    if closure(gens, group["degree"]) != elems:
        return [f"{label}: set {mask_hex[:16]}... is not the subgroup its "
                "generators generate"]
    if group["n"] % len(elems):
        return [f"{label}: order {len(elems)} does not divide {group['n']}"]
    return []


# -- sweep --------------------------------------------------------------------


def check_sweep(spec: dict, out: dict, rng) -> list:
    problems = []
    groups = out["groups"]
    classes_of = {}
    for (gi, query, p), res in zip(spec["ops"], out["results"]):
        src = spec["groups"][gi]
        g = groups[gi]
        label = f"{src} {query}" + (f" p={p}" if p else "")
        if query in ("subgroup_classes", "all_subgroups"):
            masks = [m for m, _ in res]
            if len(set(masks)) != len(masks):
                problems.append(f"{label}: repeated subgroup")
            for mask_hex, gens in res:
                problems += _subgroup_problems(label, mask_hex, gens, g)
            known = (KNOWN_CLASS_COUNTS if query == "subgroup_classes"
                     else KNOWN_SUBGROUP_COUNTS).get(src)
            if known is not None and len(res) != known:
                problems.append(f"{label}: {len(res)} found, {known} known")
        if query == "subgroup_classes":
            classes_of[gi] = res
            problems += _non_conjugate_sample(label, res, g, rng)
        elif query == "sweep_bound":
            problems += _sweep_bound_problems(label, src, p, res,
                                              classes_of.get(gi), g)
        elif query == "chermak_delgado":
            problems += _cd_problems(label, res, g)
    return problems


def _non_conjugate_sample(label, reps, group, rng, pairs=12) -> list:
    """A seeded sample of same-order representative pairs is non-conjugate."""
    by_order = {}
    for mask_hex, gens in reps:
        elems = elements(mask_hex, group["perms"])
        by_order.setdefault(len(elems), []).append((elems, gens))
    candidates = [v for v in by_order.values() if len(v) > 1]
    problems = []
    for _ in range(pairs if candidates else 0):
        same = rng.choice(candidates)
        (h, hg), (k, _) = rng.sample(same, 2)
        if are_conjugate(h, hg, k, group["perms"]):
            problems.append(f"{label}: two representatives of order {len(h)} "
                            "are conjugate")
    return problems


def _sweep_bound_problems(label, src, p, res, classes, group) -> list:
    problems = []
    if classes is None:
        return [f"{label}: no class list to check against"]
    if res["n_classes"] != len(classes):
        problems.append(f"{label}: {res['n_classes']} classes swept, "
                        f"{len(classes)} listed")
    j = AUX_J[p]
    orders = [len(elements(m, group["perms"])) for m, _ in classes]
    expect_viol = sorted(o for o in orders if o > j * p_part(o, p) ** 3)
    got_viol = sorted(o for o, _ in res["order_violations"])
    if got_viol != expect_viol:
        problems.append(f"{label}: order violations {got_viol}, "
                        f"expected {expect_viol}")
    bound = sorted(res["bound_violations"])
    # a violator fails the bound exactly when its min index exceeds J|H_(p)|^3
    failing = sorted(o for o, mi in res["order_violations"]
                     if mi > j * p_part(o, p) ** 3)
    if bound != failing:
        problems.append(f"{label}: bound violations {bound} disagree with the "
                        f"reported min indices {failing}")
    stated = LEMMA_3_8_VIOLATIONS.get(src)
    if stated is not None and set(bound) != stated[p]:
        problems.append(f"{label}: bound violations {bound}, Lemma 3.8 "
                        f"states {sorted(stated[p])}")
    if src == "HSL23":
        want = LEMMA_3_8_V_STATED if p == 5 else set()
        if not set(bound) <= want:
            problems.append(f"{label}: bound violations {bound} outside "
                            f"Lemma 3.8(v)'s list {sorted(want)}")
        if p == 5 and LEMMA_3_8_V_GAMMA not in bound:
            problems.append(f"{label}: Gamma itself does not violate")
    if src == "S(6)" and set(got_viol) != LEMMA_3_8_IV_ORDER_FAILURES[p]:
        problems.append(f"{label}: order failures {got_viol}, Lemma 3.8(iv) "
                        f"states {sorted(LEMMA_3_8_IV_ORDER_FAILURES[p])}")
    return problems


def _cd_problems(label, mask_hex, group) -> list:
    cd = elements(mask_hex, group["perms"])
    problems = []
    if tuple(range(group["degree"])) not in cd:
        problems.append(f"{label}: no identity")
    if any(mul(a, b) not in cd for a in cd for b in cd):
        problems.append(f"{label}: not closed")
    if any(mul(a, b) != mul(b, a) for a in cd for b in cd):
        problems.append(f"{label}: not abelian")
    if not centre(group["gens"], group["perms"]) <= cd:
        problems.append(f"{label}: does not contain the centre")
    return problems


# -- large --------------------------------------------------------------------


def check_large(spec: dict, out: dict) -> list:
    from sympy.combinatorics import Permutation, PermutationGroup

    expect = {src: (order, index) for src, order, index in LARGE_GROUPS}
    problems = []
    for gi, src in enumerate(spec["groups"]):
        g = out["groups"][gi]
        order = PermutationGroup([Permutation(x) for x in g["gens"]]).order()
        if not g["n"] == order == expect[src][0]:
            problems.append(f"{src}: |G| = {g['n']}, sympy {order}, "
                            f"expected {expect[src][0]}")
    for (gi, query, p), res in zip(spec["ops"], out["results"]):
        src = spec["groups"][gi]
        g = out["groups"][gi]
        label = f"{src} {query}" + (f" p={p}" if p else "")
        if query == "conjugacy_classes":
            if sum(res) != g["n"] or any(g["n"] % s for s in res):
                problems.append(f"{label}: class sizes do not partition |G|")
        elif query == "normal_subgroups":
            for mask_hex, gens in res:
                order = bin(int(mask_hex, 16)).count("1")
                problems += _normal_abelian_problems(
                    label, gens, order, g, need_abelian=False)
        elif query == "j_analysis":
            problems += _j_problems(label, p, res, g, expect[src][1][p])
    return problems


def _normal_abelian_problems(label, gens, order, group, need_abelian) -> list:
    sub = closure(gens, group["degree"])
    problems = []
    if len(sub) != order:
        problems.append(f"{label}: generators give order {len(sub)}, "
                        f"reported {order}")
    gens = [tuple(x) for x in gens]
    if any(conjugate(h, tuple(g)) not in sub for h in gens for g in group["gens"]):
        problems.append(f"{label}: subgroup of order {order} is not normal")
    if need_abelian and any(mul(a, b) != mul(b, a) for a in gens for b in gens):
        problems.append(f"{label}: witness is not abelian")
    return problems


def _j_problems(label, p, res, group, forced_index) -> list:
    n = group["n"]
    problems = _normal_abelian_problems(label, res["witness_gens"],
                                        res["witness_order"], group,
                                        need_abelian=True)
    w = res["witness_order"]
    if gcd(w, p) != 1:
        problems.append(f"{label}: witness order {w} not coprime to p")
    if res["min_index"] != n // w:
        problems.append(f"{label}: min index {res['min_index']} is not "
                        f"|G|/|W| = {n // w}")
    if res["min_index"] != forced_index:
        problems.append(f"{label}: min index {res['min_index']}, the group's "
                        f"structure forces {forced_index}")
    pp = p_part(n, p)
    if res["p_part"] != pp or Fraction(res["j_ratio"]) != Fraction(
            res["min_index"], pp ** 3):
        problems.append(f"{label}: p-part or j-ratio wrong")
    return problems


# -- ledger ---------------------------------------------------------------------


def check_claim_results(results: list, claim_ids) -> list:
    """Claim records (report JSON) against the slice and the paper's values."""
    problems = []
    by_id = {r["id"]: r for r in results}
    if sorted(by_id) != sorted(claim_ids) or len(results) != len(claim_ids):
        problems.append(f"{len(results)} claims reported, {len(claim_ids)} run")
    for cid, r in by_id.items():
        want = "skip" if cid == KNOWN_SKIP else "pass"
        if r["status"] != want:
            problems.append(f"{cid}: {r['status']}, expected {want}")
    for cid, key, value in HEADLINES:
        if cid not in by_id:
            continue
        actual = json.loads(by_id[cid]["actual"] or "{}")
        if actual.get(key) != value:
            problems.append(f"{cid}: {key} = {actual.get(key)!r}, the paper "
                            f"gives {value}")
    return problems


def check_ledger_report(report: dict, exit_code: int, claim_ids) -> list:
    problems = [] if exit_code == 0 else [f"verify exited {exit_code}"]
    problems += check_claim_results(report["claims"], claim_ids)
    s = report["summary"]
    if s["pass"] + s["fail"] + s["skip"] != len(report["claims"]):
        problems.append("summary does not add up")
    return problems
