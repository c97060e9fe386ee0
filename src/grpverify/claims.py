"""The built-in claim registry: every machine-checkable statement verified.

Each claim freezes the constants asserted in one statement (orders, exact
rational index bounds, exception lists) and recomputes them with the group
engine.  Expected values are stored as exact strings; sweeps report
violation sets so a wrong constant shows up as a concrete counterexample.

Each idea the claims share has one helper: `jprime` (|G|/|G_(p)|^3) and
`within_j` (the J|G_(p)|^3 bound on the normal abelian p'-index);
`aut_hf_index` (the least index invariant under Aut(H;F), its stabilizer
found once per group); `invariant_min_index`, `is_cyclic` and
`n_cyclic_characteristic`; the texts `within`, `orders_text` and
`violation_tags`; and the groups `pgl_psl`, `normal_part` and `_cd_corpus`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import perm as pm
from .autmorph import (
    automorphism_group,
    chermak_delgado,
    coprime_part,
    is_characteristic,
    is_isomorphic,
)
from .construct import (
    Action,
    Alt,
    Cyc,
    Dih,
    ElemAb,
    H3,
    Hess,
    Hsl23,
    MatGL,
    MatSL,
    PGroup,
    PSL32,
    Prod,
    ProjGL,
    ProjSL,
    Semi,
    SwapSq,
    Sym,
    WeylD,
    build,
    ea_action_perm,
    semidirect_by_automorphisms,
    to_src,
)
from .gf import factor_prime_power
from .lattice import (
    Sub,
    all_subgroups,
    j_analysis,
    normal_abelian_subgroups,
    normal_subgroups,
    quotient,
    sub_materialized,
    subgroup_classes,
    sweep_bound,
)
from .ledger import ClaimRecord, SkipClaim
from .smallgroup import (bits, coprime, current_caps, invariant, materialize,
                         p_part)

_REGISTRY: dict[str, ClaimRecord] = {}

PRIMES = (2, 3, 5, 7)

MU73 = Semi(Cyc(7), Cyc(3), Action("explicit"))
F20 = Semi(Cyc(5), Cyc(4), Action("explicit"))
MU34 = Semi(Cyc(3), Cyc(4), Action("explicit"))
MU328 = Semi(ElemAb(3, 2), Cyc(8), Action("explicit", (0, 1, 1, 1)))
MU237 = Semi(ElemAb(2, 3), Cyc(7), Action("explicit", (0, 0, 1, 1, 0, 1, 0, 1, 0)))
MU52S2 = Semi(ElemAb(5, 2), Sym(2), Action("natperm"))
WD5SEMI = Semi(ElemAb(2, 4), Sym(5), Action("evenperm"))
MU24A5 = Semi(ElemAb(2, 4), Alt(5), Action("evenperm"))
MU24D10 = Semi(ElemAb(2, 4), PGroup(5, ("(1 2 3 4 5)", "(2 5)(3 4)")),
               Action("evenperm"))
MU24F20 = Semi(ElemAb(2, 4), PGroup(5, ("(1 2 3 4 5)", "(2 3 5 4)")),
               Action("evenperm"))
MU33S4 = Semi(ElemAb(3, 3), Sym(4), Action("quotperm"))


def claim(cid, paper_ref, kind, expected):
    def deco(fn):
        if cid in _REGISTRY:
            raise ValueError(f"duplicate claim id {cid}")
        _REGISTRY[cid] = ClaimRecord(
            cid, paper_ref, kind, {k: str(v) for k, v in expected.items()}, fn)
        return fn

    return deco


def builtin_claims() -> list[ClaimRecord]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_claim(cid: str) -> ClaimRecord:
    return _REGISTRY[cid]


def M(expr):
    return build(expr).materialized()


def yn(flag) -> str:
    return "yes" if flag else "no"


def fr(x) -> str:
    return str(Fraction(x))


def within(x, bound) -> str:
    """The text x<=bound, or VIOLATION:x>bound when x exceeds the bound."""
    return f"{x}<={bound}" if x <= bound else f"VIOLATION:{x}>{bound}"


def matches(got, want) -> str:
    """fr(got), or MISMATCH:fr(got) when got differs from want."""
    return fr(got) if got == want else f"MISMATCH:{fr(got)}"


def psl_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)


def jprime(n, p) -> Fraction:
    """n/|n_(p)|^3: the J that a group of order n meets through its trivial
    subgroup."""
    return Fraction(n, p_part(n, p) ** 3)


def within_j(m, p, J) -> bool:
    """True iff m has a normal abelian subgroup of order coprime to p and
    index at most J|G_(p)|^3."""
    return j_analysis(m, p).min_index <= J * p_part(m.n, p) ** 3


def is_cyclic(m, s) -> bool:
    return max(m.element_order(i) for i in bits(s.mask)) == s.order


def n_cyclic_characteristic(m) -> int:
    """The number of nontrivial cyclic characteristic subgroups."""
    return sum(1 for s in all_subgroups(m)
               if s.order > 1 and is_cyclic(m, s) and is_characteristic(m, s.mask))


def invariant_min_index(m, maps, p, cyclic=False):
    """Minimal index of an abelian (if cyclic, a cyclic) subgroup of order
    coprime to p that is mapped onto itself by every given automorphism, so
    by the group they generate.  The trivial subgroup always qualifies."""
    return next(m.n // s.order for s in reversed(all_subgroups(m))
                if s.order % p and m.is_abelian_set(s.gens)
                and (not cyclic or is_cyclic(m, s))
                and invariant(s.mask, s.gens, maps))


def aut_hf_index(m, fmask, primes, cyclic=False) -> dict:
    """{p: invariant_min_index under Aut(H;F)}, the automorphisms of H = m
    that preserve its subgroup F = fmask; the stabilizer is found once."""
    maps = automorphism_group(m).preserving(fmask)
    return {p: invariant_min_index(m, maps, p, cyclic) for p in primes}


def sub_iso_label(m, sub, label, expr):
    """label if the subgroup is isomorphic to expr's group, else
    unidentified:<order>."""
    sm = sub_materialized(m, sub)
    if sm.n == build(expr).order and is_isomorphic(sm, M(expr)):
        return label
    return f"unidentified:{sm.n}"


def orders_text(entries) -> str:
    """The orders of the entries, comma-separated; - when there are none."""
    return ",".join(str(e.order) for e in entries) or "-"


def violation_tags(reps) -> str:
    """p<p>:<order> for each bound violation of a {p: SweepReport}; - when
    there are none."""
    return ",".join(f"p{p}:{e.order}" for p, rep in reps.items()
                    for e in rep.bound_violations) or "-"


def pgl_psl(q):
    """PGL_2(F_q) and its subgroup PSL_2(F_q)."""
    h = build(ProjGL(q))
    return h.materialized(), h.sub("psl_gens")


def normal_part(h):
    """The group of a built extension and its normal subgroup."""
    return h.materialized(), h.sub("normal_gens")


# ===========================================================================
# Section 2: examples


@claim(
    "EX-2.6", 'Example 2.6: "the group G does not contain non-trivial normal '
    'abelian subgroups at all" for k >= 2; |G| = p^k(p^{2k}-1) < p^{3k}',
    "normal-list",
    {"order_q9": 720, "order_q25": 15600, "min_index_q9": 720,
     "min_index_q25": 15600, "below_cube_q9": "yes", "below_cube_q25": "yes",
     "min_k_exceeding_e2_J7200_p3": 9},
)
def _ex_2_6():
    actual = {}
    for q, p in ((9, 3), (25, 5)):
        m = M(ProjGL(q))
        actual[f"order_q{q}"] = m.n
        actual[f"min_index_q{q}"] = j_analysis(m, p).min_index
        actual[f"below_cube_q{q}"] = yn(m.n < q**3)
    # no (J, e<3) works for all k: with e = 2 and J = 7200 the order q^3 - q
    # exceeds J*q^2 once q - 1/q > J
    k = 1
    while not (3**k) ** 3 - 3**k > 7200 * (3**k) ** 2:
        k += 1
    actual["min_k_exceeding_e2_J7200_p3"] = k
    return actual, "PGL2(F_q) for q in {9,25}: only normal subgroups are 1, PSL2, PGL2"


@claim(
    "EX-2.7", 'Example 2.7: |PSL_2| = p^k(p^{2k}-1)/2 for odd p, '
    "2^k(2^{2k}-1) for p = 2; always < |G_(p)|^3",
    "arithmetic",
    {**{f"q{q}": psl_order(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)},
     "all_below_cube": "yes"},
)
def _ex_2_7():
    actual = {}
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        order = build(ProjSL(q)).order
        actual[f"q{q}"] = order
        ok = ok and order < q**3
    actual["all_below_cube"] = yn(ok)
    return actual, "orders from stabilizer chains on the q+1 projective points"


@claim(
    "EX-2.8", 'Example 2.8: A_5 "is simple, and thus does not contain '
    'non-trivial normal abelian subgroups"; J = 60, 12/25, 20/9, 15/16',
    "j-analysis",
    {"p2": "15/16", "p3": "20/9", "p5": "12/25", "p7": "60"},
)
def _ex_2_8():
    m = M(Alt(5))
    return ({f"p{p}": fr(j_analysis(m, p).j_ratio) for p in PRIMES},
            "trivial subgroup is the only normal abelian one")


@claim(
    "EX-2.9", 'Example 2.9: subgroup mu_3 of A_5 "cannot contain subgroups '
    'of index at most J|H_(5)|^3 = J for J < 1"',
    "j-analysis",
    {"a5_ratio_p5": "12/25", "mu3_ratio_p5": "1", "subgroup_beats_parent": "yes"},
)
def _ex_2_9():
    a5 = j_analysis(M(Alt(5)), 5).j_ratio
    mu3 = j_analysis(M(Cyc(3)), 5).j_ratio
    return ({"a5_ratio_p5": fr(a5), "mu3_ratio_p5": fr(mu3),
             "subgroup_beats_parent": yn(mu3 > a5)},
            "p-Jordan bounds do not pass to subgroups")


@claim(
    "EX-2.10", 'Example 2.10: G = mu_2 x (mu_7 : mu_3) has "normal abelian '
    'subgroup mu_7 of order coprime to 2 and index 6 = (3/4)|G_(2)|^3"',
    "j-analysis",
    {"min_index_p2": 6, "witness_order": 7, "ratio_p2": "3/4",
     "h_min_index_p2": 3, "h_is_quotient": "yes"},
)
def _ex_2_10():
    g = M(Prod(Cyc(2), MU73))
    ja = j_analysis(g, 2)
    h = M(MU73)
    jah = j_analysis(h, 2)
    mu2 = next(s for s in normal_subgroups(g) if s.order == 2
               and g.center() >> s.gens[0] & 1)
    q = quotient(g, mu2)
    return ({"min_index_p2": ja.min_index, "witness_order": ja.witness.order,
             "ratio_p2": fr(ja.j_ratio), "h_min_index_p2": jah.min_index,
             "h_is_quotient": yn(is_isomorphic(q, h))},
            "mu_7 : mu_3 seen both as subgroup and quotient of G")


@claim(
    "EX-2.12", 'Example 2.12: S_4 normal subgroups are A_4 and V_4; '
    '"characteristic subgroup isomorphic to mu_2^2"; no nontrivial cyclic '
    "characteristic subgroups; J and J' tables (the paper prints J = 3/256 "
    "at p = 2, but V_4 has even order, so the best coprime witness is the "
    "trivial subgroup: J = 3/64)",
    "characteristic",
    {"normal_orders": "1,4,12,24", "v4_characteristic": "yes",
     "nontrivial_cyclic_characteristic": 0,
     "J_p5": "6", "J_p3": "2/9", "J_p2": "3/64",
     "Jprime_p5": "24", "Jprime_p3": "8/9", "Jprime_p2": "3/64"},
)
def _ex_2_12():
    m = M(Sym(4))
    ns = normal_subgroups(m)
    v4 = next(s for s in ns if s.order == 4)
    actual = {
        "normal_orders": orders_text(ns),
        "nontrivial_cyclic_characteristic": n_cyclic_characteristic(m),
        "v4_characteristic": yn(is_characteristic(m, v4.mask)),
    }
    for p in (5, 3, 2):
        actual[f"J_p{p}"] = fr(j_analysis(m, p).j_ratio)
        actual[f"Jprime_p{p}"] = fr(jprime(m.n, p))
    return actual, "V_4 = {id,(12)(34),(13)(24),(14)(23)} is the witness"


@claim(
    "EX-2.13", 'Example 2.13: "the only characteristic cyclic subgroup in '
    'A_4 is the trivial subgroup"; J\' = 12, 4/9, 3/16',
    "characteristic",
    {"nontrivial_cyclic_characteristic": 0, "Jprime_p5": "12",
     "Jprime_p3": "4/9", "Jprime_p2": "3/16"},
)
def _ex_2_13():
    m = M(Alt(4))
    actual = {"nontrivial_cyclic_characteristic": n_cyclic_characteristic(m)}
    for p in (5, 3, 2):
        actual[f"Jprime_p{p}"] = fr(jprime(m.n, p))
    return actual, ""


# ===========================================================================
# Section 3: preliminaries


@claim(
    "LEM-3.1", 'Lemma 3.1: "the cyclic subgroup G\' of order n is '
    'characteristic in G" and "the centralizer of G\' in G coincides with G\'"'
    " (dihedral D_2n, n >= 3)",
    "characteristic",
    {"n_range": "3..12", "all_characteristic": "yes", "all_self_centralizing": "yes"},
)
def _lem_3_1():
    all_char = True
    all_cent = True
    for n in range(3, 13):
        h = build(Dih(n))
        m = h.materialized()
        r = m.index[h.parts["rotation"]]
        rot = m.close([r])
        all_char = all_char and is_characteristic(m, rot)
        all_cent = all_cent and m.centralizer([r]) == rot
    return ({"n_range": "3..12", "all_characteristic": yn(all_char),
             "all_self_centralizing": yn(all_cent)}, "")


CD_CORPUS = (
    Cyc(1), Cyc(7), Cyc(12), Cyc(24), Dih(2), Dih(4), Dih(6), Dih(12),
    Sym(3), Sym(4), Alt(4), Alt(5), ElemAb(2, 3), ElemAb(2, 4), ElemAb(3, 2),
    ElemAb(3, 3), H3(), MatGL(3), MatSL(3), ProjGL(3), ProjSL(4), ProjSL(5),
    MU73, F20, MU34, MU328, MU237, MU52S2,
    Prod(Cyc(2), MU73), Prod(Sym(3), Sym(3)), SwapSq(Sym(3)), SwapSq(Cyc(4)),
    Semi(Cyc(9), Cyc(2), Action("inv")), Semi(ElemAb(3, 2), Sym(3), Action("quotperm")),
    WeylD(3), Semi(ElemAb(2, 2), Sym(3), Action("evenperm")),
    PGroup(6, ("(1 2 3 4 5 6)", "(2 6)(3 5)")),
)


def _cd_corpus():
    """(name, group, Chermak-Delgado mask, I) over CD_CORPUS, where |G|/I is
    the largest order of an abelian subgroup."""
    for expr in CD_CORPUS:
        m = M(expr)
        cd = chermak_delgado(m)
        best_ab = max(s.order for s in all_subgroups(m) if m.is_abelian_set(s.gens))
        yield to_src(expr), m, cd, m.n // best_ab


@claim(
    "THM-3.2", 'Theorem 3.2 (Chermak-Delgado): "G contains a characteristic '
    'abelian subgroup of index at most I^2"',
    "cd-index",
    {"groups": len(CD_CORPUS), "all_pass": "yes"},
)
def _thm_3_2():
    bad = []
    for name, m, cd, i in _cd_corpus():
        ok = (m.is_abelian_set(m.gens_for_mask(cd))
              and is_characteristic(m, cd)
              and cd & m.center() == m.center()
              and m.n // cd.bit_count() <= i * i)
        if not ok:
            bad.append(name)
    return ({"groups": len(CD_CORPUS), "all_pass": yn(not bad)},
            f"violations: {bad}" if bad else
            "CD subgroup abelian+characteristic+contains center, index <= I^2")


@claim(
    "COR-3.3", "Corollary 3.3: characteristic abelian subgroup of order "
    'coprime to p and index at most "J^2 |G_(p)|^{2e+1}"',
    "cd-index",
    {"groups": len(CD_CORPUS), "primes": "2,3,5", "all_pass": "yes"},
)
def _cor_3_3():
    bad = []
    for name, m, cd, i in _cd_corpus():
        for p in (2, 3, 5):
            aprime = coprime_part(m, cd, p)
            ok = (is_characteristic(m, aprime)
                  and m.is_abelian_set(m.gens_for_mask(aprime))
                  and coprime(aprime.bit_count(), p)
                  and m.n // aprime.bit_count() <= i * i * p_part(m.n, p))
            if not ok:
                bad.append(f"{name}@p={p}")
    return ({"groups": len(CD_CORPUS), "primes": "2,3,5", "all_pass": yn(not bad)},
            f"violations: {bad}" if bad else
            "coprime part of the CD subgroup, J = I/|G_(p)|^e")


LEM_3_4_INSTANCES = (WD5SEMI, Hess(), MU33S4, MU73, MU24D10)


@claim(
    "LEM-3.4", "Lemma 3.4: extension with abelian kernel has a normal abelian "
    'subgroup of order coprime to p and "index at most J|G_(p)|^e", '
    "J = |Gbar|/|Gbar_(p)|^e (split instances, e = 3)",
    "j-analysis",
    {"instances": len(LEM_3_4_INSTANCES), "checks": 4 * len(LEM_3_4_INSTANCES),
     "all_pass": "yes"},
)
def _lem_3_4():
    bad = []
    for expr in LEM_3_4_INSTANCES:
        m, nsub = normal_part(build(expr))
        qq = quotient(m, nsub)
        for p in PRIMES:
            if not within_j(m, p, jprime(qq.n, p)):
                bad.append(f"{to_src(expr)}@p={p}")
    return ({"instances": len(LEM_3_4_INSTANCES),
             "checks": 4 * len(LEM_3_4_INSTANCES), "all_pass": yn(not bad)},
            f"violations: {bad}" if bad else "")


LEM_3_5_INSTANCES = ((Sym(4), Dih(6)), (Alt(4), Sym(3)))


@claim(
    "LEM-3.5", "Lemma 3.5: subgroups of Gamma_1 x Gamma_2 have normal abelian "
    'subgroups of coprime order and "index at most J_1 J_2 |G_(p)|^e"',
    "j-sweep",
    {"instances": 2, "primes": "2,3", "all_pass": "yes"},
)
def _lem_3_5():
    bad = []
    for g1, g2 in LEM_3_5_INSTANCES:
        m1, m2 = M(g1), M(g2)
        prod = M(Prod(g1, g2))
        for p in (2, 3):
            # J1: normal-abelian constant over all subgroups of Gamma_1
            j1 = max(Fraction(j_analysis(sub_materialized(m1, s), p).min_index,
                              p_part(s.order, p) ** 3)
                     for s in subgroup_classes(m1))
            # J2: characteristic-abelian constant over all subgroups of Gamma_2
            j2 = Fraction(0)
            for s in subgroup_classes(m2):
                sm = sub_materialized(m2, s)
                idx = invariant_min_index(sm, automorphism_group(sm).gens, p)
                j2 = max(j2, Fraction(idx, p_part(s.order, p) ** 3))
            for s in subgroup_classes(prod):
                if not within_j(sub_materialized(prod, s), p, j1 * j2):
                    bad.append(f"{to_src(g1)}x{to_src(g2)}@p={p}:|H|={s.order}")
    return ({"instances": 2, "primes": "2,3", "all_pass": yn(not bad)},
            f"violations: {bad}" if bad else
            "J1 from normal sweeps, J2 from characteristic sweeps")


THM_3_7_INSTANCES = (
    (Sym(4), 2), (Sym(6), 2), (Sym(6), 3), (Alt(4), 2), (H3(), 3),
    (Hsl23(), 3), (Hsl23(), 2), (WeylD(5), 2), (Hess(), 3), (MU328, 3),
    (Cyc(24), 2), (MU237, 2),
)


@claim(
    "THM-3.7", 'Theorem 3.7: a group of order p^n "contains a normal abelian '
    'subgroup of order p^m" with "m(m+1) >= 2n"',
    "arithmetic",
    {"sylows": len(THM_3_7_INSTANCES), "all_pass": "yes"},
)
def _thm_3_7():
    bad = []
    logs = []
    for expr, p in THM_3_7_INSTANCES:
        g = M(expr)
        mask, gens = g.sylow_subgroup(p)
        syl = sub_materialized(g, Sub(mask, tuple(gens)))
        # p divides |G|, and a nontrivial p-group has a nontrivial centre
        n = factor_prime_power(syl.n)[1]
        m_exp = factor_prime_power(normal_abelian_subgroups(syl)[-1].order)[1]
        logs.append(f"{to_src(expr)}:p={p}:n={n},m={m_exp}")
        if m_exp * (m_exp + 1) < 2 * n:
            bad.append(logs[-1])
    return ({"sylows": len(THM_3_7_INSTANCES), "all_pass": yn(not bad)},
            "; ".join(logs))


# -- Lemma 3.8 sweeps -------------------------------------------------------

AUX_J = {2: Fraction(3), 3: Fraction(10), 5: Fraction(144), 7: Fraction(720)}


def _aux_sweep(m):
    """Sweep all four J values of the auxiliary-subgroups lemma."""
    return {p: sweep_bound(m, p, AUX_J[p]) for p in PRIMES}


@claim(
    "LEM-3.8-I", 'Lemma 3.8(i): G in S_5 satisfies |G| <= J|G_(p)|^3 "unless '
    'either p=3 and G = mu_5 : mu_4, or p=2 and G = mu_5"; the exceptions '
    "contain a normal abelian subgroup within the bound",
    "j-sweep",
    {"order_viol_p2": "5", "order_viol_p3": "20", "order_viol_p5": "-",
     "order_viol_p7": "-", "iso_p3": "mu5:mu4", "iso_p2": "mu5",
     "rescue_p3_min_index": 4, "rescue_p2_min_index": 1, "bound_viol": "-"},
)
def _lem_3_8_i():
    m = M(Sym(5))
    reps = _aux_sweep(m)
    actual = {f"order_viol_p{p}": ",".join(
        str(o) for o in rep.violation_orders()) or "-" for p, rep in reps.items()}
    actual["bound_viol"] = violation_tags(reps)
    for p, label, expr in ((3, "mu5:mu4", F20), (2, "mu5", Cyc(5))):
        e = reps[p].order_violations[0]
        actual[f"iso_p{p}"] = sub_iso_label(m, e.sub, label, expr)
        actual[f"rescue_p{p}_min_index"] = e.min_index
    return actual, "normal mu_5 of index 4 rescues mu_5:mu_4 at p=3"


@claim(
    "LEM-3.8-II", 'Lemma 3.8(ii): G in mu_2^4 : S_5 has the bound "unless '
    'p=3 and G = mu_2^4 : (mu_5 : mu_4)"',
    "j-sweep",
    {"bound_viol_p2": "-", "bound_viol_p3": "320", "bound_viol_p5": "-",
     "bound_viol_p7": "-", "viol_p3_iso": "mu2^4:(mu5:mu4)",
     "viol_p3_min_index": 20},
)
def _lem_3_8_ii():
    m = M(WD5SEMI)
    reps = _aux_sweep(m)
    actual = {f"bound_viol_p{p}": orders_text(rep.bound_violations)
              for p, rep in reps.items()}
    viol = reps[3].bound_violations[0]
    actual["viol_p3_iso"] = sub_iso_label(m, viol.sub, "mu2^4:(mu5:mu4)", MU24F20)
    actual["viol_p3_min_index"] = viol.min_index
    return actual, ("the exception needs index 20 > 10 = J; its only normal "
                    "abelian subgroup of coprime order is mu_2^4")


@claim(
    "LEM-3.8-III", "Lemma 3.8(iii): G in mu_2^4 : A_5 always has a normal "
    "abelian subgroup of coprime order within the bound",
    "j-sweep",
    {"bound_viol_p2": "-", "bound_viol_p3": "-", "bound_viol_p5": "-",
     "bound_viol_p7": "-", "order": 960},
)
def _lem_3_8_iii():
    m = M(MU24A5)
    reps = _aux_sweep(m)
    actual = {f"bound_viol_p{p}": orders_text(rep.bound_violations)
              for p, rep in reps.items()}
    actual["order"] = m.n
    return actual, ""


@claim(
    "LEM-3.8-IV", "Lemma 3.8(iv): G in S_6; order bound fails only for "
    '"p=3 and |G| in {16,20}" and "p=2 and |G| in {5,9}", all rescued',
    "j-sweep",
    {"order_viol_p3_orders": "16,20", "order_viol_p2_orders": "5,9",
     "bound_viol": "-", "p3_rescue_max_index": 4, "p2_rescue_max_index": 1},
)
def _lem_3_8_iv():
    reps = _aux_sweep(M(Sym(6)))
    actual = {"bound_viol": violation_tags(reps)}
    for p in (3, 2):
        actual[f"order_viol_p{p}_orders"] = ",".join(
            str(o) for o in sorted(set(reps[p].violation_orders())))
        actual[f"p{p}_rescue_max_index"] = max(
            e.min_index for e in reps[p].order_violations)
    return actual, ("p=3: mu_2 x D_8 keeps a normal mu_2 x mu_4 of index 2, "
                    "mu_5:mu_4 keeps mu_5 of index 4; p=2 exceptions abelian")


@claim(
    "LEM-3.8-V", 'Lemma 3.8(v): G in H_3 : SL_2(F_3) has the bound "unless '
    'p=5 and either G = Gamma, or |G| = 162"; computed violations are a '
    "subset of the exempt list, with Gamma genuinely extremal",
    "j-sweep",
    {"bound_viol_p2": "-", "bound_viol_p3": "-", "bound_viol_p5": "648",
     "gamma_min_index": 216, "order_viol_p5": "162,216,648",
     "viol_within_exempt": "yes", "exempt_162_exists": "yes",
     "exempt_162_min_index": 6},
)
def _lem_3_8_v():
    reps = _aux_sweep(M(Hsl23()))
    actual = {f"bound_viol_p{p}": orders_text(reps[p].bound_violations)
              for p in (2, 3, 5)}
    rep5 = reps[5]
    actual["order_viol_p5"] = ",".join(str(o) for o in rep5.violation_orders())
    # the stated exception list: Gamma itself or order 162, at p = 5
    actual["viol_within_exempt"] = yn(
        all(e.order in (648, 162) for e in rep5.bound_violations))
    gamma = next(e for e in rep5.bound_violations if e.order == 648)
    actual["gamma_min_index"] = gamma.min_index
    sub162 = [e for e in rep5.order_violations if e.order == 162]
    actual["exempt_162_exists"] = yn(bool(sub162))
    actual["exempt_162_min_index"] = max(e.min_index for e in sub162)
    return actual, ("the paper exempts |G|=162, but that subgroup has a "
                    "normal abelian 3-group of index 6 <= 144 (its central "
                    "mu_3 alone gives 54); the order-216 H3:Q8 is likewise "
                    "rescued; only Gamma itself violates the bound")


def _mu33_sumzero_s4():
    """mu_3^3 : S_4 with the sum-zero module structure on F_3^4."""
    n = build(ElemAb(3, 3))
    h = build(Sym(4))
    nmat = n.materialized()
    perms = []
    for s in h.group.generators:
        sinv = pm.inverse(s)

        def f(v, sinv=sinv):
            w = (v[0], (v[1] - v[0]) % 3, (v[2] - v[1]) % 3, (-v[2]) % 3)
            wp = tuple(w[sinv[i]] for i in range(4))
            return (wp[0] % 3, (wp[0] + wp[1]) % 3, (wp[0] + wp[1] + wp[2]) % 3)

        perms.append(ea_action_perm(nmat, 3, 3, f))
    return semidirect_by_automorphisms(n, h, perms, name="mu3^3:S4-sumzero")


@claim(
    "LEM-3.8-VI", "Lemma 3.8(vi): G in mu_3^3 : S_4 always has the bound; "
    "verified for both candidate module structures (quotient and sum-zero)",
    "j-sweep",
    {"quot_order": 648, "sumzero_order": 648, "quot_bound_viol": "-",
     "sumzero_bound_viol": "-"},
)
def _lem_3_8_vi():
    quot = M(MU33S4)
    actual = {"quot_order": quot.n}
    actual["quot_bound_viol"] = violation_tags(_aux_sweep(quot))
    sz = _mu33_sumzero_s4().materialized()
    actual["sumzero_order"] = sz.n
    actual["sumzero_bound_viol"] = violation_tags(_aux_sweep(sz))
    return actual, "module structure unspecified in the statement; both verified"


@claim(
    "LEM-3.8-VII", 'Lemma 3.8(vii): order-576 case, arithmetic over |G| = '
    '2^a 3^b: exceptions "p=5 and |G| in {192, 288, 576}"; p=3 failures '
    "{16,32,64} rescued via the p-group theorem; at p=2 the text lists "
    "{9,18} but only 9 fails the order bound (and is abelian)",
    "arithmetic-inequality",
    {"p5_exceptions": "192,288,576", "p3_order_failures": "16,32,64",
     "p3_rescue_indices": "2,4,8", "p2_order_failures": "9",
     "p2_rescue_indices": "1", "p7_failures": "-"},
)
def _lem_3_8_vii():
    orders = sorted({2**a * 3**b for a in range(7) for b in range(3)})
    fail = {p: [n for n in orders if jprime(n, p) > AUX_J[p]] for p in PRIMES}
    # rescues: p=3 failures are 2-groups; theorem 3.7 gives a normal abelian
    # subgroup of order 2^m with m(m+1) >= 2a, hence index 2^(a-m) <= 8
    p3_rescue = []
    for n in fail[3]:
        a = n.bit_length() - 1
        m_exp = next(m for m in range(a + 1) if m * (m + 1) >= 2 * a)
        p3_rescue.append(2 ** (a - m_exp))
    # p=2 failures: every group of order 9 is abelian (index-1 witness);
    # 18 = 2*3^2 already satisfies 3^{b-1} <= 2^{2a}, despite the paper
    # listing it alongside 9
    p2_rescue = [1 if n == 9 else 2 for n in fail[2]]
    return ({"p5_exceptions": ",".join(map(str, fail[5])),
             "p3_order_failures": ",".join(map(str, fail[3])),
             "p3_rescue_indices": ",".join(map(str, p3_rescue)),
             "p2_order_failures": ",".join(map(str, fail[2])),
             "p2_rescue_indices": ",".join(map(str, p2_rescue)),
             "p7_failures": ",".join(map(str, fail[7])) or "-"},
            "pure order arithmetic; the 576-group itself is never built")


# ===========================================================================
# Section 4: projective linear groups


@claim(
    "THM-4.1-ORDERS", "orders of PSL_2 and PGL_2 over F_q, q in {4,5,7,8,9}",
    "arithmetic",
    {**{f"psl_q{q}": psl_order(q) for q in (4, 5, 7, 8, 9)},
     **{f"pgl_q{q}": q**3 - q for q in (4, 5, 7, 8, 9)}},
)
def _thm_4_1_orders():
    actual = {}
    for q in (4, 5, 7, 8, 9):
        actual[f"psl_q{q}"] = build(ProjSL(q)).order
        actual[f"pgl_q{q}"] = build(ProjGL(q)).order
    return actual, ""


@claim(
    "THM-4.1-ISO", 'Theorem 4.1(ii),(iii): "PSL_2(F_2) = S_3, PSL_2(F_3) = '
    'A_4, PSL_2(F_4) = PSL_2(F_5) = A_5, A_6 = PSL_2(F_9)"; "PGL_2(F_2) = '
    'S_3, PGL_2(F_3) = S_4"',
    "iso",
    {"psl2_s3": "yes", "psl3_a4": "yes", "psl4_a5": "yes", "psl5_a5": "yes",
     "psl9_a6": "yes", "pgl2_s3": "yes", "pgl3_s4": "yes"},
)
def _thm_4_1_iso():
    pairs = {
        "psl2_s3": (ProjSL(2), Sym(3)),
        "psl3_a4": (ProjSL(3), Alt(4)),
        "psl4_a5": (ProjSL(4), Alt(5)),
        "psl5_a5": (ProjSL(5), Alt(5)),
        "psl9_a6": (ProjSL(9), Alt(6)),
        "pgl2_s3": (ProjGL(2), Sym(3)),
        "pgl3_s4": (ProjGL(3), Sym(4)),
    }
    return ({k: yn(is_isomorphic(M(a), M(b))) for k, (a, b) in pairs.items()},
            "generator-image backtracking with class invariants")


@claim(
    "THM-4.1-SIMPLE", 'Theorem 4.1(i): "PSL_2(F_{p^k}) is simple, unless k=1 '
    'and p in {2,3}": the normal lattice is {1, G} for q in {4,5,7,8,9}',
    "normal-list",
    {f"q{q}": f"1,{psl_order(q)}" for q in (4, 5, 7, 8, 9)},
)
def _thm_4_1_simple():
    actual = {}
    for q in (4, 5, 7, 8, 9):
        actual[f"q{q}"] = orders_text(normal_subgroups(M(ProjSL(q))))
    return actual, ""


@claim(
    "THM-4.1-CENT", 'Theorem 4.1(iv): the centers and "the centralizer of '
    'the subgroup PSL_2 in PGL_2 are trivial" for q in {5,7,9}',
    "arithmetic",
    {**{f"centralizer_q{q}": 1 for q in (5, 7, 9)},
     **{f"center_psl_q{q}": 1 for q in (5, 7, 9)},
     **{f"center_pgl_q{q}": 1 for q in (5, 7, 9)}},
)
def _thm_4_1_cent():
    actual = {}
    for q in (5, 7, 9):
        m, psl = pgl_psl(q)
        actual[f"centralizer_q{q}"] = m.centralizer(psl.gens).bit_count()
        actual[f"center_pgl_q{q}"] = m.center().bit_count()
        actual[f"center_psl_q{q}"] = sub_materialized(m, psl).center().bit_count()
    return actual, ""


@claim(
    "THM-4.1-DERIVED", 'Theorem 4.1(v) proof: "PSL_2 is the commutator '
    "subgroup of PGL_2\" for q in {3,5,7,9}",
    "normal-list",
    {f"q{q}": "yes" for q in (3, 5, 7, 9)},
)
def _thm_4_1_derived():
    actual = {}
    for q in (3, 5, 7, 9):
        m, psl = pgl_psl(q)
        dmask, _ = m.derived_subgroup()
        actual[f"q{q}"] = yn(dmask == psl.mask)
    return actual, ""


@claim(
    "THM-4.1-CHAR", 'Theorem 4.1(v): "the subgroup PSL_2(F_{p^k}) is '
    'characteristic in PGL_2(F_{p^k})" for q in {5,7,9}',
    "characteristic",
    {f"q{q}": "yes" for q in (5, 7, 9)},
)
def _thm_4_1_char():
    actual = {}
    for q in (5, 7, 9):
        m, psl = pgl_psl(q)
        actual[f"q{q}"] = yn(is_characteristic(m, psl.mask))
    return actual, ""


@claim(
    "THM-4.2-OUT", 'Theorem 4.2: "Out(PSL_2(F_{p^k})) = mu_2 x mu_k" for '
    'p >= 3 and "mu_k" for p = 2 (q = 4, 8 cover the even branch)',
    "aut-order",
    {"out_q4": 2, "out_q5": 2, "out_q7": 2, "out_q8": 3, "out_q9": 4,
     "out_q9_shape": "2x2"},
)
def _thm_4_2():
    actual = {}
    for q in (4, 5, 7, 8, 9):
        m = M(ProjSL(q))
        aut = automorphism_group(m)
        actual[f"out_q{q}"] = aut.out_order
        if q == 9:
            autm = aut.as_materialized()
            inner = autm.close([autm.index[tuple(m.conj_map(g))]
                                for g in m.gens])
            qt = quotient(autm, Sub(inner, tuple(autm.gens_for_mask(inner))))
            actual["out_q9_shape"] = "2x2" if is_isomorphic(
                qt, M(ElemAb(2, 2))) else "4"
    return actual, "Out computed as Aut modulo conjugations"


@claim(
    "PROP-4.4", 'Proposition 4.4: "Aut(PSL_2) = Aut(PGL_2) = PGL_2 : T" with '
    "T generated by the Frobenius, so |Aut| = k (q^3 - q)",
    "aut-order",
    {"aut_psl_q4": 120, "aut_psl_q5": 120, "aut_psl_q9": 1440,
     "aut_pgl_q5": 120, "aut_pgl_q9": 1440},
)
def _prop_4_4():
    actual = {}
    for q in (4, 5, 9):
        m = M(ProjSL(q))
        actual[f"aut_psl_q{q}"] = automorphism_group(m).order
    for q in (5, 9):
        m = M(ProjGL(q))
        actual[f"aut_pgl_q{q}"] = automorphism_group(m).order
    return actual, ""


@claim(
    "PROP-4.4-STRUCT", 'Proposition 4.4 structure at q = 9: Aut(PSL_2(F_9)) '
    "is generated by PGL_2(F_9)-conjugations together with the Frobenius "
    "map; its three index-2 subgroups are PGL_2(F_9), S_6 and M_10",
    "aut-order",
    {"pgl_conjugations": 720, "with_frobenius": 1440,
     "index2_normal_subgroups": 3, "index2_types": "m10,pgl2f9,s6"},
)
def _prop_4_4_struct():
    psl = build(ProjSL(9))
    m = psl.materialized()
    aut = automorphism_group(m)
    autm = aut.as_materialized()
    pgl = build(ProjGL(9))
    F = pgl.parts["field"]
    frob_pts = tuple([F.pow(a, F.p) for a in range(F.q)] + [F.q])
    # PGammaL_2(F_9) on the 10 points; it conjugates PSL_2(F_9) into itself
    pgam = materialize(pm.PermGroup(pgl.group.generators + [frob_pts], 10))
    psl_in_pgam = [pgam.index[p] for p in m.perms]

    def conj_by(g):
        """The automorphism x -> g^-1 x g of PSL_2(F_9), as an index of autm."""
        gi = pgam.index[g]
        return autm.index[tuple(m.index[pgam.perms[pgam.conj(x, gi)]]
                                for x in psl_in_pgam)]

    idx_pgl = list(map(conj_by, pgl.group.generators))
    pgl_mask = autm.close(idx_pgl)
    actual = {
        "pgl_conjugations": pgl_mask.bit_count(),
        "with_frobenius": autm.extender(pgl_mask, idx_pgl)(
            conj_by(frob_pts)).bit_count(),
    }
    index2 = [s for s in normal_subgroups(autm) if s.order == 720]
    actual["index2_normal_subgroups"] = len(index2)
    types = []
    s6 = M(Sym(6))
    pglm = pgl.materialized()
    for s in index2:
        sm = sub_materialized(autm, s)
        if is_isomorphic(sm, pglm):
            types.append("pgl2f9")
        elif is_isomorphic(sm, s6):
            types.append("s6")
        else:
            types.append("m10")
    actual["index2_types"] = ",".join(sorted(types))
    return actual, ("the Frobenius acts on P^1(F_9) by (a:1) -> (a^3:1); "
                    "M_10 is the subgroup that is neither PGL_2(F_9) nor S_6")


@claim(
    "COR-4.5", 'Corollary 4.5: "Out(PGL_2(F_{p^k})) = mu_k"; "Out(A_4) = '
    'mu_2, Out(S_4) = 1, Out(A_5) = mu_2"',
    "aut-order",
    {"out_pgl_q4": 2, "out_pgl_q5": 1, "out_pgl_q9": 2,
     "out_a4": 2, "out_s4": 1, "out_a5": 2, "aut_a4": 24, "aut_s4": 24,
     "aut_a5": 120},
)
def _cor_4_5():
    actual = {}
    for q in (4, 5, 9):
        m = M(ProjGL(q))
        actual[f"out_pgl_q{q}"] = automorphism_group(m).out_order
    for key, expr in (("a4", Alt(4)), ("s4", Sym(4)), ("a5", Alt(5))):
        aut = automorphism_group(M(expr))
        actual[f"out_{key}"] = aut.out_order
        actual[f"aut_{key}"] = aut.order
    return actual, ""


@claim(
    "LEM-10.11", 'Lemma 10.11: "Aut(mu_3 : mu_4) = D_12"',
    "aut-order",
    {"aut_order": 12, "dihedral": "yes"},
)
def _lem_10_11():
    aut = automorphism_group(M(MU34))
    return ({"aut_order": aut.order,
             "dihedral": yn(is_isomorphic(aut.as_materialized(), M(Dih(6))))},
            "")


# ===========================================================================
# Section 5: semidirect products mu_p^m : mu_n

SEMI_INSTANCES = (
    ("3_1_4", MU34, 3, 1),
    ("3_2_8", MU328, 3, 2),
    ("5_1_4", F20, 5, 1),
    ("2_3_7", MU237, 2, 3),
)


def _semi_parts(expr):
    h = build(expr)
    return *normal_part(h), h.sub("complement_gens")


@claim(
    "LEM-5.1", 'Lemma 5.1: "for some positive integer t <= p^m - 1, the '
    'element g^t commutes with R\'" (exhaustive over every g)',
    "arithmetic",
    {"i_3_1_4": "2<=2", "i_3_2_8": "8<=8", "i_5_1_4": "4<=4", "i_2_3_7": "7<=7"},
)
def _lem_5_1():
    actual = {}
    for key, expr, p, m_exp in SEMI_INSTANCES:
        g, rp, _l = _semi_parts(expr)
        cent = g.centralizer(rp.gens)
        worst = 0
        for x in range(g.n):
            t = 1
            y = x
            while not cent >> y & 1:
                y = g.mul(y, x)
                t += 1
            worst = max(worst, t)
        actual[f"i_{key}"] = within(worst, p**m_exp - 1)
    return actual, "worst exponent over all group elements"


@claim(
    "COR-5.2", 'Corollary 5.2: C = R_(p) x L\' is characteristic with '
    'C_R(C) = C; "the index of L\' in L does not exceed p^m", and in R '
    "at most p^{2m}",
    "characteristic",
    {"i_3_1_4": "L'=2,L:L'=2,R:L'=6", "i_3_2_8": "L'=1,L:L'=8,R:L'=72",
     "i_5_1_4": "L'=1,L:L'=4,R:L'=20", "i_2_3_7": "L'=1,L:L'=7,R:L'=56",
     "all_characteristic": "yes", "all_self_centralizing": "yes",
     "all_products": "yes", "all_within_bounds": "yes"},
)
def _cor_5_2():
    actual = {}
    all_char = all_cent = all_prod = all_bound = True
    for key, expr, p, m_exp in SEMI_INSTANCES:
        g, rp, l = _semi_parts(expr)
        cmask = g.centralizer(rp.gens)
        cgens = g.gens_for_mask(cmask)
        lprime = l.mask & cmask
        lp_order = lprime.bit_count()
        all_char = all_char and is_characteristic(g, cmask) \
            and is_characteristic(g, lprime)
        all_cent = all_cent and g.centralizer(cgens) == cmask
        all_prod = all_prod and cmask.bit_count() == rp.order * lp_order \
            and g.is_abelian_set(cgens)
        ll = l.order // lp_order
        rl = g.n // lp_order
        all_bound = all_bound and ll <= p**m_exp and rl <= p ** (2 * m_exp)
        actual[f"i_{key}"] = f"L'={lp_order},L:L'={ll},R:L'={rl}"
    actual["all_characteristic"] = yn(all_char)
    actual["all_self_centralizing"] = yn(all_cent)
    actual["all_products"] = yn(all_prod)
    actual["all_within_bounds"] = yn(all_bound)
    return actual, "C is the centralizer of the p-Sylow subgroup"


@claim(
    "LEM-5.3", "Lemma 5.3: every subgroup H of R x R contains a "
    'characteristic abelian subgroup of coprime order and "index at most '
    '|H_(p)|^3"',
    "j-sweep",
    {"s3xs3_classes": 22, "f12xf12_classes": 68, "all_pass": "yes"},
)
def _lem_5_3():
    bad = []
    counts = {}
    for label, r, p in (("s3xs3", Sym(3), 3), ("f12xf12", MU34, 3)):
        m = M(Prod(r, r))
        classes = subgroup_classes(m)
        counts[label] = len(classes)
        for s in classes:
            sm = sub_materialized(m, s)
            idx = invariant_min_index(sm, automorphism_group(sm).gens, p)
            if idx > p_part(s.order, p) ** 3:
                bad.append(f"{label}:|H|={s.order}")
    return ({"s3xs3_classes": counts["s3xs3"], "f12xf12_classes": counts["f12xf12"],
             "all_pass": yn(not bad)},
            f"violations: {bad}" if bad else "")


@claim(
    "COR-5.4", "Corollary 5.4: swap extensions of R x R, R = mu_p^m : mu_n, "
    'contain a normal abelian subgroup of coprime order and index at most '
    '"J |G_(p)|^3", J = 2 for p >= 3 and J = 1 for p = 2',
    "j-analysis",
    {"swapsq_s3_p3": "yes", "swapsq_f12_p3": "yes", "swapsq_f20_p5": "yes",
     "swapsq_m237_p2": "yes"},
)
def _cor_5_4():
    # the bound is specific to the structural prime of R
    actual = {}
    for label, r, p in (("swapsq_s3_p3", Sym(3), 3), ("swapsq_f12_p3", MU34, 3),
                        ("swapsq_f20_p5", F20, 5), ("swapsq_m237_p2", MU237, 2)):
        m = M(SwapSq(r))
        actual[label] = yn(within_j(m, p, 1 if p == 2 else 2))
    return actual, "S_3 = mu_3 : mu_2 is the smallest type-(5) instance"


# ===========================================================================
# Section 6: extensions (split instances)


def _first_aut_of_order(m, r):
    for a in sorted(automorphism_group(m).as_materialized().perms):
        if pm.perm_order(a) == r:
            return a
    raise AssertionError(f"no automorphism of order {r}")


@claim(
    "EXT-6.1", "Lemma 6.1: extension of a coprime cyclic group by mu_2^2 has "
    'an abelian subgroup of coprime order and "index at most 3 preserved by '
    'Aut(H;F)"',
    "characteristic",
    {"a4_p5_index": 3, "a4_p7_index": 3, "v4mu6_p5_index": 3, "v4mu6_p7_index": 3},
)
def _ext_6_1():
    m = M(Alt(4))
    fmask, _ = m.derived_subgroup()  # V_4 inside A_4
    actual = {f"a4_p{p}_index": idx
              for p, idx in aut_hf_index(m, fmask, (5, 7)).items()}
    v4 = build(ElemAb(2, 2))
    alpha = _first_aut_of_order(v4.materialized(), 3)
    hm, f = normal_part(semidirect_by_automorphisms(
        v4, build(Cyc(6)), [alpha], name="V4:mu6"))
    for p, idx in aut_hf_index(hm, f.mask, (5, 7)).items():
        actual[f"v4mu6_p{p}_index"] = idx
    return actual, "A_4 = mu_2^2 : mu_3 and mu_2^2 : mu_6 instances"


def _alpha_sq_commutes_with(m, fprime_mask):
    """Check: every alpha in the group has alpha^2 centralizing F'."""
    idx = list(bits(fprime_mask))
    return m.commute(idx, {m.mul(a, a) for a in range(m.n)})


@claim(
    "EXT-6.2", "Lemma 6.2: extension of a coprime cyclic group by D_2n "
    '(alpha^2 centralizes F\') has an abelian subgroup of coprime order and '
    '"index at most 4" preserved by Aut(H;F)',
    "characteristic",
    {"d12xmu5_hypothesis": "yes", "d12xmu5_p7_index": 2,
     "d12mu4_hypothesis": "yes", "d12mu4_p5_index": 2, "d12mu4_p7_index": 2},
)
def _ext_6_2():
    actual = {}
    d12 = build(Dih(6))

    def run_instance(label, h, primes):
        hm, f = normal_part(h)
        rot = next(p for p in h.parts["normal_gens"]
                   if pm.perm_order(p) == 6)
        fprime = hm.close([hm.index[rot]])
        actual[f"{label}_hypothesis"] = yn(_alpha_sq_commutes_with(hm, fprime))
        for p, idx in aut_hf_index(hm, f.mask, primes).items():
            actual[f"{label}_p{p}_index"] = idx if idx <= 4 else f"VIOLATION:{idx}>4"

    run_instance("d12xmu5", build(Prod(Dih(6), Cyc(5))), (7,))
    dm = d12.materialized()
    refl = next(i for i in range(dm.n) if dm.element_order(i) == 2
                and not dm.center() >> i & 1)
    alpha = tuple(dm.conj_map(refl))
    h2 = semidirect_by_automorphisms(d12, build(Cyc(4)), [alpha], name="D12:mu4")
    run_instance("d12mu4", h2, (5, 7))
    return actual, "rotation subgroup F' is characteristic in F = D_12"


@claim(
    "EXT-6.3", "Lemma 6.3: with F of trivial center, any gamma in <F, alpha> "
    "commuting with F has order coprime to p, and <gamma> is preserved by "
    "Aut(H;F)",
    "characteristic",
    {"checks": 44, "all_coprime_p3": "yes", "all_preserved": "yes"},
)
def _ext_6_3():
    m, fsub = normal_part(build(Prod(Sym(3), Cyc(4))))
    p = 3
    maps = automorphism_group(m).preserving(fsub.mask)
    checks = 0
    all_cop = all_pre = True
    cent_f = m.centralizer(fsub.gens)
    for alpha in range(m.n):
        if m.element_order(alpha) % p == 0:
            continue
        bmask = m.extender(fsub.mask, fsub.gens)(alpha)
        for gamma in bits(bmask & cent_f):
            checks += 1
            if m.element_order(gamma) % p == 0:
                all_cop = False
            if not invariant(m.close([gamma]), (gamma,), maps):
                all_pre = False
    return ({"checks": checks, "all_coprime_p3": yn(all_cop),
             "all_preserved": yn(all_pre)},
            "F = S_3 inside H = S_3 x mu_4")


def _a4s4_a5mu7_indices(s4_primes, a5mu7_primes):
    """aut_hf_index of the cyclic subgroups for F = A_4 in H = S_4 and for
    F = A_5 in H = A_5 x mu_7, at the given primes."""
    m = M(Sym(4))
    s4 = aut_hf_index(m, m.derived_subgroup()[0], s4_primes, cyclic=True)
    m, f = normal_part(build(Prod(Alt(5), Cyc(7))))
    return s4, aut_hf_index(m, f.mask, a5mu7_primes, cyclic=True)


@claim(
    "EXT-6.4", "Lemma 6.4: extension of a coprime cyclic group by F with "
    'trivial center and Out(F) of exponent <= d has a cyclic subgroup of '
    'coprime order and "index at most d |F|" preserved by Aut(H;F)',
    "characteristic",
    {"s4_p5_index": 24, "s4_p5_bound": 24, "s4_p7_index": 24,
     "a5mu7_p13_index": 60, "a5mu7_bound": 120},
)
def _ext_6_4():
    s4, a5mu7 = _a4s4_a5mu7_indices((5, 7), (13,))
    actual = {f"s4_p{p}_index": idx for p, idx in s4.items()}
    actual["s4_p5_bound"] = 2 * 12
    actual["a5mu7_p13_index"] = a5mu7[13]
    actual["a5mu7_bound"] = 2 * 60
    return actual, "d = 2 for A_4, S_4, A_5 (Corollary 4.5)"


@claim(
    "EXT-6.5", "Corollary 6.5: for F in {A_4, S_4, A_5} the invariant cyclic "
    'subgroup has index at most "J |F_(p)|^3" with J = 120, 48, 40/9, 2',
    "characteristic",
    {"s4_p5": "24<=48", "s4_p7": "24<=120", "a5mu7_p2": "60<=128",
     "s4mu5_p7": "24<=120"},
)
def _ext_6_5():
    ext_j = {7: Fraction(120), 5: Fraction(48), 3: Fraction(40, 9), 2: Fraction(2),
             13: Fraction(120)}
    s4, a5mu7 = _a4s4_a5mu7_indices((5, 7), (2,))
    actual = {f"s4_p{p}": within(idx, ext_j[p] * p_part(12, p) ** 3)
              for p, idx in s4.items()}
    actual["a5mu7_p2"] = within(a5mu7[2], ext_j[2] * p_part(60, 2) ** 3)
    m, f = normal_part(build(Prod(Sym(4), Cyc(5))))
    actual["s4mu5_p7"] = within(aut_hf_index(m, f.mask, (7,), cyclic=True)[7], 120)
    return actual, ""


def _hypothesis_6_6(m, fsub, p):
    """For every coprime-order lambda in F and alpha normalizing <lambda>,
    alpha^2 commutes with lambda."""
    for lam in bits(fsub.mask):
        if m.element_order(lam) % p == 0:
            continue
        norm, _ = m.normalizer(m.close([lam]), [lam])
        if not m.commute((lam,), {m.mul(a, a) for a in bits(norm)}):
            return False
    return True


# (label, F, the cyclic factor of H = F x mu_n, p) for Lemma 6.6, Corollary 6.7
EXT_6_6_INSTANCES = (("psl5mu3", ProjSL(5), Cyc(3), 5),
                     ("pgl3mu2", ProjGL(3), Cyc(2), 3))


@claim(
    "EXT-6.6", "Lemma 6.6: PSL/PGL-style extension hypothesis (normalizing "
    "squares centralize) verified exhaustively; cyclic coprime subgroup of "
    'index at most "2 |F|" preserved by Aut(H;F)',
    "characteristic",
    {"psl5mu3_hypothesis": "yes", "psl5mu3_index": 60, "psl5mu3_bound": 120,
     "pgl3mu2_hypothesis": "yes", "pgl3mu2_index": 24, "pgl3mu2_bound": 48},
)
def _ext_6_6():
    actual = {}
    for label, f_expr, c_expr, p in EXT_6_6_INSTANCES:
        m, fsub = normal_part(build(Prod(f_expr, c_expr)))
        actual[f"{label}_hypothesis"] = yn(_hypothesis_6_6(m, fsub, p))
        actual[f"{label}_index"] = aut_hf_index(m, fsub.mask, (p,), cyclic=True)[p]
        actual[f"{label}_bound"] = 2 * fsub.order
    return actual, "F = PSL_2(F_5) and F = PGL_2(F_3) instances"


@claim(
    "EXT-6.7", "Corollary 6.7: for F = PSL_2/PGL_2(F_{p^k}) the subgroup has "
    'index at most "2 |F_(p)|^3"',
    "characteristic",
    {"psl5mu3_p5": "60<=250", "pgl3mu2_p3": "24<=54"},
)
def _ext_6_7():
    actual = {}
    for label, f_expr, c_expr, p in EXT_6_6_INSTANCES:
        m, f = normal_part(build(Prod(f_expr, c_expr)))
        actual[f"{label}_p{p}"] = within(
            aut_hf_index(m, f.mask, (p,), cyclic=True)[p], 2 * p_part(f.order, p) ** 3)
    return actual, ""


@claim(
    "EXT-6.8", "Lemma 6.8: extension by F = mu_p^m : mu_n (normalizing "
    "squares centralize L) has an abelian coprime subgroup of index at most "
    '"2 |F_(p)|^3" preserved by Aut(H;F)',
    "characteristic",
    {"hypothesis": "yes", "index": 6, "bound": 54},
)
def _ext_6_8():
    m, fsub = normal_part(build(Prod(MU34, Cyc(2))))
    p = 3
    hyp = _hypothesis_6_6(m, fsub, p)  # checked for all coprime-order lambda
    idx = aut_hf_index(m, fsub.mask, (p,))[p]
    return ({"hypothesis": yn(hyp), "index": idx, "bound": 2 * 3**3},
            "F = mu_3 : mu_4, H = F x mu_2 at p = 3")


# ===========================================================================
# Section 7: the projective line and P1 x P1

P1_J = {7: Fraction(60), 5: Fraction(24), 3: Fraction(4), 2: Fraction(1)}
P1_CHAR_J = {7: Fraction(60), 5: Fraction(6), 3: Fraction(20, 9), 2: Fraction(1)}
P1XP1_J = {7: Fraction(7200), 5: Fraction(72), 3: Fraction(10), 2: Fraction(1)}


@claim(
    "LEM-7.2-DIHEDRAL", "Lemma 7.2 family (1): dihedral groups have a "
    "characteristic cyclic subgroup of coprime order within J_p(P1)",
    "characteristic",
    {"pairs": 31, "all_pass": "yes", "mu22_p3_tight": "4<=4"},
)
def _lem_7_2_dihedral():
    pairs = 0
    ok = True
    for n in range(2, 13):
        for p in PRIMES:
            if n % p == 0:
                continue  # the dihedral family requires n coprime to p
            m = M(Dih(n))
            pairs += 1
            idx = invariant_min_index(m, automorphism_group(m).gens, p, cyclic=True)
            ok = ok and idx <= P1_J[p] * p_part(2 * n, p) ** 3
    m22 = M(Dih(2))
    tight = invariant_min_index(m22, automorphism_group(m22).gens, 3,
                                cyclic=True)
    return ({"pairs": pairs, "all_pass": yn(ok),
             "mu22_p3_tight": f"{tight}<={P1_J[3] * 1}"},
            "rotation subgroup for n >= 3; only the trivial subgroup is "
            "characteristic cyclic in mu_2^2, attaining J = 4 at p = 3")


@claim(
    "LEM-7.2-EXC", "Lemma 7.2 family (2): A_4, S_4, A_5 contribute J = 60, "
    "24, 20/9, 15/16 through their trivial subgroup",
    "arithmetic",
    {"a4": "12|4/9|3/16", "s4": "24|8/9|3/64", "a5": "60|20/9|15/16",
     "within_p1_table": "yes"},
)
def _lem_7_2_exc():
    actual = {}
    ok = True
    for key, expr in (("a4", Alt(4)), ("s4", Sym(4)), ("a5", Alt(5))):
        m = M(expr)
        actual[key] = "|".join(fr(jprime(m.n, p)) for p in (7, 3, 2))
        for p in PRIMES:
            ok = ok and jprime(m.n, p) <= P1_J[p]
    actual["within_p1_table"] = yn(ok)
    return actual, "trivial subgroup is characteristic and cyclic"


@claim(
    "LEM-7.2-PSLPGL", "Lemma 7.2 families (3),(4): |PSL_2|, |PGL_2| < "
    "|G_(p)|^3 for q in {4,5,7,8,9,11,13}",
    "arithmetic",
    {**{f"psl_q{q}": fr(Fraction(psl_order(q), q**3))
        for q in (4, 5, 7, 8, 9, 11, 13)},
     **{f"pgl_q{q}": fr(Fraction(q**3 - q, q**3))
        for q in (4, 5, 7, 8, 9, 11, 13)},
     "all_below_one": "yes"},
)
def _lem_7_2_pslpgl():
    actual = {}
    ok = True
    for q in (4, 5, 7, 8, 9, 11, 13):
        po = build(ProjSL(q)).order
        go = build(ProjGL(q)).order
        actual[f"psl_q{q}"] = fr(Fraction(po, q**3))
        actual[f"pgl_q{q}"] = fr(Fraction(go, q**3))
        ok = ok and po < q**3 and go < q**3
    actual["all_below_one"] = yn(ok)
    return actual, "the p-part of PSL_2(F_q)/PGL_2(F_q) is exactly q"


@claim(
    "LEM-7.2-NORM-Q11-13", "Lemma 7.2 at q in {11,13}: PSL_2 is normal in "
    "PGL_2 and equals its derived subgroup (Aut-free verification)",
    "normal-list",
    {"q11_normal": "yes", "q11_derived": "yes", "q13_normal": "yes",
     "q13_derived": "yes"},
)
def _lem_7_2_norm_q11_13():
    actual = {}
    for q in (11, 13):
        m, psl = pgl_psl(q)
        actual[f"q{q}_normal"] = yn(m.is_normal_mask(psl.mask, psl.gens))
        dmask, _ = m.derived_subgroup()
        actual[f"q{q}_derived"] = yn(dmask == psl.mask)
    return actual, ""


@claim(
    "LEM-7.2-CHAR-Q11-13", "Lemma 7.2 characteristic tests for PSL_2 inside "
    "PGL_2(F_q), q in {11,13}",
    "characteristic",
    {"q11": "characteristic", "q13": "characteristic"},
)
def _lem_7_2_char_q11_13():
    cap = current_caps().max_aut_order
    need = max(build(ProjGL(11)).order, build(ProjGL(13)).order)
    if need > cap:
        raise SkipClaim(
            f"Aut cap {cap} below |PGL2(F13)| = {need}; characteristic "
            "status downgraded to the normality/derived checks of "
            "LEM-7.2-NORM-Q11-13 (char-untested)")
    actual = {}
    for q in (11, 13):
        m, psl = pgl_psl(q)
        actual[f"q{q}"] = ("characteristic" if is_characteristic(m, psl.mask)
                           else "not-characteristic")
    return actual, ""


@claim(
    "LEM-7.2-SEMI", "Lemma 7.2 family (5): mu_p^m : mu_n instances carry a "
    "characteristic cyclic subgroup of coprime order and index at most "
    "|G_(p)|^2 (Corollary 5.2(iii))",
    "characteristic",
    {"i_3_1_4": "6<=9", "i_3_2_8": "72<=81", "i_5_1_4": "20<=25",
     "i_2_3_7": "56<=64", "all_characteristic": "yes"},
)
def _lem_7_2_semi():
    actual = {}
    all_char = True
    for key, expr, p, m_exp in SEMI_INSTANCES:
        g, rp, l = _semi_parts(expr)
        lprime = l.mask & g.centralizer(rp.gens)
        all_char = all_char and is_characteristic(g, lprime)
        idx = g.n // lprime.bit_count()
        actual[f"i_{key}"] = within(idx, p ** (2 * m_exp))
    actual["all_characteristic"] = yn(all_char)
    return actual, "witness L' = L meet C_R(R_(p)), cyclic of coprime order"


# instances paired with the characteristics where they act on P1 x P1
COR_7_3_INSTANCES = (
    ("swapsq_a5", SwapSq(Alt(5)), PRIMES),
    ("swapsq_s4", SwapSq(Sym(4)), PRIMES),
    ("swapsq_pgl25", SwapSq(ProjGL(5)), (5,)),
    ("prod_a5_a5", Prod(Alt(5), Alt(5)), PRIMES),
    ("prod_s4_s4", Prod(Sym(4), Sym(4)), PRIMES),
    ("prod_a5_s4", Prod(Alt(5), Sym(4)), PRIMES),
)


@claim(
    "COR-7.3", 'Corollary 7.3: subgroups of (PGL_2 x PGL_2) : mu_2 have '
    "normal abelian subgroups of coprime order within J_p(P1xP1) = "
    "7200, 72, 10, 1; swap and product instances",
    "j-analysis",
    {**{k: "yes" for k, _, _ in COR_7_3_INSTANCES},
     "sharp_swapsq_a5_p7": "7200=7200", "sharp_swapsq_s4_p5": "72=72"},
)
def _cor_7_3():
    actual = {}
    for key, expr, primes in COR_7_3_INSTANCES:
        m = M(expr)
        actual[key] = yn(all(within_j(m, p, P1XP1_J[p]) for p in primes))
    a5 = j_analysis(M(SwapSq(Alt(5))), 7)
    actual["sharp_swapsq_a5_p7"] = f"{a5.min_index}={P1XP1_J[7] * a5.p_part ** 3}"
    s4 = j_analysis(M(SwapSq(Sym(4))), 5)
    actual["sharp_swapsq_s4_p5"] = f"{s4.min_index}={P1XP1_J[5] * s4.p_part ** 3}"
    return actual, "equalities show the p >= 7 and p = 5 constants are attained"


# ===========================================================================
# Section 8: the projective plane (arithmetic content)


@claim(
    "LEM-8.2", "Lemma 8.2 (triangle): J = 6, 2, 3 bounds |Gbar|/|Gbar_(p)|^3 "
    "over subgroups of S_3; instance mu_5^2 : S_3",
    "arithmetic-inequality",
    {"p5": "6", "p3": "2", "p2": "3", "instance_pass": "yes"},
)
def _lem_8_2():
    s3_orders = (1, 2, 3, 6)
    actual = {}
    for p, key in ((5, "p5"), (3, "p3"), (2, "p2")):
        actual[key] = fr(max(jprime(n, p) for n in s3_orders))
    tri_j = {7: Fraction(6), 5: Fraction(6), 3: Fraction(2), 2: Fraction(3)}
    m = M(Semi(ElemAb(5, 2), Sym(3), Action("quotperm")))
    actual["instance_pass"] = yn(all(within_j(m, p, tri_j[p]) for p in PRIMES))
    return actual, "abelian kernel mu_5^2 with quotient inside S_3"


@claim(
    "LEM-8.3", 'Lemma 8.3 arithmetic: Hessian group normal mu_3^2 of index '
    '24; "p^{3k}(p^{3k}-1)(p^{2k}-1) < p^{9k}"; PSU_3 within 4/3; '
    "PSL_2(F_7), A_6, A_7 constants",
    "arithmetic-inequality",
    {"hess_mu32_index": 24, "hess_overgroups_bounded": "yes",
     "pgl3_ineq_all": "yes", "psu3_ineq_all": "yes",
     "psl27_factored": "168=2^3*3*7", "psl27_I_p5": "168",
     "psl27_I_p3": "56/9", "psl27_I_p3_below_7": "yes",
     "a6_bound": "720/125<6", "a7_bound": "504/25<21"},
)
def _lem_8_3():
    actual = {}
    m, nsub = normal_part(build(Hess()))
    actual["hess_mu32_index"] = m.n // nsub.order
    # every subgroup containing mu_3^2 keeps it normal with index <= 24
    ok = True
    for s in all_subgroups(m):
        if s.mask & nsub.mask == nsub.mask:
            ok = ok and all(s.mask >> m.conj(h, g) & 1
                            for h in nsub.gens for g in s.gens)
            ok = ok and s.order // 9 <= 24
    actual["hess_overgroups_bounded"] = yn(ok)
    pgl_ok = psu_ok = True
    for p in (3, 5, 7):
        for k in range(1, 7):
            q = p**k
            pgl_ok = pgl_ok and q**3 * (q**3 - 1) * (q**2 - 1) < q**9
            psu_ok = psu_ok and Fraction(
                q**3 * (q**3 + 1) * (q**2 - 1) * (q + 1), q**9) <= Fraction(4, 3)
    actual["pgl3_ineq_all"] = yn(pgl_ok)
    actual["psu3_ineq_all"] = yn(psu_ok)
    actual["psl27_factored"] = "168=2^3*3*7" if 168 == 8 * 3 * 7 else "bad"
    actual["psl27_I_p5"] = fr(jprime(168, 5))
    i3 = jprime(168, 3)
    actual["psl27_I_p3"] = fr(i3)
    actual["psl27_I_p3_below_7"] = yn(i3 <= 7)
    actual["a6_bound"] = "720/125<6" if Fraction(720, 5**3) < 6 else "bad"
    actual["a7_bound"] = "504/25<21" if Fraction(2520, 5**3) < 21 else "bad"
    return actual, "order arithmetic for the Mitchell cases"


# ===========================================================================
# Sections 9-10: constant assembly (exact rationals)

CB_J = {7: Fraction(7200), 5: Fraction(144), 3: Fraction(800, 81), 2: Fraction(2)}
DP6_J = {7: Fraction(12), 5: Fraction(12), 3: Fraction(4), 2: Fraction(3)}
P2_J = {7: Fraction(7200), 5: Fraction(168), 3: Fraction(800, 81)}
DP_J = {7: Fraction(7200), 5: Fraction(144), 3: Fraction(10), 2: Fraction(3)}
DP_ODD_J = {7: Fraction(7200), 5: Fraction(168), 3: Fraction(10)}
CR2_J = {7: Fraction(7200), 5: Fraction(168), 3: Fraction(10)}


@claim(
    "PROP-9.2", "Proposition 9.2: J_p^cb = max over fiber families of I*J; "
    "table 7200, 144, 800/81, 2",
    "arithmetic-inequality",
    {"p7": "7200", "p5": "144", "p3": "800/81", "p2": "2",
     "argmax_p7": "AnSn-ext*P1", "argmax_p5": "special-S4A4V4",
     "argmax_p3": "AnSn-ext*P1", "argmax_p2": "ext*P1"},
)
def _prop_9_2():
    # per-fiber extension constants I (Section 6) and base constants J
    ext_i = {
        "mu22-ext": {7: 3, 5: 3, 3: 3},
        "dihedral-ext": {7: 4, 5: 4, 3: 4, 2: 1},
        "AnSn-ext": {7: Fraction(120), 5: Fraction(48), 3: Fraction(40, 9),
                     2: Fraction(2)},
        "ext": {7: Fraction(2), 5: Fraction(2), 3: Fraction(2), 2: Fraction(2)},
    }
    base_j = {7: Fraction(60), 5: Fraction(2), 3: Fraction(20, 9), 2: Fraction(1)}
    special = {5: ("special-S4A4V4", Fraction(24) * 6),
               3: ("special-V4", Fraction(4) * Fraction(20, 9))}
    actual = {}
    for p in PRIMES:
        cands = []
        for fam, table in ext_i.items():
            if p in table:
                cands.append((Fraction(table[p]) * base_j[p], f"{fam}*P1"))
        if p in special:
            cands.append((special[p][1], special[p][0]))
        best, arg = max(cands)
        actual[f"p{p}"] = matches(best, CB_J[p])
        actual[f"argmax_p{p}"] = arg
    return actual, "I from the Section 6 lemmas, J from Lemma 7.2 variants"


@claim(
    "COR-9.3", "Corollary 9.3: J_p(P2) = 7200, 168, 800/81 as the maximum "
    "over the Mitchell cases, the triangle lemma, the conic case, and the "
    "conic-bundle reduction",
    "arithmetic-inequality",
    {"p7": "7200", "p5": "168", "p3": "800/81",
     "argmax_p7": "point-line-cb", "argmax_p5": "psl2f7", "argmax_p3": "point-line-cb"},
)
def _cor_9_3():
    cases = {
        "triangle": {7: Fraction(6), 5: Fraction(6), 3: Fraction(2)},
        "conic-P1": {7: Fraction(60), 5: Fraction(24), 3: Fraction(4)},
        "pgl3-psl3": {7: Fraction(1), 5: Fraction(1), 3: Fraction(1)},
        "psu3-pu3": {p: Fraction(4, 3) for p in (7, 5, 3)},
        "hessian": {7: Fraction(24), 5: Fraction(24)},  # impossible at p = 3
        "psl2f7": {7: Fraction(168), 5: Fraction(168), 3: Fraction(7)},
        "a6-ext": {5: Fraction(720, 125)},
        "a7": {5: Fraction(2520, 125)},
        "point-line-cb": CB_J,
    }
    actual = {}
    for p in (7, 5, 3):
        best, arg = Fraction(0), ""
        for name, table in cases.items():
            if p in table and table[p] > best:
                best, arg = Fraction(table[p]), name
        actual[f"p{p}"] = matches(best, P2_J[p])
        actual[f"argmax_p{p}"] = arg
    return actual, "max over Theorem 8.1 cases and the fixed-point reduction"


@claim(
    "LEM-10.2-DP6", "dP6 bound: J = 12, 4, 3 over |Gbar| in "
    "{1,2,3,4,6,12}; torus instance mu_7^2 : D_12",
    "arithmetic-inequality",
    {"p5": "12", "p3": "4", "p2": "3", "instance_order": 588,
     "instance_pass": "yes"},
)
def _lem_10_2_dp6():
    quotients = (1, 2, 3, 4, 6, 12)
    actual = {}
    for p, key in ((5, "p5"), (3, "p3"), (2, "p2")):
        actual[key] = fr(max(jprime(n, p) for n in quotients))
    m = _dp6_instance().materialized()
    actual["instance_order"] = m.n
    actual["instance_pass"] = yn(all(within_j(m, p, DP6_J[p]) for p in PRIMES))
    return actual, "Aut(dP6) = torus : (S_3 x mu_2)"


def _dp6_instance():
    """mu_7^2 : D_12 with the hexagonal action (order-3 rotation, swap, -1)."""
    n = build(ElemAb(7, 2))
    h = build(Dih(6))
    nmat = n.materialized()
    rot = ((0, 6), (1, 6))  # -A where A = [[0,-1],[1,-1]] has order 3
    swap = ((0, 1), (1, 0))

    def matperm(mt):
        return ea_action_perm(
            nmat, 7, 2,
            lambda v: tuple(sum(mt[i][j] * v[j] for j in range(2)) % 7
                            for i in range(2)))

    return semidirect_by_automorphisms(
        n, h, [matperm(rot), matperm(swap)], name="mu7^2:D12")


@claim(
    "COR-10.8", 'cubic-surface reduction arithmetic: "25920 = 2^6 3^4 5 < '
    '2^18" and |W(E_6)| = 2 * 25920... = 51840',
    "arithmetic-inequality",
    {"psu42_factored": "yes", "psu42_below_cube": "yes", "we6_order": 51840},
)
def _cor_10_8():
    order = 25920
    return ({"psu42_factored": yn(order == 2**6 * 3**4 * 5),
             "psu42_below_cube": yn(order < 2**18),
             "we6_order": 2 * order}, "")


@claim(
    "PROP-10.13-J-DP", "del Pezzo assembly (degree not in {1,2,9}): J = "
    "max(P1xP1, cb, dP6, auxiliary) = 7200, 144, 10, 3",
    "arithmetic-inequality",
    {"p7": "7200", "p5": "144", "p3": "10", "p2": "3"},
)
def _prop_10_13():
    actual = {}
    for p in PRIMES:
        got = max(P1XP1_J[p], CB_J[p], DP6_J[p], AUX_J[p])
        actual[f"p{p}"] = matches(got, DP_J[p])
    return actual, ""


@claim(
    "PROP-10.14-J-DP-ODD", "del Pezzo assembly, odd characteristic: "
    "J_p^dP = max(J_dP, J_P2, 2 J_p(P1)) = 7200, 168, 10",
    "arithmetic-inequality",
    {"p7": "7200", "p5": "168", "p3": "10", "dp1_p7": "120", "dp1_p5": "48",
     "dp1_p3": "8"},
)
def _prop_10_14():
    actual = {}
    for p in (7, 5, 3):
        dp1 = 2 * P1_J[p]
        actual[f"dp1_p{p}"] = fr(dp1)
        got = max(DP_J[p], P2_J[p], dp1)
        actual[f"p{p}"] = matches(got, DP_ODD_J[p])
    return actual, "degree 9 uses P2, degree 2 doubles back to P2, degree 1 to 2*P1"


@claim(
    "THM-1.9-ASSEMBLY", "Theorem 1.9: J_p(Cr_2) = max(J_p^dP-odd, J_p^cb) = "
    "7200 (p >= 7), 168 (p = 5), 10 (p = 3)",
    "arithmetic-inequality",
    {"p7": "7200", "p5": "168", "p3": "10"},
)
def _thm_1_9():
    actual = {}
    for p in (7, 5, 3):
        got = max(DP_ODD_J[p], CB_J[p])
        actual[f"p{p}"] = matches(got, CR2_J[p])
    return actual, "del Pezzo or conic bundle after G-MMP; sharp by SHARP-*"


# ===========================================================================
# Section 11: sharpness witnesses


@claim(
    "SHARP-A5A5", 'sharpness for p >= 7: (A_5 x A_5) : mu_2 "does not '
    'contain non-trivial normal abelian subgroups", so min index 7200 = '
    "7200 |G_(p)|^3",
    "j-analysis",
    {"order": 7200, "min_index_p7": 7200, "min_index_p11": 7200,
     "ratio_p7": "7200"},
)
def _sharp_a5a5():
    m = M(SwapSq(Alt(5)))
    ja7 = j_analysis(m, 7)
    ja11 = j_analysis(m, 11)
    return ({"order": m.n, "min_index_p7": ja7.min_index,
             "min_index_p11": ja11.min_index, "ratio_p7": fr(ja7.j_ratio)},
            "normal subgroups are 1, A_5 x A_5 and G; none abelian but 1")


@claim(
    "SHARP-PSL27", 'sharpness for p = 5: PSL_2(F_7) acting on P^2; '
    '"168 = 168 |G_(5)|^3"',
    "j-analysis",
    {"min_index_p5": 168, "p_part": 1, "ratio_p5": "168", "same_as_psl32": "yes"},
)
def _sharp_psl27():
    m = M(ProjSL(7))
    ja = j_analysis(m, 5)
    return ({"min_index_p5": ja.min_index, "p_part": ja.p_part,
             "ratio_p5": fr(ja.j_ratio),
             "same_as_psl32": yn(is_isomorphic(m, M(PSL32())))},
            "the simple group of order 168 in both guises")


@claim(
    "SHARP-D10", 'sharpness for p = 3: mu_2^4 : D_10 on a quintic del Pezzo '
    'orbit; "10 = 10 |G_(3)|^3" (index reading of the paper\'s order wording)',
    "j-analysis",
    {"order": 160, "min_index_p3": 10, "witness_order": 16, "ratio_p3": "10"},
)
def _sharp_d10():
    m = M(MU24D10)
    ja = j_analysis(m, 3)
    return ({"order": m.n, "min_index_p3": ja.min_index,
             "witness_order": ja.witness.order, "ratio_p3": fr(ja.j_ratio)},
            "paper says 'order less than 10' where index is meant: witness "
            "mu_2^4 has order 16, index 10")


@claim(
    "SHARP-CHAR2", 'characteristic-2 remark: mu_7 : mu_3 has no normal '
    'abelian subgroup of index less than "3 = 3 |G_(2)|^3"',
    "j-analysis",
    {"min_index_p2": 3, "witness_order": 7, "ratio_p2": "3"},
)
def _sharp_char2():
    m = M(MU73)
    ja = j_analysis(m, 2)
    return ({"min_index_p2": ja.min_index, "witness_order": ja.witness.order,
             "ratio_p2": fr(ja.j_ratio)}, "")
