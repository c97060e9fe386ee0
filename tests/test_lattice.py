from fractions import Fraction
from itertools import combinations
from math import ceil, log2

import pytest

from grpverify.autmorph import is_isomorphic
from grpverify.claims import MU24A5, WD5SEMI
from grpverify.construct import (
    H3, PSL32, Action, Alt, Cyc, Dih, ElemAb, Hsl23, MatGL, MatSL, PGroup,
    Prod, ProjGL, ProjSL, Semi, SwapSq, Sym, WeylD, build,
)
from grpverify.lattice import (
    JAnalysis,
    Sub,
    all_subgroups,
    j_analysis,
    normal_abelian_subgroups,
    normal_joins,
    normal_subgroups,
    quotient,
    sub_materialized,
    subgroup_classes,
    sweep_bound,
)
from grpverify.smallgroup import (
    CapExceeded,
    Caps,
    MaterializedGroup,
    bits,
    caps_scope,
    p_part,
)
from test_construct import CATALOG
from test_table import GROUPS as TABLE_GROUPS


def mat(expr):
    return build(expr).materialized()


# -- oracles -----------------------------------------------------------------


def cayley_table(m):
    """table[i][j] = i*j, composing the permutation tuples here: apply j's
    permutation first, then i's."""
    perms = m.perms
    return [[m.index[tuple(map(p.__getitem__, q))] for q in perms]
            for p in perms]


def powerset_subgroups(m):
    """Literal power-set oracle: every subset closed under the operation."""
    full = list(range(m.n))
    table = cayley_table(m)
    out = []
    for mask in range(1, 1 << m.n, 2):  # identity (bit 0) required
        members = [i for i in full if mask >> i & 1]
        ok = True
        for a in members:
            row = table[a]
            for b in members:
                if not mask >> row[b] & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(mask)
    return sorted(out)


def table_close(table, gens):
    """Mask of <gens>, closed over the rows of a Cayley table (not the
    engine's close)."""
    mask = 1
    elems = [0]
    for x in elems:  # elems grows while it is walked
        row = table[x]
        for g in gens:
            y = row[g]
            if not mask >> y & 1:
                mask |= 1 << y
                elems.append(y)
    return mask


def generated_subgroups(m):
    """Bounded-generator oracle: closures of every subset of size <= log2 n."""
    table = cayley_table(m)
    k = max(1, ceil(log2(m.n)))
    out = {1}
    for size in range(1, k + 1):
        for combo in combinations(range(1, m.n), size):
            out.add(table_close(table, combo))
    return sorted(out)


def extension_lattice(m, table):
    """Every subgroup, as closures over the rows of a Cayley table.

    A subgroup K > 1 is <K', x> for a maximal subgroup K' and any x in K
    outside it, so extending every subgroup found by every element reaches
    all of them, by induction on the order.
    """
    found = {1: ()}
    queue = [1]
    for mask in queue:  # queue grows while it is walked
        for x in range(1, m.n):
            if mask >> x & 1:
                continue
            gens = found[mask] + (x,)
            k = table_close(table, gens)
            if k not in found:
                found[k] = gens
                queue.append(k)
    return sorted(found)


LATTICES = [  # group, its subgroups, its classes of subgroups
    (Sym(5), 156, 19), (MatSL(3), 15, 7), (Dih(12), 34, 16),
    (Dih(6), 16, 10), (Alt(4), 10, 5),
    (Semi(Cyc(5), Cyc(4), Action("explicit")), 14, 6),
    (Prod(Sym(3), Cyc(2)), 16, 10), (PSL32(), 179, 15),
    # nontrivial centres
    (MatGL(3), 55, 16), (H3(), 19, 11), (Dih(4), 10, 8)]


@pytest.mark.parametrize("expr, count, n_classes", [
    pytest.param(*row, id=f"{row[0]!r}-{row[1]}") for row in LATTICES])
def test_sweeps_match_extension_lattice(expr, count, n_classes):
    m = mat(expr)
    oracle = extension_lattice(m, cayley_table(m))
    assert len(oracle) == count
    assert sorted(s.mask for s in all_subgroups(m)) == oracle
    assert len(subgroup_classes(m)) == n_classes


def gaussian_binomial(m, k, p):
    """The number of k-dimensional subspaces of F_p^m."""
    num = den = 1
    for i in range(k):
        num *= p ** (m - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p, m, count", [(2, 4, 67), (3, 3, 28), (2, 5, 374)])
def test_abelian_classes_are_all_subgroups(p, m, count):
    """In an abelian group every subgroup is its own class; in F_p^m they
    are the subspaces, counted by the Gaussian binomials."""
    M = mat(ElemAb(p, m))
    classes = subgroup_classes(M)
    assert classes == all_subgroups(M)
    assert len(classes) == count == sum(
        gaussian_binomial(m, k, p) for k in range(m + 1))


def test_all_subgroups_matches_power_set_oracle_small():
    for expr in [Cyc(12), Dih(4), ElemAb(2, 3), Alt(4), Sym(3), Dih(2)]:
        m = mat(expr)
        assert m.n <= 16
        got = sorted(s.mask for s in all_subgroups(m))
        assert got == powerset_subgroups(m)


def test_all_subgroups_matches_generator_oracle_s4():
    m = mat(Sym(4))
    got = sorted(s.mask for s in all_subgroups(m))
    assert got == generated_subgroups(m)
    assert len(got) == 30


def test_mu2_mu2_has_five_subgroups():
    assert len(all_subgroups(mat(Dih(2)))) == 5


def test_s4_classes():
    assert len(subgroup_classes(mat(Sym(4)))) == 11


def test_a5_known_subgroup_counts():
    # 1, mu_2 (15), mu_3 (10), V_4 (5), mu_5 (6), S_3 (10), D_10 (6),
    # A_4 (5), A_5: 59 subgroups in 9 classes
    m = mat(Alt(5))
    assert len(subgroup_classes(m)) == 9
    assert len(all_subgroups(m)) == 59


def test_s6_known_subgroup_counts():
    # OEIS A000638: S6 has 56 conjugacy classes of subgroups;
    # OEIS A005432: 1455 subgroups in all
    m = mat(Sym(6))
    classes = subgroup_classes(m)
    assert len(classes) == 56
    subs = all_subgroups(m)
    assert len(subs) == 1455
    assert len({s.mask for s in subs}) == 1455
    assert all(m.is_normal_mask(sub.mask, sub.gens or None) ==
               (len(m.conjugation_orbit(sub.mask)[0]) == 1)
               for sub in classes)


def test_psl32_known_subgroup_counts():
    m = mat(PSL32())
    assert len(subgroup_classes(m)) == 15
    assert len(all_subgroups(m)) == 179


@pytest.mark.parametrize("expr", [Sym(4), Sym(5), PSL32(), Hsl23()], ids=repr)
def test_every_subgroup_is_a_subgroup(expr):
    """Each mask is closed under products, and each conjugate's generators
    h^u close to its mask."""
    m = mat(expr)
    for sub in all_subgroups(m):
        assert m.close(list(bits(sub.mask))) == sub.mask
        assert m.close(list(sub.gens) or [0]) == sub.mask


@pytest.mark.parametrize("expr", [e for e, order in CATALOG if order <= 720],
                         ids=repr)
def test_all_subgroups_carries_the_conjugated_generators(expr):
    """Each conjugate H^u is generated by the elements h^u, for the element
    u that H's orbit walk records, as conj reads them one by one."""
    m = mat(expr)
    want = []
    for H in subgroup_classes(m):
        points, trans, _ = m.conjugation_orbit(H.mask)
        for x, u in zip(points, trans):
            want.append(Sub(sum(1 << i for i in x),
                            tuple(m.conj(h, u) for h in H.gens)))
    want.sort(key=lambda s: (s.order, s.mask))
    assert all_subgroups(m) == want


# -- normal subgroups ----------------------------------------------------------


def test_normal_subgroups_s4():
    m = mat(Sym(4))
    orders = [s.order for s in normal_subgroups(m)]
    assert orders == [1, 4, 12, 24]


def test_normal_subgroups_psl27_simple():
    m = mat(ProjSL(7))
    assert [s.order for s in normal_subgroups(m)] == [1, 168]


def test_normal_subgroups_match_filtered_all_subgroups():
    """Against every subgroup filtered by is_normal, on the catalog groups
    of order at most 720 and a few more."""
    groups = [Dih(6), Semi(Cyc(7), Cyc(3), Action("explicit")), ElemAb(2, 3),
              SwapSq(Sym(3)), Sym(5), ProjGL(5)]
    groups += [e for e, order in CATALOG if order <= 720]
    for expr in groups:
        m = mat(expr)
        every = {s.mask for s in all_subgroups(m)}
        fast = [s.mask for s in normal_subgroups(m)]
        assert len(set(fast)) == len(fast)
        assert set(fast) == {x for x in every if m.is_normal_mask(x)}, expr


def fresh(expr):
    """A newly enumerated group, with no memo shared with other tests."""
    h = build(expr)
    return MaterializedGroup(h.group.generators, h.degree)


def rejoining_normal_subgroups(M):
    """The join loop as it was before joins were looked up: every join of
    two known normal subgroups is closed from the identity."""
    found = {1: ()}
    seeds = []
    for cls in M.conjugacy_classes():
        if cls[0] == 0:
            continue
        mask = M.normal_closure([cls[0]])
        if mask not in found:
            found[mask] = tuple(M.gens_for_mask(mask))
            seeds.append(mask)
    queue = list(seeds)
    while queue:
        a = queue.pop()
        ga = found[a]
        for b in list(found):
            if a | b == a or a | b == b:
                continue
            j = M.close(list(ga) + list(found[b]))
            if j not in found:
                found[j] = tuple(M.gens_for_mask(j))
                queue.append(j)
    out = [Sub(m, g) for m, g in found.items()]
    out.sort(key=lambda s: (s.order, s.mask))
    return out


# the last three have normal subgroups that are not a chain
JOIN_GROUPS = [Sym(4), Sym(5), MatSL(3), Hsl23(), MU24A5,
               Dih(6), Cyc(12), ElemAb(2, 4)]


@pytest.mark.parametrize("expr", JOIN_GROUPS, ids=repr)
def test_normal_joins_by_lookup_match_rejoining(expr):
    M = fresh(expr)
    want = rejoining_normal_subgroups(M)
    assert normal_subgroups(M) == want


@pytest.mark.parametrize("expr", JOIN_GROUPS, ids=repr)
def test_normal_subgroups_close_only_new_joins(expr):
    """Every join `normal_subgroups` grows is a normal subgroup not found
    before: the closures inside `normal_closure` and the growth inside
    `gens_for_mask` are not joins and are not counted."""
    M = fresh(expr)
    known = {1}
    depth = [0]

    def spy(name, record):
        method = getattr(M, name)

        def call(*args):
            depth[0] += 1
            try:
                out = method(*args)
            finally:
                depth[0] -= 1
            if record and depth[0] == 0:
                record(out)
            return out

        setattr(M, name, call)

    def on_join(mask):
        assert mask not in known, "a known join was closed again"
        known.add(mask)

    spy("grow", lambda out: on_join(out[0]))
    spy("normal_closure", known.add)
    spy("gens_for_mask", None)
    assert known == {s.mask for s in normal_subgroups(M)}



@pytest.mark.parametrize("expr, n_classes", [
    (ProjGL(23), 25), (Sym(5), 7), (WeylD(6), 37)], ids=repr)
def test_normal_lattices_close_once_per_class(expr, n_classes):
    """An exact gate: the normal lattice takes one `normal_closure` per
    conjugacy class, and the normal abelian subgroups one per seed class.
    None of them calls `close`: a closure walks classes, joins grow from a
    known member and `gens_for_mask` grows from the identity (`grow`)."""
    M = fresh(expr)
    calls = {"close": 0, "normal_closure": 0}

    def spy(name):
        method = getattr(M, name)

        def counted(*args):
            calls[name] += 1
            return method(*args)

        setattr(M, name, counted)

    spy("close")
    spy("normal_closure")
    classes = M.conjugacy_classes()
    assert len(classes) == n_classes
    lattice = normal_subgroups(M)
    assert calls == {"close": 0, "normal_closure": n_classes}
    seeds = [c for c in classes if M.commute(c, c[:1])]
    calls["normal_closure"] = 0
    normal_abelian_subgroups(M)
    assert calls == {"close": 0, "normal_closure": len(seeds)}
    for s in lattice:
        assert M.gens_for_mask(s.mask) == list(s.gens)
    assert calls["close"] == 0


def test_normal_closures_gather_at_most_their_seeds_words():
    """An exact gate on PGL2(F23)'s normal lattice, whose columns do not all
    fit `COLUMN_BUDGET`: the tree edges gathered through `_descent` are
    counted.  The normal closure of a class representative descends at
    most that representative's tree word, once, since it reads the seed's
    products by `right`; neither it nor `commute` builds a column.  The
    whole lattice descends 57 edges, a count that may change only for a
    recorded reason."""
    M = fresh(ProjGL(23))
    assert M.n > M._most
    k = len(M.gens)
    edges = [0]
    descent = M._descent

    def counted(j):
        c, path = descent(j)
        edges[0] += len(path)
        return c, path

    def word(j):
        d = 0
        while j:
            j = M._tree[j] // k
            d += 1
        return d

    per_seed = []

    def spy(name, record):
        method = getattr(M, name)

        def spied(*args):
            before, held = edges[0], list(M._cols)
            out = method(*args)
            assert list(M._cols) == held, name
            record(args, edges[0] - before)
            return out

        setattr(M, name, spied)

    M._descent = counted
    spy("normal_closure", lambda args, e: per_seed.append((args[0][0], e)))
    spy("commute", lambda args, e: None)
    normal_subgroups(M)
    assert len(per_seed) == len(M.conjugacy_classes())
    assert all(e <= word(r) for r, e in per_seed), per_seed
    assert edges[0] == 57
    normal_abelian_subgroups(M)


# -- normalizers --------------------------------------------------------------


@pytest.mark.parametrize("expr", [Sym(5), MatSL(3), Alt(5), Sym(6)], ids=repr)
def test_normalizer_matches_brute_force(expr):
    """N(H) = {x : H^x = H} for every class representative H, from a walk
    of H's orbit started at H and at another conjugate of H."""
    m = mat(expr)
    conj = [m.conj_map(x) for x in range(m.n)]
    for sub in subgroup_classes(m):
        elems = list(bits(sub.mask))
        members = set(elems)
        want = sum(1 << x for x in range(m.n)
                   if members.issuperset(map(conj[x].__getitem__, elems)))
        orbit = m.conjugation_orbit(sub.mask)[0]
        assert want.bit_count() * len(orbit) == m.n
        for start in (sub.mask, sum(1 << x for x in orbit[-1])):
            walk = m.conjugation_orbit(start)
            mask, gens = m.normalizer(sub.mask, sub.gens, walk)
            assert mask == want
            assert m.close(gens) == want
            assert list(gens[:len(sub.gens)]) == list(sub.gens)


# -- the covered walk of subgroup_classes -------------------------------------


def element_walk_extensions(M, H, ngens):
    """The elements g that H is extended by, from the covered walk element
    by element: each element stepped through the columns of H's generators
    and the conjugation map of every generator of N(H)."""
    steps = [M.column(h) for h in H.gens]
    steps += [M.conj_map(u) for u in ngens]
    covered = bytearray(M.n)
    for x in bits(H.mask):
        covered[x] = 1
    out = []
    for g in range(1, M.n):
        if covered[g]:
            continue
        out.append(g)
        covered[g] = 1
        orb = [g]
        for x in orb:  # orb grows while it is walked
            for t in steps:
                y = t[x]
                if not covered[y]:
                    covered[y] = 1
                    orb.append(y)
    return out


# nontrivial centres and large normalizers: the skips of conjugation by
# elements of H and of the centre both come into play
WALK_GROUPS = [Sym(5), MatSL(3), MatGL(3), H3(), Dih(4), Cyc(12),
               ElemAb(2, 4), Hsl23()]


@pytest.mark.parametrize("expr", WALK_GROUPS, ids=repr)
def test_coset_walk_extends_by_the_element_walks_elements(expr):
    """`subgroup_classes` extends each representative H by exactly the
    elements that the element-level walk leaves uncovered."""
    M = fresh(expr)
    extender, normalizer, grow = M.extender, M.normalizer, M.grow
    depth = [0]
    walks = []  # (mask, elements extended by), per extender made outside
    # N(H) and `grow`

    def nested(method):
        def call(*args):
            depth[0] += 1
            try:
                return method(*args)
            finally:
                depth[0] -= 1

        return call

    def spy_extender(mask, gens):
        extend = extender(mask, gens)
        if depth[0]:
            return extend
        calls = []
        walks.append((mask, calls))

        def record(g):
            calls.append(g)
            return extend(g)

        return record

    M.extender, M.normalizer, M.grow = spy_extender, nested(normalizer), \
        nested(grow)
    classes = subgroup_classes(M)
    del M.extender, M.normalizer, M.grow
    # the first extender grows the trivial subgroup to the cyclic seeds
    assert walks[0][0] == 1
    walks = dict(walks[1:])
    want = {H.mask: element_walk_extensions(
                M, H, M.normalizer(H.mask, H.gens)[1])
            for H in classes if H.mask != M.full_mask}
    assert len(walks) == len(classes) - 1
    assert walks == want


def test_normal_subgroups_closed_under_meet_and_are_class_unions():
    m = mat(Sym(4))
    ns = normal_subgroups(m)
    masks = {s.mask for s in ns}
    for a in ns:
        for b in ns:
            assert a.mask & b.mask in masks
        # each normal subgroup is a union of conjugacy classes
        for cls in m.conjugacy_classes():
            inside = [x for x in cls if a.mask >> x & 1]
            assert len(inside) in (0, len(cls))


def test_swapsq_a5_has_no_nontrivial_normal_abelian():
    m = mat(SwapSq(Alt(5)))
    for s in normal_subgroups(m):
        if s.order > 1:
            assert not m.is_abelian_set(s.gens)


# -- j analysis -----------------------------------------------------------------


def test_j_analysis_a5():
    m = mat(Alt(5))
    assert j_analysis(m, 5).j_ratio == Fraction(12, 25)
    assert j_analysis(m, 5).min_index == 60
    assert j_analysis(m, 3).j_ratio == Fraction(20, 9)
    assert j_analysis(m, 2).j_ratio == Fraction(15, 16)
    assert j_analysis(m, 7).j_ratio == 60


def test_j_analysis_s4_p3():
    ja = j_analysis(mat(Sym(4)), 3)
    assert ja.min_index == 6
    assert ja.witness.order == 4
    assert ja.j_ratio == Fraction(2, 9)


def test_j_analysis_mu2_times_mu7mu3():
    m = mat(Prod(Cyc(2), Semi(Cyc(7), Cyc(3), Action("explicit"))))
    ja = j_analysis(m, 2)
    assert ja.min_index == 6
    assert ja.witness.order == 7
    assert ja.j_ratio == Fraction(3, 4)


def test_j_analysis_c12_p3():
    # brute force over the six subgroups of C12: coprime-to-3 abelian
    # subgroups are 1, mu2, mu4; the best index is 3
    m = mat(Cyc(12))
    ja = j_analysis(m, 3)
    assert ja.min_index == 3
    assert ja.witness.order == 4
    assert ja.j_ratio == Fraction(3, 27)


def test_j_analysis_d10_sharpness_group():
    m = mat(Semi(ElemAb(2, 4), PGroup(5, ("(1 2 3 4 5)", "(2 5)(3 4)")),
                 Action("evenperm")))
    assert m.n == 160
    ja = j_analysis(m, 3)
    assert ja.min_index == 10
    assert ja.witness.order == 16


def test_j_analysis_witness_invariants():
    for expr, p in [(Sym(4), 3), (Alt(5), 2), (Cyc(12), 2), (SwapSq(Sym(3)), 3)]:
        m = mat(expr)
        ja = j_analysis(m, p)
        assert ja.min_index * ja.witness.order == m.n
        assert ja.witness.order % p != 0
        assert m.is_abelian_set(ja.witness.gens)
        assert m.is_normal_mask(ja.witness.mask, ja.witness.gens or None)


def test_j_ratio_isomorphism_invariant():
    a = mat(ProjSL(4))
    b = mat(Alt(5))
    c = mat(ProjSL(5))
    for p in (2, 3, 5, 7):
        assert j_analysis(a, p).j_ratio == j_analysis(b, p).j_ratio == j_analysis(c, p).j_ratio


def test_j_analysis_matches_all_subgroup_filter():
    # oracle: minimize over all subgroups filtered for normality
    for expr, p in [(Sym(4), 3), (Dih(6), 2),
                    (Semi(Cyc(7), Cyc(3), Action("explicit")), 2),
                    (Prod(Alt(4), Cyc(2)), 3)]:
        m = mat(expr)
        best = m.n
        for s in all_subgroups(m):
            if s.order % p and m.is_abelian_set(s.gens) \
                    and m.is_normal_mask(s.mask, s.gens or None):
                best = min(best, m.n // s.order)
        assert j_analysis(m, p).min_index == best



def filtered_normal_lattice(M, p):
    """j-analysis by its definition: the least (index, mask) over the whole
    normal lattice, filtered for abelian subgroups of order prime to p."""
    best = None
    for sub in normal_subgroups(M):
        if sub.order % p and M.is_abelian_set(sub.gens):
            index = M.n // sub.order
            if best is None or (index, sub.mask) < (best[0], best[1].mask):
                best = (index, sub)
    return best


def test_j_analysis_matches_normal_lattice_filter():
    """The same index and witness, generators included, as the filtered
    normal lattice, at every prime dividing |G| and at p = 7."""
    groups = [e for e, _ in CATALOG]
    groups += [e for e in TABLE_GROUPS if e not in groups]
    for expr in groups:
        m = mat(expr)
        primes = {q for q in range(2, m.n + 1)
                  if m.n % q == 0 and all(q % d for d in range(2, q))}
        for p in sorted(primes | {7}):
            index, witness = filtered_normal_lattice(m, p)
            pp = p_part(m.n, p)
            assert j_analysis(m, p) == JAnalysis(
                p, pp, index, witness, Fraction(index, pp ** 3)), (expr, p)


def test_normal_abelian_subgroups_are_the_abelian_normal_subgroups():
    """The abelian members of the normal lattice, in its order and with its
    generators."""
    groups = [e for e, _ in CATALOG]
    groups += [e for e in TABLE_GROUPS if e not in groups]
    for expr in groups:
        m = mat(expr)
        want = [s for s in normal_subgroups(m) if m.is_abelian_set(s.gens)]
        assert normal_abelian_subgroups(m) == want, expr


@pytest.mark.parametrize("expr", [Sym(4), WD5SEMI], ids=["S4", "mu2^4:S5"])
def test_j_analysis_joins_once_per_group(monkeypatch, expr):
    from grpverify import lattice

    calls = []

    def spy(M, classes, joinable):
        calls.append(M)
        return normal_joins(M, classes, joinable)

    monkeypatch.setattr(lattice, "normal_joins", spy)
    h = build(expr)
    M = MaterializedGroup(h.group.generators, h.degree)  # nothing memoized
    for p in (2, 3, 5, 7, 11):
        j_analysis(M, p)
    assert len(calls) == 1


# -- sweeps ----------------------------------------------------------------------


def test_sweep_s5_exceptions():
    m = mat(Sym(5))
    rep = sweep_bound(m, 3, Fraction(10))
    assert rep.violation_orders() == [20]
    assert not rep.bound_violations  # normal mu5 of index 4 rescues
    f20 = rep.order_violations[0]
    assert is_isomorphic(sub_materialized(m, f20.sub),
                         mat(Semi(Cyc(5), Cyc(4), Action("explicit"))))
    rep2 = sweep_bound(m, 2, Fraction(3))
    assert rep2.violation_orders() == [5]
    assert not rep2.bound_violations


def test_sweep_trivial_bound():
    m = mat(Sym(4))
    rep = sweep_bound(m, 5, Fraction(24))
    assert not rep.order_violations


# -- quotients and isomorphism ------------------------------------------------------


def test_quotient_s4_v4_is_s3():
    m = mat(Sym(4))
    v4 = next(s for s in normal_subgroups(m) if s.order == 4)
    q = quotient(m, v4)
    assert q.n == 6 and not q.is_abelian()
    # brute-force coset multiplication oracle
    cosets = {}
    for x in range(m.n):
        key = frozenset(m.mul(nn, x) for nn in bits(v4.mask))
        cosets.setdefault(key, len(cosets))
    assert len(cosets) == 6
    assert is_isomorphic(q, mat(Sym(3)))


def test_quotient_requires_normal():
    m = mat(Sym(4))
    sub = next(s for s in all_subgroups(m)
               if s.order == 2 and not m.is_normal_mask(s.mask, s.gens))
    with pytest.raises(ValueError):
        quotient(m, sub)


def test_exceptional_isomorphisms():
    assert is_isomorphic(mat(ProjGL(3)), mat(Sym(4)))
    assert is_isomorphic(mat(ProjSL(4)), mat(Alt(5)))
    assert is_isomorphic(mat(ProjSL(9)), mat(Alt(6)))


def test_not_isomorphic():
    assert not is_isomorphic(mat(Dih(6)), mat(Alt(4)))
    assert not is_isomorphic(mat(Cyc(4)), mat(Dih(2)))
    assert not is_isomorphic(mat(Sym(4)), mat(Alt(5)))


def test_isomorphism_cap():
    with pytest.raises(CapExceeded,
                       match="^order 7200 exceeds isomorphism cap 2000$"):
        with caps_scope(Caps(max_subgroup_order=2000)):
            is_isomorphic(mat(SwapSq(Alt(5))), mat(SwapSq(Alt(5))))
