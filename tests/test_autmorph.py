import hashlib
from itertools import combinations, product

import pytest

from grpverify import autmorph
from grpverify.autmorph import (
    _invariant_table,
    automorphism_group,
    chermak_delgado,
    coprime_part,
    find_isomorphism,
    generating_sequence,
    invariant,
    is_characteristic,
)
from grpverify.cli import parse_expr
from grpverify.construct import (
    Action, Alt, Cyc, Dih, ElemAb, H3, Prod, ProjGL, ProjSL, Semi, Sym, build,
    to_src,
)
from grpverify.lattice import all_subgroups, normal_subgroups
from grpverify.perm import PermGroup, compose
from grpverify.smallgroup import (
    CapExceeded, Caps, MaterializedGroup, bits, caps_scope,
)


def mat(expr):
    return build(expr).materialized()


def generated(maps, n):
    """Reference: the sorted maps of the group the given maps generate,
    closed by composing element-index tuples."""
    one = tuple(range(n))
    closed = {one}
    queue = [one]
    for x in queue:  # queue grows while it is walked
        for a in maps:
            y = compose(a, x)
            if y not in closed:
                closed.add(y)
                queue.append(y)
    return sorted(closed)


def test_aut_s4():
    aut = automorphism_group(mat(Sym(4)))
    assert aut.order == 24
    assert aut.inner_count == 24
    assert aut.out_order == 1


def test_aut_a4():
    aut = automorphism_group(mat(Alt(4)))
    assert aut.order == 24
    assert aut.inner_count == 12
    assert aut.out_order == 2


def test_aut_a5():
    aut = automorphism_group(mat(Alt(5)))
    assert aut.order == 120
    assert aut.out_order == 2


def test_aut_mu3_mu4_is_d12():
    from grpverify.autmorph import is_isomorphic

    m = mat(Semi(Cyc(3), Cyc(4), Action("explicit")))
    aut = automorphism_group(m)
    assert aut.order == 12
    assert is_isomorphic(aut.as_materialized(), mat(Dih(6)))


def test_aut_elematary_abelian():
    # |Aut(mu_p^m)| = |GL_m(F_p)|
    def gl_order(p, m):
        o = 1
        for i in range(m):
            o *= p**m - p**i
        return o

    for p, m in [(2, 2), (2, 3), (3, 2), (5, 1)]:
        aut = automorphism_group(mat(ElemAb(p, m)))
        assert aut.order == gl_order(p, m)


def test_aut_cyclic_and_dihedral_formulas():
    from math import gcd

    def phi(n):
        return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    for n in range(3, 16):
        assert automorphism_group(mat(Cyc(n))).order == phi(n)
    for n in range(3, 10):
        assert automorphism_group(mat(Dih(n))).order == n * phi(n)


def test_aut_maps_verified_multiplicative():
    m = mat(Dih(5))
    aut = automorphism_group(m)
    assert aut.order == 20
    every = aut.as_materialized().perms
    assert len(set(every)) == 20
    for a in every:
        for x in range(m.n):
            for y in range(m.n):
                assert a[m.mul(x, y)] == m.mul(a[x], a[y])


def test_inner_automorphisms_appear():
    m = mat(Sym(4))
    aut = automorphism_group(m)
    maps = set(aut.as_materialized().perms)
    for g in range(m.n):
        conj = tuple(m.conj(x, g) for x in range(m.n))
        assert conj in maps
    assert aut.inner_count == m.n // m.center().bit_count()


def test_aut_cap():
    with pytest.raises(CapExceeded):
        with caps_scope(Caps(max_aut_order=100)):
            automorphism_group(mat(Sym(5)))


def test_generating_sequence_generates():
    for expr in [Sym(4), Dih(6), H3(), Cyc(12)]:
        m = mat(expr)
        gens, _ = generating_sequence(m)
        assert m.close(gens) == m.full_mask


def test_find_isomorphism_returns_actual_map():
    m1 = mat(ProjSL(4))
    m2 = mat(Alt(5))
    img = find_isomorphism(m1, m2)
    assert img is not None
    for x in range(m1.n):
        for y in range(m1.n):
            assert img[m1.mul(x, y)] == m2.mul(img[x], img[y])


# -- characteristic subgroups ----------------------------------------------------


def test_v4_characteristic_in_s4():
    m = mat(Sym(4))
    v4 = next(s for s in normal_subgroups(m) if s.order == 4)
    assert is_characteristic(m, v4.mask)


def test_no_nontrivial_cyclic_characteristic_in_s4():
    m = mat(Sym(4))
    for s in all_subgroups(m):
        if 1 < s.order and len(s.gens) == 1 and m.close([s.gens[0]]) == s.mask:
            assert not is_characteristic(m, s.mask)


def test_dihedral_rotation_characteristic_and_self_centralizing():
    for n in range(3, 13):
        h = build(Dih(n))
        m = h.materialized()
        rot = m.close([m.index[h.parts["rotation"]]])
        assert rot.bit_count() == n
        assert is_characteristic(m, rot)
        gens = [m.index[h.parts["rotation"]]]
        assert m.centralizer(gens) == rot


def image_of_every_element(mask, a):
    """Reference rule: the mask of {a[i] : i in mask}."""
    out = 0
    for i in bits(mask):
        out |= 1 << a[i]
    return out


@pytest.mark.parametrize("expr", [
    Sym(4), Alt(4), Dih(6), ElemAb(2, 3),
    Semi(Cyc(3), Cyc(4), Action("explicit")), Prod(Sym(3), Cyc(4)),
], ids=lambda e: to_src(e))
def test_invariant_matches_image_of_every_element(expr):
    m = mat(expr)
    aut = automorphism_group(m)
    every = sorted(aut.as_materialized().perms)
    for s in all_subgroups(m):
        kept = [a for a in every
                if image_of_every_element(s.mask, a) == s.mask]
        for a in every:
            assert invariant(s.mask, s.gens, [a]) == (a in kept)
        assert invariant(s.mask, s.gens, aut.gens) == (kept == every)
        assert is_characteristic(m, s.mask) == (kept == every)
        # the preserving generators generate the whole stabilizer
        assert generated(aut.preserving(s.mask), m.n) == kept


def test_characteristic_implies_normal():
    for expr in [Sym(4), Dih(6), Alt(4), Prod(Cyc(2), Sym(3))]:
        m = mat(expr)
        for s in all_subgroups(m):
            if is_characteristic(m, s.mask):
                assert m.is_normal_mask(s.mask, s.gens or None)


# -- Chermak-Delgado ---------------------------------------------------------------


def brute_cd(m):
    """Oracle: measure table over every subgroup, computed definitionally."""
    best = 0
    fam = []
    for s in all_subgroups(m):
        members = list(bits(s.mask))
        cent = sum(
            1 for x in range(m.n)
            if all(m.mul(x, h) == m.mul(h, x) for h in members)
        )
        measure = s.order * cent
        if measure > best:
            best, fam = measure, [s.mask]
        elif measure == best:
            fam.append(s.mask)
    out = m.full_mask
    for mask in fam:
        out &= mask
    return out


def test_cd_s4_matches_measure_table():
    # the max measure in S4 is 24, attained by the trivial subgroup and S4
    # itself (V4 only reaches 4*4=16), so the CD subgroup is trivial
    m = mat(Sym(4))
    cd = chermak_delgado(m)
    assert cd == brute_cd(m)
    assert cd.bit_count() == 1


def test_cd_h3_is_center():
    m = mat(H3())
    cd = chermak_delgado(m)
    assert cd == brute_cd(m)
    assert cd == m.center()
    assert cd.bit_count() == 3


def test_cd_d8_is_center():
    m = mat(Dih(4))
    cd = chermak_delgado(m)
    assert cd == brute_cd(m)
    assert cd == m.center()
    assert cd.bit_count() == 2


def test_cd_abelian_group_is_itself():
    for expr in [Cyc(12), ElemAb(2, 3), Prod(Cyc(4), Cyc(2))]:
        m = mat(expr)
        assert chermak_delgado(m) == m.full_mask


def test_cd_properties_across_corpus():
    for expr in [Sym(4), Alt(4), Dih(6), H3(), Alt(5),
                 Semi(Cyc(7), Cyc(3), Action("explicit")), Prod(Sym(3), Cyc(4))]:
        m = mat(expr)
        cd = chermak_delgado(m)
        gens = m.gens_for_mask(cd)
        assert m.is_abelian_set(gens)
        assert is_characteristic(m, cd)
        assert cd & m.center() == m.center()


def test_cd_index_at_most_i_squared():
    for expr in [Sym(4), Alt(4), Dih(6), H3(), Alt(5)]:
        m = mat(expr)
        best_abelian = max(s.order for s in all_subgroups(m)
                           if m.is_abelian_set(s.gens))
        i = m.n // best_abelian
        cd = chermak_delgado(m)
        assert m.n // cd.bit_count() <= i * i


def test_coprime_part():
    m = mat(Cyc(12))
    cp = coprime_part(m, m.full_mask, 2)
    assert cp.bit_count() == 3
    cp3 = coprime_part(m, m.full_mask, 3)
    assert cp3.bit_count() == 4


# -- the search modulo inner automorphisms against brute force ----------------------


def _small_generating_set(m):
    """Lexicographically first generating set of the least size."""
    for k in range(1, m.n):
        for combo in combinations(range(1, m.n), k):
            if m.close(combo) == m.full_mask:
                return combo
    return ()


def brute_aut(m):
    """Oracle: every tuple of generator images, of the generators' element
    orders, whose map extends to a bijective homomorphism."""
    gens = _small_generating_set(m)
    orders = [m.element_order(i) for i in range(m.n)]
    cands = [[y for y in range(m.n) if orders[y] == orders[g]] for g in gens]
    out = set()
    for images in product(*cands):
        img = [-1] * m.n
        img[0] = 0
        queue = [0]
        ok = True
        for x in queue:
            for g, ig in zip(gens, images):
                y, iy = m.mul(x, g), m.mul(img[x], ig)
                if img[y] < 0:
                    img[y] = iy
                    queue.append(y)
                elif img[y] != iy:
                    ok = False
            if not ok:
                break
        if ok and len(set(img)) == m.n:
            out.add(tuple(img))
    return sorted(out)


@pytest.mark.parametrize("src", ["S(4)", "A(5)", "D(12)", "GL(2,3)", "H3",
                                 "EA(2,3)", "C(24)", "semi(C(3),C(4),explicit)",
                                 "SL(2,3)", "PSL(2,7)"])
def test_aut_maps_match_brute_force(src):
    m = mat(parse_expr(src))
    aut = automorphism_group(m)
    every = sorted(aut.as_materialized().perms)
    assert every == brute_aut(m)
    assert len(every) == aut.order
    assert generated(aut.gens, m.n) == every


@pytest.mark.parametrize("src,order", [("PSL(2,7)", 336), ("PSL(2,9)", 1440),
                                       ("EA(2,4)", 20160),
                                       ("semi(EA(3,3),S(4),quotperm)", 1296)])
def test_aut_known_orders_without_duplicates(src, order):
    aut = automorphism_group(mat(parse_expr(src)))
    assert aut.order == order
    assert len(set(aut.as_materialized().perms)) == order


@pytest.mark.parametrize("src", ["S(4)", "A(5)", "D(12)", "GL(2,3)", "H3",
                                 "EA(2,3)", "PSL(2,7)", "PSL(2,9)"])
def test_aut_generators_have_the_counted_order(src):
    """Schreier-Sims on the generators, independent of the search's count."""
    m = mat(parse_expr(src))
    aut = automorphism_group(m)
    assert PermGroup(aut.gens, m.n).order() == aut.order
    assert tuple(range(m.n)) not in aut.gens
    assert len(set(aut.gens)) == len(aut.gens)


def test_aut_order_is_refused_above_max_order_whatever_ran_before():
    """|Aut(EA(2,4))| = 20160: searched at max_order 20160, refused one
    below it, by the search and by a memo hit alike."""
    h = build(ElemAb(2, 4))

    def fresh():  # nothing memoized
        return MaterializedGroup(h.group.generators, h.degree)

    with caps_scope(Caps(max_order=20160)):
        assert automorphism_group(fresh()).order == 20160
    m = fresh()
    with caps_scope(Caps(max_order=20159)):
        with pytest.raises(CapExceeded, match="^[|]Aut[|] exceeds"):
            automorphism_group(m)
    assert automorphism_group(m).order == 20160
    with caps_scope(Caps(max_order=20159)):
        with pytest.raises(CapExceeded, match="20160 exceeds materialization"):
            automorphism_group(m)


def test_every_extended_candidate_passes_the_product_screen(monkeypatch):
    """An isomorphism keeps the order and class size of g_i g and of
    g_i^-1 g for earlier generators g_i, so a candidate image c of g is
    extended only when a_i c and a_i^-1 c have those of g_i g and g_i^-1 g;
    the products are composed here, after the search."""
    h = build(ProjGL(9))
    m = MaterializedGroup(h.group.generators, h.degree)  # nothing memoized
    attempts = []

    def recording(M1, M2, gen_pairs, subgroup_size):
        attempts.append(list(gen_pairs))
        return extend_map(M1, M2, gen_pairs, subgroup_size)

    extend_map = autmorph._extend_map
    monkeypatch.setattr(autmorph, "_extend_map", recording)
    aut = automorphism_group(m)
    assert aut.order == 1440
    assert attempts
    key = _invariant_table(m)
    for *pairs, (g, c) in attempts:
        for gi, a in pairs:
            assert key[m.mul(a, c)] == key[m.mul(gi, g)]
            assert key[m.mul(m.inv(a), c)] == key[m.mul(m.inv(gi), g)]
    assert automorphism_group(mat(ProjSL(9))).order == 1440


# sha256 of repr((perms, gens)) of Aut(EA(2,4)).as_materialized(), as the
# search that also grew candidates inside the earlier generators' span built it
EA24_AUT_DIGEST = \
    "442870dab854808d91fc897c93e53672a56708a16b40c02d29c9cf134995689a"


def test_no_candidate_inside_the_span_is_grown(monkeypatch):
    """g_l lies outside <g_1..g_{l-1}>, so no injective map sends it into
    <a_1..a_{l-1}>; the search grows no such candidate.  On EA(2,4) every
    automorphism is found one by one, and the maps found are unchanged."""
    h = build(ElemAb(2, 4))
    m = MaterializedGroup(h.group.generators, h.degree)  # nothing memoized
    attempts = []

    def recording(M1, M2, gen_pairs, subgroup_size):
        attempts.append(list(gen_pairs))
        return extend_map(M1, M2, gen_pairs, subgroup_size)

    extend_map = autmorph._extend_map
    monkeypatch.setattr(autmorph, "_extend_map", recording)
    aut = automorphism_group(m)
    assert aut.order == 20160
    assert attempts
    spans = {}  # <a_1..a_{l-1}> by its generators
    for *pairs, (_, c) in attempts:
        images = tuple(a for _, a in pairs)
        if images not in spans:
            spans[images] = m.close(images)
        assert not spans[images] >> c & 1
    A = aut.as_materialized()
    digest = hashlib.sha256(repr((A.perms, A.gens)).encode()).hexdigest()
    assert digest == EA24_AUT_DIGEST


def _is_isomorphism(img, m1, m2):
    if sorted(img) != list(range(m2.n)):
        return False
    return all(img[m1.mul(x, y)] == m2.mul(img[x], img[y])
               for x in range(m1.n) for y in range(m1.n))


def test_find_isomorphism_between_different_carriers():
    for a, b in [("PSL(3,2)", "PSL(2,7)"), ("PSL(2,9)", "A(6)"),
                 ("D(6)", "prod(S(3),C(2))")]:
        m1, m2 = mat(parse_expr(a)), mat(parse_expr(b))
        img = find_isomorphism(m1, m2)
        assert img is not None and _is_isomorphism(img, m1, m2)


def test_find_isomorphism_none_for_equal_invariants():
    # Q8 x C2 and C4 : C4 agree on element orders and class sizes
    q8 = 'pgroup(8,"(1 2 3 4)(5 6 7 8)","(1 5 3 7)(2 8 4 6)")'
    m1 = mat(parse_expr(f"prod({q8},C(2))"))
    m2 = mat(parse_expr("semi(C(4),C(4),inv)"))
    assert m1.n == m2.n == 16
    assert sorted(_invariant_table(m1)) == sorted(_invariant_table(m2))
    assert find_isomorphism(m1, m2) is None
    assert find_isomorphism(m2, m1) is None
