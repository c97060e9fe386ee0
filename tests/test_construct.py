import pytest

from grpverify import gf
from grpverify.construct import (
    Action,
    ActionError,
    Alt,
    BuildError,
    Cyc,
    Dih,
    ElemAb,
    Expr,
    GRAMMAR,
    GroupHandle,
    H3,
    Hess,
    Hsl23,
    MatGL,
    MatSL,
    PGroup,
    PSL32,
    ParseError,
    Prod,
    ProjGL,
    ProjSL,
    Semi,
    SwapSq,
    Sym,
    WeylD,
    build,
    matrix_to_projective_perm,
    parse_expr,
    projective_line,
    semidirect_by_automorphisms,
    to_src,
)
from grpverify.perm import PermGroup
from grpverify.smallgroup import CapExceeded, Caps, caps_scope


CATALOG = [
    (Cyc(12), 12),
    (Dih(2), 4),
    (Dih(6), 12),
    (Sym(4), 24),
    (Sym(6), 720),
    (Alt(4), 12),
    (Alt(5), 60),
    (ElemAb(2, 4), 16),
    (ElemAb(3, 3), 27),
    (H3(), 27),
    (MatGL(3), 48),
    (MatSL(3), 24),
    (ProjGL(2), 6),
    (ProjGL(3), 24),
    (ProjGL(9), 720),
    (ProjSL(4), 60),
    (ProjSL(5), 60),
    (ProjSL(7), 168),
    (ProjSL(9), 360),
    (PSL32(), 168),
    (WeylD(5), 1920),
    (Prod(Alt(5), Alt(5)), 3600),
    (SwapSq(Sym(4)), 1152),
]


@pytest.mark.parametrize("expr,order", CATALOG)
def test_catalog_orders(expr, order):
    assert build(expr).order == order


def test_materialized_cap_applies_to_cached_group():
    h = build(Sym(4))
    assert h.materialized().n == 24
    with caps_scope(Caps(max_order=10)):
        with pytest.raises(CapExceeded):
            h.materialized()
    with caps_scope(Caps(max_order=24)):
        assert h.materialized().n == 24


def test_d4_is_klein_four():
    m = build(Dih(2)).materialized()
    assert m.n == 4 and m.is_abelian()
    assert all(m.element_order(i) <= 2 for i in range(4))


def test_h3_nonabelian_exponent_three():
    m = build(H3()).materialized()
    assert m.n == 27 and not m.is_abelian()
    assert all(m.element_order(i) in (1, 3) for i in range(27))


def test_mu7_mu3_default_action():
    h = build(Semi(Cyc(7), Cyc(3), Action("explicit")))
    assert h.order == 21
    assert not h.materialized().is_abelian()


def test_wd5_atom_matches_semi_form():
    from grpverify.autmorph import is_isomorphic

    a = build(WeylD(5)).materialized()
    b = build(Semi(ElemAb(2, 4), Sym(5), Action("evenperm"))).materialized()
    assert a.n == b.n == 1920
    with caps_scope(Caps(max_subgroup_order=2000)):
        assert is_isomorphic(a, b)


def test_hess_order_and_normal_part():
    h = build(Hess())
    assert h.order == 216
    assert h.sub("normal_gens").order == 9


def test_hsl23():
    h = build(Hsl23())
    assert h.order == 648
    m = h.materialized()
    assert m.center().bit_count() == 3


def aut_h3_reference():
    """H3:SL2(F3) by another route than `build`'s: H3's right translations
    and the automorphisms of an SL2(F3) class of Aut(H3), found by a
    subgroup-class sweep and isomorphism tests, all acting on H3's 27
    element indices."""
    from grpverify.autmorph import automorphism_group, is_isomorphic
    from grpverify.lattice import sub_materialized, subgroup_classes
    from grpverify.perm import PermGroup

    m3 = build(H3()).materialized()
    sl23 = build(MatSL(3)).materialized()
    autmat = automorphism_group(m3).as_materialized()
    assert autmat.n == 432
    chosen = next(s for s in subgroup_classes(autmat) if s.order == 24
                  and is_isomorphic(sub_materialized(autmat, s), sl23))
    gens = [tuple(m3.column(g)) for g in m3.gens]
    gens += [autmat.perms[i] for i in chosen.gens]
    return PermGroup(gens, 27)


def test_hsl23_matches_cocycle_construction():
    """`build` lifts SL2(F3) to H3 by the explicit cocycle
    (x,y,z) -> (ax+by, cx+dy, z + 2ac x^2 + 2bd y^2 + bc xy); the reference
    finds SL2(F3) inside Aut(H3) instead."""
    from grpverify.autmorph import is_isomorphic
    from grpverify.smallgroup import materialize

    reference = aut_h3_reference()
    assert reference.order() == 648
    assert is_isomorphic(materialize(reference), build(Hsl23()).materialized())


def test_building_hsl23_runs_no_query(monkeypatch):
    from grpverify import autmorph, construct, lattice

    def refuse(*args):
        raise AssertionError("building HSL23 ran a group query")

    monkeypatch.setattr(construct, "_CACHE", {})  # build it, not a cached one
    monkeypatch.setattr(autmorph, "automorphism_group", refuse)
    monkeypatch.setattr(lattice, "subgroup_classes", refuse)
    monkeypatch.setattr(autmorph, "is_isomorphic", refuse)
    assert build(Hsl23()).order == 648


def test_semi_contains_normal_part_with_right_quotient():
    from grpverify.autmorph import is_isomorphic
    from grpverify.lattice import quotient

    cases = [
        (Semi(Cyc(7), Cyc(3), Action("explicit")), Cyc(7), Cyc(3)),
        (Semi(ElemAb(3, 3), Sym(4), Action("quotperm")), ElemAb(3, 3), Sym(4)),
        (Semi(ElemAb(2, 4), PGroup(5, ("(1 2 3 4 5)", "(2 5)(3 4)")),
              Action("evenperm")), ElemAb(2, 4), None),
        (Semi(Cyc(9), Cyc(2), Action("inv")), Cyc(9), Cyc(2)),
        (Semi(ElemAb(3, 2), Cyc(8), Action("explicit", (0, 1, 1, 1))),
         ElemAb(3, 2), Cyc(8)),
        (Semi(ElemAb(2, 3), Cyc(7),
              Action("explicit", (0, 0, 1, 1, 0, 1, 0, 1, 0))), ElemAb(2, 3), Cyc(7)),
        (Semi(ElemAb(5, 2), Sym(2), Action("natperm")), ElemAb(5, 2), Sym(2)),
    ]
    for expr, n_expr, h_expr in cases:
        h = build(expr)
        n_want = build(n_expr)
        assert h.order == n_want.order * build(expr.args[1]).order
        m = h.materialized()
        nsub = h.sub("normal_gens")
        assert nsub.order == n_want.order
        assert m.is_normal_mask(nsub.mask, nsub.gens)
        from grpverify.lattice import sub_materialized

        assert is_isomorphic(sub_materialized(m, nsub), n_want.materialized())
        if h_expr is not None:
            q = quotient(m, nsub)
            assert is_isomorphic(q, build(h_expr).materialized())


@pytest.mark.parametrize("a, b", [
    (Sym(3), Cyc(4)), (Dih(6), Cyc(5)), (Alt(4), Sym(3)), (MatSL(3), Cyc(2)),
], ids=lambda e: to_src(e))
def test_product_factors_are_normal_and_meet_trivially(a, b):
    h = build(Prod(a, b))
    m = h.materialized()
    first, second = h.sub("normal_gens"), h.sub("complement_gens")
    assert (first.order, second.order) == (build(a).order, build(b).order)
    assert m.is_normal_mask(first.mask, first.gens)
    assert m.is_normal_mask(second.mask, second.gens)
    assert first.mask & second.mask == 1


def test_swapsq_contains_index_two_product():
    h = build(SwapSq(Sym(3)))
    assert h.order == 72
    assert h.sub("inner_gens").order == 36


def test_swap_action_is_swapsq():
    h = build(Semi(Prod(Sym(3), Sym(3)), Cyc(2), Action("swap")))
    assert h.order == 72
    with pytest.raises(BuildError):
        build(Semi(Prod(Sym(3), Sym(4)), Cyc(2), Action("swap")))


def test_action_not_homomorphism_rejected():
    # x -> x^2 is not invertible on C(6); order-3 matrix on C(4)-size mismatch
    with pytest.raises(BuildError):
        build(Semi(Cyc(6), Cyc(2), Action("explicit", (2,))))
    # inversion of C(5) has order 2, not dividing |C(3)|
    with pytest.raises(ActionError):
        build(Semi(Cyc(5), Cyc(3), Action("inv")))


# C(5) materialized indexes its elements by exponent, so an action perm of
# C(5) is the map of exponents
C5_IDENTITY, C5_INVERSION = (0, 1, 2, 3, 4), (0, 4, 3, 2, 1)


def c5_by(h, *images):
    return semidirect_by_automorphisms(build(Cyc(5)), h, images)


def c5_by_c2_twice():
    """C(5) by a group whose two generators are one involution, sent to
    inversion and to the identity."""
    g = (1, 0, 2, 3)
    h = GroupHandle(PermGroup([g, g], 4), {})
    return c5_by(h, C5_INVERSION, C5_IDENTITY)


REFUSED_ACTIONS = [
    ("translation", lambda: c5_by(build(Cyc(2)), (1, 2, 3, 4, 0)),
     "does not fix the identity"),
    ("singular-zero", lambda: build(parse_expr(
        "semi(EA(2,2),C(2),explicit[0,0,0,0])")), "not a bijection"),
    ("singular-ones", lambda: build(parse_expr(
        "semi(EA(2,2),C(2),explicit[1,1,1,1])")), "not a bijection"),
    ("bijection-not-automorphism",
     lambda: c5_by(build(Cyc(2)), (0, 2, 1, 3, 4)), "not an automorphism"),
    ("order-4-by-C2", lambda: c5_by(build(Cyc(2)), (0, 2, 4, 1, 3)),
     "not a homomorphism"),
    ("conflicting-images", c5_by_c2_twice, "not a homomorphism"),
]


@pytest.mark.parametrize("make, reason", [r[1:] for r in REFUSED_ACTIONS],
                         ids=[r[0] for r in REFUSED_ACTIONS])
def test_semidirect_by_automorphisms_refuses(make, reason):
    with pytest.raises(ActionError, match=reason):
        make()


def test_inversion_of_c5_by_c2_is_dihedral():
    h = c5_by(build(Cyc(2)), C5_INVERSION)
    assert h.order == 10
    assert not h.materialized().is_abelian()


def test_semidirect_build_leaves_h_unmaterialized(monkeypatch):
    from grpverify import construct

    monkeypatch.setattr(construct, "_CACHE", {})  # build it, not a cached one
    assert build(Semi(Cyc(7), Cyc(3), Action("explicit", (2,)))).order == 21
    assert build(Cyc(3))._mat is None
    assert build(Cyc(7))._mat is not None


def test_semidirect_by_automorphisms_refuses_n_above_degree_64(monkeypatch):
    """EA(2,14) would act on its 16384 elements: refused before it is
    materialized."""
    from grpverify import construct

    def refuse(self):
        raise AssertionError(f"{self.name} materialized")

    monkeypatch.setattr(construct, "_CACHE", {})  # keep EA(2,14) out of it
    monkeypatch.setattr(GroupHandle, "materialized", refuse)
    identity = ",".join("1" if i % 15 == 0 else "0" for i in range(14 * 14))
    expr = parse_expr(f"semi(EA(2,14),C(2),explicit[{identity}])")
    with pytest.raises(BuildError, match="16384 would act on more than 64"):
        build(expr)


def test_no_nontrivial_action_rejected():
    with pytest.raises(BuildError):
        build(Semi(Cyc(2), Cyc(3), Action("explicit")))


def test_order_cap():
    h = build(SwapSq(Alt(5)))
    with caps_scope(Caps(max_order=5000)):  # a cached group is checked again
        with pytest.raises(CapExceeded, match="order 7200 exceeds cap 5000$"):
            build(SwapSq(Alt(5)))
    assert build(SwapSq(Alt(5))) is h


def test_hsl23_builds_under_any_query_caps(monkeypatch):
    from grpverify import construct

    monkeypatch.setattr(construct, "_CACHE", {})  # build it, not a cached one
    with caps_scope(Caps(max_subgroup_order=1, max_aut_order=1)):
        assert build(Hsl23()).order == 648


def test_unsupported_parameters():
    with pytest.raises(BuildError):
        build(Dih(1))
    with pytest.raises(BuildError):
        build(ElemAb(4, 2))
    with pytest.raises(ValueError):
        build(ProjGL(6))
    with pytest.raises(BuildError):
        build(MatGL(9))


# The limits of README "Group expressions", stated here rather than read
# from the grammar: C 1..64, D 2..32, S 1..8, A 1..9, WD 2..8, pgroup
# degree 1..64, EA(p,m) with p prime and p*m <= 64, GL/SL(2,q) with q <= 8
# and PGL/PSL(2,q) with q <= 61, q a prime power.
ACCEPTED = [
    Cyc(1), Cyc(64), Dih(2), Dih(32), Sym(1), Sym(8), Alt(1), Alt(9),
    WeylD(2), WeylD(8), PGroup(1, ()), PGroup(64, ()),
    ElemAb(2, 1), ElemAb(2, 32), ElemAb(61, 1),
    MatGL(2), MatGL(8), MatSL(2), MatSL(8),
    ProjGL(2), ProjGL(61), ProjSL(2), ProjSL(61),
]
REFUSED = [
    (Cyc(0), "out of range"), (Cyc(65), "out of range"),
    (Dih(1), "out of range"), (Dih(33), "out of range"),
    (Sym(0), "out of range"), (Sym(9), "out of range"),
    (Alt(0), "out of range"), (Alt(10), "out of range"),
    (WeylD(1), "out of range"), (WeylD(9), "out of range"),
    (PGroup(0, ()), "out of range"), (PGroup(65, ()), "out of range"),
    (ElemAb(1, 1), "not prime"), (ElemAb(2, 0), "out of range"),
    (ElemAb(2, 33), "out of range"), (ElemAb(64, 1), "not prime"),
    (ElemAb(67, 1), "out of range"),
    (MatGL(1), "not a prime power"), (MatGL(9), "out of range"),
    (MatSL(1), "not a prime power"), (MatSL(9), "out of range"),
    (ProjGL(1), "not a prime power"), (ProjGL(62), "out of range"),
    (ProjSL(1), "not a prime power"), (ProjSL(62), "out of range"),
]


@pytest.mark.parametrize("expr", ACCEPTED, ids=to_src)
def test_the_ends_of_each_limit_parse(expr):
    assert parse_expr(to_src(expr)) == expr


@pytest.mark.parametrize("expr, fragment", REFUSED,
                         ids=[to_src(e) for e, _ in REFUSED])
def test_one_past_each_end_is_refused_by_parse_and_build(expr, fragment):
    src = f"prod(C(2), {to_src(expr)})"
    with pytest.raises(ParseError) as exc:
        parse_expr(src)
    assert exc.value.pos == src.index(to_src(expr))  # at the node itself
    assert fragment in str(exc.value)
    with pytest.raises(BuildError, match=fragment):
        build(expr)


BAD_CYCLES = [
    ("(1 \u00b2)", "expected point at offset 3"),  # a digit, but not decimal
    ("(1 " + "9" * 5000 + ")", "point at offset 3 is too long"),
    ("(1 2", "unclosed cycle"),
    ("(1 4)", "point 4 exceeds degree 3"),
]


@pytest.mark.parametrize("cycle, fragment", BAD_CYCLES,
                         ids=["superscript", "5000-digits", "unclosed",
                              "past-degree"])
def test_bad_cycle_strings_are_refused_by_parse_and_build(cycle, fragment):
    expr = PGroup(3, ("(1 2)", cycle))
    src = f"prod(C(2), {to_src(expr)})"
    with pytest.raises(ParseError) as exc:
        parse_expr(src)
    assert exc.value.pos == src.index("pgroup")  # at the node itself
    assert fragment in str(exc.value)
    with pytest.raises(BuildError, match=fragment):
        build(expr)


def test_projective_line_action_gf3():
    F = gf.field_new(3, 1)
    assert len(projective_line(F)) == 4
    mats = [((a, b), (c, d)) for a in range(3) for b in range(3)
            for c in range(3) for d in range(3) if (a * d - b * c) % 3]
    perms = {matrix_to_projective_perm(F, M) for M in mats}
    assert len(perms) == 24  # PGL2(F3) = S4 on 4 points
    # kernel of the action is exactly the scalars
    scalars = [M for M in mats
               if matrix_to_projective_perm(F, M) == tuple(range(4))]
    assert sorted(scalars) == [((1, 0), (0, 1)), ((2, 0), (0, 2))]


def test_singular_matrix_rejected():
    F = gf.field_new(3, 1)
    with pytest.raises(ValueError):
        matrix_to_projective_perm(F, ((1, 2), (2, 1)))


def test_gf2_pgl_is_s3():
    from grpverify.autmorph import is_isomorphic

    assert is_isomorphic(build(ProjGL(2)).materialized(),
                         build(Sym(3)).materialized())


def test_to_src_round_trip_via_equality():
    """One expression of every grammar node, at least: each is an Expr, its
    source reparses to an equal expression that hashes alike, str() is that
    source, and unequal expressions have different sources."""
    exprs = [e for e, _ in CATALOG] + [
        Hess(), Hsl23(), PGroup(4, ("(1 2 3 4)", "(1 3)")),
        Semi(ElemAb(2, 4), PGroup(5, ("(1 2 3 4 5)", "(2 5)(3 4)")), Action("evenperm")),
        Semi(Cyc(7), Cyc(3), Action("explicit")),
        Semi(ElemAb(3, 2), Cyc(8), Action("explicit", (0, 1, 1, 1))),
    ]
    assert {e.node for e in exprs} == set(GRAMMAR)
    assert {type(e) for e in exprs} == {Expr}
    seen = {}
    for e in exprs:
        src = to_src(e)
        assert seen.setdefault(src, e) == e
        assert str(e) == src
        again = parse_expr(src)
        assert again == e and hash(again) == hash(e)


def test_expressions_are_equal_by_node_and_arguments():
    assert Cyc(2) == Cyc(2) and Cyc(2) != Sym(2) and Cyc(2) != Cyc(3)
    assert len({Cyc(2), Sym(2), Cyc(2)}) == 2
    assert ProjGL(23) != "PGL(2,23)"
    with pytest.raises(AttributeError):
        Cyc(2).args = (3,)


@pytest.mark.parametrize("make", [
    lambda: Cyc(), lambda: Cyc(2, 3), lambda: ElemAb(2), lambda: H3(1),
    lambda: PSL32(2), lambda: Semi(Cyc(7), Cyc(3)), lambda: PGroup(3),
], ids=["C()", "C(2,3)", "EA(2)", "H3(1)", "PSL32(2)", "semi-without-action",
        "pgroup-without-cycles"])
def test_a_wrong_argument_list_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_repr_names_the_arguments():
    """repr() is the call with its arguments named: the ids of the tests
    parametrized by expressions (ids=repr)."""
    assert repr(ProjGL(23)) == "ProjGL(q=23)"
    assert repr(Semi(Cyc(7), H3(), Action("inv"))) == (
        "Semi(n=Cyc(n=7), h=H3(), action=Action(kind='inv', params=()))")
