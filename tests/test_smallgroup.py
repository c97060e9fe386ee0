import pytest

from grpverify.construct import (
    Alt, Cyc, Dih, ElemAb, H3, Hsl23, Prod, ProjGL, SwapSq, Sym, build,
)
from grpverify.smallgroup import (
    CapExceeded,
    Caps,
    bits,
    caps_scope,
    coprime,
    current_caps,
    materialize,
    p_part,
)


def mat(expr):
    return build(expr).materialized()


def test_materialize_s4():
    m = mat(Sym(4))
    assert m.n == 24
    assert m.perms[0] == (0, 1, 2, 3)


def test_materialize_cap():
    g = build(Sym(6))
    with pytest.raises(CapExceeded):
        with caps_scope(Caps(max_order=100)):
            materialize(g.group)


def test_element_orders_survive_an_interrupted_first_call(monkeypatch):
    from grpverify import perm

    m = materialize(build(Sym(4)).group)  # a fresh group: no orders yet
    real, calls = perm.perm_order, []

    def interrupted(p):
        calls.append(p)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(p)

    monkeypatch.setattr(perm, "perm_order", interrupted)
    with pytest.raises(KeyboardInterrupt):
        m.element_order(0)
    monkeypatch.setattr(perm, "perm_order", real)
    assert [m.element_order(i) for i in range(m.n)] == \
        [real(p) for p in m.perms]


def test_caps_scope_restores_the_caps_when_its_body_raises():
    before = current_caps()
    with pytest.raises(CapExceeded):
        with caps_scope(Caps(max_order=100)):
            with caps_scope(Caps(max_order=5)):
                assert current_caps().max_order == 5
                materialize(build(Sym(3)).group)
    assert current_caps() is before


def test_swapsq_a5_size():
    assert mat(SwapSq(Alt(5))).n == 7200


def test_pgl29_size():
    from grpverify.construct import ProjGL

    assert mat(ProjGL(9)).n == 720



@pytest.mark.parametrize("n, mask", [
    (0, 0),
    (1, 1),
    (64, (1 << 63) | 1),
    (1320, (1 << 1319) | (1 << 700) | (1 << 5)),
    (1320, int("10" * 660, 2)),
    (28800, int("1" * 28800, 2)),
    (28800, int("0110" * 7200, 2)),
    (28800, (1 << 28799) | (1 << 14400) | 1),
], ids=["empty", "one", "64-bit ends", "sparse 1320", "dense 1320",
        "full 28800", "half 28800", "sparse 28800"])
def test_bits_lists_the_set_bits_ascending(n, mask):
    assert list(bits(mask)) == [i for i in range(n) if mask >> i & 1]

def test_mul_inv_identity():
    m = mat(Sym(4))
    for i in range(m.n):
        assert m.mul(i, m.inv(i)) == 0
        assert m.mul(0, i) == i == m.mul(i, 0)


def brute_conjugacy_classes(m):
    """Oracle: pairwise conjugacy test over all elements."""
    classes = []
    assigned = [False] * m.n
    for i in range(m.n):
        if assigned[i]:
            continue
        cls = set()
        for g in range(m.n):
            cls.add(m.conj(i, g))
        for x in cls:
            assigned[x] = True
        classes.append(sorted(cls))
    return sorted(classes)


def test_conjugacy_classes_s4_oracle():
    m = mat(Sym(4))
    got = sorted(m.conjugacy_classes())
    assert got == brute_conjugacy_classes(m)
    assert sorted(len(c) for c in got) == [1, 3, 6, 6, 8]


def test_conjugacy_classes_a5_oracle():
    m = mat(Alt(5))
    got = sorted(m.conjugacy_classes())
    assert got == brute_conjugacy_classes(m)
    assert len(got) == 5


def test_abelian_classes_are_singletons():
    m = mat(Cyc(12))
    assert all(len(c) == 1 for c in m.conjugacy_classes())


def test_class_sizes_divide_order():
    for expr in [Sym(4), Alt(5), Dih(6), H3()]:
        m = mat(expr)
        sizes = [len(c) for c in m.conjugacy_classes()]
        assert sum(sizes) == m.n
        assert all(m.n % s == 0 for s in sizes)


def test_center_h3_brute_force():
    m = mat(H3())
    brute = [x for x in range(m.n)
             if all(m.mul(x, y) == m.mul(y, x) for y in range(m.n))]
    assert sorted(bits(m.center())) == brute
    assert m.center().bit_count() == 3


def test_derived_s4_is_a4_brute_force():
    m = mat(Sym(4))
    # oracle: closure of the full commutator set
    comms = sorted({m.commutator(a, b) for a in range(m.n) for b in range(m.n)})
    oracle = m.close(comms)
    mask, gens = m.derived_subgroup()
    assert mask == oracle
    assert mask.bit_count() == 12
    assert m.is_normal_mask(mask, gens)


def test_derived_quotient_is_abelian():
    from grpverify.lattice import Sub, quotient

    for expr in [Sym(4), Dih(6), SwapSq(Sym(3))]:
        m = mat(expr)
        mask, gens = m.derived_subgroup()
        q = quotient(m, Sub(mask, tuple(gens)))
        assert q.is_abelian()


def test_p_part():
    assert p_part(7200, 5) == 25
    assert p_part(168, 3) == 3
    assert p_part(168, 5) == 1
    assert p_part(1, 7) == 1
    with pytest.raises(ValueError):
        p_part(0, 2)
    assert coprime(15, 2) and not coprime(15, 3)


def test_sylow_s4():
    m = mat(Sym(4))
    mask, gens = m.sylow_subgroup(2)
    assert mask.bit_count() == 8
    assert all(p_part(m.element_order(i), 2) == m.element_order(i) for i in bits(mask))


def test_sylow_a5():
    m = mat(Alt(5))
    mask, _ = m.sylow_subgroup(5)
    assert mask.bit_count() == 5


def test_sylow_hsl23():
    m = mat(Hsl23())
    mask, _ = m.sylow_subgroup(3)
    assert mask.bit_count() == 81


def test_sylow_order_is_p_part():
    for expr, p in [(Sym(4), 3), (Dih(6), 2), (Prod(Sym(3), Cyc(4)), 2), (ElemAb(3, 2), 3)]:
        m = mat(expr)
        mask, _ = m.sylow_subgroup(p)
        assert mask.bit_count() == p_part(m.n, p)


def test_sylow_deterministic():
    m1 = build(Sym(4)).materialized()
    a = m1.sylow_subgroup(2)
    b = m1.sylow_subgroup(2)
    assert a == b


def test_centralizer_and_normal_closure():
    m = mat(Sym(4))
    # centralizer of a transposition has order 4 in S4
    t = next(i for i in range(m.n) if m.element_order(i) == 2
             and any(i in c and len(c) == 6 for c in m.conjugacy_classes()))
    assert m.centralizer([t]).bit_count() == 4
    mask = m.normal_closure([t])
    assert mask.bit_count() == 24  # transpositions generate S4
    assert m.normal_closure([]) == m.normal_closure([0]) == 1
    assert m.close([]) == m.close([0]) == 1


@pytest.mark.parametrize("expr", [Sym(5), ProjGL(23)], ids=repr)
def test_index_two_subgroups_are_not_taken_for_g(expr):
    """A5 in S5 and PSL2(F23) in PGL2(F23) hold exactly n/2 elements: the
    Lagrange stop of `close` answers G only past n/2, so neither `close`
    nor `normal_closure` mistakes them for G.  Both are simple, so every
    nontrivial element of one has it as its normal closure."""
    m = materialize(build(expr).group)
    half = m.derived_subgroup()[0]
    assert half.bit_count() == m.n // 2
    assert m.close(m.gens_for_mask(half)) == half
    for cls in m.conjugacy_classes():
        if cls[0] and half >> cls[0] & 1:
            assert m.normal_closure(cls[:1]) == half
