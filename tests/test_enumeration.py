"""Enumerations that read known products, against the compose-built one.

A group is enumerated breadth-first from its generators.  The generator
columns of every group, subgroups (`sub_materialized`) and Aut(G)
(`AutGroup.as_materialized`) are read from products the engine already
has; element orders come from one permutation per conjugacy class.  Each
is compared here with `reference`, the enumeration that composes
permutations, and a guard counts `perm.compose` calls on those paths and
on every reader of products, at every order.
"""

import hashlib
import random

import pytest

from grpverify import perm as pm
from grpverify.autmorph import automorphism_group
from grpverify.construct import (
    Alt, ElemAb, MatGL, Prod, ProjGL, ProjSL, SwapSq, Sym, WeylD, build,
)
from grpverify.lattice import (
    Sub, j_analysis, normal_subgroups, quotient, sub_materialized,
)
from grpverify.smallgroup import MaterializedGroup
from test_autmorph import generated
from test_table import (
    GROUPS, compose_centralizer, compose_close, compose_commutator,
    compose_conj, compose_mul, composing, fresh,
)


def reference(generators, degree):
    """(perms, index, inverses, generators, breadth-first parents) of the
    group, multiplied by composing permutations."""
    ident = pm.identity(degree)
    gens = []
    for g in map(tuple, generators):
        if g != ident and g not in gens:
            gens.append(g)
    perms = [ident]
    index = {ident: 0}
    parent = [0]
    for qi, x in enumerate(perms):
        for g in gens:
            y = pm.compose(x, g)
            if y not in index:
                index[y] = len(perms)
                perms.append(y)
                parent.append(qi)
    inv = [index[pm.inverse(p)] for p in perms]
    return perms, index, inv, [index[g] for g in gens], parent


def assert_enumerated_as(M, generators, degree):
    perms, index, inv, gens, parent = reference(generators, degree)
    assert M.perms == perms
    assert M.index == index
    assert M._inv == inv
    assert M.gens == gens
    # y = parent[y] * gens[t] for (parent[y], t) = divmod(tree[y], k)
    k = len(gens)
    tree = [divmod(e, k or 1) for e in M._tree]
    assert [x for x, _ in tree] == parent
    assert all(index[pm.compose(perms[x], perms[gens[t]])] == y
               for y, (x, t) in enumerate(tree) if y)
    for g in gens:
        assert list(M._cols[g]) == \
            [index[pm.compose(p, perms[g])] for p in perms]


def sample_subgroups(M, rng, count=6):
    """Subgroups generated by seeded random elements (repeats and the
    identity included, as callers may pass them)."""
    out = []
    for _ in range(count):
        gens = tuple(rng.randrange(M.n) for _ in range(rng.randint(1, 3)))
        out.append(Sub(M.close(gens), gens))
    return out


@pytest.mark.parametrize("expr", GROUPS + [Sym(7)], ids=repr)
def test_enumerations_match_compose_path(expr):
    h = build(expr)
    M = MaterializedGroup(h.group.generators, h.degree)
    assert_enumerated_as(M, h.group.generators, h.degree)
    for sub in sample_subgroups(M, random.Random(M.n)):
        S = sub_materialized(M, sub)
        assert S.n == sub.order
        assert_enumerated_as(S, [M.perms[g] for g in sub.gens], M.degree)
    M.conjugacy_classes()
    assert [M.element_order(i) for i in range(M.n)] == \
        [pm.perm_order(p) for p in M.perms]


def test_generators_of_another_degree_are_refused():
    with pytest.raises(pm.DegreeError):
        MaterializedGroup([(1, 0), (0, 2, 1)], 2)


@pytest.mark.parametrize("expr", [ProjGL(23), Alt(8)], ids=repr)
def test_enumeration_above_threshold_matches_compose_path(expr):
    """Groups of order above 8192 keep their tree and generator columns
    like any other."""
    h = build(expr)
    M = MaterializedGroup(h.group.generators, h.degree)
    assert M.n > 8192
    assert_enumerated_as(M, h.group.generators, h.degree)


# sha256 of repr(perms) of the breadth-first enumeration from the built
# generators, as the enumeration that composes permutations listed them
PERMS_DIGESTS = {
    Sym(5): "84216821125c01b08b2117b176181ec90dd6e6ee0289bfe799bcf55e7702e868",
    SwapSq(Sym(4)):
        "9f8280771423dafae4949bce480be8d088b14b6aa70cabb4029b7e29dcd80372",
    WeylD(6): "489ba59d706e1505e142a1717baceb26685f55da1ef501981bb0107b3f1647af",
}


@pytest.mark.parametrize("expr", PERMS_DIGESTS, ids=repr)
def test_element_order_is_pinned(expr):
    M = fresh(expr)
    digest = hashlib.sha256(repr(M.perms).encode()).hexdigest()
    assert digest == PERMS_DIGESTS[expr]


@pytest.mark.parametrize("expr", [ElemAb(2, 4), Prod(Alt(5), Alt(5)),
                                  ProjGL(23)], ids=repr)
def test_inverses_found_in_pairs_are_inverses(expr):
    """Every element times its inverse, either way round, is the identity,
    by composing permutations; EA(2,4) is all involutions, and PGL(2,23)
    has 12144 elements, each product a walk down a tree word."""
    M = fresh(expr)
    assert all(M.mul(i, M.inv(i)) == 0 == M.mul(M.inv(i), i)
               for i in range(M.n))


def greedy_generators(every):
    """The generating subset of Aut(G) chosen by closing the sorted list of
    every automorphism."""
    gens = []
    closed = {tuple(range(len(every[0])))}
    for a in every:
        if a in closed:
            continue
        gens.append(a)
        queue = list(closed)
        for x in queue:
            for g in gens:
                y = pm.compose(x, g)
                if y not in closed:
                    closed.add(y)
                    queue.append(y)
        if len(closed) == len(every):
            break
    return gens


@pytest.mark.parametrize("expr", [Sym(4), Alt(5), ProjSL(7), ProjSL(9),
                                  MatGL(3)], ids=repr)
def test_aut_as_materialized_matches_compose_path(expr):
    aut = automorphism_group(fresh(expr))
    A = aut.as_materialized()
    assert A.n == aut.order
    # the group the generators generate, closed by composing
    every = generated(aut.gens, aut.base.n)
    assert len(every) == aut.order
    assert_enumerated_as(A, greedy_generators(every), aut.base.n)


# sha256 of repr((perms, gens)) of Aut(G).as_materialized() as the search
# that listed every automorphism built it
AUT_DIGESTS = {
    ProjSL(9): "f8ec04f84eee757cf98d302799aea8f447299d542db8d2271b81d9237fd61ac1",
    Sym(4): "c78da7fa622caf954a44b68fae9471bfb796f3c3dd5c8742444c4df5bfbd2875",
    Alt(5): "f524a788d5ad31a19183640443ea59c29412d2ef20bf1770d13955d8a9a4d76c",
}


@pytest.mark.parametrize("expr", AUT_DIGESTS, ids=repr)
def test_aut_as_materialized_is_pinned(expr):
    A = automorphism_group(fresh(expr)).as_materialized()
    assert A.index == {p: i for i, p in enumerate(A.perms)}
    digest = hashlib.sha256(repr((A.perms, A.gens)).encode()).hexdigest()
    assert digest == AUT_DIGESTS[expr]


@pytest.fixture
def compose_calls(monkeypatch):
    calls = []
    real = pm.compose

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(pm, "compose", counting)
    return calls


def test_known_products_compose_nothing(compose_calls):
    M = fresh(ProjSL(9))
    aut = automorphism_group(M)
    sub = Sub(M.close([5, 9]), (5, 9))
    L = fresh(ProjGL(23))
    compose_calls.clear()
    sub_materialized(M, sub)
    aut.as_materialized()
    assert compose_calls == []
    assert MaterializedGroup(M.perms[1:3], M.degree).n > 1
    assert compose_calls == []  # a permutation group steps by gathers
    L.mul(1, 2)
    assert compose_calls == []
    pm.compose(L.perms[1], L.perms[2])
    assert compose_calls  # the guard does count a composition


def readers(M, x, y):
    """What every reader of products returns on M, for elements x and y."""
    derived, gens = M.derived_subgroup()
    H = M.close([x, y])
    Q = quotient(M, Sub(derived, tuple(gens)))
    return (M.mul(x, y), M.conj(x, y), M.commutator(x, y),
            M.is_abelian_set([x, y]), M.is_normal_mask(derived, gens),
            H, M.gens_for_mask(H), M.conjugacy_classes(),
            M.normalizer(H, [x, y]), M.centralizer(M.gens),
            M.centralizer([x]), M.normal_closure([x]), (derived, gens),
            (Q.perms, Q.gens))


def test_readers_compose_nothing(compose_calls):
    """Every reader reads columns: it composes nothing, and returns what the
    compose oracle returns."""
    M = fresh(ProjGL(13))
    N = composing(ProjGL(13))
    compose_calls.clear()
    got = readers(M, 5, 9)
    assert compose_calls == []
    assert readers(N, 5, 9) == got
    assert compose_calls  # the guard does count the oracle's compositions


@pytest.mark.parametrize("expr", [ProjGL(23), Alt(8)], ids=repr)
def test_readers_compose_nothing_at_any_order(expr, compose_calls):
    """Groups of 12144 and 20160 elements read their products from
    columns as every group does: no reader composes."""
    M = fresh(expr)
    rng = random.Random(M.n)
    xs = [rng.randrange(M.n) for _ in range(6)]
    compose_calls.clear()
    M.mul(xs[0], xs[1])
    M.conj(xs[2], xs[3])
    M.close(xs[:2])
    M.conjugacy_classes()
    normal_subgroups(M)
    M.centralizer(xs[4:])
    j_analysis(M, 2)
    assert compose_calls == []
    pm.compose(M.perms[1], M.perms[2])
    assert compose_calls  # the guard does count a composition


def test_scoped_readers_above_threshold_match_compose_path():
    """On PGL2(F23), of order above 8192, centralizer, derived_subgroup and
    quotient agree with definitions written over compose_mul;
    derived_subgroup is the normal closure of the generators'
    commutators."""
    M = fresh(ProjGL(23))
    assert M.n > 8192
    assert M.centralizer([5]) == compose_centralizer(M, [5])
    derived, gens = M.derived_subgroup()
    assert derived.bit_count() == M.n // 2  # PSL2(F23) in PGL2(F23)
    # the least normal subgroup holding the commutators: normal, generated
    # by gens, and generated by every conjugate of the commutators
    assert compose_close(M, gens) == derived
    assert all(derived >> compose_conj(M, h, g) & 1
               for h in gens for g in M.gens)
    comms = {compose_commutator(M, a, b) for a in M.gens for b in M.gens}
    conjugates = sorted(comms - {0})
    seen = set(conjugates)
    for y in conjugates:  # conjugates grows while it is walked
        for g in M.gens:
            z = compose_conj(M, y, g)
            if z not in seen:
                seen.add(z)
                conjugates.append(z)
    assert all(derived >> z & 1 for z in seen)
    # <seen> lies in derived, and by Lagrange is derived once the identity's
    # closure under seen passes half of derived's order
    half = derived.bit_count() // 2
    elems = [0]
    closure = {0}
    for x in elems:  # elems grows while it is walked
        for z in seen:
            y = compose_mul(M, x, z)
            if y not in closure:
                closure.add(y)
                elems.append(y)
        if len(closure) > half:
            break
    assert len(closure) > half
    # the two cosets, each numbered by its least element
    reps = [0, next(x for x in range(M.n) if not derived >> x & 1)]
    coset = [0 if derived >> x & 1 else 1 for x in range(M.n)]
    action = [tuple(coset[compose_mul(M, r, g)] for r in reps)
              for g in M.gens]
    Q = quotient(M, Sub(derived, tuple(gens)))
    assert Q.perms == MaterializedGroup(action, 2).perms
