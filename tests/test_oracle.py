"""The engine against `sympy.combinatorics`, an independent oracle.

sympy and hypothesis are used by tests only; the engine is stdlib-only.
Hypothesis draws permutations of S6 and S7 from a fixed seed, with a
bounded number of examples, so the module runs in a few seconds.  The
conjugacy classes and element orders of seven catalog groups, the
orders of seeded random permutation groups of degree at most 8, and the
normal closures of PGL2(F23)'s class representatives are checked against
sympy's too.
"""

import functools

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from grpverify.construct import (  # noqa: E402
    Alt, MatGL, ProjGL, ProjSL, SwapSq, Sym, WeylD, build, to_src,
)
from grpverify.perm import PermGroup  # noqa: E402
from grpverify.smallgroup import materialize  # noqa: E402
from test_perm import random_generator_sets  # noqa: E402
from test_table import compose_close, compose_conj, composing  # noqa: E402


def moving(n):
    """A permutation of range(n) that moves only a drawn set of points, so
    that small subgroups are drawn as often as S_n and A_n."""
    return st.lists(st.integers(0, n - 1), min_size=2, unique=True).flatmap(
        lambda pts: st.permutations(pts).map(
            lambda img: tuple(dict(zip(pts, img)).get(i, i)
                              for i in range(n))))


def three_permutations(n):
    return st.tuples(st.just(n), moving(n), moving(n), moving(n))


@functools.cache
def symmetric(n):
    """S_n with its columns, and S_n on the compose oracle."""
    return build(Sym(n)).materialized(), composing(Sym(n))


def sympy_group(perms):
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p)) for p in perms])


def sympy_order(perms):
    return sympy_group(perms).order()


def sympy_normal_closure_order(M, seed):
    """The order of sympy's normal closure of the seed elements in M."""
    if not seed:
        return 1
    G = sympy_group(M.perms[g] for g in M.gens)
    return G.normal_closure(sympy_group(M.perms[x] for x in seed)).order()


def compose_normal_closure(M, seed):
    """The compose oracle's mask of the subgroup generated by every
    conjugate of the seed elements, the conjugates walked by M's
    generators."""
    conjugates = sorted(set(seed) - {0})
    seen = set(conjugates)
    for y in conjugates:  # conjugates grows while it is walked
        for g in M.gens:
            z = compose_conj(M, y, g)
            if z not in seen:
                seen.add(z)
                conjugates.append(z)
    return compose_close(M, conjugates)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(st.sampled_from([6, 7]).flatmap(three_permutations))
def test_extender_order_matches_sympy(case):
    """|<H, g>| from extender equals sympy's order, for H = <a> and g = b,
    and for H = <a, b> and a third element g."""
    n, *perms = case
    groups = symmetric(n)
    a, b, g = (groups[0].index[tuple(p)] for p in perms)
    want = [sympy_order(perms[:2]), sympy_order(perms)]
    for M in groups:
        got = []
        for gens, x in (([a], b), ([a, b], g)):
            H = M.close(gens)
            ext = M.extender(H, gens)(x)
            assert H & ~ext == 0 and ext >> x & 1
            got.append(ext.bit_count())
        assert got == want


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(st.sampled_from([6, 7]).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(moving(n), max_size=2))))
def test_normal_closure_matches_sympy(case):
    """The normal closure of up to two drawn elements has sympy's order, on
    the columns and on the compose oracle alike; in S6 its mask is the
    compose oracle's closure of every conjugate of the seed."""
    n, perms = case
    M, N = symmetric(n)
    seed = [M.index[tuple(p)] for p in perms]
    mask = M.normal_closure(seed)
    assert mask.bit_count() == sympy_normal_closure_order(M, seed)
    assert N.normal_closure(seed) == mask
    if n == 6:  # S7's larger classes make the oracle's closure too slow
        assert mask == compose_normal_closure(M, seed)


def test_normal_closures_of_classes_match_sympy():
    """On every class representative of PGL2(F23) and of S6, the normal
    closure has sympy's order; on S6 its mask is the compose oracle's."""
    for expr in (ProjGL(23), Sym(6)):
        M = materialize(build(expr).group)
        for cls in M.conjugacy_classes():
            mask = M.normal_closure(cls[:1])
            assert mask.bit_count() == sympy_normal_closure_order(
                M, cls[:1]), (expr, cls[0])
            if M.n <= 720:
                assert mask == compose_normal_closure(M, cls[:1])


@pytest.mark.parametrize("seed", [1, 2])
def test_schreier_sims_order_matches_sympy(seed):
    for gens, n in random_generator_sets(seed):
        assert PermGroup(gens, n).order() == sympy_order(gens), (gens, n)


CLASS_GROUPS = [Sym(5), ProjSL(7), MatGL(3), WeylD(4), ProjGL(7),
                SwapSq(Sym(3)), Alt(6)]


@pytest.mark.parametrize("expr", CLASS_GROUPS, ids=to_src)
@pytest.mark.parametrize("first", ["element_order", "conjugacy_classes"])
def test_classes_and_orders_match_sympy(expr, first):
    """The class sizes and element orders equal sympy's, whichever of
    element_order and conjugacy_classes a fresh group is asked first."""
    M = materialize(build(expr).group)
    if first == "element_order":
        orders = [M.element_order(i) for i in range(M.n)]
        classes = M.conjugacy_classes()
    else:
        classes = M.conjugacy_classes()
        orders = [M.element_order(i) for i in range(M.n)]
    perms = [combinatorics.Permutation(list(p)) for p in M.perms]
    assert orders == [p.order() for p in perms]
    G = combinatorics.PermutationGroup([perms[i] for i in M.gens])
    assert G.order() == M.n
    assert sorted(map(len, classes)) == sorted(
        len(c) for c in G.conjugacy_classes())
