"""The engine against `sympy.combinatorics`, an independent oracle.

sympy and hypothesis are used by tests only; the engine is stdlib-only.
Hypothesis draws permutations of S6 and S7 from a fixed seed, with a
bounded number of examples, so the module runs in a few seconds.  The
conjugacy classes and element orders of seven catalog groups, and the
orders of seeded random permutation groups of degree at most 8, are
checked against sympy's too.
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
from test_table import composing  # noqa: E402


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


def sympy_order(perms):
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p)) for p in perms]).order()


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
