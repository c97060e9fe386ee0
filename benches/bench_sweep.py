"""Micro-benchmarks of the subgroup sweeps, centralizers and j-analysis on
the groups of Lemma 3.8, of `all_subgroups` on abelian groups, and of the
conjugacy classes and normal lattices of those groups and of WD(6) and
(PGL2(F5) x PGL2(F5)):2.

    PYTHONPATH=src python -m pytest benches/bench_sweep.py

These are pytest-benchmark timings of one layer each, outside the test
suite's `testpaths`.  Every round works on a freshly enumerated group, so
no memo or table column carries over from the round before.
"""

import functools

import pytest

from grpverify.claims import MU24A5, MU33S4, WD5SEMI
from grpverify.construct import (
    Cyc, ElemAb, Hsl23, Prod, ProjGL, SwapSq, Sym, WeylD, build,
)
from grpverify.lattice import (
    all_subgroups,
    j_analysis,
    normal_subgroups,
    sub_materialized,
    subgroup_classes,
)
from grpverify.smallgroup import MaterializedGroup

# Lemma 3.8 (ii)-(vi)
GROUPS = {"mu2^4:S5": WD5SEMI, "mu2^4:A5": MU24A5, "S6": Sym(6),
          "H3:SL2(F3)": Hsl23(), "mu3^3:S4": MU33S4}
# orders 23040 and 28800: their normal lattices, each a group of its own
LARGE = {"WD(6)": WeylD(6), "swapsq(PGL(2,5))": SwapSq(ProjGL(5))}
# abelian: every subgroup is its own class, and every N(H) is G, central
ABELIAN = {"EA(2,5)": ElemAb(2, 5), "C4xC6": Prod(Cyc(4), Cyc(6))}
EXTENSIONS = 64  # elements g each class representative is extended by


def fresh(expr):
    h = build(expr)
    return MaterializedGroup(h.group.generators, h.degree)


@functools.cache
def classes_of(name):
    return subgroup_classes(fresh(GROUPS[name]))


@pytest.fixture(scope="module", params=GROUPS)
def swept(request):
    """The group and its subgroup-class representatives."""
    return GROUPS[request.param], classes_of(request.param)


def test_subgroup_classes(benchmark, swept):
    expr, _ = swept
    benchmark.pedantic(subgroup_classes, setup=lambda: ((fresh(expr),), {}),
                       rounds=3)


def test_extender(benchmark, swept):
    """<H, g> for every representative H and EXTENSIONS elements g."""
    expr, classes = swept

    def extend_all(M):
        step = max(1, M.n // EXTENSIONS)
        for sub in classes:
            extend = M.extender(sub.mask, sub.gens)
            for g in range(0, M.n, step):
                extend(g)

    benchmark.pedantic(extend_all, setup=lambda: ((fresh(expr),), {}),
                       rounds=3)


def test_all_subgroups(benchmark, swept):
    """Every subgroup: the classes, each expanded by its conjugation orbit."""
    expr, _ = swept
    benchmark.pedantic(all_subgroups, setup=lambda: ((fresh(expr),), {}),
                       rounds=3)


@pytest.mark.parametrize("expr", ABELIAN.values(), ids=ABELIAN)
def test_all_subgroups_abelian(benchmark, expr):
    benchmark.pedantic(all_subgroups, setup=lambda: ((fresh(expr),), {}),
                       rounds=3)


def test_normalizer(benchmark, swept):
    """N(H) of every representative, by orbit-stabilizer from H's orbit."""
    expr, classes = swept

    def normalize_all(M):
        for sub in classes:
            M.normalizer(sub.mask, sub.gens)

    benchmark.pedantic(normalize_all, setup=lambda: ((fresh(expr),), {}),
                       rounds=3)


def test_centralizers(benchmark, swept):
    """C(H) of every representative, one conjugation map per generator."""
    expr, classes = swept

    def centralize_all(M):
        for sub in classes:
            M.centralizer(sub.gens)

    benchmark.pedantic(centralize_all, setup=lambda: ((fresh(expr),), {}),
                       rounds=3)


@pytest.mark.parametrize("name", [*GROUPS, *LARGE])
def test_conjugacy_classes(benchmark, name):
    """The generators' conjugation maps and their orbits, on a group
    enumerated afresh."""
    expr = {**GROUPS, **LARGE}[name]
    benchmark.pedantic(MaterializedGroup.conjugacy_classes,
                       setup=lambda: ((fresh(expr),), {}), rounds=3)


def representatives(expr, classes):
    """pytest-benchmark set-up: every representative as a group of its own,
    enumerated afresh, as the Lemma 3.8 sweeps take it for j-analysis."""
    M = fresh(expr)
    return ([sub_materialized(M, s) for s in classes],), {}


@pytest.mark.parametrize("name", [*GROUPS, *LARGE])
def test_normal_subgroups(benchmark, name):
    """The normal lattice of every representative of a Lemma 3.8 group, or
    of a whole group of LARGE, enumerated afresh."""
    if name in LARGE:
        def setup():
            return ([fresh(LARGE[name])],), {}
    else:
        def setup():
            return representatives(GROUPS[name], classes_of(name))

    def lattices(subs):
        for S in subs:
            normal_subgroups(S)

    benchmark.pedantic(lattices, setup=setup, rounds=3)


def test_j_analysis(benchmark, swept):
    """j-analysis at p = 2, 3, 5, 7 of every representative."""
    expr, classes = swept

    def analyses(subs):
        for S in subs:
            for p in (2, 3, 5, 7):
                j_analysis(S, p)

    benchmark.pedantic(analyses, setup=lambda: representatives(expr, classes),
                       rounds=3)
