"""Micro-benchmarks of the automorphism search and of what is read from
its result: the full listing of Aut(G) and the stabilizer of a subgroup;
of the isomorphism search, and of a centralizer read on a fresh group.

    PYTHONPATH=src python -m pytest benches/bench_aut.py

These are pytest-benchmark timings of one layer each, outside the test
suite's `testpaths`.  Every round works on a freshly enumerated group, so
no memo or table column carries over from the round before.
"""

import functools

import pytest

from grpverify.autmorph import automorphism_group, find_isomorphism
from grpverify.construct import Alt, ElemAb, ProjGL, ProjSL, build
from grpverify.lattice import normal_subgroups, sub_materialized
from grpverify.smallgroup import MaterializedGroup

# COR-4.5 and PROP-4.4 read these orders; abelian EA(2,3) has one class
# per element, so the search there finds every automorphism itself
SEARCHED = {"PGL2(F9)": ProjGL(9), "PSL2(F9)": ProjSL(9),
            "EA(2,3)": ElemAb(2, 3)}


def fresh(expr):
    h = build(expr)
    return MaterializedGroup(h.group.generators, h.degree)


@pytest.mark.parametrize("expr", SEARCHED.values(), ids=SEARCHED)
def test_automorphism_group(benchmark, expr):
    benchmark.pedantic(automorphism_group, setup=lambda: ((fresh(expr),), {}),
                       rounds=3)


def searched(expr):
    """pytest-benchmark set-up: Aut(G) of a freshly enumerated group."""
    return (automorphism_group(fresh(expr)),), {}


def test_as_materialized(benchmark):
    """Every automorphism of PSL2(F9) listed and enumerated as a group, as
    PROP-4.4-STRUCT and THM-4.2-OUT read it."""
    benchmark.pedantic(lambda aut: aut.as_materialized(),
                       setup=lambda: searched(ProjSL(9)), rounds=3)


# V4 is characteristic in A4, an Aut-orbit of one point, as EXT-6.1 reads
# it; a Sylow 2-subgroup of PSL2(F7) has 21 images, so the orbit walk and
# its Schreier elements run
PRESERVED = {"V4<A4": (Alt(4), lambda M: M.derived_subgroup()[0]),
             "Syl2<PSL2(F7)": (ProjSL(7), lambda M: M.sylow_subgroup(2)[0])}


@pytest.mark.parametrize("case", PRESERVED.values(), ids=PRESERVED)
def test_preserving(benchmark, case):
    """Generators of the stabilizer of a subgroup in Aut(G)."""
    expr, subgroup = case

    def setup():
        (aut,), _ = searched(expr)
        return (aut, subgroup(aut.base)), {}

    benchmark.pedantic(lambda aut, mask: aut.preserving(mask), setup=setup,
                       rounds=3)


@functools.cache
def pgl_in_aut_psl():
    """Aut(PSL2(F9)) listed as a group, and its index-2 subgroup that is
    PGL2(F9), as PROP-4.4-STRUCT tells its three index-2 subgroups apart."""
    autm = automorphism_group(fresh(ProjSL(9))).as_materialized()
    for sub in normal_subgroups(autm):
        if sub.order == 720 and find_isomorphism(
                sub_materialized(autm, sub), fresh(ProjGL(9))) is not None:
            return autm, sub
    raise AssertionError("no index-2 subgroup of Aut(PSL2(F9)) is PGL2(F9)")


def test_find_isomorphism(benchmark):
    """PROP-4.4-STRUCT's index-2 subgroup of Aut(PSL2(F9)) against
    PGL2(F9): the product screen rejects most candidates here."""

    def setup():
        autm, sub = pgl_in_aut_psl()
        return (sub_materialized(autm, sub), fresh(ProjGL(9))), {}

    benchmark.pedantic(find_isomorphism, setup=setup, rounds=3)


def test_centralizer_of_fresh_group(benchmark):
    """centralizer(G's generators) of a freshly enumerated PGL2(F13): it
    builds the columns its conjugation maps read, beside the generators'
    columns the enumeration left."""
    benchmark.pedantic(lambda M: M.centralizer(M.gens),
                       setup=lambda: ((fresh(ProjGL(13)),), {}), rounds=5)
