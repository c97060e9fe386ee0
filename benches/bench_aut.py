"""Micro-benchmarks of the automorphism search and of what is read from
its result: the full listing of Aut(G) and the stabilizer of a subgroup.

    PYTHONPATH=src python -m pytest benches/bench_aut.py

These are pytest-benchmark timings of one layer each, outside the test
suite's `testpaths`.  Every round works on a freshly enumerated group, so
no memo or table column carries over from the round before.
"""

import pytest

from grpverify.autmorph import automorphism_group
from grpverify.construct import Alt, ElemAb, ProjGL, ProjSL, build
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


def test_preserving(benchmark):
    """Generators of the stabilizer of V4 in Aut(A4), as EXT-6.1 reads it."""

    def setup():
        (aut,), _ = searched(Alt(4))
        v4, _ = aut.base.derived_subgroup()
        return (aut, v4), {}

    benchmark.pedantic(lambda aut, v4: aut.preserving(v4), setup=setup,
                       rounds=3)
