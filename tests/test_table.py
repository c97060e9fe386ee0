"""Every reader of the products against definitions built on `compose_mul`.

A product i*j is read from the column of j, which every group gathers
from its generators' columns along j's breadth-first tree word and keeps
up to `COLUMN_BUDGET`, or by `right(j)`, which walks that word over a set
of elements alone.  The tests keep an independent slow path: `composing`
makes a group whose `column` and `right` compose the two permutation
tuples on each read.  Both are compared here with
`compose_mul`, which composes the two permutation tuples itself, and with
closures, centralizers, normalizers and maps written from their
definitions over it, on seeded samples of elements and generating sets.
"""

import random
import re

import pytest

from grpverify import perm as pm
from grpverify import smallgroup
from grpverify.claims import (
    CD_CORPUS,
    EXT_6_6_INSTANCES,
    MU24A5,
    _hypothesis_6_6,
    normal_part,
)
from grpverify.construct import (
    H3,
    PSL32,
    Alt,
    Cyc,
    Hess,
    Hsl23,
    MatGL,
    MatSL,
    ProjGL,
    ProjSL,
    Prod,
    SwapSq,
    Sym,
    WeylD,
    build,
)
from grpverify.autmorph import (
    automorphism_group,
    chermak_delgado,
    generating_sequence,
)
from grpverify.lattice import (
    Sub,
    all_subgroups,
    j_analysis,
    normal_abelian_subgroups,
    normal_subgroups,
    subgroup_classes,
)
from grpverify.smallgroup import (
    COLUMN_BUDGET,
    CapExceeded,
    Caps,
    MaterializedGroup,
    bits,
    caps_scope,
    materialize,
)
from test_construct import CATALOG

# the catalog groups whose comparisons with the compose oracle stay short
GROUPS = [e for e, order in CATALOG if order <= 8192]
GROUPS += [e for e in CD_CORPUS if e not in GROUPS]
GROUPS += [Hess(), Hsl23(), ProjGL(13), SwapSq(Alt(5))]


def compose_mul(M, i, j):
    return M.index[pm.compose(M.perms[i], M.perms[j])]


def compose_conj(M, i, g):
    return compose_mul(M, compose_mul(M, M.inv(g), i), g)


def compose_commutator(M, i, j):
    return compose_mul(M, compose_mul(M, M.inv(i), M.inv(j)),
                       compose_mul(M, i, j))


def compose_close(M, gens):
    """Mask of <gens>: the closure of the identity under right products."""
    elems = [0]
    seen = {0}
    for x in elems:  # elems grows while it is walked
        for g in gens:
            y = compose_mul(M, x, g)
            if y not in seen:
                seen.add(y)
                elems.append(y)
    return sum(1 << x for x in seen)


def compose_centralizer(M, targets):
    """Mask of {x : x t = t x for every target t}."""
    return sum(1 << x for x in range(M.n)
               if all(compose_mul(M, x, t) == compose_mul(M, t, x)
                      for t in targets))


def compose_normalizer(M, gens):
    """Mask of {x : x^-1 h x in H for every generator h of H = <gens>}."""
    H = compose_close(M, gens)
    return sum(1 << x for x in range(M.n)
               if all(H >> compose_conj(M, h, x) & 1 for h in gens))


def fresh(expr):
    h = build(expr)
    return MaterializedGroup(h.group.generators, h.degree)


class ComposedColumn:
    """col[i] = i*j, composed on each read and stored nowhere."""

    def __init__(self, M, j):
        self.index = M.index
        self.perms = M.perms
        self.p = M.perms[j]

    def __getitem__(self, i):
        return self.index[pm.compose(self.perms[i], self.p)]

    def __iter__(self):
        return map(self.__getitem__, range(len(self.perms)))


class Composing(MaterializedGroup):
    """The compose oracle: every column and product composes permutations,
    so every reader written over `column` and `right` reads no stored
    column."""

    def column(self, j):
        return ComposedColumn(self, j)

    def right(self, j):
        return lambda xs: tuple(compose_mul(self, x, j) for x in xs)


def composing(expr):
    """A fresh group of expr on the compose oracle."""
    N = fresh(expr)
    N.__class__ = Composing
    return N


def sample_sets(M, rng, count, size):
    return [[rng.randrange(M.n) for _ in range(rng.randint(1, size))]
            for _ in range(count)]


@pytest.mark.parametrize("expr", GROUPS, ids=repr)
def test_table_matches_compose_path(expr):
    M = build(expr).materialized()
    rng = random.Random(M.n)
    pairs = [(rng.randrange(M.n), rng.randrange(M.n)) for _ in range(200)]
    gen_sets = sample_sets(M, rng, 6, 3)
    a, b = gen_sets[0][0], gen_sets[1][0]
    # the identity, a repeat, and no element at all
    gen_sets += [[0], [0, a], [a, a], [a, b, a], []]
    every = range(M.n)
    closes = [compose_close(M, s) for s in gen_sets]
    cents = [compose_centralizer(M, s) for s in gen_sets]
    norms = [compose_normalizer(M, s) for s in gen_sets]
    for G in (M, composing(expr)):
        for i, j in pairs:
            assert G.mul(i, j) == compose_mul(M, i, j)
            assert G.conj(i, j) == compose_conj(M, i, j)
            assert G.commutator(i, j) == compose_commutator(M, i, j)
        for _, j in pairs[:5]:
            col = G.column(j)
            assert [col[i] for i in every] == \
                [compose_mul(M, i, j) for i in every]
            assert G.conj_map(j) == [compose_conj(M, i, j) for i in every]
        assert [G.close(s) for s in gen_sets] == closes
        assert [G.centralizer(s) for s in gen_sets] == cents
        for s, want in zip(gen_sets, norms):
            mask, gens = G.normalizer(G.close(s), s)
            assert mask == want
            assert G.close(gens) == mask


@pytest.mark.parametrize("expr", [ProjGL(23), Alt(8)], ids=repr)
def test_right_and_commute_match_compose_path(expr):
    """`right(j)` gives x*j for each x of a set, for j whose column is held
    and j whose column is not, and builds no column; `mul`, `conj` and
    `commutator` agree with their compose definitions on held and unheld
    arguments and build none either; `commute` agrees with compose_mul on
    every pair, empty sets included.  Neither group's columns all fit
    `COLUMN_BUDGET`."""
    M = fresh(expr)
    n = M.n
    assert n > M._most
    rng = random.Random(n)
    built = rng.randrange(1, n)
    M.column(built)
    held = [0, *M.gens, built]
    unheld = [j for j in rng.sample(range(1, n), 8) if j not in M._cols]
    assert unheld
    sets = [(), (rng.randrange(n),), tuple(rng.sample(range(n), 40)),
            [rng.randrange(n) for _ in range(40)]]  # repeats, as a list
    before = stored(M)
    for j in held + unheld:
        times = M.right(j)
        for xs in sets:
            assert times(xs) == tuple(compose_mul(M, x, j) for x in xs)
    assert stored(M) == before
    for i in held + unheld:
        for j in held + unheld:
            assert M.mul(i, j) == compose_mul(M, i, j)
            assert M.conj(i, j) == compose_conj(M, i, j)
            assert M.commutator(i, j) == compose_commutator(M, i, j)
    assert stored(M) == before

    def commutes(xs, ys):
        return all(compose_mul(M, x, y) == compose_mul(M, y, x)
                   for x in xs for y in ys)

    z = next(bits(M.center() & ~1), 0)  # central, or the identity
    c = rng.choice(M.conjugacy_classes()[1:])
    pairs = [((), ()), ((), (1, 2)), ((1, 2), ()), ((0, z), held + unheld),
             (c, c[:1]), (c[:1], c), (held, unheld), (unheld[:1], unheld),
             (sets[2][:5], sets[3][:5])]
    before = stored(M)
    for xs, ys in pairs:
        assert M.commute(xs, ys) == commutes(xs, ys), (xs, ys)
    assert stored(M) == before
    assert not all(M.commute(xs, ys) for xs, ys in pairs)


def compose_greedy(M, cands, order):
    """Each candidate in turn outside the `compose_close` of those taken
    is taken, until that closure has the order: (taken, the closure's
    order after each)."""
    gens, spans = [], []
    mask = 1
    for c in cands:
        if mask.bit_count() == order:
            break
        if not mask >> c & 1:
            gens.append(c)
            mask = compose_close(M, gens)
            spans.append(mask.bit_count())
    return gens, spans


@pytest.mark.parametrize("expr", [Sym(6), H3(), MatGL(3), PSL32(), WeylD(5),
                                  ProjGL(23)], ids=repr)
def test_generating_sets_match_the_compose_greedy(expr):
    """`gens_for_mask` on seeded subgroups, and `generating_sequence`,
    give the generators of the greedy over `compose_close`: the elements
    of the subgroup ascending, and of G by descending order, each taken
    when it lies outside the span of those before it."""
    M = fresh(expr)
    rng = random.Random(M.n)
    masks = [compose_close(M, s) for s in sample_sets(M, rng, 10, 3)]
    grown = 0
    for mask in masks:
        want, _ = compose_greedy(M, bits(mask), mask.bit_count())
        assert M.gens_for_mask(mask) == want
        grown += len(want) > 1
    assert grown
    order = [pm.perm_order(p) for p in M.perms]
    cands = sorted(range(1, M.n), key=lambda i: (-order[i], i))
    assert generating_sequence(M) == compose_greedy(M, cands, M.n)


def compose_hypothesis_6_6(M, fmask, p):
    """Lemma 6.6's hypothesis from its definition: for every lambda in F of
    order prime to p and every alpha with lambda^alpha in <lambda>,
    alpha^2 commutes with lambda."""
    for lam in bits(fmask):
        if pm.perm_order(M.perms[lam]) % p == 0:
            continue
        cyc = compose_close(M, [lam])
        for alpha in range(M.n):
            if cyc >> compose_conj(M, lam, alpha) & 1:
                sq = compose_mul(M, alpha, alpha)
                if compose_mul(M, lam, sq) != compose_mul(M, sq, lam):
                    return False
    return True


@pytest.mark.parametrize("f_expr, c_expr, p", [
    *((f, c, p) for _, f, c, p in EXT_6_6_INSTANCES),
    (Sym(5), Cyc(1), 2), (Sym(4), Cyc(2), 3)], ids=repr)
def test_hypothesis_6_6_matches_its_definition(f_expr, c_expr, p):
    """The claims' check, which reads the alphas as N(<lambda>), against a
    scan of every alpha; in S5 a 5-cycle's normalizer has elements of order
    4, whose squares invert it, so there the hypothesis fails."""
    M, fsub = normal_part(build(Prod(f_expr, c_expr)))
    want = compose_hypothesis_6_6(M, fsub.mask, p)
    assert _hypothesis_6_6(M, fsub, p) == want
    assert want == (f_expr != Sym(5))


EXTENDED = [Sym(4), MatSL(3), Alt(5), ProjGL(7)]


@pytest.mark.parametrize("expr", EXTENDED, ids=repr)
def test_extender_matches_compose_closure(expr, monkeypatch):
    """extender(H)(g) == <H, g> for every class representative H, every g;
    no coset walk holds more than n/2 elements, and one that stops would
    pass n/2 with one more coset."""
    M = build(expr).materialized()
    full = M.full_mask
    subs = [(compose_close(M, s.gens), s.gens) for s in subgroup_classes(M)]
    # compose_close, with the products x*s tabulated once by compose_mul
    right = [[compose_mul(M, x, s) for x in range(M.n)] for s in range(M.n)]
    want = {}
    for mask, gens in subs:
        for g in range(M.n):
            steps = [right[s] for s in (*gens, g)]
            elems = [0]
            seen = {0}
            for x in elems:  # elems grows while it is walked
                for c in steps:
                    y = c[x]
                    if y not in seen:
                        seen.add(y)
                        elems.append(y)
            want[mask, g] = sum(1 << x for x in seen)
    assert (1, ()) in subs
    assert any(mask >> g & 1 and mask != 1 for mask, g in want)
    # <H, g> = G with H != G: the walk passes n/2 and stops there
    assert any(mask != full and want[mask, g] == full for mask, g in want)
    assert any(1 < want[mask, g].bit_count() < M.n and mask != want[mask, g]
               for mask, g in want)
    walk = smallgroup.walk_cosets
    held = []  # (elements held, |H|, whether the walk ran to its end)

    def spy(cosets, steps, seen, most):
        done = walk(cosets, steps, seen, most)
        held.append((sum(map(len, cosets)), len(cosets[0]), done))
        return done

    monkeypatch.setattr(smallgroup, "walk_cosets", spy)
    for G in (M, composing(expr)):
        for mask, gens in subs:
            extend = G.extender(mask, gens)
            assert [extend(g) for g in range(M.n)] == \
                [want[mask, g] for g in range(M.n)]
    assert any(not done for _, _, done in held)
    for size, order, done in held:
        assert 2 * size <= M.n
        assert done or 2 * (size + order) > M.n


def test_extender_comparison_reaches_index_two_and_three():
    """Below a subgroup of index 2 or 3 one coset fits under n/2: the
    comparison above meets the walk's stop at its boundary there."""
    index = set()
    for expr in EXTENDED:
        M = build(expr).materialized()
        index.update(M.n // s.order for s in subgroup_classes(M))
    assert {2, 3} <= index


@pytest.mark.parametrize("expr", [Sym(4), MatSL(3), Alt(5)], ids=repr)
def test_extender_reads_only_generator_columns(expr, monkeypatch):
    """extender(H, gens)(g) asks for no column but those of gens and g:
    each coset is gathered over a generator's column."""
    M = build(expr).materialized()
    subs = subgroup_classes(M)
    asked = []
    column = MaterializedGroup.column

    def spy(self, j):
        asked.append(j)
        return column(self, j)

    monkeypatch.setattr(MaterializedGroup, "column", spy)
    for sub in subs:
        asked.clear()
        extend = M.extender(sub.mask, sub.gens)
        assert set(asked) <= set(sub.gens)
        for g in range(M.n):
            asked.clear()
            extend(g)
            assert set(asked) <= {*sub.gens, g}
    assert any(len(sub.gens) > 1 for sub in subs)


def counting(monkeypatch, name):
    """Calls to MaterializedGroup.<name>, recorded by group."""
    calls = []
    real = getattr(MaterializedGroup, name)

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(MaterializedGroup, name, counted)
    return calls


def test_cached_query_builds_no_column(monkeypatch):
    M = fresh(Sym(4))
    columns = counting(monkeypatch, "column")
    first = subgroup_classes(M)
    assert columns
    columns.clear()
    assert subgroup_classes(M) is first
    assert columns == []


@pytest.mark.parametrize("query, field, message", [
    (normal_subgroups, "max_order", "order 24 exceeds normal-lattice cap 23"),
    (normal_abelian_subgroups, "max_order",
     "order 24 exceeds normal-lattice cap 23"),
    (all_subgroups, "max_subgroup_order",
     "order 24 exceeds subgroup-sweep cap 23"),
    (subgroup_classes, "max_subgroup_order",
     "order 24 exceeds subgroup-sweep cap 23"),
    (automorphism_group, "max_aut_order",
     "order 24 exceeds automorphism cap 23"),
    (chermak_delgado, "max_subgroup_order",
     "order 24 exceeds subgroup-sweep cap 23"),
], ids=["normal_subgroups", "normal_abelian_subgroups", "all_subgroups",
         "subgroup_classes", "automorphism_group", "chermak_delgado"])
def test_cached_query_checks_its_cap_on_every_call(query, field, message):
    M = fresh(Sym(4))
    first = query(M)
    # memo hits are refused too: the active cap is read on every call
    with caps_scope(Caps(**{field: 23})):
        with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
            query(M)
    with caps_scope(Caps(**{field: 24})):
        assert query(M) is first


def test_columns_past_the_budget_go_oldest_first():
    """A group keeps the columns it builds up to COLUMN_BUDGET bytes besides
    its identity's and generators'; past it the oldest kept goes.  Every
    column served equals compose_mul, before and after an eviction, `mul`
    builds no column, and `close` and the normal lattice read them."""
    M = fresh(ProjGL(23))
    n = M.n
    pinned = {0, *M.gens}
    width = M.column(M.gens[0]).itemsize * n  # bytes per column
    room = COLUMN_BUDGET // width
    rng = random.Random(n)
    rows = rng.sample(range(n), 32)
    evicted = []
    for j in rng.sample(range(1, n), 2 * room):
        before = [y for y in M._cols if y not in pinned]
        col = M.column(j)
        assert [col[i] for i in rows] == [compose_mul(M, i, j) for i in rows]
        held = [y for y in M._cols if y not in pinned]
        assert len(held) * width <= COLUMN_BUDGET
        assert pinned <= M._cols.keys()
        gone = [y for y in before if y not in held]
        assert gone == before[:len(gone)]  # the oldest go first
        evicted += gone
    assert len(evicted) > room
    for j in evicted[:3]:  # served again after its eviction
        col = M.column(j)
        assert list(col) == [compose_mul(M, i, j) for i in range(n)]
    kept = list(M._cols)
    pairs = [(rng.randrange(n), j) for j in evicted[-100:]]
    assert [M.mul(i, j) for i, j in pairs] == \
        [compose_mul(M, i, j) for i, j in pairs]
    assert list(M._cols) == kept
    gen_sets = [[rng.randrange(n)] for _ in range(4)] \
        + sample_sets(M, rng, 2, 3)
    closes = [compose_close(M, s) for s in gen_sets]
    assert any(c != M.full_mask for c in closes)
    assert [M.close(s) for s in gen_sets] == closes
    subs = normal_subgroups(M)
    assert sorted(s.order for s in subs) == [1, n // 2, n]


def test_a_group_above_65536_elements_takes_32_bit_columns():
    """Past 65536 elements an index no longer fits 16 bits: the generators'
    columns, gathered columns and conjugation maps take 32 bits, and read
    the products perm.compose gives."""
    with caps_scope(Caps(max_order=200000)):
        M = materialize(build(Alt(9)).group)
    n = M.n
    assert n == 181440
    rng = random.Random(n)
    deep = list(range(n - 20, n))  # the last found, past 65535
    for j in [*M.gens, *deep[:2]]:
        col = M.column(j)
        assert col.typecode == "I"
        rows = rng.sample(range(n), 64) + [n - 1]
        assert [col[i] for i in rows] == [compose_mul(M, i, j) for i in rows]
    pairs = [(rng.randrange(n), j) for j in deep] + [(n - 1, n - 2)]
    assert [M.mul(i, j) for i, j in pairs] == \
        [compose_mul(M, i, j) for i, j in pairs]
    assert [M.conj(i, g) for i, g in pairs[:4]] == \
        [compose_conj(M, i, g) for i, g in pairs[:4]]
    assert {m.typecode for m in M.conj_maps()} == {"I"}


@pytest.mark.parametrize("expr", [Alt(5), ProjGL(23)], ids=repr)
def test_arithmetic_is_never_an_instance_attribute(expr):
    M = fresh(expr)
    methods = {"mul", "conj", "commutator"}
    assert not methods & vars(M).keys()
    assert (M.mul(5, 7), M.conj(5, 7), M.commutator(5, 7)) == \
        (compose_mul(M, 5, 7), compose_conj(M, 5, 7),
         compose_commutator(M, 5, 7))
    assert not methods & vars(M).keys()


QUERIES = {
    "subgroup_classes": lambda M: [(s.mask, s.gens) for s in subgroup_classes(M)],
    "all_subgroups": lambda M: [(s.mask, s.gens) for s in all_subgroups(M)],
    "normal_subgroups": lambda M: [(s.mask, s.gens)
                                   for s in normal_subgroups(M)],
    "normal_abelian_subgroups": lambda M: [
        (s.mask, s.gens) for s in normal_abelian_subgroups(M)],
    "automorphism_group": lambda M: (automorphism_group(M).order,
                                     automorphism_group(M).gens),
    "chermak_delgado": chermak_delgado,
}


def test_only_the_columns_used_are_built(monkeypatch):
    # with room for every column built, none is evicted
    monkeypatch.setattr(smallgroup, "COLUMN_BUDGET", 1 << 30)
    M = fresh(SwapSq(Alt(5)))
    n = M.n
    k = len(M.gens)
    rng = random.Random(n)

    def built():
        return set(M._cols) - {0}

    # the generators' columns come with the enumeration
    assert built() == set(M.gens)
    used = set()
    for _ in range(40):
        j = rng.randrange(n)
        held = built()
        M.mul(rng.randrange(n), j)  # a walk down j's tree word builds none
        assert built() == held
        M.column(j)
        used.add(j)
    # a column is built from its parent's in the breadth-first tree
    want = set(M.gens)
    for j in used:
        while j and j not in want:
            want.add(j)
            j = M._tree[j] // k
    assert built() == want
    for j in sorted(want):
        assert list(M._cols[j]) == [compose_mul(M, i, j) for i in range(n)]


def stored(M):
    """The elements whose column the group holds."""
    return set(M._cols)


@pytest.mark.parametrize("expr", [Sym(6), MU24A5], ids=repr)
def test_all_subgroups_builds_no_column(expr):
    """Each conjugate's generators are carried along the orbit walk by the
    generators' conjugation maps: no transversal element's column."""
    M = fresh(expr)
    subgroup_classes(M)
    M.conj_maps()
    held = stored(M)
    all_subgroups(M)
    assert stored(M) == held


def test_as_materialized_builds_no_column():
    """The inner automorphisms are carried along each orbit walk by the
    generators' conjugation maps: no transversal element's column."""
    M = fresh(ProjSL(9))
    aut = automorphism_group(M)
    M.conj_maps()
    held = stored(M)
    aut.as_materialized()
    assert stored(M) == held


def test_sharpness_witness_queries_match_compose_path():
    # SHARP-A5A5: (A5 x A5):2, order 7200, with and without its table
    M = fresh(SwapSq(Alt(5)))
    N = composing(SwapSq(Alt(5)))
    assert M.n == 7200
    assert QUERIES["normal_subgroups"](M) == QUERIES["normal_subgroups"](N)
    for p in (7, 11):
        a, b = j_analysis(M, p), j_analysis(N, p)
        assert (a.min_index, a.witness, a.j_ratio) == \
            (b.min_index, b.witness, b.j_ratio) == (7200, Sub(1, ()), 7200)


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("expr", [SwapSq(Sym(3)), Sym(4), ProjGL(5)], ids=repr)
def test_heavy_queries_match_compose_path(expr, query):
    assert QUERIES[query](fresh(expr)) == QUERIES[query](composing(expr))
