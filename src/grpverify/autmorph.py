"""Automorphism groups, characteristic tests, and the Chermak-Delgado subgroup.

Automorphisms are found by backtracking over images of a fixed generating
sequence, grown by smallgroup's `grow`, pruning by element order and
conjugacy-class size; every map the search finds has been verified
multiplicative on the whole group.
Before a candidate image c of g_l is grown into a map, a product screen
checks that a_i c and a_i^-1 c have the order and class size of g_i g_l
and g_i^-1 g_l for every earlier pair g_i -> a_i, one lookup each in the
column of a_i or a_i^-1 (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005, chapter 4).  An isomorphism keeps both,
so the screen drops only candidates that no isomorphism extends; on
PGL2(F9) it leaves 22 of the 290 candidates the search used to grow, and
COR-4.5 took 43 -> 22 ms of CPU, PROP-4.4-STRUCT 165 -> 124 ms (medians of
10 runs on a 2-core host).  An elementary abelian group has one order and
class size for every element but the identity, and there the screen is
not built.  Nor is a candidate grown that lies in the image of
<g_1..g_{l-1}>, which `_extend_map` flags as it grows the earlier map: g_l
lies outside that span, so no injective map sends it there.  On EA(2,4),
whose 20160 automorphisms are all found one by one, this took the search
from 0.42-0.47 to 0.31-0.37 s of CPU (medians of 7, on a 2-core host).
The search runs modulo inner automorphisms: the first generator's image is one
representative r per conjugacy class, and every automorphism is c_x . a
for exactly one map a found with a(g1) = r and one x per conjugate of r.
So Aut(G) is kept as generators, the conjugations by G's generators and
the maps found, and its order is counted from the search, not listed; the
search stops, refused, once the count passes the active max_order.  A
subgroup is invariant under Aut(G) iff it is invariant under each
generator (smallgroup's `invariant`, which tests normality too), and its
stabilizer is read off its orbit by smallgroup's `set_orbit` and
`schreier_steps`, the walk that gives N(H) there.  Only
`AutGroup.as_materialized` lists every automorphism.

The same search, stopped at its first map, finds an isomorphism between
two groups: `find_isomorphism`, and `is_isomorphic`, which refuses groups
above the isomorphism cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import all_subgroups
from .smallgroup import (
    CapExceeded,
    MaterializedGroup,
    bits,
    cached_query,
    coprime,
    current_caps,
    gather,
    invariant,
    schreier_steps,
    set_orbit,
)


def generating_sequence(M: MaterializedGroup) -> tuple[list[int], list[int]]:
    """Greedy small generating sequence, elements of large order first:
    (gens, spans), spans[i] the order of the subgroup gens[:i+1] generate."""
    cands = sorted(range(1, M.n), key=lambda i: (-M.element_order(i), i))
    return M.grow(cands, M.n)[1:]


def _invariant_table(M: MaterializedGroup):
    """(element order, conjugacy class size) per element."""
    classes = M.conjugacy_classes()
    sizes = [0] * M.n
    for cls in classes:
        for x in cls:
            sizes[x] = len(cls)
    return [(M.element_order(i), sizes[i]) for i in range(M.n)]


def _extend_map(M1, M2, gen_pairs, subgroup_size):
    """Grow the hom determined by generator images over <gens>.

    Returns (img, used): the image list indexed by M1-element (-1 outside
    the span) and the flags of the image's elements in M2, or None on any
    multiplicativity or injectivity conflict.
    """
    img = [-1] * M1.n
    img[0] = 0
    used = bytearray(M2.n)
    used[0] = 1
    steps = [(M1.column(g), M2.column(ig)) for g, ig in gen_pairs]
    queue = [0]
    for x in queue:  # queue grows while it is walked
        ix = img[x]
        for c1, c2 in steps:
            y = c1[x]
            iy = c2[ix]
            cur = img[y]
            if cur == -1:
                if used[iy]:
                    return None
                img[y] = iy
                used[iy] = 1
                queue.append(y)
            elif cur != iy:
                return None
    if len(queue) != subgroup_size:
        raise AssertionError("generator span mismatch")
    return img, used


def _search_isomorphisms(M1, M2, find_all):
    """The isomorphisms found, as {r: maps a with a(g1) = r}, and their
    count.

    c_x . a moves the image of the first generator g1 anywhere in its
    class, so the search fixes it to a class representative r of M2; every
    isomorphism is then c_x . a for exactly one map a found and one x per
    conjugate of r, and each map counts |class(r)|.  Unless find_all, the
    search stops at the first map.  With find_all it raises CapExceeded as
    soon as the count passes the active max_order: on M1 = M2 the count is
    |Aut(G)|, a group that `as_materialized` builds, and nothing else
    bounds the search's time and memory.
    """
    if M1.n != M2.n:
        return {}, 0
    inv1 = _invariant_table(M1)
    inv2 = _invariant_table(M2)
    if sorted(inv1) != sorted(inv2):
        return {}, 0
    by_key = {}
    for i, key in enumerate(inv2):
        by_key.setdefault(key, []).append(i)
    gens, spans = generating_sequence(M1)
    if not gens:  # trivial group
        return {0: [[0]]}, 1
    found = []
    # one key for every element but 1: G is elementary abelian, and the
    # screen could only reject c = a_i^+-1, which the span test skips
    screened = len(by_key) > 2

    def dfs(level, pairs, cands, span):
        g = gens[level]
        # an isomorphism keeps the invariants of g_i g and g_i^-1 g, so a
        # candidate c needs a_i c and a_i^-1 c to match them; c a is
        # conjugate to a c, so both are read off the columns of a_i, a_i^-1
        screen = []
        for gi, a in (pairs if screened else ()):
            screen.append((M2.column(a), inv1[M1.mul(gi, g)]))
            screen.append((M2.column(M2.inv(a)), inv1[M1.mul(M1.inv(gi), g)]))
        for cand in cands:
            # g lies outside <g_1..g_{l-1}>, so an injective map sends it
            # outside that span's image, whose flags are span
            if span[cand]:
                continue
            if screen and any(inv2[col[cand]] != key for col, key in screen):
                continue
            attempt = pairs + [(g, cand)]
            grown = _extend_map(M1, M2, attempt, spans[level])
            if grown is None:
                continue
            img, used = grown
            if level + 1 == len(gens):
                found.append(img)
                if not find_all:
                    return True
                if len(found) > room:
                    raise CapExceeded(
                        f"|Aut| exceeds materialization cap {cap}")
            elif dfs(level + 1, attempt, by_key[inv1[gens[level + 1]]], used):
                return True
        return False

    results = {}
    trivial = bytes(M2.n)  # the image of <> is {1}, and r is not 1
    key = inv1[gens[0]]
    cap = current_caps().max_order
    count = 0
    for cls in M2.conjugacy_classes():
        r = cls[0]
        if inv2[r] != key:
            continue
        room = (cap - count) // len(cls)  # the maps dfs may find for r
        done = dfs(0, [], [r], trivial)
        if found:
            count += len(cls) * len(found)
            results[r] = found[:]
            found.clear()
        if done:
            break
    return results, count


def find_isomorphism(M1: MaterializedGroup, M2: MaterializedGroup):
    """An isomorphism M1 -> M2 as an image list, or None."""
    found, _ = _search_isomorphisms(M1, M2, find_all=False)
    return next(iter(found.values()))[0] if found else None


def is_isomorphic(M1: MaterializedGroup, M2: MaterializedGroup) -> bool:
    cap = current_caps().max_subgroup_order
    order = max(M1.n, M2.n)
    if order > cap:
        raise CapExceeded(f"order {order} exceeds isomorphism cap {cap}")
    return find_isomorphism(M1, M2) is not None


@dataclass
class AutGroup:
    """Aut(G) as generators, with its order counted by the search.

    found maps each class representative r to the automorphisms a that
    the search found with a(g1) = r.  Every automorphism is c_x . a for
    exactly one of them and one x per conjugate of r, so gens, the
    conjugations by G's generators and the maps found, generate Aut(G),
    and order is the sum of |class(r)| |found[r]|.  Every map is a tuple
    permuting G's element indices.
    """

    base: MaterializedGroup
    found: dict
    inner_count: int
    gens: list  # no identity, no repeats
    order: int

    @property
    def out_order(self) -> int:
        return self.order // self.inner_count

    def preserving(self, mask: int) -> list:
        """Generators of the automorphisms mapping the subgroup H onto itself.

        H's orbit under `gens` is walked by `set_orbit`, carrying an
        automorphism u_K with u_K(H) = K: u_L = a . u_K on the tree step
        a(K) = L.  The stabilizer is generated by the Schreier elements
        u_L^-1 . a . u_K of the steps off the tree (`schreier_steps`),
        repeats dropped.
        """
        gens = self.gens

        def times(u, t):  # a_t . u
            return gather(u)(gens[t])

        n = self.base.n
        _, trans, to = set_orbit(bits(mask), gens, tuple(range(n)), times)
        inverses = {}  # y -> u_L^-1 for L = points[y], as a list
        out = {}
        for a, y in schreier_steps(to, trans, len(gens), times):
            if y not in inverses:
                inverses[y] = sorted(range(n), key=trans[y].__getitem__)
            out[gather(a)(inverses[y])] = None
        return list(out)

    def as_materialized(self) -> MaterializedGroup:
        """Aut(G) as a concrete group acting on the |G| element indices.

        The one place every automorphism is listed: each map a found with
        a(g1) = r is composed with the conjugation by x for one x per
        conjugate of r, the conjugation maps carried along r's orbit walk
        (`set_orbit`).  Any such x gives the same maps, as the search found
        every a with a(g1) = r.  The elements are then enumerated from a
        greedy generating subset of the sorted list.
        """
        M = self.base
        conj = M.conj_maps()

        def step(inner, t):  # inner of x -> inner of x g
            return gather(inner)(conj[t])

        maps = []
        for r, found in self.found.items():
            takes = [gather(a) for a in found]  # take(inner) = inner o a
            for inner in set_orbit((r,), conj, tuple(range(M.n)), step)[1]:
                maps.extend(take(inner) for take in takes)
        maps.sort()
        # an automorphism is fixed by its images of G's generators, so a
        # product is looked up by that short key instead of composed
        base = M.gens
        full = {tuple(map(a.__getitem__, base)): a for a in maps}

        def step_of(s):  # x -> the key of full[x] o full[s]
            take = gather(s)  # s is full[s]'s images of base
            return lambda x: take(full[x])

        def inverse(x):
            return tuple(map(full[x].index, base))

        # a greedy generating subset keeps the closure and all later
        # conjugacy machinery linear in the group order
        one = tuple(base)
        gens = []
        steps = []
        closed = {one}
        for key in full:
            if key in closed:
                continue
            gens.append(key)
            steps.append(step_of(key))
            queue = list(closed)
            for x in queue:  # queue grows while it is walked
                for step in steps:
                    y = step(x)
                    if y not in closed:
                        closed.add(y)
                        queue.append(y)
            if len(closed) == len(full):
                break
        out = MaterializedGroup.enumerated(
            one, gens, step_of, full.__getitem__, inverse, M.n,
            cap=self.order + 1)
        if out.n != self.order:
            raise AssertionError("automorphism closure mismatch")
        return out


def automorphism_group(M: MaterializedGroup) -> AutGroup:
    """Aut(G), searched once per group.  Refused above the automorphism
    cap, which bounds |G|, and, memo hits included, when |Aut(G)| passes
    the active max_order, which the search itself stops at."""
    aut = _automorphisms(M)
    cap = current_caps().max_order
    if aut.order > cap:
        raise CapExceeded(
            f"|Aut| {aut.order} exceeds materialization cap {cap}")
    return aut


@cached_query("automorphism", "max_aut_order")
def _automorphisms(M: MaterializedGroup) -> AutGroup:
    found, order = _search_isomorphisms(M, M, find_all=True)
    found = {r: [tuple(a) for a in maps] for r, maps in found.items()}
    gens = dict.fromkeys(tuple(M.conj_map(g)) for g in M.gens)
    gens.update(dict.fromkeys(a for maps in found.values() for a in maps))
    gens.pop(tuple(range(M.n)), None)
    aut = AutGroup(M, found, M.n // M.center().bit_count(), list(gens), order)
    if aut.order % aut.inner_count:
        raise AssertionError("inner automorphisms do not divide Aut order")
    return aut


def is_characteristic(M: MaterializedGroup, mask: int) -> bool:
    """True iff every automorphism of M maps the subgroup onto itself."""
    return invariant(mask, M.gens_for_mask(mask), automorphism_group(M).gens)


@cached_query("subgroup-sweep", "max_subgroup_order")
def chermak_delgado(M: MaterializedGroup) -> int:
    """Minimal member of the maximal Chermak-Delgado-measure family.

    Measure of H is |H| * |C_G(H)|; the subgroups of maximal measure are
    closed under intersection and their intersection is abelian,
    characteristic, and contains the center.
    """
    best_measure = 0
    family = []
    for sub in all_subgroups(M):
        cent = M.centralizer(sub.gens or [0])
        measure = sub.order * cent.bit_count()
        if measure > best_measure:
            best_measure = measure
            family = [sub.mask]
        elif measure == best_measure:
            family.append(sub.mask)
    cd = M.full_mask
    for mask in family:
        cd &= mask
    return cd


def coprime_part(M: MaterializedGroup, mask: int, p: int) -> int:
    """Elements of an abelian subgroup whose order is coprime to p."""
    out = 0
    for i in bits(mask):
        if coprime(M.element_order(i), p):
            out |= 1 << i
    return out
