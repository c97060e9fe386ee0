"""Automorphism groups, characteristic tests, and the Chermak-Delgado subgroup.

Automorphisms are found by backtracking over images of a fixed generating
sequence, pruning by element order and conjugacy-class size; every map
the search finds has been verified multiplicative on the whole group.  It
runs modulo inner automorphisms: the first generator's image is one
representative per conjugacy class, and composing each map found with
conjugations supplies the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import all_subgroups
from .smallgroup import (
    MaterializedGroup,
    bits,
    cached_query,
    coprime,
)


def generating_sequence(M: MaterializedGroup) -> list[int]:
    """Greedy small generating sequence, elements of large order first."""
    order = [1] + [M.element_order(i) for i in range(1, M.n)]
    cands = sorted(range(1, M.n), key=lambda i: (-order[i], i))
    gens = []
    mask = 1
    for c in cands:
        if mask >> c & 1:
            continue
        gens.append(c)
        mask = M.close(gens)
        if mask == M.full_mask:
            break
    return gens


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

    Returns the image list indexed by M1-element (-1 outside the span),
    or None on any multiplicativity or injectivity conflict.
    """
    img = [-1] * M1.n
    img[0] = 0
    used = 1
    queue = [0]
    qi = 0
    reached = 1
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        ix = img[x]
        for g, ig in gen_pairs:
            y = M1.mul(x, g)
            iy = M2.mul(ix, ig)
            cur = img[y]
            if cur == -1:
                if used >> iy & 1:
                    return None
                img[y] = iy
                used |= 1 << iy
                queue.append(y)
                reached += 1
            elif cur != iy:
                return None
    if reached != subgroup_size:
        raise AssertionError("generator span mismatch")
    return img


def _search_isomorphisms(M1, M2, find_all):
    if M1.n != M2.n:
        return []
    with M1.table_scope(), M2.table_scope():
        return _search(M1, M2, find_all)


def _search(M1, M2, find_all):
    inv1 = _invariant_table(M1)
    inv2 = _invariant_table(M2)
    if sorted(inv1) != sorted(inv2):
        return []
    by_key = {}
    for i, key in enumerate(inv2):
        by_key.setdefault(key, []).append(i)
    gens = generating_sequence(M1)
    if not gens:  # trivial group
        return [[0]]
    spans = []
    mask = 1
    for i in range(len(gens)):
        mask = M1.close(gens[: i + 1])
        spans.append(mask.bit_count())
    found = []

    def dfs(level, pairs, cands):
        for cand in cands:
            attempt = pairs + [(gens[level], cand)]
            img = _extend_map(M1, M2, attempt, spans[level])
            if img is None:
                continue
            if level + 1 == len(gens):
                found.append(img)
                if not find_all:
                    return True
            elif dfs(level + 1, attempt, by_key[inv1[gens[level + 1]]]):
                return True
        return False

    # c_x . a moves the image of the first generator anywhere in its class,
    # so the search fixes it to a class representative r; each map found
    # then yields c_x . a for one x per conjugate of r, and every
    # isomorphism arises exactly once
    results = []
    shared = list(range(M2.n))  # stored images reuse these int objects
    key = inv1[gens[0]]
    for cls in M2.conjugacy_classes():
        r = cls[0]
        if inv2[r] != key:
            continue
        if dfs(0, [], [r]):
            return found
        if not found:
            continue
        reached = set()
        for x in range(M2.n):
            y = M2.conj(r, x)
            if y in reached:
                continue
            reached.add(y)
            inner = list(map(shared.__getitem__, M2.conj_map(x)))
            results.extend(list(map(inner.__getitem__, a)) for a in found)
            if len(reached) == len(cls):
                break
        found.clear()
    return results


def find_isomorphism(M1: MaterializedGroup, M2: MaterializedGroup):
    """An isomorphism M1 -> M2 as an image list, or None."""
    found = _search_isomorphisms(M1, M2, find_all=False)
    return found[0] if found else None


@dataclass
class AutGroup:
    base: MaterializedGroup
    maps: list  # every automorphism, as a tuple permuting element indices
    inner_count: int

    @property
    def order(self) -> int:
        return len(self.maps)

    @property
    def out_order(self) -> int:
        return self.order // self.inner_count

    def preserving(self, mask: int) -> list:
        """The automorphisms mapping the given subgroup onto itself."""
        gens = self.base.gens_for_mask(mask)
        return [a for a in self.maps if invariant(mask, gens, (a,))]

    def as_materialized(self) -> MaterializedGroup:
        """Aut(G) as a concrete group acting on the |G| element indices."""
        # an automorphism is fixed by its images of G's generators, so a
        # product is looked up by that short key instead of composed
        base = self.base.gens
        full = {tuple(map(a.__getitem__, base)): a for a in self.maps}

        def step(x, s):  # the key of full[x] o full[s]
            return tuple(map(full[x].__getitem__,
                             map(full[s].__getitem__, base)))

        def inverse(x):
            return tuple(map(full[x].index, base))

        # a greedy generating subset keeps the closure and all later
        # conjugacy machinery linear in the group order
        one = tuple(base)
        gens = []
        closed = {one}
        for key in full:
            if key in closed:
                continue
            gens.append(key)
            queue = list(closed)
            for x in queue:  # queue grows while it is walked
                for g in gens:
                    y = step(x, g)
                    if y not in closed:
                        closed.add(y)
                        queue.append(y)
            if len(closed) == len(full):
                break
        out = MaterializedGroup.enumerated(
            one, gens, step, full.__getitem__, inverse, self.base.n,
            cap=len(self.maps) + 1)
        if out.n != len(self.maps):
            raise AssertionError("automorphism closure mismatch")
        return out


@cached_query("automorphism", "max_aut_order")
def automorphism_group(M: MaterializedGroup) -> AutGroup:
    maps = [tuple(a) for a in _search_isomorphisms(M, M, find_all=True)]
    maps.sort()
    center = M.center()
    aut = AutGroup(M, maps, M.n // center.bit_count())
    if aut.order % aut.inner_count:
        raise AssertionError("inner automorphisms do not divide Aut order")
    return aut


def invariant(mask: int, gens, maps) -> bool:
    """True iff every map sends the subgroup mask = <gens> onto itself.

    An automorphism a is a bijection of a finite group, so a(H) = H as soon
    as a(h) lies in H for each generator h of H.
    """
    return all(mask >> a[h] & 1 for a in maps for h in gens)


def is_characteristic(M: MaterializedGroup, mask: int) -> bool:
    """True iff every automorphism of M maps the subgroup onto itself."""
    aut = automorphism_group(M)
    return invariant(mask, M.gens_for_mask(mask), aut.maps)


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
