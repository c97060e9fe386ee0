"""Subgroup lattices, normal subgroups, and minimal coprime abelian indices.

`subgroup_classes` grows each class representative H by one element g at
a time, reading <H, g> from `MaterializedGroup.extender`.  It walks the
conjugation orbit of each new class once: the walk names the class's
least mask and gives N(H).  It skips, by smallgroup's `walk_cosets`, the
elements g whose <H, g> is conjugate to one already known.
`all_subgroups` has no search of its own: those classes, each expanded by
smallgroup's `set_orbit`, which carries each conjugate's generators.

The normal lattice is built from the normal closures of single classes by
joins (`normal_joins`).  A join AB of normal subgroups is grown from A by
B's generators (`MaterializedGroup.grow`), only when no known normal
subgroup of its order |A||B|/|A & B| holds A | B.  Every member, closure
or join, gets its generators from `gens_for_mask`.

The normal abelian subgroups (`normal_abelian_subgroups`) are joined the
same way from the classes that can lie in one: a class C whose
representative commutes with every element of C, so that <C> is normal
and abelian.  A join AB of two of them is grown only when A's generators
commute with B's, that is, when AB is abelian.  Every partial join of the
classes inside a normal abelian subgroup lies in it and so is abelian
too, so none is missed.  They lie in the Fitting subgroup F(G) (Huppert,
Endliche Gruppen I, 1967), and they do not depend on a prime.

The central quantity is JAnalysis: for a prime p, the minimal index of a
normal abelian subgroup of order coprime to p, and that index divided by
the cube of the p-part as an exact rational.  `j_analysis` reads it off
the normal abelian subgroups, so their joins run once per group, whatever
primes are asked for.

`quotient` reads the cosets xN of a normal N from `orbits`, the orbits
under the columns of N's generators.  Isomorphism testing lives in
autmorph, beside the search it runs; this module imports nothing from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gf import factor_prime_power
from .smallgroup import (
    MaterializedGroup,
    bits,
    cached_query,
    coprime,
    flags_of,
    gather,
    mask_at,
    orbits,
    p_part,
    set_orbit,
    walk_cosets,
)


@dataclass(frozen=True)
class Sub:
    """A subgroup of a materialized group: membership bitmask + generators."""

    mask: int
    gens: tuple

    @property
    def order(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class JAnalysis:
    p: int
    p_part: int
    min_index: int
    witness: Sub
    j_ratio: Fraction


def is_normal(M: MaterializedGroup, sub: Sub) -> bool:
    return M.is_normal_mask(sub.mask, sub.gens)


def normal_joins(M: MaterializedGroup, classes, joinable) -> dict:
    """mask -> generators of the normal closures of the given classes and
    of their joins, a join AB grown only where joinable(A's generators,
    B's generators) holds.

    The join of normal A and B is AB, of order |A||B|/|A & B|, and it is the
    only subgroup of that order holding A | B; so a join is grown, from A,
    only when no known normal subgroup of that order holds A | B.  Every
    member gets `gens_for_mask`, once, when its mask is first found.
    """
    found = {1: ()}
    by_order = {1: [1]}  # order -> the masks of that order in found
    queue = []
    for cls in classes:
        mask = M.normal_closure(cls[:1])
        if mask not in found:
            found[mask] = tuple(M.gens_for_mask(mask))
            by_order.setdefault(mask.bit_count(), []).append(mask)
            queue.append(mask)
    while queue:
        a = queue.pop()
        ga = found[a]
        for b in list(found):
            ab = a | b
            if ab == a or ab == b:
                continue
            order = a.bit_count() * b.bit_count() // (a & b).bit_count()
            known = by_order.setdefault(order, [])
            if any(m & ab == ab for m in known) or not joinable(ga, found[b]):
                continue
            j = M.grow(found[b], order, a, ga)[0]
            found[j] = tuple(M.gens_for_mask(j))
            known.append(j)
            queue.append(j)
    return found


def _sorted_subs(found: dict) -> list[Sub]:
    """The Subs of a mask -> generators dict, by (order, mask)."""
    return sorted((Sub(m, g) for m, g in found.items()),
                  key=lambda s: (s.order, s.mask))


@cached_query("normal-lattice", "max_order")
def normal_subgroups(M: MaterializedGroup) -> list[Sub]:
    """All normal subgroups, as joins of normal closures of single classes."""
    return _sorted_subs(normal_joins(M, M.conjugacy_classes(),
                                     lambda ga, gb: True))


@cached_query("normal-lattice", "max_order")
def normal_abelian_subgroups(M: MaterializedGroup) -> list[Sub]:
    """All normal abelian subgroups, by (order, mask): the joins of the
    classes whose representative commutes with its whole class, a join
    grown only when its generators commute.  Each is the Sub that
    `normal_subgroups` gives for its mask, generators included."""
    # commute reads r's column only; r*x == x*r would build x's too
    seeds = [c for c in M.conjugacy_classes() if M.commute(c, c[:1])]
    return _sorted_subs(normal_joins(M, seeds, M.commute))


@cached_query("subgroup-sweep", "max_subgroup_order")
def subgroup_classes(M: MaterializedGroup) -> list[Sub]:
    """One representative per conjugacy class of subgroups.

    Cyclic-extension search over class representatives, seeded with the
    cyclic subgroup of one prime-power-order element per conjugacy class:
    extend each representative by one element, skipping elements
    equivalent under H-double-cosets and normalizer conjugation, and
    deduplicate by the minimal conjugate bitmask.  The one orbit walk that
    finds a new class's minimal mask also gives its normalizer.

    The skipped set of g is its orbit under x -> xh and x -> x^u, for h in
    H and u generating N(H); it holds hx = (x^(h^-1))h, so it is a union of
    right cosets, walked by `walk_cosets` from Hg over H's generators'
    columns and the maps Hx -> (Hx)^u = Hx^u.  A u in H gives Hxu, already
    a step, and a central u gives Hx, so neither gets a map.
    """
    canon = {}  # subgroup mask -> least mask of its conjugation orbit
    queue = []  # (representative, generators of its normalizer)

    def register(mask):
        if mask in canon:
            return
        # a new class: its one orbit walk serves the canonizer and N(H)
        orbit = M.conjugation_orbit(mask)
        masks = [mask_at(x) for x in orbit[0]]
        c = min(masks)
        canon.update(dict.fromkeys(masks, c))
        sub = Sub(c, tuple(M.gens_for_mask(c)))
        queue.append((sub, M.normalizer(c, sub.gens, orbit)[1]))

    register(1)
    cyclic = M.extender(1, ())
    # prime-power-order elements reach every subgroup, and conjugate
    # elements generate conjugate subgroups: one element per class will do
    for cls in M.conjugacy_classes():
        x = cls[0]
        if x and factor_prime_power(M.element_order(x)) is not None:
            register(cyclic(x))

    full = M.full_mask
    center = M.center()
    for H, ngens in queue:  # queue grows while it is walked
        if H.mask == full:
            continue
        hgens = list(H.gens)
        extend = M.extender(H.mask, hgens)
        steps = [M.column(h) for h in hgens]
        skip = H.mask | center
        steps += [M.conj_map(u) for u in ngens if not skip >> u & 1]
        h_elems = tuple(bits(H.mask))
        covered = bytearray(flags_of(H.mask, M.n))
        for g in range(1, M.n):
            if covered[g]:
                continue
            register(extend(g))
            # skip g's orbit, walked from Hg
            coset = gather(h_elems)(M.column(g))
            for y in coset:
                covered[y] = 1
            walk_cosets([coset], steps, covered, M.n)
    return sorted((H for H, _ in queue), key=lambda s: (s.order, s.mask))


@cached_query("subgroup-sweep", "max_subgroup_order")
def all_subgroups(M: MaterializedGroup) -> list[Sub]:
    """Every subgroup: each class of `subgroup_classes` expanded by its
    conjugation orbit (`set_orbit`), each conjugate H^u generated by the
    elements h^u, carried along the walk's tree."""
    maps = M.conj_maps()

    def step(hs, t):  # the elements h^(ug) = (h^u)^g
        return gather(hs)(maps[t])

    out = []
    for H in subgroup_classes(M):
        points, gens, _ = set_orbit(bits(H.mask), maps, H.gens, step)
        out.extend(map(Sub, map(mask_at, points), gens))
    out.sort(key=lambda s: (s.order, s.mask))
    return out


def j_analysis(M: MaterializedGroup, p: int) -> JAnalysis:
    """Minimal index of a normal abelian subgroup of order coprime to p.

    The witness is the largest member of `normal_abelian_subgroups` of
    p'-order, the least mask among those of its order; the trivial
    subgroup always qualifies.
    """
    witness = min((s for s in normal_abelian_subgroups(M)
                   if coprime(s.order, p)), key=lambda s: (-s.order, s.mask))
    index = M.n // witness.order
    pp = p_part(M.n, p)
    return JAnalysis(p, pp, index, witness, Fraction(index, pp**3))


def sub_materialized(M: MaterializedGroup, sub: Sub) -> MaterializedGroup:
    """A subgroup as a group in its own right (same permutation carrier).

    Enumerated over M's element indices, stepping by each generator's
    column, so it matches
    MaterializedGroup([M.perms[g] for g in sub.gens], M.degree).
    """
    out = MaterializedGroup.enumerated(
        0, sub.gens, lambda g: M.column(g).__getitem__,
        M.perms.__getitem__, M.inv, M.degree, cap=M.n + 1)
    if out.n != sub.order:
        raise AssertionError("subgroup closure mismatch")
    return out


@dataclass(frozen=True)
class SweepEntry:
    sub: Sub
    order: int
    min_index: int


@dataclass(frozen=True)
class SweepReport:
    n_classes: int
    order_violations: tuple
    bound_violations: tuple  # order violations whose min_index is above J too

    def violation_orders(self):
        return sorted(e.order for e in self.order_violations)


def sweep_bound(M: MaterializedGroup, p: int, bound: Fraction) -> SweepReport:
    """Check |H| <= J*|H_(p)|^3 (and the normal-abelian rescue) over every
    subgroup class representative of M."""
    bound = Fraction(bound)
    classes = subgroup_classes(M)
    order_viol = []
    bound_viol = []
    for sub in classes:
        o = sub.order
        pp = p_part(o, p)
        limit = bound * pp**3
        if o <= limit:
            continue  # trivial subgroup witnesses min_index <= |H| <= limit
        sm = sub_materialized(M, sub)
        ja = j_analysis(sm, p)
        entry = SweepEntry(sub, o, ja.min_index)
        order_viol.append(entry)
        if entry.min_index > limit:
            bound_viol.append(entry)
    return SweepReport(len(classes), tuple(order_viol), tuple(bound_viol))


def quotient(M: MaterializedGroup, sub: Sub) -> MaterializedGroup:
    """Quotient by a normal subgroup, as its regular action on cosets.

    The cosets xN are the orbits under the columns of N's generators,
    numbered by their least elements, which represent them.
    """
    if not is_normal(M, sub):
        raise ValueError("subgroup is not normal")
    coset_id, cosets = orbits(M.n, [M.column(h) for h in sub.gens])
    n_cosets = len(cosets)
    reps = [c[0] for c in cosets]
    qgens = [tuple(coset_id[M.mul(r, g)] for r in reps) for g in M.gens]
    out = MaterializedGroup(qgens, n_cosets, cap=n_cosets + 1)
    if out.n != n_cosets:
        raise AssertionError("coset action not transitive on cosets")
    return out
