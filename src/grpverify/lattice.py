"""Subgroup lattices, normal subgroups, and minimal coprime abelian indices.

The subgroup sweeps (`all_subgroups`, `subgroup_classes`) grow each
subgroup H found by one element g at a time, reading <H, g> from
`MaterializedGroup.extender`, which closes coset by coset from H.
`subgroup_classes` walks the conjugation orbit of each new class once: the
walk names the class's least mask and gives N(H), by orbit-stabilizer.

The normal lattice is built from the normal closures of single classes by
joins.  A join AB of normal subgroups is closed only when no known normal
subgroup of its order |A||B|/|A & B| holds A | B.

The central quantity is JAnalysis: for a prime p, the minimal index of a
normal abelian subgroup of order coprime to p, and that index divided by
the cube of the p-part as an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gf import factor_prime_power
from .smallgroup import (
    CapExceeded,
    MaterializedGroup,
    bits,
    cached_query,
    coprime,
    current_caps,
    flags_of,
    p_part,
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
    return M.is_normal_mask(sub.mask, sub.gens or None)


@cached_query("normal-lattice", "max_order")
def normal_subgroups(M: MaterializedGroup) -> list[Sub]:
    """All normal subgroups, as joins of normal closures of single classes.

    The join of normal A and B is AB, of order |A||B|/|A & B|, and it is the
    only subgroup of that order holding A | B; so a join is closed only
    when no known normal subgroup of that order holds A | B.
    """
    found = {1: ()}
    by_order = {1: [1]}  # order -> the masks of that order in found
    queue = []
    for cls in M.conjugacy_classes():
        if cls[0] == 0:
            continue
        mask, gens = M.normal_closure([cls[0]])
        if mask not in found:
            found[mask] = tuple(gens)
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
            if any(m & ab == ab for m in known):
                continue
            j = M.close(list(ga) + list(found[b]))
            found[j] = tuple(M.gens_for_mask(j))
            known.append(j)
            queue.append(j)
    out = [Sub(m, g) for m, g in found.items()]
    out.sort(key=lambda s: (s.order, s.mask))
    return out


@cached_query("subgroup-sweep", "max_subgroup_order")
def all_subgroups(M: MaterializedGroup) -> list[Sub]:
    """Every subgroup, built bottom-up by single-generator extension."""
    subs = {1: ()}
    queue = []
    cyclic = M.extender(1, ())
    for x in range(1, M.n):
        mask = cyclic(x)
        if mask not in subs:
            subs[mask] = (x,)
            queue.append(mask)
    qi = 0
    while qi < len(queue):
        mask = queue[qi]
        qi += 1
        gens = subs[mask]
        extend = M.extender(mask, gens)
        elems = list(bits(mask))
        covered = bytearray(flags_of(mask, M.n))
        for g in range(1, M.n):
            if covered[g]:
                continue
            ext = extend(g)
            if ext not in subs:
                subs[ext] = gens + (g,)
                queue.append(ext)
            # <H, hg> = <H, g> for h in H: mark the whole coset Hg
            c = M.column(g)
            for x in elems:
                covered[c[x]] = 1
    out = [Sub(m, g) for m, g in subs.items()]
    out.sort(key=lambda s: (s.order, s.mask))
    return out


def conjugates_of(M: MaterializedGroup, mask: int) -> list[int]:
    """Orbit of a subgroup mask under conjugation by G, as ascending masks."""
    points, _, _ = M.conjugation_orbit(mask)
    return [sum(1 << i for i in x) for x in sorted(points)]


@cached_query("subgroup-sweep", "max_subgroup_order")
def subgroup_classes(M: MaterializedGroup) -> list[Sub]:
    """One representative per conjugacy class of subgroups.

    Cyclic-extension search over class representatives, seeded with the
    cyclic subgroup of one prime-power-order element per conjugacy class:
    extend each representative by one element, skipping elements
    equivalent under H-double-cosets and normalizer conjugation, and
    deduplicate by the minimal conjugate bitmask.  The one orbit walk that
    finds a new class's minimal mask also gives its normalizer.
    """
    canon = {}  # subgroup mask -> least mask of its conjugation orbit
    queue = []  # (representative, generators of its normalizer)

    def register(mask):
        if mask in canon:
            return
        # a new class: its one orbit walk serves the canonizer and N(H)
        orbit = M.conjugation_orbit(mask)
        masks = [sum(1 << i for i in x) for x in orbit[0]]
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
    for H, ngens in queue:  # queue grows while it is walked
        if H.mask == full:
            continue
        hgens = list(H.gens)
        extend = M.extender(H.mask, hgens)
        # x -> xh and x^u move within the H-double-coset of x and its
        # orbit under the normalizer; so does x -> hx = (x^(h^-1))h, as
        # H <= N(H) and the orbit is closed under both
        steps = [M.column(h) for h in hgens]
        steps += [M.conj_map(u) for u in ngens]
        covered = bytearray(flags_of(H.mask, M.n))
        for g in range(1, M.n):
            if covered[g]:
                continue
            register(extend(g))
            # skip the rest of the H-double-coset and its normalizer orbit
            covered[g] = 1
            orb = [g]
            for x in orb:  # orb grows while it is walked
                for t in steps:
                    y = t[x]
                    if not covered[y]:
                        covered[y] = 1
                        orb.append(y)
    return sorted((H for H, _ in queue), key=lambda s: (s.order, s.mask))


def j_analysis(M: MaterializedGroup, p: int) -> JAnalysis:
    """Minimal index of a normal abelian subgroup of order coprime to p."""
    pp = p_part(M.n, p)
    best = None
    for sub in normal_subgroups(M):
        if not coprime(sub.order, p):
            continue
        if not M.is_abelian_set(sub.gens):
            continue
        index = M.n // sub.order
        if best is None or (index, sub.mask) < (best[0], best[1].mask):
            best = (index, sub)
    index, witness = best  # the trivial subgroup always qualifies
    return JAnalysis(p, pp, index, witness, Fraction(index, pp**3))


def sub_materialized(M: MaterializedGroup, sub: Sub) -> MaterializedGroup:
    """A subgroup as a group in its own right (same permutation carrier).

    Enumerated over M's element indices with M's products, so it matches
    MaterializedGroup([M.perms[g] for g in sub.gens], M.degree).
    """
    with M.table_scope():
        out = MaterializedGroup.enumerated(
            0, sub.gens, M.mul, M.perms.__getitem__, M.inv,
            M.degree, cap=M.n + 1)
    if out.n != sub.order:
        raise AssertionError("subgroup closure mismatch")
    return out


@dataclass(frozen=True)
class SweepEntry:
    sub: Sub
    order: int
    sylow: int
    order_ok: bool
    min_index: int | None  # computed only for order-bound violators
    bound_ok: bool


@dataclass(frozen=True)
class SweepReport:
    p: int
    bound: Fraction
    n_classes: int
    order_violations: tuple
    bound_violations: tuple
    unexpected: tuple  # bound violations not covered by the exempt predicate

    def violation_orders(self):
        return sorted(e.order for e in self.order_violations)


def sweep_bound(M: MaterializedGroup, p: int, bound: Fraction,
                exempt=None) -> SweepReport:
    """Check |H| <= J*|H_(p)|^3 (and the normal-abelian rescue) over every
    subgroup class representative of M.

    exempt, if given, is a predicate over SweepEntry naming the expected
    exceptions; violations outside it are reported as unexpected.
    """
    bound = Fraction(bound)
    classes = subgroup_classes(M)
    order_viol = []
    bound_viol = []
    unexpected = []
    with M.table_scope():  # one table for every violator's enumeration
        for sub in classes:
            o = sub.order
            pp = p_part(o, p)
            limit = bound * pp**3
            if o <= limit:
                continue  # trivial subgroup witnesses min_index <= |H| <= limit
            sm = sub_materialized(M, sub)
            ja = j_analysis(sm, p)
            entry = SweepEntry(sub, o, pp, False, ja.min_index,
                               ja.min_index <= limit)
            order_viol.append(entry)
            if not entry.bound_ok:
                bound_viol.append(entry)
                if exempt is not None and not exempt(entry):
                    unexpected.append(entry)
    return SweepReport(p, bound, len(classes), tuple(order_viol),
                       tuple(bound_viol), tuple(unexpected))


def quotient(M: MaterializedGroup, sub: Sub) -> MaterializedGroup:
    """Quotient by a normal subgroup, as its regular action on cosets."""
    if not is_normal(M, sub):
        raise ValueError("subgroup is not normal")
    coset_id = M._left_cosets(sub.gens)  # xN = Nx: left and right agree
    n_cosets = M.n // sub.order
    reps = [0] * n_cosets
    seen = [False] * n_cosets
    for x in range(M.n):
        c = coset_id[x]
        if not seen[c]:
            seen[c] = True
            reps[c] = x
    qgens = []
    for g in M.gens:
        qgens.append(tuple(coset_id[M.mul(reps[c], g)] for c in range(n_cosets)))
    out = MaterializedGroup(qgens, n_cosets, cap=n_cosets + 1)
    if out.n != n_cosets:
        raise AssertionError("coset action not transitive on cosets")
    return out


def is_isomorphic(M1: MaterializedGroup, M2: MaterializedGroup) -> bool:
    from .autmorph import find_isomorphism

    cap = current_caps().max_subgroup_order
    order = max(M1.n, M2.n)
    if order > cap:
        raise CapExceeded(f"order {order} exceeds isomorphism cap {cap}")
    return find_isomorphism(M1, M2) is not None
