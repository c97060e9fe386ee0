"""Fully materialized groups: element tables, classes, centralizers, Sylow.

A MaterializedGroup stores every element as a permutation tuple, indexed
by breadth-first discovery order from the generators (index 0 is the
identity).  Subgroups and other element sets are integer bitmasks over
element indices.

Every group is enumerated by one breadth-first routine, `breadth_first`,
over one step function x -> x*s per generator s.  A group given by
permutations steps by a gather per generator, x*s = gather(s)(x); a
subgroup steps by its parent's columns and Aut(G) by a gather over the
images of G's generators (`MaterializedGroup.enumerated`), so none of them
composes a permutation.  Inverses are found in pairs.  The products x*s
by each generator s are kept as that generator's column, and the
breadth-first tree with the generator of each edge (a Schreier vector:
Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005,
section 4.1), so every element j is a word in the generators.

Every product is read through columns, `column(j)[i] = i*j`, and each
reader is written once over them.  A column is an array of 16-bit
indices, or 32-bit ones past 65536 elements.  The identity's and the
generators' columns are held for the group's lifetime; any other is
gathered along j's tree word from the generator columns, one C-level
gather per edge, and kept, with those on its way, up to COLUMN_BUDGET
bytes, past which the oldest kept goes.  `mul(i, j)` reads j's column if
it is held and otherwise walks j's word, one generator-column read per
edge, building none.  `ledger.run_claim` clears the group cache before
each claim, so no claim inherits another's columns.  No module but perm
composes permutations.  The conjugation maps of the generators, which
`conjugacy_classes` and the orbit walks read, are kept as arrays too: a
map read from a 16-bit column holds a fresh int object per entry.

Each walk is written once, and moves a set of elements by `gather`, one
C-level pass.  `orbits` partitions points: the conjugacy classes are the
orbits under the generators' conjugation maps, the cosets xN of a
subgroup the orbits under its generators' columns.  `set_orbit` walks the
orbit of one set, carrying a value along its tree, and `schreier_steps`
reads its Schreier elements (orbit-stabilizer): N(H) (`normalizer`) and
stabilizers in Aut(G).  `walk_cosets` walks right cosets of a subgroup,
for `extender`, which grows <H, g> from H, and for lattice's subgroup
sweep; through it `grow` gives a known subgroup more generators, for
`gens_for_mask`, N(H), autmorph's generating sequence and normal joins.
`close` closes only from the identity: a subgroup, or with the
generators' conjugation maps a normal closure (`normal_closure`).

The heavy queries of the lattice and autmorph modules are `cached_query`
functions: their results are kept per group in one memo, owned here.

The user's order caps live here too: `caps_scope` makes one `Caps` active,
and every build, materialization and cached query reads it when called.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from math import gcd
from operator import eq, itemgetter

from . import perm as pm

# bytes of columns a group keeps beyond its identity's and generators'
COLUMN_BUDGET = 3 << 19  # 1.5 MiB

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class CapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class Caps:
    """Largest orders of the groups a run builds, sweeps the subgroups of (or
    tests for isomorphism) and searches the automorphisms of (|G|, not
    |Aut(G)|)."""

    max_order: int = 50000
    max_subgroup_order: int = 2000
    max_aut_order: int = 1000


_active_caps = Caps()


def current_caps() -> Caps:
    return _active_caps


@contextmanager
def caps_scope(caps: Caps):
    """Make caps the active caps until the block exits, however it exits."""
    global _active_caps
    saved, _active_caps = _active_caps, caps
    try:
        yield
    finally:
        _active_caps = saved


def bits(mask: int):
    """Indices of the set bits of mask, ascending: a `str.find` walk over
    its binary digits, lowest first, linear in the mask's length."""
    digits = format(mask, "b")[::-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def flags_of(mask: int, n: int) -> bytes:
    """flags[i] == 1 iff bit i of mask is set, for i < n."""
    return format(mask, "b").zfill(n)[::-1].encode().translate(_TO_FLAGS)


def mask_of(flags) -> int:
    """Inverse of flags_of: the mask whose bit i is flags[i] (0 or 1)."""
    return int(bytes(flags).translate(_TO_DIGITS)[::-1], 2)


def mask_at(idx) -> int:
    """The mask whose set bits are the indices idx."""
    return sum(1 << i for i in idx)


def gather(idx):
    """f(seq) = the tuple of seq[i] for i in idx, in one C-level pass: an
    itemgetter, which for a single index would return the item itself."""
    if len(idx) == 1:
        (i,) = idx
        return lambda seq: (seq[i],)
    return itemgetter(*idx)


def orbits(n: int, maps) -> tuple[list, list]:
    """The orbits of 0..n-1 under the index maps: (label, orbits).

    orbits[k] is the k-th orbit, numbered by its least point and listed in
    the order walked from that point; label[x] is the k of x's orbit.
    """
    label = [-1] * n
    out = []
    for i in range(n):
        if label[i] >= 0:
            continue
        k = len(out)
        label[i] = k
        orbit = [i]
        for x in orbit:  # orbit grows while it is walked
            for m in maps:
                y = m[x]
                if label[y] < 0:
                    label[y] = k
                    orbit.append(y)
        out.append(orbit)
    return label, out


def set_orbit(start, maps, first, step) -> tuple[list, list, list]:
    """The orbit of the set start under the index maps, walked breadth-first
    (maps generating a finite group suffice): points, values, to.

    points[i] is the i-th image found, the tuple of its elements in
    descending order (points[0] is start; sets of one size compare as masks
    the way these tuples compare).  to[x*k + t] is the index of the image
    of points[x] under maps[t], for the k maps.  values[0] is first, and
    values[y] = step(values[x], t) on the tree step where points[y] is
    first found, as the image of points[x] under maps[t].
    """
    start = tuple(sorted(start, reverse=True))
    where = {start: 0}
    points = [start]
    values = [first]
    to = []
    for x, point in enumerate(points):  # points grows while it is walked
        take = gather(point)
        for t, m in enumerate(maps):
            y = tuple(sorted(take(m), reverse=True))
            j = where.get(y)
            if j is None:
                j = where[y] = len(points)
                points.append(y)
                values.append(step(values[x], t))
            to.append(j)
    return points, values, to


def schreier_steps(to, trans, k, times):
    """(a, y) for each step of a `set_orbit` walk off its tree.

    trans[x] takes the start to points[x] and times(u, t) is u followed by
    the group element of the t-th of the k maps.  On the step from points[x]
    by map t to points[y], a = times(trans[x], t) takes the start to
    points[y] too, and is yielded unless it is trans[y].  By Schreier's
    lemma the elements a followed by trans[y]^-1 generate the start's
    stabilizer (orbit-stabilizer: Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005, section 4.1).
    """
    for e, y in enumerate(to):
        x, t = divmod(e, k)
        a = times(trans[x], t)
        if a != trans[y]:
            yield a, y


def walk_cosets(cosets, steps, seen, most: int) -> bool:
    """Walk right cosets of a subgroup H, each gathered from one before it.

    cosets holds the cosets to start from, each the tuple of its elements;
    seen flags their elements and any others covered, a union of right
    cosets.  A step s, a column or the conjugation map of an element of
    N(H), takes Hx to Hx.s: covered if s(x) is flagged, else gathered over
    s, appended and flagged.  Returns False, stopping, before the walk
    would hold more than most cosets; True once no step finds a new one.
    """
    room = most - len(cosets)
    for coset in cosets:  # cosets grows while it is walked
        x = coset[0]
        for s in steps:
            if not seen[s[x]]:
                if room <= 0:
                    return False
                room -= 1
                new = gather(coset)(s)
                cosets.append(new)
                for y in new:
                    seen[y] = 1
    return True


def invariant(mask: int, gens, maps) -> bool:
    """True iff every map sends the subgroup mask = <gens> onto itself.

    An automorphism a is a bijection of a finite group, so a(H) = H as soon
    as a(h) lies in H for each generator h of H; and H is invariant under a
    group of automorphisms iff it is invariant under each generator.  gens
    is read once.
    """
    return all(mask >> a[h] & 1 for h in gens for a in maps)


def cached_query(label: str, field: str):
    """Make fn(M) a query computed once per group, bounded by a Caps field.

    The active cap of that field is checked on every call, memo hits
    included, so a call is refused the same way whatever ran before it.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def query(M):
            cap = getattr(_active_caps, field)
            if M.n > cap:
                raise CapExceeded(f"order {M.n} exceeds {label} cap {cap}")
            memo = M._memo
            if fn not in memo:
                memo[fn] = fn(M)
            return memo[fn]

        return query

    return decorate


class MaterializedGroup:
    def __init__(self, generators, degree, cap: int = Caps.max_order,
                 name: str = ""):
        gens = [tuple(g) for g in generators]
        if any(len(g) != degree for g in gens):
            raise pm.DegreeError("generator degree mismatch")
        # x*s = compose(x, s) is x gathered at the points of s
        self._enumerate(pm.identity(degree), gens, gather, None, pm.inverse,
                        degree, cap, name)

    @classmethod
    def enumerated(cls, one, gens, step_of, perm_of, inverse, degree: int,
                   cap: int) -> "MaterializedGroup":
        """The group generated by gens, with elements in any hashable form.

        one is the identity, step_of(s) is the map x -> x*s, perm_of(x) is
        the permutation of degree that x stands for and inverse(x) = x^-1.
        The elements and their order are those of
        MaterializedGroup(map(perm_of, gens), ...).
        """
        self = cls.__new__(cls)
        self._enumerate(one, gens, step_of, perm_of, inverse, degree, cap, "")
        return self

    def _enumerate(self, one, gens, step_of, perm_of, inverse, degree, cap,
                   name):
        self.degree = degree
        self.name = name
        gens = list(dict.fromkeys(g for g in gens if g != one))
        elems, where, tree, prods = breadth_first(
            one, [step_of(g) for g in gens], cap, name)
        n = self.n = len(elems)
        if perm_of is None:
            self.perms, self.index = elems, where
        else:
            self.perms = list(map(perm_of, elems))
            self.index = dict(zip(self.perms, range(n)))
        self.gens = [where[g] for g in gens]
        inv = self._inv = [-1] * n
        # inverses come in pairs; i and j are where's own ints, so the list
        # shares them instead of holding n/2 new ones
        for x, i in where.items():
            if inv[i] < 0:
                j = where[inverse(x)]
                inv[i] = j
                inv[j] = i
        k = len(gens)
        code = self._code = "H" if n <= 1 << 16 else "I"
        self._tree = tree
        # i * gens[t], read off the enumeration
        steps = self._steps = [array(code, prods[t::k]) for t in range(k)]
        cols = self._cols = {0: range(n)}  # the identity column, never built
        cols.update(zip(self.gens, steps))
        # the most columns held: these, and any others up to the budget
        self._most = len(cols) + COLUMN_BUDGET // (n * array(code).itemsize)
        self._orders = None
        self._classes = None
        self._conj_maps = None
        self._memo = {}  # query results, kept by cached_query

    # -- basic arithmetic ----------------------------------------------------

    def _descent(self, j: int):
        """The column of j's nearest held ancestor x in the tree, and the
        way down from x to j: (y, the column of s) for each tree edge
        y = parent*s, top first."""
        cols, tree, steps = self._cols, self._tree, self._steps
        k = len(steps)
        path = []
        while j not in cols:
            x, t = divmod(tree[j], k)
            path.append((j, steps[t]))
            j = x
        path.reverse()
        return cols[j], path

    def column(self, j: int):
        """col[i] = i*j for every element i.

        The held column, or one gathered along j's tree word, each column
        on the way kept: i*y = (i*x)*s for the tree edge y = x*s, one
        C-level gather per edge.  Past COLUMN_BUDGET the oldest column
        kept goes; the identity's and the generators' stay.
        """
        cols = self._cols
        c = cols.get(j)
        if c is None:
            c, path = self._descent(j)
            for y, s in path:
                c = cols[y] = array(self._code, itemgetter(*c)(s))
                if len(cols) > self._most:  # the oldest after those held
                    del cols[next(islice(cols, len(self.gens) + 1, None))]
        return c

    def mul(self, i: int, j: int) -> int:
        """i*j: a read of j's column if it is held, else one generator-column
        read per edge of j's tree word; it builds no column."""
        c = self._cols.get(j)
        if c is not None:
            return c[i]
        c, path = self._descent(j)
        i = c[i]
        for _, s in path:
            i = s[i]
        return i

    def inv(self, i: int) -> int:
        return self._inv[i]

    def conj(self, i: int, g: int) -> int:
        """g^-1 * i * g = (i^-1 g)^-1 g."""
        c = self.column(g)
        inv = self._inv
        return c[inv[c[inv[i]]]]

    def commute(self, xs, ys) -> bool:
        """True iff every x in xs commutes with every y in ys, tested as
        conj(x, y) == x: only the columns of ys are read."""
        return all(self.conj(x, y) == x for y in ys for x in xs)

    def commutator(self, i: int, j: int) -> int:
        """i^-1 j^-1 i j = ((j i)^-1 i) j."""
        ci = self.column(i)
        return self.column(j)[ci[self._inv[ci[j]]]]

    def conj_map(self, g: int) -> list:
        """[g^-1 i g for every element i]."""
        c = self.column(g)
        inv = self._inv
        return list(map(c.__getitem__, map(inv.__getitem__,
                                           map(c.__getitem__, inv))))

    def element_order(self, i: int) -> int:
        """A class function: one cycle decomposition per conjugacy class."""
        if self._orders is None:
            classes = self.conjugacy_classes()
            orders = [0] * self.n  # kept only once every class is in
            for cls in classes:
                o = pm.perm_order(self.perms[cls[0]])
                for x in cls:
                    orders[x] = o
            self._orders = orders
        return self._orders[i]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- conjugacy machinery ---------------------------------------------------

    def conj_maps(self):
        """The conjugation map i -> g^-1 i g of each generator g, each an
        array of the group's column type.  An orbit of a finite group is
        closed under its generators alone, so no inverse's map is kept."""
        if self._conj_maps is None:
            self._conj_maps = [array(self._code, self.conj_map(g))
                               for g in self.gens]
        return self._conj_maps

    def conjugacy_classes(self):
        """Partition of indices into conjugacy classes, each sorted."""
        if self._classes is None:
            self._classes = [sorted(o)
                             for o in orbits(self.n, self.conj_maps())[1]]
        return self._classes

    # -- subgroup helpers ------------------------------------------------------

    def close(self, gen_indices, maps=()) -> int:
        """Bitmask of the subgroup generated by the given element indices:
        the identity's closure under their columns and the index maps, one
        flag per element, or G once it passes n/2 elements (Lagrange)."""
        steps = [self.column(g) for g in gen_indices if g != 0]
        steps += maps
        half = self.n // 2
        seen = bytearray(self.n)
        seen[0] = 1
        elems = [0]
        for x in elems:  # elems grows while it is walked
            for c in steps:
                y = c[x]
                if not seen[y]:
                    seen[y] = 1
                    elems.append(y)
            if len(elems) > half:
                return self.full_mask
        return mask_of(seen)

    def extender(self, mask: int, gens):
        """g -> mask of <H, g>, for the subgroup H = <gens> with this mask.

        Dimino's closure: <H, g> is walked from H by `walk_cosets` over the
        columns of H's generators and of g, and no other column is read.
        Once the cosets found would hold more than n/2 elements the answer
        is G, by Lagrange.
        """
        flags = flags_of(mask, self.n)
        h_elems = tuple(bits(mask))
        steps_h = [self.column(s) for s in gens]
        most = self.n // (2 * len(h_elems))

        def extend(g: int) -> int:
            if mask >> g & 1:
                return mask
            seen = bytearray(flags)
            if walk_cosets([h_elems], steps_h + [self.column(g)], seen, most):
                return mask_of(seen)
            return self.full_mask

        return extend

    def grow(self, cands, order: int, mask: int = 1, gens=()):
        """Grow H = <gens> with this mask to this order: (mask, gens, spans).

        Each candidate c in turn that lies outside H makes H <H, c>, through
        `extender`, and is appended to gens; spans[i] is |H| after the i-th
        element taken.  None is read once H has the order, so cands may be
        lazy."""
        gens, spans = list(gens), []
        size = mask.bit_count()
        for c in cands if size < order else ():
            if not mask >> c & 1:
                mask = self.extender(mask, gens)(c)
                gens.append(c)
                size = mask.bit_count()
                spans.append(size)
                if size == order:
                    break
        return mask, gens, spans

    def normal_closure(self, seed) -> int:
        """Mask of the smallest normal subgroup N holding the seed elements.

        One `close` walk from the identity over the seed's columns and the
        generators' conjugation maps.  The set S it closes is invariant
        under conjugation, so for x in S, a seed s and any h,
        x*s^h = (x^(h^-1)*s)^h is in S: S is closed under right products by
        every conjugate of a seed, and is N.
        """
        return self.close(seed, self.conj_maps())

    def centralizer(self, gen_indices) -> int:
        """Mask of elements commuting with every listed element."""
        mask = self.full_mask
        for t in gen_indices:
            mask &= mask_of(map(eq, self.conj_map(t), range(self.n)))
        return mask

    def center(self) -> int:
        return self.centralizer(self.gens)

    def conjugation_orbit(self, mask: int):
        """The conjugates of the set H with this mask: points, trans, to, as
        `set_orbit` walks them under the generators' conjugation maps.

        H is a subgroup, or any set of elements, such as one element 1 << r.
        trans[i] is an element u with H^u = points[i], carried as u_y = u_x g
        on the tree step points[x]^g = points[y], read off g's column.
        """
        cols = [self.column(g) for g in self.gens]
        return set_orbit(bits(mask), self.conj_maps(), 0,
                         lambda u, t: cols[t][u])

    def normalizer(self, mask: int, gens, orbit=None) -> tuple[int, list[int]]:
        """N(H) for the subgroup H = <gens> with this mask: (mask, generators).

        By orbit-stabilizer |N(H)| = n/|orbit| for H's conjugation orbit.
        N(H) is grown (`grow`) from H to that order by the orbit walk's
        Schreier elements (`schreier_steps`), conjugated by u_H^-1 when the
        walk started at another conjugate, each made only when read; a
        normal H (an orbit of one point) gets G's generators after its own.
        orbit is H's orbit as returned by `conjugation_orbit`, walked from
        H or from any conjugate of H.
        """
        if orbit is None:
            orbit = self.conjugation_orbit(mask)
        points, trans, to = orbit
        target = self.n // len(points)
        gens = list(gens)
        if mask.bit_count() == target:
            return mask, gens
        if len(points) == 1:  # H is normal: N(H) is G, no Schreier growth
            return self.full_mask, gens + self.gens
        u = trans[points.index(tuple(sorted(bits(mask), reverse=True)))]
        cols = [self.column(g) for g in self.gens]
        inv = self._inv
        steps = schreier_steps(to, trans, len(cols),
                               lambda v, t: cols[t][v])  # u_x g
        return self.grow((self.conj(self.mul(a, inv[trans[y]]), u)
                          for a, y in steps), target, mask, gens)[:2]

    def derived_subgroup(self) -> tuple[int, list[int]]:
        mask = self.normal_closure({self.commutator(a, b)
                                    for a in self.gens for b in self.gens})
        return mask, self.gens_for_mask(mask)

    def is_abelian_set(self, gen_indices) -> bool:
        gl = list(gen_indices)
        return all(self.commute(gl[:i], (y,)) for i, y in enumerate(gl))

    def is_abelian(self) -> bool:
        return self.is_abelian_set(self.gens)

    def is_normal_mask(self, mask: int, gens=None) -> bool:
        """True iff the subgroup mask = <gens>, by default all of it, is
        invariant under the conjugation maps of G's generators."""
        return invariant(mask, gens or bits(mask), self.conj_maps())

    def gens_for_mask(self, mask: int) -> list[int]:
        """Small deterministic generating set for a subgroup mask: `grow`
        by its elements ascending."""
        return self.grow(bits(mask), mask.bit_count())[1]

    # -- Sylow -------------------------------------------------------------------

    def sylow_subgroup(self, p: int) -> tuple[int, list[int]]:
        """Deterministic Sylow p-subgroup: grow from the first p-element of
        greatest order by the first p-element of the normalizer outside it,
        each step through `extender`.  Returns (mask, generators)."""
        target = p_part(self.n, p)
        if target == 1:
            return 1, []
        # the p-elements: their orders divide the p-part
        ps = mask_of(bytes(target % self.element_order(i) == 0
                           for i in range(self.n)))
        gens = [max(bits(ps), key=self.element_order)]
        mask = self.close(gens)
        while mask.bit_count() < target:
            nrm, _ = self.normalizer(mask, gens)
            y = next(bits(nrm & ps & ~mask), None)
            if y is None:  # cannot happen below the p-part
                raise AssertionError("Sylow growth stalled")
            mask = self.extender(mask, gens)(y)
            gens.append(y)
        return mask, gens

    def __len__(self):
        return self.n

    def __repr__(self):
        label = self.name or "group"
        return f"Materialized({label}, order={self.n})"


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    if n < 1:
        raise ValueError("order must be positive")
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def coprime(n: int, p: int) -> bool:
    return gcd(n, p) == 1


def breadth_first(one, steps, cap: int, name: str):
    """Enumerate the closure of one under the maps in steps, x -> x*s for
    each generator s.

    Returns the elements in discovery order, a dict from element to
    position, the tree and the positions of the products, len(steps) per
    element in discovery order: prods[x*k + t] is the position of
    steps[t](elems[x]), for the k steps.  tree[y] is the index in prods
    where y was first found, so y = steps[t](elems[x]) for (x, t) =
    divmod(tree[y], k): the breadth-first tree, with the step of each edge
    (a Schreier vector).
    """
    elems = [one]
    where = {one: 0}
    tree = array("q", [0])

    def add(y, at):
        if len(elems) >= cap:
            raise CapExceeded(
                f"materialization cap {cap} exceeded"
                + (f" for {name}" if name else "")
            )
        j = where[y] = len(elems)
        elems.append(y)
        tree.append(at)
        return j

    prods = []
    get = where.get
    for x in elems:  # elems grows while it is walked
        for step in steps:
            y = step(x)
            j = get(y)
            prods.append(add(y, len(prods)) if j is None else j)
    return elems, where, tree, prods


def materialize(group: pm.PermGroup, name: str = "") -> MaterializedGroup:
    """Exhaustively enumerate a PermGroup (breadth-first closure)."""
    order = group.order()
    cap = _active_caps.max_order
    if order > cap:
        raise CapExceeded(f"order {order} exceeds materialization cap {cap}")
    m = MaterializedGroup(group.generators, group.degree, cap=cap, name=name)
    if m.n != order:
        raise AssertionError("closure disagrees with stabilizer chain order")
    return m

