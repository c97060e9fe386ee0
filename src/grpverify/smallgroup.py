"""Fully materialized groups: element tables, classes, centralizers, Sylow.

A MaterializedGroup stores every element as a permutation tuple, indexed
by breadth-first discovery order from the generators (index 0 is the
identity).  Subgroups and other element sets are integer bitmasks over
element indices.

Every group is enumerated by one breadth-first routine, `breadth_first`,
over a step function x -> x*s.  A group given by permutations composes
them; a subgroup steps with its parent's products and Aut(G) with the
images of G's generators (`MaterializedGroup.enumerated`), so neither
composes a permutation.  For a group of order at most TABLE_MAX_ORDER the
products x*s by each generator s are kept as that generator's column.

Every product is read from `mul(i, j)` or from the column of j,
`column(j)[i] = i*j`, and each reader is written once over them.  Outside
a table scope a column is a view that composes two permutation tuples
and looks the result up by hash on each read.  Inside one (`table_scope`,
`cached_query`), a group of order at most TABLE_MAX_ORDER multiplies by
table lookup instead: right-multiplication columns, each its own 16-bit
array, built on first use of j from the column of j's parent in the
breadth-first tree and a generator column.  The columns are dropped when
the outermost scope on that group exits, so a query that builds k
columns holds about 2kn bytes, and only while it runs.

A subgroup is closed from its generators by `close`, which walks from
the identity, or grown by one element from a known subgroup H by
`extender`, which walks <H, g> by right cosets of H, each gathered from
an earlier one over a generator's column, and stops at more than n/2
elements, where the answer can only be G.

The heavy queries of the lattice and autmorph modules are `cached_query`
functions: their results are kept per group in one memo, owned here.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from itertools import islice
from math import gcd
from operator import eq, itemgetter

from . import perm as pm

MAX_ORDER = 50000
TABLE_MAX_ORDER = 8192  # largest order multiplied by table lookup

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class CapExceeded(RuntimeError):
    pass


def bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def image_mask(mask: int, table) -> int:
    """Mask of {table[i] : i in mask}: an element set under an index map."""
    out = 0
    for i in bits(mask):
        out |= 1 << table[i]
    return out


def flags_of(mask: int, n: int) -> bytes:
    """flags[i] == 1 iff bit i of mask is set, for i < n."""
    return format(mask, "b").zfill(n)[::-1].encode().translate(_TO_FLAGS)


def mask_of(flags) -> int:
    """Inverse of flags_of: the mask whose bit i is flags[i] (0 or 1)."""
    return int(bytes(flags).translate(_TO_DIGITS)[::-1], 2)


def cached_query(label: str, default_cap: int):
    """Make fn(M) the query fn(M, cap=default_cap), computed once per group.

    The cap is checked on every call, memo hits included, so a call is
    refused the same way whatever ran before it; a result that is not yet
    known is computed inside a table scope.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def query(M, cap: int = default_cap):
            if M.n > cap:
                raise CapExceeded(f"order {M.n} exceeds {label} cap {cap}")
            memo = M._memo
            if fn not in memo:
                with M.table_scope():
                    memo[fn] = fn(M)
            return memo[fn]

        return query

    return decorate


class _ComposedColumn:
    """col[i] = i*j, composed on each read: a column outside a table scope."""

    __slots__ = ("index", "perms", "p")

    def __init__(self, M, j):
        self.index = M.index
        self.perms = M.perms
        self.p = M.perms[j]

    def __getitem__(self, i):
        return self.index[pm.compose(self.perms[i], self.p)]

    def __iter__(self):
        return map(self.__getitem__, range(len(self.perms)))


class MaterializedGroup:
    def __init__(self, generators, degree, cap: int = MAX_ORDER, name: str = ""):
        self._enumerate(pm.identity(degree), map(tuple, generators), pm.compose,
                        None, pm.inverse, degree, cap, name)

    @classmethod
    def enumerated(cls, one, gens, step, perm_of, inverse, degree: int,
                   cap: int = MAX_ORDER, name: str = "") -> "MaterializedGroup":
        """The group generated by gens, with elements in any hashable form.

        one is the identity, step(x, s) = x*s, perm_of(x) is the permutation
        of degree that x stands for and inverse(x) = x^-1.  The elements and
        their order are those of MaterializedGroup(map(perm_of, gens), ...).
        """
        self = cls.__new__(cls)
        self._enumerate(one, gens, step, perm_of, inverse, degree, cap, name)
        return self

    def _enumerate(self, one, gens, step, perm_of, inverse, degree, cap, name):
        self.degree = degree
        self.name = name
        gens = list(dict.fromkeys(g for g in gens if g != one))
        elems, where, parent, prods = breadth_first(one, gens, step, cap, name)
        n = self.n = len(elems)
        if perm_of is None:
            self.perms, self.index = elems, where
        else:
            self.perms = list(map(perm_of, elems))
            self.index = dict(zip(self.perms, range(n)))
        self.gens = [where[g] for g in gens]
        self._inv = [where[inverse(x)] for x in elems]
        # decided once: only small groups ever open a table
        if n <= TABLE_MAX_ORDER:
            k = len(gens)
            self._parent = parent
            # _gen_cols[t][i] = i * gens[t], read off the enumeration
            self._gen_cols = [array("H", prods[t::k]) for t in range(k)]
        else:
            self._parent = self._gen_cols = None
        self._scopes = 0
        self._cols = None  # per-element columns while a scope is open
        self._orders = None
        self._classes = None
        self._class_of = None
        self._conj_maps = None
        self._memo = {}  # query results, kept by cached_query

    # -- table scope -----------------------------------------------------------

    @contextmanager
    def table_scope(self):
        """Multiply by table lookup until the outermost scope exits.

        Nested scopes share one table.  Nothing is built until the first
        product; groups above TABLE_MAX_ORDER keep the compose path.
        """
        if self._parent is None:
            yield
            return
        self._scopes += 1
        if self._scopes == 1:
            self._cols = [None] * self.n
            self._cols[0] = range(self.n)  # the identity column, never built
        try:
            yield
        finally:
            self._scopes -= 1
            if not self._scopes:
                self._cols = None

    def column(self, j: int):
        """col[i] = i*j for every element i.

        Inside a table scope, the stored column; otherwise a view that
        composes on each read and stores nothing.
        """
        cols = self._cols
        if cols is None:
            return _ComposedColumn(self, j)
        c = cols[j]
        if c is not None:
            return c
        parent = self._parent
        path = []
        y = j
        while cols[y] is None:
            path.append(y)
            y = parent[y]
        for y in reversed(path):
            x = parent[y]
            # i*y = (i*x)*s for the tree edge y = x*s; one itemgetter
            # gathers the whole column in C (n >= 2 here)
            step = next(s for s in self._gen_cols if s[x] == y)
            cols[y] = array("H", itemgetter(*cols[x])(step))
        return cols[j]

    # -- basic arithmetic ----------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        cols = self._cols
        if cols is None:
            return self.index[pm.compose(self.perms[i], self.perms[j])]
        c = cols[j]
        if c is None:
            c = self.column(j)
        return c[i]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def conj(self, i: int, g: int) -> int:
        """g^-1 * i * g = (i^-1 g)^-1 g."""
        c = self.column(g)
        inv = self._inv
        return c[inv[c[inv[i]]]]

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

    def left_map(self, g: int) -> list:
        """[g i for every element i]; g i = (i^-1 g^-1)^-1 reads only the
        column of g^-1."""
        inv = self._inv
        c = self.column(inv[g])
        return list(map(inv.__getitem__, map(c.__getitem__, inv)))

    def right_map(self, g: int) -> list:
        """[i g for every element i]."""
        return list(self.column(g))

    def power(self, i: int, e: int) -> int:
        if e < 0:
            return self.power(self._inv[i], -e)
        r = 0
        while e:
            if e & 1:
                r = self.mul(r, i)
            i = self.mul(i, i)
            e >>= 1
        return r

    def element_order(self, i: int) -> int:
        if self._orders is None:
            if self._classes is None:
                self._orders = [pm.perm_order(p) for p in self.perms]
            else:  # a class function: one cycle decomposition per class
                orders = self._orders = [0] * self.n
                for cls in self._classes:
                    o = pm.perm_order(self.perms[cls[0]])
                    for x in cls:
                        orders[x] = o
        return self._orders[i]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- conjugacy machinery ---------------------------------------------------

    def conj_maps(self):
        """Per-generator conjugation tables i -> g^-1 i g (and inverses)."""
        if self._conj_maps is None:
            maps = []
            for g in self.gens:
                for h in (g, self._inv[g]):
                    maps.append(self.conj_map(h))
            self._conj_maps = maps
        return self._conj_maps

    def conjugacy_classes(self):
        """Partition of indices into conjugacy classes (orbit expansion)."""
        if self._classes is None:
            maps = self.conj_maps()
            class_of = [-1] * self.n
            classes = []
            for i in range(self.n):
                if class_of[i] >= 0:
                    continue
                cid = len(classes)
                orbit = [i]
                class_of[i] = cid
                qi = 0
                while qi < len(orbit):
                    x = orbit[qi]
                    qi += 1
                    for m in maps:
                        y = m[x]
                        if class_of[y] < 0:
                            class_of[y] = cid
                            orbit.append(y)
                classes.append(sorted(orbit))
            self._classes = classes
            self._class_of = class_of
        return self._classes

    def class_of(self, i: int) -> int:
        self.conjugacy_classes()
        return self._class_of[i]

    # -- subgroup helpers ------------------------------------------------------

    def close(self, gen_indices) -> int:
        """Bitmask of the subgroup generated by the given element indices."""
        gens = [g for g in gen_indices if g != 0]
        if self._cols is not None:
            steps = [self.column(g) for g in gens]
            seen = bytearray(self.n)
            seen[0] = 1
            elems = [0]
            for x in elems:  # elems grows while it is walked
                for c in steps:
                    y = c[x]
                    if not seen[y]:
                        seen[y] = 1
                        elems.append(y)
            return mask_of(seen)
        mask = 1
        elems = [0]
        qi = 0
        while qi < len(elems):
            x = elems[qi]
            qi += 1
            for g in gens:
                y = self.mul(x, g)
                if not mask >> y & 1:
                    mask |= 1 << y
                    elems.append(y)
        return mask

    def extender(self, mask: int, gens):
        """g -> mask of <H, g>, for the subgroup H = <gens> with this mask.

        Dimino's closure: <H, g> is walked right coset by right coset of H
        instead of element by element from the identity.  For each coset
        Ht found so far and each generator s of H or g, Hts either is a
        known coset (ts has been seen) or is new, and then it is Ht
        multiplied by s: one gather of Ht's elements over the column of s.
        No column but the generators' is read.  Once the cosets found hold
        more than n/2 elements the answer is G, by Lagrange.
        """
        n = self.n
        full = self.full_mask
        order = mask.bit_count()
        flags = flags_of(mask, n)
        # a coset Ht is the tuple of its elements; any of them serves as t
        h_elems = tuple(bits(mask))
        steps_h = [self.column(s) for s in gens]

        def extend(g: int) -> int:
            if mask >> g & 1:
                return mask
            seen = bytearray(flags)
            steps = steps_h + [self.column(g)]
            size = order
            cosets = [h_elems]
            for coset in cosets:  # cosets grows while it is walked
                t = coset[0]
                for c in steps:
                    if not seen[c[t]]:
                        size += order
                        if 2 * size > n:
                            return full
                        new = itemgetter(*coset)(c) if order > 1 else (c[t],)
                        cosets.append(new)
                        for y in new:
                            seen[y] = 1
            return mask_of(seen)

        return extend

    def normal_closure(self, seed) -> tuple[int, list[int]]:
        """Smallest normal subgroup containing the seed elements.

        Returns (mask, generating indices).
        """
        gens = [g for g in seed if g != 0]
        mask = self.close(gens)
        pending = list(gens)
        while pending:
            h = pending.pop()
            for g in self.gens:
                c = self.conj(h, g)
                if not mask >> c & 1:
                    gens.append(c)
                    pending.append(c)
                    mask = self.close(gens)
        return mask, gens

    def centralizer(self, gen_indices) -> int:
        """Mask of elements commuting with every listed element."""
        mask = self.full_mask
        for t in gen_indices:
            mask &= mask_of(map(eq, self.conj_map(t), range(self.n)))
        return mask

    def center(self) -> int:
        return self.centralizer(self.gens)

    def normalizer(self, sub_gens) -> int:
        """Mask of elements g with H^g == H, for H generated by sub_gens."""
        gl = list(sub_gens)
        # x normalizes H iff h x lies in the left coset xH for each h
        coset = self._left_cosets(gl)
        out = self.full_mask
        for h in gl:
            hx = self.left_map(h)
            out &= mask_of(map(eq, map(coset.__getitem__, hx), coset))
        return out

    def _left_cosets(self, sub_gens) -> list:
        """label[y] == label[z] iff yH == zH, for H generated by sub_gens."""
        steps = [self.column(h) for h in sub_gens]
        label = [-1] * self.n
        k = 0
        for y in range(self.n):
            if label[y] >= 0:
                continue
            label[y] = k
            orbit = [y]
            for x in orbit:
                for c in steps:
                    z = c[x]
                    if label[z] < 0:
                        label[z] = k
                        orbit.append(z)
            k += 1
        return label

    def derived_subgroup(self) -> tuple[int, list[int]]:
        comms = set()
        for a in self.gens:
            for b in self.gens:
                comms.add(self.commutator(a, b))
        comms.discard(0)
        return self.normal_closure(sorted(comms))

    def is_abelian_set(self, gen_indices) -> bool:
        gl = list(gen_indices)
        for i, a in enumerate(gl):
            for b in gl[i + 1 :]:
                if self.mul(a, b) != self.mul(b, a):
                    return False
        return True

    def is_abelian(self) -> bool:
        return self.is_abelian_set(self.gens)

    def is_subgroup_mask(self, mask: int) -> bool:
        if not mask & 1:
            return False
        idx = list(bits(mask))
        return all(mask >> self.mul(a, b) & 1 for a in idx for b in idx)

    def is_normal_mask(self, mask: int, sub_gens=None) -> bool:
        gl = list(sub_gens) if sub_gens is not None else list(bits(mask))
        return all(mask >> self.conj(h, g) & 1 for h in gl for g in self.gens)

    def gens_for_mask(self, mask: int) -> list[int]:
        """Small deterministic generating set for a subgroup mask."""
        gens = []
        have = 1
        for i in bits(mask):
            if not have >> i & 1:
                gens.append(i)
                have = self.close(gens)
                if have == mask:
                    break
        return gens

    # -- Sylow -------------------------------------------------------------------

    def sylow_subgroup(self, p: int) -> tuple[int, list[int]]:
        """Deterministic Sylow p-subgroup: grow from a maximal p-element
        by p-elements of the normalizer.  Returns (mask, generators)."""
        target = p_part(self.n, p)
        if target == 1:
            return 1, []
        best = 0
        best_order = 1
        for i in range(1, self.n):
            o = self.element_order(i)
            if o > best_order and p_part(o, p) == o:
                best, best_order = i, o
        gens = [best]
        mask = self.close(gens)
        while mask.bit_count() < target:
            nrm = self.normalizer(gens)
            grown = False
            for y in bits(nrm):
                if mask >> y & 1:
                    continue
                o = self.element_order(y)
                if p_part(o, p) != o:
                    continue
                gens.append(y)
                mask = self.close(gens)
                grown = True
                break
            if not grown:  # cannot happen for p-subgroups below the p-part
                raise AssertionError("Sylow growth stalled")
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


def breadth_first(one, gens, step, cap: int, name: str = ""):
    """Enumerate the closure of one under x -> step(x, s) for s in gens.

    Returns the elements in discovery order, a dict from element to
    position, the breadth-first parent of each element (y = parent[y]*s for
    some s) and the positions of the products, len(gens) per element in
    discovery order; for a group above TABLE_MAX_ORDER, None.
    """
    elems = [one]
    where = {one: 0}
    parent = array("i", [0])

    def add(y, qi):
        if len(elems) >= cap:
            raise CapExceeded(
                f"materialization cap {cap} exceeded"
                + (f" for {name}" if name else "")
            )
        j = where[y] = len(elems)
        elems.append(y)
        parent.append(qi)
        return j

    # products are kept only while the group may still fit a table
    prods = array("i")
    get = where.get
    for qi, x in enumerate(elems):  # elems grows while it is walked
        if len(elems) > TABLE_MAX_ORDER:
            break
        for s in gens:
            y = step(x, s)
            j = get(y)
            prods.append(add(y, qi) if j is None else j)
    else:
        return elems, where, parent, prods
    for qi, x in enumerate(islice(elems, qi, None), qi):
        for s in gens:
            y = step(x, s)
            if y not in where:
                add(y, qi)
    return elems, where, parent, None


def materialize(group: pm.PermGroup, cap: int = MAX_ORDER, name: str = "") -> MaterializedGroup:
    """Exhaustively enumerate a PermGroup (breadth-first closure)."""
    order = group.order()
    if order > cap:
        raise CapExceeded(f"order {order} exceeds materialization cap {cap}")
    m = MaterializedGroup(group.generators, group.degree, cap=cap, name=name)
    if m.n != order:
        raise AssertionError("closure disagrees with stabilizer chain order")
    return m

