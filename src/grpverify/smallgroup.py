"""Fully materialized groups: element tables, classes, centralizers, Sylow.

A MaterializedGroup stores every element as a permutation tuple, indexed
by breadth-first discovery order from the generators (index 0 is the
identity).  Subgroups and other element sets are integer bitmasks over
element indices.

Products compose two permutation tuples and look the result up by hash.
Inside a table scope (`table_scope`, `table_query`), a group of order at
most TABLE_MAX_ORDER multiplies by table lookup instead: right-
multiplication columns col[j][i] = i*j, 16-bit, built on first use of j
from the column of j's parent in the breadth-first tree.  The columns of
one group share one anonymous mmap, unmapped when the outermost scope on
that group exits.
"""

from __future__ import annotations

import functools
import mmap
from array import array
from contextlib import contextmanager
from math import gcd
from operator import eq

from . import perm as pm

MAX_ORDER = 50000
TABLE_MAX_ORDER = 2048  # largest order multiplied by table lookup

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


def table_query(fn):
    """Run fn(M, ...) inside a table scope on its group argument M."""

    @functools.wraps(fn)
    def wrapper(M, *args, **kwargs):
        with M.table_scope():
            return fn(M, *args, **kwargs)

    return wrapper


class MaterializedGroup:
    def __init__(self, generators, degree, cap: int = MAX_ORDER, name: str = ""):
        self.degree = degree
        self.name = name
        ident = pm.identity(degree)
        gens = []
        for g in generators:
            g = tuple(g)
            if g != ident and g not in gens:
                gens.append(g)
        perms = self.perms = [ident]
        index = self.index = {ident: 0}
        # breadth-first tree: y = parent[y] * s for some generator s
        parent = array("i", [0])
        for qi, x in enumerate(perms):  # perms grows while it is walked
            for g in gens:
                y = pm.compose(x, g)
                if y not in index:
                    if len(perms) >= cap:
                        raise CapExceeded(
                            f"materialization cap {cap} exceeded"
                            + (f" for {name}" if name else "")
                        )
                    index[y] = len(perms)
                    perms.append(y)
                    parent.append(qi)
        self.n = len(perms)
        self.gens = [index[g] for g in gens]
        self._inv = [index[pm.inverse(p)] for p in perms]
        # decided once: only small groups ever open a table
        self._parent = parent if self.n <= TABLE_MAX_ORDER else None
        self._scopes = 0
        self._cols = None  # per-element column views while a scope is open
        self._mm = None
        self._mv = None
        self._orders = None
        self._classes = None
        self._class_of = None
        self._conj_maps = None
        # cache slots filled lazily by the lattice and autmorph modules
        self._aut = None
        self._normals = None
        self._all_subs = None
        self._sub_classes = None

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
            # instance attributes shadow the compose-path methods
            self.mul = self._table_mul
            self.conj = self._table_conj
            self.commutator = self._table_commutator
        try:
            yield
        finally:
            self._scopes -= 1
            if not self._scopes:
                self._close_table()

    def _open_table(self):
        n = self.n
        mm = mmap.mmap(-1, 2 * n * n)
        with memoryview(mm) as raw:
            mv = raw.cast("H")
        ident = mv[0:n]
        ident[:] = array("H", range(n))
        self._mm, self._mv = mm, mv
        self._cols[0] = ident

    def _close_table(self):
        del self.mul, self.conj, self.commutator
        cols, self._cols = self._cols, None
        mm, self._mm = self._mm, None
        if mm is None:
            return
        for c in cols:
            if c is not None:
                c.release()
        self._mv.release()
        self._mv = None
        try:
            mm.close()
        except BufferError:
            # a query interrupted (by a claim timeout, say) between taking a
            # view and storing it: the map goes when that frame goes
            pass

    def column(self, j: int):
        """col[i] = i*j for every element i; only inside a table scope."""
        cols = self._cols
        c = cols[j]
        if c is not None:
            return c
        if self._mm is None:
            self._open_table()
        parent = self._parent
        path = []
        y = j
        while cols[y] is None:
            path.append(y)
            y = parent[y]
        n = self.n
        mv = self._mv
        for y in reversed(path):
            c = mv[y * n:(y + 1) * n]
            x = parent[y]
            if x == 0:  # a generator: its column is its right action
                py = self.perms[y]
                index = self.index
                c[:] = array("H", [index[pm.compose(p, py)] for p in self.perms])
            else:  # i*y = (i*x)*s for the tree edge y = x*s
                step = next(s for s in map(self.column, self.gens)
                            if s[x] == y)
                c[:] = array("H", map(step.__getitem__, cols[x]))
            cols[y] = c
        return cols[j]

    def _table_mul(self, i: int, j: int) -> int:
        c = self._cols[j]
        if c is None:
            c = self.column(j)
        return c[i]

    def _table_conj(self, i: int, g: int) -> int:
        c = self._cols[g]
        if c is None:
            c = self.column(g)
        inv = self._inv
        return c[inv[c[inv[i]]]]

    def _table_commutator(self, i: int, j: int) -> int:
        ci = self.column(i)
        return self.column(j)[ci[self._inv[ci[j]]]]

    # -- basic arithmetic ----------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.index[pm.compose(self.perms[i], self.perms[j])]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def conj(self, i: int, g: int) -> int:
        """g^-1 * i * g."""
        return self.mul(self.mul(self._inv[g], i), g)

    def commutator(self, i: int, j: int) -> int:
        return self.mul(self.mul(self._inv[i], self._inv[j]), self.mul(i, j))

    def conj_map(self, g: int) -> list:
        """[g^-1 i g for every element i]."""
        if self._cols is None:
            return [self.conj(i, g) for i in range(self.n)]
        c = self.column(g)
        inv = self._inv
        return list(map(c.__getitem__, map(inv.__getitem__,
                                           map(c.__getitem__, inv))))

    def left_map(self, g: int) -> list:
        """[g i for every element i]; in a table scope, g i = (i^-1 g^-1)^-1
        reads only the column of g^-1."""
        if self._cols is None:
            return [self.mul(g, i) for i in range(self.n)]
        inv = self._inv
        c = self.column(inv[g])
        return list(map(inv.__getitem__, map(c.__getitem__, inv)))

    def right_map(self, g: int) -> list:
        """[i g for every element i]."""
        if self._cols is None:
            return [self.mul(i, g) for i in range(self.n)]
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
            self._orders = [pm.perm_order(p) for p in self.perms]
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
        targets = list(gen_indices)
        if self._cols is not None:
            mask = self.full_mask
            for t in targets:
                mask &= mask_of(map(eq, self.conj_map(t), range(self.n)))
            return mask
        mask = 0
        for x in range(self.n):
            if all(self.mul(x, t) == self.mul(t, x) for t in targets):
                mask |= 1 << x
        return mask

    def center(self) -> int:
        return self.centralizer(self.gens)

    def normalizer(self, mask: int, sub_gens) -> int:
        """Mask of elements g with (sub)^g == sub; sub_gens generate sub."""
        gl = list(sub_gens)
        if self._cols is not None:
            # x normalizes H iff h x lies in the left coset xH for each h
            coset = self._left_cosets(gl)
            out = self.full_mask
            for h in gl:
                hx = self.left_map(h)
                out &= mask_of(map(eq, map(coset.__getitem__, hx), coset))
            return out
        out = 0
        for x in range(self.n):
            if all(mask >> self.conj(h, x) & 1 for h in gl):
                out |= 1 << x
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
            nrm = self.normalizer(mask, gens)
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


def materialize(group: pm.PermGroup, cap: int = MAX_ORDER, name: str = "") -> MaterializedGroup:
    """Exhaustively enumerate a PermGroup (breadth-first closure)."""
    order = group.order()
    if order > cap:
        raise CapExceeded(f"order {order} exceeds materialization cap {cap}")
    m = MaterializedGroup(group.generators, group.degree, cap=cap, name=name)
    if m.n != order:
        raise AssertionError("closure disagrees with stabilizer chain order")
    return m


def materialize_gens(gens, degree, cap: int = MAX_ORDER, name: str = "") -> MaterializedGroup:
    """Materialize directly from generator permutations (no degree cap)."""
    return MaterializedGroup(gens, degree, cap=cap, name=name)
