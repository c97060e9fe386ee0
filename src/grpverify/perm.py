"""Permutations on small domains and stabilizer-chain permutation groups.

A permutation of degree d is a tuple `images` of length d with
images[i] = image of point i.  Composition applies the RIGHT factor
first: compose(a, b) maps i to a[b[i]].  `compose` is for products of two
arbitrary permutations; a walk that multiplies many elements by one fixed
permutation s steps by a gather at the points of s instead
(`smallgroup.gather`).  Cycle notation is 1-based externally
("(1 2 3)(4 5)", "()" for identity) and 0-based internally.
"""

from __future__ import annotations

import sys

Perm = tuple


class DegreeError(ValueError):
    pass


def identity(d: int) -> Perm:
    return tuple(range(d))


def compose(a: Perm, b: Perm) -> Perm:
    """Product a*b: apply b first, then a."""
    if len(a) != len(b):
        raise DegreeError(f"degree mismatch: {len(a)} vs {len(b)}")
    return tuple(map(a.__getitem__, b))


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def is_identity(a: Perm) -> bool:
    return all(i == x for i, x in enumerate(a))


def perm_order(a: Perm) -> int:
    from math import lcm

    n = 1
    for c in cycles(a):
        n = lcm(n, len(c))
    return n


def cycles(a: Perm):
    """Nontrivial cycles of a, each starting at its smallest point."""
    seen = [False] * len(a)
    out = []
    for i in range(len(a)):
        if seen[i] or a[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = a[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = a[j]
        out.append(cyc)
    return out


def parse_cycles(src: str, degree: int | None = None) -> Perm:
    """Parse 1-based disjoint cycle notation; "()" is the identity."""
    pos = 0
    n = len(src)
    points_seen = set()
    cycs = []
    while pos < n:
        while pos < n and src[pos].isspace():
            pos += 1
        if pos >= n:
            break
        if src[pos] != "(":
            raise ValueError(f"expected '(' at offset {pos} in {src!r}")
        pos += 1
        cyc = []
        while True:
            while pos < n and src[pos].isspace():
                pos += 1
            if pos >= n:
                raise ValueError(f"unclosed cycle in {src!r}")
            if src[pos] == ")":
                pos += 1
                break
            start = pos
            while pos < n and src[pos].isdecimal():
                pos += 1
            if pos == start:
                raise ValueError(f"expected point at offset {pos} in {src!r}")
            if pos - start > len(str(sys.maxsize)):  # longer than any index
                raise ValueError(f"point at offset {start} is too long")
            pt = int(src[start:pos]) - 1
            if pt < 0:
                raise ValueError(f"points are 1-based in {src!r}")
            if pt in points_seen:
                raise ValueError(f"point {pt + 1} repeated in {src!r}")
            points_seen.add(pt)
            cyc.append(pt)
        if cyc:
            cycs.append(cyc)
    d = max(points_seen) + 1 if points_seen else 0
    if degree is not None:
        if d > degree:
            raise ValueError(f"point {d} exceeds degree {degree}")
        d = degree
    images = list(range(d))
    for cyc in cycs:
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


class _Level:
    __slots__ = ("point", "transversal", "gens")

    def __init__(self, point):
        self.point = point
        self.transversal = {point: None}  # None stands for the identity
        self.gens = []


class PermGroup:
    """Permutation group with a deterministic Schreier-Sims chain.

    Base points are the smallest moved points; orbits are extended in
    BFS order, so the chain (and hence the order computation) is
    reproducible across runs.
    """

    def __init__(self, generators, degree: int):
        if degree < 1:
            raise DegreeError("empty domain")
        gens = []
        for g in generators:
            g = tuple(g)
            if len(g) != degree:
                raise DegreeError("generator degree mismatch")
            if not is_identity(g):
                gens.append(g)
        self.degree = degree
        self.generators = gens
        self._levels: list[_Level] = []
        self._id = identity(degree)
        for g in gens:
            self._extend(0, g)

    # -- chain construction ------------------------------------------------

    def _rep(self, level: _Level, pt):
        u = level.transversal[pt]
        return self._id if u is None else u

    def _extend(self, i, g):
        """Install g as a strong generator at level i (it fixes base[:i])."""
        stack = [(i, g)]
        while stack:
            i, g = stack.pop()
            g = self._sift_from(i, g)
            if g is None:
                continue
            if i == len(self._levels):
                moved = min(x for x in range(self.degree) if g[x] != x)
                self._levels.append(_Level(moved))
            lvl = self._levels[i]
            lvl.gens.append(g)
            # extend the orbit and sift only the Schreier generators not
            # sifted before: g's on the old points, every generator's on
            # the new ones.  The others already lie in the group the next
            # level generates, which only grows.
            orbit = list(lvl.transversal)
            old = len(orbit)
            qi = 0
            while qi < len(orbit):
                x = orbit[qi]
                qi += 1
                ux = self._rep(lvl, x)
                for s in (g,) if qi <= old else lvl.gens:
                    y = s[x]
                    sux = compose(s, ux)
                    if y not in lvl.transversal:
                        lvl.transversal[y] = sux
                        orbit.append(y)
                    else:
                        # the Schreier generator uy^-1 s ux is trivial
                        # exactly when s ux = uy
                        uy = self._rep(lvl, y)
                        if sux != uy:
                            stack.append((i + 1, compose(inverse(uy), sux)))

    def _sift_from(self, i, g):
        """Reduce g through levels >= i; return the residue or None."""
        while g != self._id:
            if i >= len(self._levels):
                return g
            lvl = self._levels[i]
            x = g[lvl.point]
            if x not in lvl.transversal:
                return g
            g = compose(inverse(self._rep(lvl, x)), g)
            i += 1
        return None

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        n = 1
        for lvl in self._levels:
            n *= len(lvl.transversal)
        return n

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order()})"
