"""Exact arithmetic in small finite fields GF(p^k) with p^k <= 256.

Elements are encoded as integers 0..p^k-1: the base-p digits of the
encoding are the coefficients of the residue polynomial, lowest degree
first.  All products are precomputed into a full multiplication table,
so arithmetic is table lookup.
"""

from __future__ import annotations

from functools import lru_cache

SIZE_CAP = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_prime_power(n: int) -> bool:
    """True if n = p^k for a prime p and k >= 1."""
    return n >= 2 and factor_prime_power(n) is not None


def factor_prime_power(n: int):
    """Return (p, k) with n = p^k, or None if n is not a prime power."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            m = n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (n, 1)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a, m, p):
    # m monic; reduce a modulo m
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    while len(a) > dm:
        a.pop()
    while len(a) < dm:
        a.append(0)
    return a


def _is_irreducible(f, p):
    """Exhaustive factor check: no monic divisor of degree 1..deg(f)//2."""
    k = len(f) - 1
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for enc in range(p**d):
            g = _digits(enc, p, d) + [1]
            if not any(_poly_mod(f, g, p)):
                return False
    return True


def _digits(n, p, width):
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


class Field:
    """The finite field GF(p^k) with the lexicographically smallest modulus.

    Immutable after construction; all operations are table lookups.
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1 or p**k > SIZE_CAP:
            raise ValueError(f"field size {p}^{k} outside 2..{SIZE_CAP}")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = self._smallest_modulus()
        self._build_tables()

    def _smallest_modulus(self):
        # candidates ordered low-degree-coefficient first; the encoding loop
        # below enumerates coefficient tuples (c_0, ..., c_{k-1}) in lex order
        p, k = self.p, self.k
        from itertools import product

        for lower in product(range(p), repeat=k):
            f = list(lower) + [1]
            if _is_irreducible(f, p):
                return tuple(f)
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        m = list(self.modulus)
        self._mul = [[0] * q for _ in range(q)]
        self._add = [[0] * q for _ in range(q)]
        polys = [_digits(e, p, k) for e in range(q)]
        for a in range(q):
            pa = polys[a]
            for b in range(a, q):
                pb = polys[b]
                s = [(x + y) % p for x, y in zip(pa, pb)]
                enc = self._encode(s)
                self._add[a][b] = self._add[b][a] = enc
                pr = _poly_mod(_poly_mul(pa, pb, p), m, p)
                enc = self._encode(pr)
                self._mul[a][b] = self._mul[b][a] = enc
        self._neg = [self._encode([(-c) % p for c in polys[a]]) for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            row = self._mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    self._inv[a] = b
                    break

    def _encode(self, coeffs):
        enc = 0
        for c in reversed(coeffs):
            enc = enc * self.p + c
        return enc

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        while e:
            if e & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            e >>= 1
        return r

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        x, n = a, 1
        while x != 1:
            x = self._mul[x][a]
            n += 1
        return n

    def primitive_element(self) -> int:
        """Smallest element encoding of multiplicative order q-1."""
        for a in range(1, self.q):
            if self.element_order(a) == self.q - 1:
                return a
        raise AssertionError("multiplicative group not cyclic")  # unreachable

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field_new(p: int, k: int) -> Field:
    """Construct (and cache) the field GF(p^k); deterministic across runs."""
    return Field(p, k)


def field_of_order(q: int) -> Field:
    pk = factor_prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    return field_new(*pk)
