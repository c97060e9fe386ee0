"""Builders for every named group in the catalog.

Group expressions are small ASTs (cyclic, dihedral, symmetric, alternating,
elementary abelian, Heisenberg, matrix and projective linear groups, Weyl
group of type D, products, swap squares, semidirect products).  build()
turns an expression into a GroupHandle: a permutation group plus cached
materialization and bookkeeping about distinguished generator sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import perm as pm
from .gf import Field, field_of_order, is_prime
from .lattice import Sub
from .perm import PermGroup
from .smallgroup import CapExceeded, MaterializedGroup, current_caps, materialize


class BuildError(ValueError):
    pass


class ActionError(BuildError):
    """The requested action does not define automorphisms of N."""


# --------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class Cyc:
    n: int


@dataclass(frozen=True)
class Dih:
    n: int  # order 2n


@dataclass(frozen=True)
class Sym:
    n: int


@dataclass(frozen=True)
class Alt:
    n: int


@dataclass(frozen=True)
class ElemAb:
    p: int
    m: int


@dataclass(frozen=True)
class H3:
    pass


@dataclass(frozen=True)
class Hess:
    pass


@dataclass(frozen=True)
class Hsl23:
    pass


@dataclass(frozen=True)
class MatGL:
    q: int


@dataclass(frozen=True)
class MatSL:
    q: int


@dataclass(frozen=True)
class ProjGL:
    q: int


@dataclass(frozen=True)
class ProjSL:
    q: int


@dataclass(frozen=True)
class PSL32:
    pass


@dataclass(frozen=True)
class WeylD:
    n: int


@dataclass(frozen=True)
class Prod:
    a: object
    b: object


@dataclass(frozen=True)
class SwapSq:
    e: object


@dataclass(frozen=True)
class Action:
    kind: str  # swap|natperm|evenperm|quotperm|linear|inv|explicit
    params: tuple = ()


@dataclass(frozen=True)
class Semi:
    n: object
    h: object
    action: Action


@dataclass(frozen=True)
class PGroup:
    n: int
    cycles: tuple


def to_src(expr) -> str:
    """Canonical textual form; reparses to an equal AST."""
    match expr:
        case Cyc(n):
            return f"C({n})"
        case Dih(n):
            return f"D({n})"
        case Sym(n):
            return f"S({n})"
        case Alt(n):
            return f"A({n})"
        case ElemAb(p, m):
            return f"EA({p},{m})"
        case H3():
            return "H3"
        case Hess():
            return "HESS"
        case Hsl23():
            return "HSL23"
        case MatGL(q):
            return f"GL(2,{q})"
        case MatSL(q):
            return f"SL(2,{q})"
        case ProjGL(q):
            return f"PGL(2,{q})"
        case ProjSL(q):
            return f"PSL(2,{q})"
        case PSL32():
            return "PSL(3,2)"
        case WeylD(n):
            return f"WD({n})"
        case Prod(a, b):
            return f"prod({to_src(a)},{to_src(b)})"
        case SwapSq(e):
            return f"swapsq({to_src(e)})"
        case Semi(n, h, act):
            return f"semi({to_src(n)},{to_src(h)},{action_src(act)})"
        case PGroup(n, cycles):
            parts = ",".join(f'"{c}"' for c in cycles)
            return f"pgroup({n},{parts})" if parts else f"pgroup({n})"
    raise BuildError(f"unknown expression {expr!r}")


def action_src(act: Action) -> str:
    if act.kind == "explicit" and act.params:
        return "explicit[" + ",".join(str(x) for x in act.params) + "]"
    return act.kind


# --------------------------------------------------------------------------
# handles


class GroupHandle:
    def __init__(self, group: PermGroup, parts: dict, expr=None, name: str = ""):
        self.group = group
        self.expr = expr
        self.name = name or (to_src(expr) if expr is not None else "")
        self.parts = parts
        self._mat = None

    @property
    def degree(self) -> int:
        return self.group.degree

    @property
    def order(self) -> int:
        return self.group.order()

    def materialized(self) -> MaterializedGroup:
        cap = current_caps().max_order
        if self._mat is None:
            self._mat = materialize(self.group, name=self.name)
        elif self._mat.n > cap:
            raise CapExceeded(
                f"order {self._mat.n} exceeds materialization cap {cap}")
        return self._mat

    def sub(self, key) -> Sub:
        """The subgroup generated by the permutations in parts[key]."""
        m = self.materialized()
        gens = tuple(m.index[p] for p in self.parts[key])
        return Sub(m.close(gens), gens)

    def __repr__(self):
        return f"GroupHandle({self.name or self.group!r})"


# --------------------------------------------------------------------------
# atomic builders


def _pg(gens, degree) -> PermGroup:
    return PermGroup(gens, degree, check_degree=False)


def _cycle(points, degree):
    images = list(range(degree))
    for i, x in enumerate(points):
        images[x] = points[(i + 1) % len(points)]
    return tuple(images)


def _build_cyclic(n):
    if n < 1:
        raise BuildError("C(n) needs n >= 1")
    if n == 1:
        return _pg([], 1), {}
    return _pg([_cycle(range(n), n)], n), {}


def _build_dihedral(n):
    if n < 2:
        raise BuildError("D(n) needs n >= 2 (order 2n)")
    if n == 2:  # D_4 = mu_2^2, faithful on 4 points
        a = _cycle([0, 1], 4)
        b = _cycle([2, 3], 4)
        return _pg([a, b], 4), {"rotation": a}
    r = _cycle(range(n), n)
    s = tuple((n - i) % n for i in range(n))
    return _pg([r, s], n), {"rotation": r}


def _sym_gens(n):
    if n < 2:
        return []
    gens = [_cycle([0, 1], n)]
    if n > 2:
        gens.append(_cycle(range(n), n))
    return gens


def _build_sym(n):
    if n < 1:
        raise BuildError("S(n) needs n >= 1")
    return _pg(_sym_gens(n), max(n, 1)), {}


def _build_alt(n):
    if n < 1:
        raise BuildError("A(n) needs n >= 1")
    if n < 3:
        return _pg([], max(n, 1)), {}
    gens = [_cycle([0, 1, 2], n)]
    if n > 3:
        if n % 2:
            gens.append(_cycle(range(n), n))
        else:
            gens.append(_cycle(range(1, n), n))
    return _pg(gens, n), {}


def _ea_gens(p, m):
    return [_cycle(range(p * i, p * i + p), p * m) for i in range(m)]


def _build_elem_ab(p, m):
    if not is_prime(p):
        raise BuildError(f"EA({p},{m}): {p} is not prime")
    if m < 1 or p * m > 256:
        raise BuildError(f"EA({p},{m}): unsupported rank")
    return _pg(_ea_gens(p, m), p * m), {}


def _triple_perm(f):
    """The permutation f of the Heisenberg triples (x,y,z) over F_3, each
    numbered 9x + 3y + z."""
    images = []
    for x in range(3):
        for y in range(3):
            for z in range(3):
                u, v, w = f(x, y, z)
                images.append(9 * (u % 3) + 3 * (v % 3) + w % 3)
    return tuple(images)


def _h3_translation(g):
    """Right translation by g on Heisenberg triples (x,y,z) over F_3."""
    gx, gy, gz = g
    return _triple_perm(lambda x, y, z: (x + gx, y + gy, z + gz + x * gy))


def _h3_automorphism(a, b, c, d):
    """The automorphism of H3 lifting [[a, b], [c, d]] in SL_2(F_3)."""
    return _triple_perm(lambda x, y, z: (
        a * x + b * y, c * x + d * y,
        z + 2 * a * c * x * x + 2 * b * d * y * y + b * c * x * y))


def _build_h3():
    a = _h3_translation((1, 0, 0))
    b = _h3_translation((0, 1, 0))
    c = _h3_translation((0, 0, 1))
    return _pg([a, b], 27), {"center": c, "translations": (a, b)}


# -- matrix groups over GF(q) ----------------------------------------------


def _dot(F: Field, u, v):
    s = 0
    for a, b in zip(u, v):
        s = F.add(s, F.mul(a, b))
    return s


def _mat_vec(F: Field, M, v):
    """The matrix M times the column vector v over F."""
    return tuple(_dot(F, row, v) for row in M)


def _det2(F, M):
    return F.sub(F.mul(M[0][0], M[1][1]), F.mul(M[0][1], M[1][0]))


def _gl2_gens(F):
    """GL(2,q) from diag(z, 1), a transvection and a swap; over F_2, z = 1
    and diag(z, 1) is the identity, so it is left out."""
    z = F.primitive_element()
    diag = [((z, 0), (0, 1))] if z != 1 else []
    return diag + [
        ((1, 1), (0, 1)),
        ((0, 1), (1, 0)),
    ]


def _sl2_gens(F):
    # transvections over an additive basis of F_q (encodings p^i)
    gens = []
    for i in range(F.k):
        b = F.p**i
        gens.append(((1, b), (0, 1)))
        gens.append(((1, 0), (b, 1)))
    return gens


def _nonzero_vectors(F):
    return [(u, v) for u in range(F.q) for v in range(F.q) if (u, v) != (0, 0)]


def _vector_perm(F, M, vectors, index):
    return tuple(index[_mat_vec(F, M, v)] for v in vectors)


def _build_matrix_group(q, special):
    F = field_of_order(q)
    if F.q > 8:
        raise BuildError(f"GL/SL(2,{q}): vector action degree {q*q-1} exceeds 63")
    vectors = _nonzero_vectors(F)
    index = {v: i for i, v in enumerate(vectors)}
    mats = _sl2_gens(F) if special else _gl2_gens(F)
    gens = [_vector_perm(F, M, vectors, index) for M in mats]
    pg = _pg(gens, len(vectors))
    expect = q * (q * q - 1) if special else (q * q - 1) * (q * q - q)
    if pg.order() != expect:
        raise AssertionError("matrix group generators wrong")
    return pg, {"field": F, "matrices": mats}


# -- projective line --------------------------------------------------------


def projective_line(F: Field):
    """The q+1 points of P^1(F_q): pairs (x, 1) for x in F_q, then (1, 0)."""
    return [(x, 1) for x in range(F.q)] + [(1, 0)]


def projective_point_index(F: Field, u, v):
    if v != 0:
        return F.mul(u, F.inv(v))
    if u == 0:
        raise ValueError("(0,0) is not a projective point")
    return F.q


def matrix_to_projective_perm(F: Field, M):
    """Permutation of P^1 induced by an invertible 2x2 matrix."""
    if _det2(F, M) == 0:
        raise ValueError("singular matrix has no projective action")
    return tuple(projective_point_index(F, *_mat_vec(F, M, v))
                 for v in projective_line(F))


def _build_projective(q, special):
    F = field_of_order(q)
    psl_gens = [matrix_to_projective_perm(F, M) for M in _sl2_gens(F)]
    if special:
        gens = psl_gens
        expect = q * (q * q - 1) // gcd(2, q - 1)
    else:
        gens = [matrix_to_projective_perm(F, M) for M in _gl2_gens(F)]
        expect = q * (q * q - 1)
    pg = _pg(gens, F.q + 1)
    if pg.order() != expect:
        raise AssertionError(f"projective group order {pg.order()} != {expect}")
    return pg, {"field": F, "psl_gens": psl_gens}


def _build_psl32():
    # PSL(3,2) = GL_3(F_2) acting on the 7 points of P^2(F_2)
    vectors = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)][1:]
    index = {v: i for i, v in enumerate(vectors)}
    mats = [
        ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
        ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    ]
    gens = [_vector_perm(field_of_order(2), M, vectors, index) for M in mats]
    pg = _pg(gens, 7)
    if pg.order() != 168:
        raise AssertionError("PSL(3,2) generators wrong")
    return pg, {}


def _even_sign_changes(m, perms):
    """EA(2, m-1) as the even sign changes on {+-1..+-m}, extended by the
    given permutations of the m coordinates: both act on 2m points."""
    d = 2 * m
    flips = []
    for i in range(m - 1):
        images = list(range(d))
        images[i], images[m + i] = m + i, i
        images[i + 1], images[m + i + 1] = m + i + 1, i + 1
        flips.append(tuple(images))
    lifted = [tuple(list(s) + [m + s[i] for i in range(m)]) for s in perms]
    return _pg(flips + lifted, d), {"normal_gens": tuple(flips),
                                    "complement_gens": tuple(lifted)}


def _build_weyl_d(n):
    if n < 2:
        raise BuildError("WD(n) needs n >= 2")
    pg, parts = _even_sign_changes(n, _sym_gens(n))
    import math

    if pg.order() != 2 ** (n - 1) * math.factorial(n):
        raise AssertionError("WD(n) order wrong")
    return pg, parts


def _shift(g, offset, degree):
    images = list(range(degree))
    for i, x in enumerate(g):
        images[offset + i] = offset + x
    return tuple(images)


def _build_prod(ha: GroupHandle, hb: GroupHandle):
    da, db = ha.degree, hb.degree
    d = da + db
    gens_a = [_shift(g, 0, d) for g in ha.group.generators]
    gens_b = [_shift(g, da, d) for g in hb.group.generators]
    pg = _pg(gens_a + gens_b, d)
    if pg.order() != ha.order * hb.order:
        raise AssertionError("product order wrong")
    # both factors are normal; the first is the F of the Section 6 claims
    return pg, {"normal_gens": tuple(gens_a), "complement_gens": tuple(gens_b)}


def _build_swapsq(he: GroupHandle):
    d = he.degree
    gens1 = [_shift(g, 0, 2 * d) for g in he.group.generators]
    gens2 = [_shift(g, d, 2 * d) for g in he.group.generators]
    tau = tuple(list(range(d, 2 * d)) + list(range(d)))
    pg = _pg(gens1 + gens2 + [tau], 2 * d)
    if pg.order() != 2 * he.order * he.order:
        raise AssertionError("swap square order wrong")
    return pg, {"inner_gens": tuple(gens1 + gens2), "swap": tau}


def _build_pgroup(n, cycles):
    if not 1 <= n <= pm.MAX_DEGREE:
        raise BuildError(f"pgroup degree {n} outside 1..{pm.MAX_DEGREE}")
    gens = [pm.parse_cycles(c, n) for c in cycles]
    return _pg(gens, n), {}


# --------------------------------------------------------------------------
# semidirect products


def _ea_vector(Nmat: MaterializedGroup, idx: int, p: int, m: int):
    g = Nmat.perms[idx]
    return tuple((g[p * i] - p * i) % p for i in range(m))


def ea_action_perm(Nmat: MaterializedGroup, p: int, m: int, f):
    """Index permutation of materialized EA(p,m) induced by vector map f."""
    enc = {_ea_vector(Nmat, x, p, m): x for x in range(Nmat.n)}
    return tuple(enc[f(_ea_vector(Nmat, x, p, m))] for x in range(Nmat.n))


def _verify_action(Nmat: MaterializedGroup, h_handle: GroupHandle, action_perms):
    """Check every action perm is an automorphism of N and that generator
    images extend to a homomorphism H -> Aut(N) (materialized word check)."""
    n = Nmat.n
    for alpha in action_perms:
        if alpha[0] != 0:
            raise ActionError("action does not fix the identity")
        for g in Nmat.gens:
            ag = alpha[g]
            for x in range(n):
                if alpha[Nmat.mul(x, g)] != Nmat.mul(alpha[x], ag):
                    raise ActionError("action perm is not an automorphism")
    genmap = {}
    for hperm, alpha in zip(h_handle.group.generators, action_perms):
        if genmap.setdefault(hperm, alpha) != alpha:
            raise ActionError("conflicting images for equal generators")
    Hm = h_handle.materialized()
    ident = tuple(range(n))
    img = {0: ident}
    queue = [0]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        ax = img[x]
        for gidx in Hm.gens:
            alpha = genmap[Hm.perms[gidx]]
            y = Hm.mul(x, gidx)
            ay = pm.compose(ax, alpha)
            if y in img:
                if img[y] != ay:
                    raise ActionError("action is not a homomorphism on H")
            else:
                img[y] = ay
                queue.append(y)


def semidirect_by_automorphisms(n_handle: GroupHandle, h_handle: GroupHandle,
                                action_perms, name: str = "") -> GroupHandle:
    """N x| H on the disjoint union of N's elements and H's domain.

    action_perms[i] is the permutation of N's materialized element indices
    by which the i-th generator of H acts.
    """
    Nmat = n_handle.materialized()
    max_order = current_caps().max_order
    if Nmat.n * h_handle.order > max_order:
        raise CapExceeded(
            f"semidirect order {Nmat.n * h_handle.order} exceeds cap {max_order}")
    action_perms = [tuple(a) for a in action_perms]
    if len(action_perms) != len(h_handle.group.generators):
        raise ActionError("one action perm per H generator required")
    _verify_action(Nmat, h_handle, action_perms)
    dn, dh = Nmat.n, h_handle.degree
    d = dn + dh
    idpart = list(range(dn, d))
    ngens = [tuple(Nmat.right_map(g) + idpart) for g in Nmat.gens]
    hgens = []
    for alpha, hperm in zip(action_perms, h_handle.group.generators):
        hgens.append(tuple(list(alpha) + [dn + hperm[i] for i in range(dh)]))
    pg = _pg(ngens + hgens, d)
    if pg.order() != Nmat.n * h_handle.order:
        raise ActionError("semidirect product is not faithful")
    return GroupHandle(pg, name=name, parts={
        "normal_gens": tuple(ngens),
        "complement_gens": tuple(hgens),
    })


def _default_power_action(n, r):
    """Smallest unit mod n whose multiplicative order is maximal among
    divisors of r; the canonical nontrivial action of C(r) on C(n)."""
    best_k, best_o = 1, 1
    for k in range(2, n):
        if gcd(k, n) != 1:
            continue
        o, x = 1, k
        while x != 1:
            x = x * k % n
            o += 1
        if r % o == 0 and o > best_o:
            best_k, best_o = k, o
    if best_o == 1:
        raise BuildError(f"no nontrivial action of C({r}) on C({n})")
    return best_k


def _explicit_action_perms(n_expr, Nmat, h_expr, params):
    if not isinstance(h_expr, Cyc):
        raise BuildError("explicit action requires cyclic H")
    r = h_expr.n
    if isinstance(n_expr, Cyc):
        n = n_expr.n
        if len(params) > 1:
            raise BuildError("explicit[k] takes one exponent for cyclic N")
        k = params[0] if params else _default_power_action(n, r)
        if gcd(k, n) != 1 or pow(k, r, n) != 1:
            raise BuildError(f"x -> x^{k} is not an order-dividing-{r} action on C({n})")
        # materialized C(n) indexes elements by exponent
        return [tuple(k * x % n for x in range(n))]
    if isinstance(n_expr, ElemAb):
        p, m = n_expr.p, n_expr.m
        if len(params) != m * m:
            raise BuildError(f"explicit matrix for EA({p},{m}) needs {m*m} entries")
        F = field_of_order(p)
        mat = [[params[i * m + j] % p for j in range(m)] for i in range(m)]
        return [ea_action_perm(Nmat, p, m, lambda v: _mat_vec(F, mat, v))]
    raise BuildError("explicit action requires cyclic or elementary abelian N")


def _linear_action_perms(n_expr, Nmat, h_handle):
    if not isinstance(n_expr, ElemAb):
        raise BuildError("linear action requires elementary abelian N")
    F = h_handle.parts.get("field")
    mats = h_handle.parts.get("matrices")
    if F is None or mats is None:
        raise BuildError("linear action requires a matrix group for H")
    p, m = n_expr.p, n_expr.m
    if F.p != p:
        raise BuildError("matrix group characteristic differs from N")
    nn = len(mats[0])
    if nn * F.k != m:
        raise BuildError(f"EA({p},{m}) is not the natural module of H")
    out = []
    for M in mats:
        def apply(v, M=M):
            fvec = [F._encode(v[i * F.k:(i + 1) * F.k]) for i in range(nn)]
            digits = []
            for x in _mat_vec(F, M, fvec):
                for _ in range(F.k):
                    digits.append(x % p)
                    x //= p
            return tuple(digits)

        out.append(ea_action_perm(Nmat, p, m, apply))
    return out


def _build_semi(expr: Semi):
    act = expr.action
    if act.kind == "swap":
        if not (isinstance(expr.n, Prod) and expr.n.a == expr.n.b
                and expr.h == Cyc(2)):
            raise BuildError("swap action requires semi(prod(e,e),C(2),swap)")
        return _build_swapsq(build(expr.n.a))

    if act.kind == "natperm":
        if not isinstance(expr.n, ElemAb):
            raise BuildError("natperm requires N = EA(p,m)")
        h = build(expr.h)
        p, m = expr.n.p, expr.n.m
        if h.degree != m:
            raise BuildError(f"natperm: H must act on {m} points")
        d = p * m
        ngens = _ea_gens(p, m)
        hgens = []
        for s in h.group.generators:
            hgens.append(tuple(p * s[i] + x for i in range(m) for x in range(p)))
        pg = _pg(ngens + hgens, d)
        if pg.order() != p**m * h.order:
            raise ActionError("natperm product is not faithful")
        return pg, {"normal_gens": tuple(ngens), "complement_gens": tuple(hgens)}

    if act.kind == "evenperm":
        h = build(expr.h)
        m = h.degree
        if expr.n != ElemAb(2, m - 1):
            raise BuildError(f"evenperm over {m} points requires N = EA(2,{m-1})")
        pg, parts = _even_sign_changes(m, h.group.generators)
        if pg.order() != 2 ** (m - 1) * h.order:
            raise ActionError("evenperm product is not faithful")
        return pg, parts

    # remaining actions run through the generic union-carrier construction
    n = build(expr.n)
    h = build(expr.h)
    Nmat = n.materialized()

    if act.kind == "quotperm":
        if not isinstance(expr.n, ElemAb):
            raise BuildError("quotperm requires N = EA(p,m)")
        p, m1 = expr.n.p, expr.n.m
        m = h.degree
        if m1 != m - 1:
            raise BuildError(f"quotperm over {m} points requires N = EA({p},{m-1})")
        perms = []
        for s in h.group.generators:
            sinv = pm.inverse(s)

            def apply(v, sinv=sinv):
                # lift to F_p^m (last coordinate 0), permute, renormalize
                full = list(v) + [0]
                moved = [full[sinv[i]] for i in range(m)]
                last = moved[m - 1]
                return tuple((moved[i] - last) % p for i in range(m - 1))

            perms.append(ea_action_perm(Nmat, p, m1, apply))
        action_perms = perms
    elif act.kind == "linear":
        action_perms = _linear_action_perms(expr.n, Nmat, h)
    elif act.kind == "inv":
        if not Nmat.is_abelian():
            raise ActionError("inversion action requires abelian N")
        alpha = tuple(Nmat.inv(x) for x in range(Nmat.n))
        action_perms = [alpha] * len(h.group.generators)
    elif act.kind == "explicit":
        base = _explicit_action_perms(expr.n, Nmat, expr.h, act.params)
        action_perms = base * len(h.group.generators)
    else:
        raise BuildError(f"unsupported action {act.kind!r}")

    built = semidirect_by_automorphisms(n, h, action_perms)
    return built.group, built.parts


# --------------------------------------------------------------------------
# the HSL23 atom: H3 x| SL_2(F_3)


def _build_hsl23():
    # H3's right translations and the automorphisms lifting the
    # transvections that generate SL_2(F_3), all on the 27 triples
    trans = [_h3_translation((1, 0, 0)), _h3_translation((0, 1, 0))]
    auts = [_h3_automorphism(1, 1, 0, 1), _h3_automorphism(1, 0, 1, 1)]
    pg = _pg(trans + auts, 27)
    if pg.order() != 648:
        raise AssertionError("H3 x| SL2(F3) order wrong")
    return pg, {"normal_gens": tuple(trans), "complement_gens": tuple(auts)}


# --------------------------------------------------------------------------
# dispatch

_CACHE: dict = {}


def build(expr) -> GroupHandle:
    """The group of expr, cached by expr; refused above the active max_order."""
    key = to_src(expr)
    handle = _CACHE.get(key)
    if handle is None:
        handle = _CACHE[key] = _build(expr)
    max_order = current_caps().max_order
    if handle.order > max_order:
        raise CapExceeded(
            f"{handle.name}: order {handle.order} exceeds cap {max_order}")
    return handle


def _build(expr) -> GroupHandle:
    match expr:
        case Cyc(n):
            pg, parts = _build_cyclic(n)
        case Dih(n):
            pg, parts = _build_dihedral(n)
        case Sym(n):
            pg, parts = _build_sym(n)
        case Alt(n):
            pg, parts = _build_alt(n)
        case ElemAb(p, m):
            pg, parts = _build_elem_ab(p, m)
        case H3():
            pg, parts = _build_h3()
        case Hess():
            pg, parts = _build_semi(Semi(ElemAb(3, 2), MatSL(3), Action("linear")))
        case Hsl23():
            pg, parts = _build_hsl23()
        case MatGL(q):
            pg, parts = _build_matrix_group(q, special=False)
        case MatSL(q):
            pg, parts = _build_matrix_group(q, special=True)
        case ProjGL(q):
            pg, parts = _build_projective(q, special=False)
        case ProjSL(q):
            pg, parts = _build_projective(q, special=True)
        case PSL32():
            pg, parts = _build_psl32()
        case WeylD(n):
            pg, parts = _build_weyl_d(n)
        case Prod(a, b):
            pg, parts = _build_prod(build(a), build(b))
        case SwapSq(e):
            pg, parts = _build_swapsq(build(e))
        case Semi():
            pg, parts = _build_semi(expr)
        case PGroup(n, cycles):
            pg, parts = _build_pgroup(n, cycles)
        case _:
            raise BuildError(f"unknown expression {expr!r}")
    return GroupHandle(pg, expr=expr, parts=parts)
