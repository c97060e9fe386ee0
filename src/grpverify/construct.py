"""Group expressions: their grammar, and a builder for every named group.

A group expression (cyclic, dihedral, symmetric, alternating, elementary
abelian, Heisenberg, matrix and projective linear groups, Weyl group of
type D, products, swap squares, semidirect products) is an Expr: a row of
the one table GRAMMAR and the row's arguments.  Each row gives its node's
source name, the shape of its arguments, the limits on their values and
its builder, and is the constructor of its expressions: Cyc(5) is the
expression C(5).  parse_expr, to_src and build all read the table, so the
parser and build refuse the same values.  build() turns an expression into
a GroupHandle: a permutation group plus cached materialization and
bookkeeping about distinguished generator sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd

from . import perm as pm
from .gf import Field, field_of_order, is_prime, is_prime_power
from .lattice import Sub
from .perm import PermGroup
from .smallgroup import CapExceeded, MaterializedGroup, current_caps, materialize


class BuildError(ValueError):
    pass


class ActionError(BuildError):
    """The requested action does not define automorphisms of N."""


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"syntax error at byte {pos}: {message}")
        self.pos = pos


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


def _cycle(points, degree):
    images = list(range(degree))
    for i, x in enumerate(points):
        images[x] = points[(i + 1) % len(points)]
    return tuple(images)


def _build_cyclic(n):
    if n == 1:
        return PermGroup([], 1), {}
    return PermGroup([_cycle(range(n), n)], n), {}


def _build_dihedral(n):
    if n == 2:  # D_4 = mu_2^2, faithful on 4 points
        a = _cycle([0, 1], 4)
        b = _cycle([2, 3], 4)
        return PermGroup([a, b], 4), {"rotation": a}
    r = _cycle(range(n), n)
    s = tuple((n - i) % n for i in range(n))
    return PermGroup([r, s], n), {"rotation": r}


def _sym_gens(n):
    if n < 2:
        return []
    gens = [_cycle([0, 1], n)]
    if n > 2:
        gens.append(_cycle(range(n), n))
    return gens


def _build_sym(n):
    return PermGroup(_sym_gens(n), n), {}


def _build_alt(n):
    if n < 3:
        return PermGroup([], n), {}
    gens = [_cycle([0, 1, 2], n)]
    if n > 3:
        if n % 2:
            gens.append(_cycle(range(n), n))
        else:
            gens.append(_cycle(range(1, n), n))
    return PermGroup(gens, n), {}


def _ea_gens(p, m):
    return [_cycle(range(p * i, p * i + p), p * m) for i in range(m)]


def _build_elem_ab(p, m):
    return PermGroup(_ea_gens(p, m), p * m), {}


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
    return PermGroup([a, b], 27), {"center": c, "translations": (a, b)}


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
    vectors = _nonzero_vectors(F)
    index = {v: i for i, v in enumerate(vectors)}
    mats = _sl2_gens(F) if special else _gl2_gens(F)
    gens = [_vector_perm(F, M, vectors, index) for M in mats]
    pg = PermGroup(gens, len(vectors))
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
    pg = PermGroup(gens, F.q + 1)
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
    pg = PermGroup(gens, 7)
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
    return PermGroup(flips + lifted, d), {"normal_gens": tuple(flips),
                                          "complement_gens": tuple(lifted)}


def _build_weyl_d(n):
    pg, parts = _even_sign_changes(n, _sym_gens(n))
    if pg.order() != 2 ** (n - 1) * factorial(n):
        raise AssertionError("WD(n) order wrong")
    return pg, parts


def _shift(g, offset, degree):
    images = list(range(degree))
    for i, x in enumerate(g):
        images[offset + i] = offset + x
    return tuple(images)


def _build_prod(a, b):
    ha, hb = build(a), build(b)
    da, db = ha.degree, hb.degree
    d = da + db
    gens_a = [_shift(g, 0, d) for g in ha.group.generators]
    gens_b = [_shift(g, da, d) for g in hb.group.generators]
    pg = PermGroup(gens_a + gens_b, d)
    if pg.order() != ha.order * hb.order:
        raise AssertionError("product order wrong")
    # both factors are normal; the first is the F of the Section 6 claims
    return pg, {"normal_gens": tuple(gens_a), "complement_gens": tuple(gens_b)}


def _build_swapsq(e):
    he = build(e)
    d = he.degree
    gens1 = [_shift(g, 0, 2 * d) for g in he.group.generators]
    gens2 = [_shift(g, d, 2 * d) for g in he.group.generators]
    tau = tuple(list(range(d, 2 * d)) + list(range(d)))
    pg = PermGroup(gens1 + gens2 + [tau], 2 * d)
    if pg.order() != 2 * he.order * he.order:
        raise AssertionError("swap square order wrong")
    return pg, {"inner_gens": tuple(gens1 + gens2), "swap": tau}


def _build_pgroup(n, cycles):
    gens = [pm.parse_cycles(c, n) for c in cycles]
    return PermGroup(gens, n), {}


# --------------------------------------------------------------------------
# semidirect products


def _ea_vector(Nmat: MaterializedGroup, idx: int, p: int, m: int):
    g = Nmat.perms[idx]
    return tuple((g[p * i] - p * i) % p for i in range(m))


def ea_action_perm(Nmat: MaterializedGroup, p: int, m: int, f):
    """Index permutation of materialized EA(p,m) induced by vector map f."""
    enc = {_ea_vector(Nmat, x, p, m): x for x in range(Nmat.n)}
    return tuple(enc[f(_ea_vector(Nmat, x, p, m))] for x in range(Nmat.n))


def _regular_n(n_handle: GroupHandle) -> MaterializedGroup:
    """N materialized, for N x| H to act on N's elements: N's order is that
    permutation degree, refused above MAX_DEGREE before N is materialized."""
    if n_handle.order > MAX_DEGREE:
        raise BuildError(f"N of order {n_handle.order} would act on more "
                         f"than {MAX_DEGREE} points")
    return n_handle.materialized()


def semidirect_by_automorphisms(n_handle: GroupHandle, h_handle: GroupHandle,
                                action_perms, name: str = "") -> GroupHandle:
    """N x| H on the disjoint union of N's elements and H's domain.

    action_perms[i] is the permutation of N's materialized element indices
    by which the i-th generator of H acts.  Each is checked to be an
    automorphism of N: it fixes the identity, is a bijection and is
    multiplicative on N's generators.  The lifts of H's generators then
    normalize N's right regular copy R, and the group K they generate
    fixes N's identity, so K meets R trivially.  K maps onto H with a
    kernel of automorphisms of N, and <R, K> = RK has order
    |N| |H| |kernel|: it has order |N||H| exactly when every relator of H
    acts trivially, that is, when the images extend to a homomorphism
    H -> Aut(N).  That order test is the one proof of the homomorphism; H
    is neither materialized nor walked.
    """
    Nmat = _regular_n(n_handle)
    n = Nmat.n
    max_order = current_caps().max_order
    if n * h_handle.order > max_order:
        raise CapExceeded(
            f"semidirect order {n * h_handle.order} exceeds cap {max_order}")
    action_perms = [tuple(a) for a in action_perms]
    if len(action_perms) != len(h_handle.group.generators):
        raise ActionError("one action perm per H generator required")
    every = list(range(n))
    for alpha in action_perms:
        if alpha[0] != 0:
            raise ActionError("action does not fix the identity")
        if sorted(alpha) != every:
            raise ActionError("action perm is not a bijection of N")
        for g in Nmat.gens:
            cg, cag = Nmat.column(g), Nmat.column(alpha[g])
            if any(alpha[cg[x]] != cag[alpha[x]] for x in every):
                raise ActionError("action perm is not an automorphism")
    dh = h_handle.degree
    idpart = list(range(n, n + dh))
    ngens = [tuple(list(Nmat.column(g)) + idpart) for g in Nmat.gens]
    hgens = [tuple(list(alpha) + [n + i for i in hperm])
             for alpha, hperm in zip(action_perms, h_handle.group.generators)]
    pg = PermGroup(ngens + hgens, n + dh)
    if pg.order() != n * h_handle.order:
        raise ActionError("action is not a homomorphism H -> Aut(N)")
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


def _semi_swap(n_expr, h_expr, act):
    if not (n_expr.node is Prod and n_expr.args[0] == n_expr.args[1]
            and h_expr == Cyc(2)):
        raise BuildError("swap action requires semi(prod(e,e),C(2),swap)")
    return _build_swapsq(n_expr.args[0])


def _semi_natperm(n_expr, h_expr, act):
    if n_expr.node is not ElemAb:
        raise BuildError("natperm requires N = EA(p,m)")
    h = build(h_expr)
    p, m = n_expr.args
    if h.degree != m:
        raise BuildError(f"natperm: H must act on {m} points")
    d = p * m
    ngens = _ea_gens(p, m)
    hgens = []
    for s in h.group.generators:
        hgens.append(tuple(p * s[i] + x for i in range(m) for x in range(p)))
    pg = PermGroup(ngens + hgens, d)
    if pg.order() != p**m * h.order:
        raise ActionError("natperm product is not faithful")
    return pg, {"normal_gens": tuple(ngens), "complement_gens": tuple(hgens)}


def _semi_evenperm(n_expr, h_expr, act):
    h = build(h_expr)
    m = h.degree
    if n_expr != ElemAb(2, m - 1):
        raise BuildError(f"evenperm over {m} points requires N = EA(2,{m-1})")
    pg, parts = _even_sign_changes(m, h.group.generators)
    if pg.order() != 2 ** (m - 1) * h.order:
        raise ActionError("evenperm product is not faithful")
    return pg, parts


def _by_automorphisms(action_perms):
    """The builder of semi(N,H,act) by semidirect_by_automorphisms, H's
    generators acting on N's elements by
    action_perms(N, H, act, N materialized, the handle of H)."""
    def build_semi(n_expr, h_expr, act):
        n, h = build(n_expr), build(h_expr)
        perms = action_perms(n_expr, h_expr, act, _regular_n(n), h)
        built = semidirect_by_automorphisms(n, h, perms)
        return built.group, built.parts

    return build_semi


def _quotperm_perms(n_expr, h_expr, act, Nmat, h):
    if n_expr.node is not ElemAb:
        raise BuildError("quotperm requires N = EA(p,m)")
    p, m1 = n_expr.args
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
    return perms


def _linear_perms(n_expr, h_expr, act, Nmat, h):
    if n_expr.node is not ElemAb:
        raise BuildError("linear action requires elementary abelian N")
    F = h.parts.get("field")
    mats = h.parts.get("matrices")
    if F is None or mats is None:
        raise BuildError("linear action requires a matrix group for H")
    p, m = n_expr.args
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


def _inv_perms(n_expr, h_expr, act, Nmat, h):
    if not Nmat.is_abelian():
        raise ActionError("inversion action requires abelian N")
    return [tuple(Nmat.inv(x) for x in range(Nmat.n))] * len(h.group.generators)


def _explicit_perms(n_expr, h_expr, act, Nmat, h):
    if h_expr.node is not Cyc:
        raise BuildError("explicit action requires cyclic H")
    (r,), params = h_expr.args, act.params
    if n_expr.node is Cyc:
        (n,) = n_expr.args
        if len(params) > 1:
            raise BuildError("explicit[k] takes one exponent for cyclic N")
        k = params[0] if params else _default_power_action(n, r)
        if gcd(k, n) != 1 or pow(k, r, n) != 1:
            raise BuildError(f"x -> x^{k} is not an order-dividing-{r} action on C({n})")
        # materialized C(n) indexes elements by exponent
        alpha = tuple(k * x % n for x in range(n))
    elif n_expr.node is ElemAb:
        p, m = n_expr.args
        if len(params) != m * m:
            raise BuildError(f"explicit matrix for EA({p},{m}) needs {m*m} entries")
        F = field_of_order(p)
        mat = [[params[i * m + j] % p for j in range(m)] for i in range(m)]
        alpha = ea_action_perm(Nmat, p, m, lambda v: _mat_vec(F, mat, v))
    else:
        raise BuildError("explicit action requires cyclic or elementary abelian N")
    return [alpha] * len(h.group.generators)


# the builder of semi(N,H,action) for each action, from N, H and the action
ACTIONS = {
    "swap": _semi_swap,
    "natperm": _semi_natperm,
    "evenperm": _semi_evenperm,
    "quotperm": _by_automorphisms(_quotperm_perms),
    "linear": _by_automorphisms(_linear_perms),
    "inv": _by_automorphisms(_inv_perms),
    "explicit": _by_automorphisms(_explicit_perms),
}


def _build_semi(n_expr, h_expr, act):
    if act.kind not in ACTIONS:
        raise BuildError(f"unsupported action {act.kind!r}")
    return ACTIONS[act.kind](n_expr, h_expr, act)


# --------------------------------------------------------------------------
# the HSL23 atom: H3 x| SL_2(F_3)


def _build_hsl23():
    # H3's right translations and the automorphisms lifting the
    # transvections that generate SL_2(F_3), all on the 27 triples
    trans = [_h3_translation((1, 0, 0)), _h3_translation((0, 1, 0))]
    auts = [_h3_automorphism(1, 1, 0, 1), _h3_automorphism(1, 0, 1, 1)]
    pg = PermGroup(trans + auts, 27)
    if pg.order() != 648:
        raise AssertionError("H3 x| SL2(F3) order wrong")
    return pg, {"normal_gens": tuple(trans), "complement_gens": tuple(auts)}


# --------------------------------------------------------------------------
# the grammar: one table for parse_expr, to_src and build

MAX_DEGREE = 64  # most points an atom, or a semi's regular N, acts on
MAX_NESTING = 32  # prod/swapsq/semi levels around an atom; deeper is refused
MAX_DIGITS = 20  # longest integer literal; a longer one is refused
MAX_ECHO = 60  # longest piece of the source an error message repeats


def _excerpt(text: str) -> str:
    """text, cut to MAX_ECHO characters with an ellipsis if it is longer."""
    return text if len(text) <= MAX_ECHO else text[:MAX_ECHO - 3] + "..."


def _between(lo, hi):
    """The limits of a node whose first argument n has lo <= n <= hi."""
    return lambda n, *_: (None if lo <= n <= hi
                          else f"parameter out of range {lo}..{hi}")


def _elem_ab_limits(p, m):
    if m < 1 or p * m > MAX_DEGREE:
        return "rank out of range"
    return None if is_prime(p) else f"{p} is not prime"


def _field_limits(hi, why):
    """The limits of a linear group over F_q: q <= hi, a prime power."""
    return lambda q: (f"q out of range (at most {hi}): {why}" if q > hi else
                      None if is_prime_power(q) else f"{q} is not a prime power")


def _pgroup_limits(n, cycles):
    """Degree 1..64, then each cycle string a permutation of that degree;
    the range comes first, so that a huge degree is never parsed."""
    why = _between(1, MAX_DEGREE)(n)
    if why:
        return why
    for c in cycles:
        try:
            pm.parse_cycles(c, n)
        except ValueError as e:
            return str(e)
    return None


class Expr:
    """A group expression: a row of GRAMMAR and the arguments it was called
    with, as in Cyc(5) or Semi(Cyc(7), Cyc(3), Action("explicit")).  Two are
    equal when node and arguments are; str() is the source text, repr() the
    call with its arguments named, as in Cyc(n=5)."""

    __slots__ = ("node", "args")

    def __init__(self, node, args: tuple):
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "args", args)

    def __setattr__(self, name, value):
        raise AttributeError("group expressions are immutable")

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self.node is other.node and self.args == other.args

    def __hash__(self):  # by the arguments alone; __eq__ tells C(2) from S(2)
        return hash(self.args)

    def __str__(self):
        return to_src(self)

    def __repr__(self):
        named = (f"{f}={a!r}" for f, a in zip(self.node.fields, self.args))
        return f"{self.node.call}({', '.join(named)})"


@dataclass(frozen=True)
class Action:
    kind: str  # swap|natperm|evenperm|quotperm|linear|inv|explicit
    params: tuple = ()


class _Node:
    """One production of the grammar, and the constructor of its
    expressions: Cyc(5) is Expr(Cyc, (5,)).  A row gives the call that
    repr() writes (its name and argument names), the source name, the
    argument shape (one letter each: n an integer, e an expression, a an
    action, s any number of cycle strings; a leading 2 is the dimension of
    a linear group), the builder, from the arguments to (PermGroup, parts),
    and the limits on the arguments (a function giving the reason to refuse
    them, or None)."""

    __slots__ = ("call", "fields", "name", "shape", "build", "limits")

    def __init__(self, signature, name, shape, build, limits=None):
        self.call, _, fields = signature.rstrip(")").partition("(")
        self.fields = tuple(f.strip() for f in fields.split(",") if f.strip())
        self.name, self.shape = name, shape
        self.build, self.limits = build, limits

    def __call__(self, *args) -> Expr:
        if len(args) != len(self.fields):
            raise TypeError(f"{self.call}() takes {len(self.fields)} "
                            f"arguments ({len(args)} given)")
        return Expr(self, args)

    def __repr__(self):
        return self.call

    def refusal(self, expr: Expr):
        """The reason the grammar refuses expr, or None.  Range limits come
        before any primality test, so that a huge parameter is refused at
        once."""
        why = self.limits and self.limits(*expr.args)
        return why and f"{_excerpt(to_src(expr))}: {_excerpt(why)}"


Cyc = _Node("Cyc(n)", "C", "n", _build_cyclic, _between(1, MAX_DEGREE))
Dih = _Node("Dih(n)", "D", "n", _build_dihedral, _between(2, 32))  # order 2n
Sym = _Node("Sym(n)", "S", "n", _build_sym, _between(1, 8))
Alt = _Node("Alt(n)", "A", "n", _build_alt, _between(1, 9))
ElemAb = _Node("ElemAb(p, m)", "EA", "nn", _build_elem_ab, _elem_ab_limits)
H3 = _Node("H3()", "H3", "", _build_h3)
Hess = _Node("Hess()", "HESS", "",
             lambda: _build_semi(ElemAb(3, 2), MatSL(3), Action("linear")))
Hsl23 = _Node("Hsl23()", "HSL23", "", _build_hsl23)
MatGL = _Node("MatGL(q)", "GL", "2n",
              lambda q: _build_matrix_group(q, special=False),
              _field_limits(8, "vector action degree exceeds 63"))
MatSL = _Node("MatSL(q)", "SL", "2n",
              lambda q: _build_matrix_group(q, special=True),
              _field_limits(8, "vector action degree exceeds 63"))
ProjGL = _Node("ProjGL(q)", "PGL", "2n",
               lambda q: _build_projective(q, special=False),
               _field_limits(61, "projective degree exceeds 64"))
ProjSL = _Node("ProjSL(q)", "PSL", "2n",
               lambda q: _build_projective(q, special=True),
               _field_limits(61, "projective degree exceeds 64"))
# parsed as a PSL special case
PSL32 = _Node("PSL32()", "PSL(3,2)", "", _build_psl32)
WeylD = _Node("WeylD(n)", "WD", "n", _build_weyl_d, _between(2, 8))
Prod = _Node("Prod(a, b)", "prod", "ee", _build_prod)
SwapSq = _Node("SwapSq(e)", "swapsq", "e", _build_swapsq)
Semi = _Node("Semi(n, h, action)", "semi", "eea", _build_semi)
PGroup = _Node("PGroup(n, cycles)", "pgroup", "ns", _build_pgroup,
               _pgroup_limits)

GRAMMAR = (Cyc, Dih, Sym, Alt, ElemAb, H3, Hess, Hsl23, MatGL, MatSL, ProjGL,
           ProjSL, PSL32, WeylD, Prod, SwapSq, Semi, PGroup)
_BY_NAME = {node.name: node for node in GRAMMAR}


def action_src(act: Action) -> str:
    if act.kind == "explicit" and act.params:
        return "explicit[" + ",".join(str(x) for x in act.params) + "]"
    return act.kind


def to_src(expr: Expr) -> str:
    """Canonical textual form; reparses to an equal expression."""
    node = expr.node
    if not node.shape:
        return node.name
    parts = ["2"] if node.shape[0] == "2" else []
    for kind, arg in zip(node.shape.lstrip("2"), expr.args):
        if kind == "s":
            parts += [f'"{c}"' for c in arg]
        else:
            parts.append(to_src(arg) if kind == "e" else
                         action_src(arg) if kind == "a" else str(arg))
    return f"{node.name}({','.join(parts)})"


class _Parser:
    """Recursive descent over the group-expression grammar."""

    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def error(self, message, at=None):
        raise ParseError(message, self.pos if at is None else at)

    def _ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch):
        self._ws()
        if self.pos >= len(self.src) or self.src[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def ident(self):
        self._ws()
        start = self.pos
        while self.pos < len(self.src) and (self.src[self.pos].isalnum()
                                            or self.src[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            self.error("expected a name")
        return self.src[start:self.pos]

    def integer(self):
        self._ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        if self.pos - start > MAX_DIGITS:
            self.error(f"integer out of range: more than {MAX_DIGITS} digits",
                       start)
        return int(self.src[start:self.pos])

    def string(self):
        self._ws()
        if self.peek() != '"':
            self.error('expected a "..." cycle string')
        self.pos += 1
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos] != '"':
            self.pos += 1
        if self.pos >= len(self.src):
            self.error("unterminated string")
        out = self.src[start:self.pos]
        self.pos += 1
        return out

    def parse(self):
        expr = self.expr()
        self._ws()
        if self.pos != len(self.src):
            self.error("trailing input")
        return expr

    def expr(self, depth=0):
        """An expression inside depth levels of prod, swapsq or semi."""
        self._ws()
        at = self.pos
        if depth > MAX_NESTING:
            self.error(f"expressions nest deeper than {MAX_NESTING} levels")
        name = self.ident()
        node = _BY_NAME.get(name)
        if node is None:
            self.error(f"unknown atom {_excerpt(repr(name))}", at)
        args = []
        if node.shape:
            self.expect("(")
            for i, kind in enumerate(node.shape):
                if kind == "s":
                    strings = []
                    while self.peek() == ",":
                        self.expect(",")
                        strings.append(self.string())
                    args.append(tuple(strings))
                    continue
                if i:
                    self.expect(",")
                args.append(self.expr(depth + 1) if kind == "e" else
                            self.action() if kind == "a" else self.integer())
            self.expect(")")
        if node.shape[:1] == "2":  # GL(2,q) and the like, or PSL(3,2)
            dim = args.pop(0)
            if name == "PSL" and dim == 3:
                if args != [2]:
                    self.error("only PSL(3,2) is supported in dimension 3", at)
                return PSL32()
            if dim != 2:
                self.error(f"{name} supports dimension 2 only", at)
        expr = node(*args)
        why = node.refusal(expr)
        if why:
            self.error(why, at)
        return expr

    def action(self):
        self._ws()
        at = self.pos
        name = self.ident()
        if name not in ACTIONS:
            self.error(f"unknown action {_excerpt(repr(name))}", at)
        params = []
        if name == "explicit" and self.peek() == "[":
            self.expect("[")
            params.append(self.integer())
            while self.peek() == ",":
                self.expect(",")
                params.append(self.integer())
            self.expect("]")
        return Action(name, tuple(params))


def parse_expr(src: str):
    """Parse a group expression; raises ParseError with a byte offset."""
    return _Parser(src).parse()


_CACHE: dict = {}


def build(expr: Expr) -> GroupHandle:
    """The group of expr, cached by expr; refused above the active max_order.

    An expression not yet cached is first checked against the grammar's
    limits, as parse_expr checks it."""
    key = to_src(expr)
    handle = _CACHE.get(key)
    if handle is None:
        why = expr.node.refusal(expr)
        if why:
            raise BuildError(why)
        pg, parts = expr.node.build(*expr.args)
        handle = _CACHE[key] = GroupHandle(pg, expr=expr, parts=parts)
    max_order = current_caps().max_order
    if handle.order > max_order:
        raise CapExceeded(
            f"{handle.name}: order {handle.order} exceeds cap {max_order}")
    return handle
