import pytest

from grpverify.perm import (
    DegreeError,
    PermGroup,
    compose,
    cycles,
    identity,
    inverse,
    parse_cycles,
    perm_order,
)


def test_compose_right_factor_first():
    # hand oracle: apply (2 3) first, then (1 2); point 1 -> 2, 2 -> 3, 3 -> 1
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(2 3)", 3)
    assert compose(a, b) == parse_cycles("(1 2 3)", 3)


def test_compose_inverse_is_identity():
    a = parse_cycles("(1 4 2)(3 5)", 5)
    assert compose(a, inverse(a)) == identity(5)
    assert compose(inverse(a), a) == identity(5)


def test_identity_fixes_points():
    assert identity(5) == (0, 1, 2, 3, 4)


def test_parse_and_print_round_trip():
    # printed from `cycles`: 1-based, each cycle from its smallest point
    for s in ["()", "(1 2)", "(1 2 3)(4 5)", "(2 6)(3 5)"]:
        p = parse_cycles(s, 6)
        printed = "".join("(" + " ".join(str(x + 1) for x in c) + ")"
                          for c in cycles(p))
        assert (printed or "()") == s


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1 2")
    with pytest.raises(ValueError):
        parse_cycles("(1 1)")
    with pytest.raises(ValueError):
        parse_cycles("1 2)")


def test_degree_mismatch():
    with pytest.raises(DegreeError):
        compose(identity(3), identity(4))


def test_perm_order():
    assert perm_order(parse_cycles("(1 2 3)(4 5)", 5)) == 6
    assert perm_order(identity(4)) == 1


def s_n_gens(n):
    return [parse_cycles("(1 2)", n), parse_cycles("(" + " ".join(str(i) for i in range(1, n + 1)) + ")", n)]


def test_s5_order():
    g = PermGroup(s_n_gens(5), 5)
    assert g.order() == 120


def test_order_matches_exhaustive_closure():
    from grpverify.smallgroup import materialize

    for gens, d in [
        (s_n_gens(4), 4),
        ([parse_cycles("(1 2 3 4 5 6)", 6), parse_cycles("(2 6)(3 5)", 6)], 6),
        ([parse_cycles("(1 2 3)", 5), parse_cycles("(3 4 5)", 5)], 5),
    ]:
        g = PermGroup(gens, d)
        assert materialize(g).n == g.order()


def random_generator_sets(seed, count=100):
    """Seeded (generators, degree) in S_n, n <= 8: one to three permutations,
    each moving a random set of points, so that small subgroups come up as
    often as S_n and A_n."""
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            pts = rng.sample(range(n), rng.randint(min(2, n), n))
            img = pts[:]
            rng.shuffle(img)
            moved = dict(zip(pts, img))
            gens.append(tuple(moved.get(i, i) for i in range(n)))
        out.append((gens, n))
    return out


def closure_size(gens, n):
    """|<gens>| by composing every element found with every generator."""
    seen = {identity(n)}
    queue = list(seen)
    for x in queue:  # queue grows while it is walked
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen)


@pytest.mark.parametrize("seed", [1, 2])
def test_order_matches_brute_force_closure_on_random_generators(seed):
    for gens, n in random_generator_sets(seed):
        assert PermGroup(gens, n).order() == closure_size(gens, n), (gens, n)


def test_random_generator_products_are_members():
    import random

    from grpverify.smallgroup import materialize

    rng = random.Random(7)
    gens = s_n_gens(6)
    members = materialize(PermGroup(gens, 6)).index
    for _ in range(100):
        w = identity(6)
        for _ in range(rng.randrange(1, 8)):
            w = compose(w, rng.choice(gens))
        assert w in members


def test_empty_domain_rejected():
    with pytest.raises(DegreeError):
        PermGroup([], 0)
