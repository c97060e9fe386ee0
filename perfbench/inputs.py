"""The inputs of each workload and the values its outputs are checked against.

Everything here is written into the benchmark, from the paper and from the
structure of the groups, so that a later change to the program cannot move
the workload or the expected answers.  The seed only permutes the order of
groups and draws the samples the checks use.
"""

from __future__ import annotations

import random

PRIMES = (2, 3, 5, 7)

# Lemma 3.8: J for the auxiliary subgroups, p = 2, 3, 5, 7
AUX_J = {2: 3, 3: 10, 5: 144, 7: 720}

# -- sweep ------------------------------------------------------------------

# groups of order 648..1320 swept up to conjugacy at the Lemma 3.8 constants
SWEEP_GROUPS = (
    "S(6)",
    "HSL23",
    "semi(EA(3,3),S(4),quotperm)",   # mu3^3:S4
    "semi(EA(2,4),A(5),evenperm)",   # mu2^4:A5
    "PGL(2,11)",
)

# the Chermak-Delgado corpus of THM-3.2 / COR-3.3 (37 groups) plus S5
CD_GROUPS = (
    "C(1)", "C(7)", "C(12)", "C(24)", "D(2)", "D(4)", "D(6)", "D(12)",
    "S(3)", "S(4)", "A(4)", "A(5)", "EA(2,3)", "EA(2,4)", "EA(3,2)",
    "EA(3,3)", "H3", "GL(2,3)", "SL(2,3)", "PGL(2,3)", "PSL(2,4)",
    "PSL(2,5)", "semi(C(7),C(3),explicit)", "semi(C(5),C(4),explicit)",
    "semi(C(3),C(4),explicit)", "semi(EA(3,2),C(8),explicit[0,1,1,1])",
    "semi(EA(2,3),C(7),explicit[0,0,1,1,0,1,0,1,0])",
    "semi(EA(5,2),S(2),natperm)", "prod(C(2),semi(C(7),C(3),explicit))",
    "prod(S(3),S(3))", "swapsq(S(3))", "swapsq(C(4))", "semi(C(9),C(2),inv)",
    "semi(EA(3,2),S(3),quotperm)", "WD(3)", "semi(EA(2,2),S(3),evenperm)",
    'pgroup(6,"(1 2 3 4 5 6)","(2 6)(3 5)")',
    "S(5)",
)

# known counts: 156 subgroups of S5, 56 conjugacy classes of subgroups of S6
KNOWN_SUBGROUP_COUNTS = {"S(5)": 156}
KNOWN_CLASS_COUNTS = {"S(6)": 56}

# Lemma 3.8's statement of the bound violations, where it names them, as
# {p: set of orders}.  (iv) S6, (iii) mu2^4:A5 and (vi) mu3^3:S4 have none.
# (v) names Gamma itself (order 648) and an order-162 subgroup at p = 5;
# the order-162 subgroup is in fact rescued (index 6 <= 144, see LEM-3.8-V),
# so the computed set must lie inside the stated one and contain Gamma.
LEMMA_3_8_VIOLATIONS = {
    "S(6)": {p: set() for p in PRIMES},
    "semi(EA(2,4),A(5),evenperm)": {p: set() for p in PRIMES},
    "semi(EA(3,3),S(4),quotperm)": {p: set() for p in PRIMES},
}
LEMMA_3_8_V_STATED = {648, 162}   # p = 5, HSL23
LEMMA_3_8_V_GAMMA = 648

# Lemma 3.8(iv): S6's order bound fails only at p = 3 for |H| in {16, 20}
# and at p = 2 for |H| in {5, 9}
LEMMA_3_8_IV_ORDER_FAILURES = {2: {5, 9}, 3: {16, 20}, 5: set(), 7: set()}

# -- large ------------------------------------------------------------------

# (expression, minimal index of a normal abelian subgroup of order coprime
# to p, for p = 2, 3, 5, 7).  A5 x A5 and (A5 x A5):2 have trivial solvable
# radical, so only the trivial subgroup qualifies and the index is |G|.
# Every normal abelian subgroup lies in the Fitting subgroup.  WD(6) =
# 2^5:S6 and (S4 x S4):2 have no nontrivial normal subgroup of odd order,
# and their quotients by 2^5 and V4 x V4 (S6 and (S3 x S3):2) no nontrivial
# normal 2-subgroup, so their Fitting subgroups are the abelian 2^5 and
# V4 x V4: the index is 23040/32 = 720 and 1152/16 = 72 at odd p, and |G|
# at p = 2.
LARGE_GROUPS = (
    ("swapsq(S(4))", 1152, {2: 1152, 3: 72, 5: 72, 7: 72}),
    ("prod(A(5),A(5))", 3600, {p: 3600 for p in PRIMES}),
    ("swapsq(A(5))", 7200, {p: 7200 for p in PRIMES}),
    ("WD(6)", 23040, {2: 23040, 3: 720, 5: 720, 7: 720}),
)

# -- ledger -----------------------------------------------------------------

# Every claim that runs in under a second cold, the sharpness witness
# SHARP-A5A5, and the two automorphism-bound claims PROP-4.4-STRUCT and
# COR-4.5: one long claim per worker of `--jobs 2`.
LEDGER_CLAIMS = (
    "COR-10.8", "COR-4.5", "COR-5.2", "COR-9.3", "EX-2.10", "EX-2.12",
    "EX-2.13", "EX-2.7", "EX-2.8", "EX-2.9", "EXT-6.1", "EXT-6.2", "EXT-6.3",
    "EXT-6.8", "LEM-10.11", "LEM-10.2-DP6", "LEM-3.1", "LEM-3.4",
    "LEM-3.8-I", "LEM-3.8-VII", "LEM-5.1", "LEM-7.2-CHAR-Q11-13",
    "LEM-7.2-DIHEDRAL", "LEM-7.2-EXC", "LEM-7.2-NORM-Q11-13",
    "LEM-7.2-PSLPGL", "LEM-7.2-SEMI", "LEM-8.2", "LEM-8.3",
    "PROP-10.13-J-DP", "PROP-10.14-J-DP-ODD", "PROP-4.4-STRUCT", "PROP-9.2",
    "SHARP-A5A5", "SHARP-CHAR2", "SHARP-D10", "SHARP-PSL27",
    "THM-1.9-ASSEMBLY", "THM-4.1-CENT", "THM-4.1-DERIVED", "THM-4.1-ISO",
    "THM-4.1-ORDERS", "THM-4.1-SIMPLE",
)

# claims of the slice that take at least a second cold get their own metric
LEDGER_TIMED_CLAIMS = ("COR-4.5", "PROP-4.4-STRUCT", "SHARP-A5A5")

# skipped on every run: automorphism_group lists Aut(PGL2(F13)) element by
# element, and its order 2184 exceeds the default cap of 1000
KNOWN_SKIP = "LEM-7.2-CHAR-Q11-13"

# the paper's headline constants: (claim, key of `actual`, value)
HEADLINES = (
    ("THM-1.9-ASSEMBLY", "p7", "7200"),
    ("THM-1.9-ASSEMBLY", "p5", "168"),
    ("THM-1.9-ASSEMBLY", "p3", "10"),
    ("SHARP-A5A5", "min_index_p7", "7200"),
    ("SHARP-A5A5", "ratio_p7", "7200"),
    ("SHARP-PSL27", "min_index_p5", "168"),
    ("SHARP-PSL27", "ratio_p5", "168"),
    ("SHARP-D10", "min_index_p3", "10"),
    ("SHARP-D10", "ratio_p3", "10"),
    ("PROP-4.4-STRUCT", "with_frobenius", "1440"),   # |Aut(PSL2(F9))|
)


def sweep_spec(seed: int) -> dict:
    """Groups in seeded order and the (group, query, p) operations on them."""
    rng = random.Random(seed)
    big = list(SWEEP_GROUPS)
    small = list(CD_GROUPS)
    rng.shuffle(big)
    rng.shuffle(small)
    groups = big + small
    ops = []
    for gi in range(len(big)):
        ops.append((gi, "subgroup_classes", 0))
        ops.extend((gi, "sweep_bound", p) for p in PRIMES)
    for gi in range(len(big), len(groups)):
        ops.append((gi, "all_subgroups", 0))
        ops.append((gi, "chermak_delgado", 0))
    return {"groups": groups, "ops": ops, "aux_j": AUX_J}


def large_spec(seed: int) -> dict:
    rng = random.Random(seed)
    groups = [g for g, _, _ in LARGE_GROUPS]
    rng.shuffle(groups)
    ops = []
    for gi in range(len(groups)):
        ops.append((gi, "conjugacy_classes", 0))
        ops.append((gi, "normal_subgroups", 0))
        ops.extend((gi, "j_analysis", p) for p in PRIMES)
    return {"groups": groups, "ops": ops}
