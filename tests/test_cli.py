import json

import pytest

from grpverify import construct as cx
from grpverify.cli import build_arg_parser, main, parse_expr
from grpverify.construct import MAX_NESTING, ParseError
from grpverify.ledger import Caps


# -- parser -------------------------------------------------------------------


def test_parse_atoms():
    assert parse_expr("C(5)") == cx.Cyc(5)
    assert parse_expr("D(6)") == cx.Dih(6)
    assert parse_expr("S(4)") == cx.Sym(4)
    assert parse_expr("A(5)") == cx.Alt(5)
    assert parse_expr("EA(2,4)") == cx.ElemAb(2, 4)
    assert parse_expr("H3") == cx.H3()
    assert parse_expr("HESS") == cx.Hess()
    assert parse_expr("HSL23") == cx.Hsl23()
    assert parse_expr("GL(2,3)") == cx.MatGL(3)
    assert parse_expr("SL(2,3)") == cx.MatSL(3)
    assert parse_expr("PGL(2,9)") == cx.ProjGL(9)
    assert parse_expr("PSL(2,7)") == cx.ProjSL(7)
    assert parse_expr("PSL(3,2)") == cx.PSL32()
    assert parse_expr("WD(5)") == cx.WeylD(5)


def test_parse_calls():
    assert parse_expr("prod(A(5),A(5))") == cx.Prod(cx.Alt(5), cx.Alt(5))
    assert parse_expr("swapsq(S(4))") == cx.SwapSq(cx.Sym(4))
    assert parse_expr("semi(C(7),C(3),explicit)") == cx.Semi(
        cx.Cyc(7), cx.Cyc(3), cx.Action("explicit"))
    assert parse_expr("semi(C(7),C(3),explicit[2])") == cx.Semi(
        cx.Cyc(7), cx.Cyc(3), cx.Action("explicit", (2,)))
    assert parse_expr("semi(EA(3,2),C(8),explicit[0,1,1,1])") == cx.Semi(
        cx.ElemAb(3, 2), cx.Cyc(8), cx.Action("explicit", (0, 1, 1, 1)))


def test_parse_sharpness_group():
    expr = parse_expr('semi(EA(2,4),pgroup(5,"(1 2 3 4 5)","(2 5)(3 4)"),evenperm)')
    assert expr == cx.Semi(
        cx.ElemAb(2, 4),
        cx.PGroup(5, ("(1 2 3 4 5)", "(2 5)(3 4)")),
        cx.Action("evenperm"),
    )
    assert cx.build(expr).order == 160


def test_parse_whitespace_tolerant():
    assert parse_expr(" prod( A(5) , A(5) ) ") == cx.Prod(cx.Alt(5), cx.Alt(5))


def test_parse_errors_have_positions():
    for src, frag in [
        ("PGL(2,6)", "not a prime power"),
        ("Q(5)", "unknown atom"),
        ("C(5", "expected ')'"),
        ("C(500)", "out of range"),
        ("prod(A(5))", "expected ','"),
        ("semi(C(7),C(3),explode)", "unknown action"),
        ("C(5)junk", "trailing input"),
        ("", "expected a name"),
        ("EA(4,2)", "not prime"),
        ("GL(2,16)", "exceeds 63"),
        ("pgroup(70)", "out of range"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_expr(src)
        assert frag in str(exc.value)
        assert "byte" in str(exc.value)


def random_expr(rng, depth=0):
    atoms = [
        lambda: cx.Cyc(rng.randint(1, 64)),
        lambda: cx.Dih(rng.randint(2, 32)),
        lambda: cx.Sym(rng.randint(1, 8)),
        lambda: cx.Alt(rng.randint(1, 9)),
        lambda: cx.ElemAb(rng.choice([2, 3, 5, 7]), rng.randint(1, 4)),
        lambda: cx.H3(),
        lambda: cx.Hess(),
        lambda: cx.Hsl23(),
        lambda: cx.MatGL(rng.choice([2, 3, 4, 5, 7, 8])),
        lambda: cx.MatSL(rng.choice([2, 3, 4, 5, 7, 8])),
        lambda: cx.ProjGL(rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 25])),
        lambda: cx.ProjSL(rng.choice([2, 3, 4, 5, 7, 8, 9, 27])),
        lambda: cx.PSL32(),
        lambda: cx.WeylD(rng.randint(2, 8)),
        lambda: cx.PGroup(rng.randint(3, 64), ("(1 2)", "(2 3)")[: rng.randint(0, 2)]),
    ]
    calls = [
        lambda: cx.Prod(random_expr(rng, depth + 1), random_expr(rng, depth + 1)),
        lambda: cx.SwapSq(random_expr(rng, depth + 1)),
        lambda: cx.Semi(random_expr(rng, depth + 1), random_expr(rng, depth + 1),
                        random_action(rng)),
    ]
    if depth >= 2 or rng.random() < 0.6:
        return rng.choice(atoms)()
    return rng.choice(calls)()


def random_action(rng):
    kind = rng.choice(["swap", "natperm", "evenperm", "quotperm", "linear",
                       "inv", "explicit"])
    if kind == "explicit" and rng.random() < 0.5:
        return cx.Action("explicit", tuple(rng.randint(0, 9)
                                           for _ in range(rng.choice([1, 4]))))
    return cx.Action(kind)


def test_print_parse_round_trip_random():
    # the round trip is purely syntactic: expressions need not be buildable
    import random

    rng = random.Random(20260810)
    for _ in range(300):
        e = random_expr(rng)
        assert parse_expr(cx.to_src(e)) == e


def test_print_parse_round_trip():
    exprs = [
        cx.Cyc(12), cx.Dih(6), cx.Sym(5), cx.Alt(5), cx.ElemAb(2, 4), cx.H3(),
        cx.Hess(), cx.Hsl23(), cx.MatGL(4), cx.MatSL(3), cx.ProjGL(9),
        cx.ProjSL(27), cx.PSL32(), cx.WeylD(5),
        cx.Prod(cx.Alt(5), cx.Sym(4)), cx.SwapSq(cx.Alt(5)),
        cx.Semi(cx.Cyc(7), cx.Cyc(3), cx.Action("explicit")),
        cx.Semi(cx.Cyc(7), cx.Cyc(3), cx.Action("explicit", (2,))),
        cx.Semi(cx.ElemAb(3, 2), cx.MatSL(3), cx.Action("linear")),
        cx.Semi(cx.ElemAb(2, 4), cx.PGroup(5, ("(1 2 3 4 5)", "(2 5)(3 4)")),
                cx.Action("evenperm")),
        cx.Semi(cx.ElemAb(3, 3), cx.Sym(4), cx.Action("quotperm")),
        cx.Semi(cx.Cyc(9), cx.Cyc(2), cx.Action("inv")),
        cx.Semi(cx.ElemAb(5, 2), cx.Sym(2), cx.Action("natperm")),
        cx.Prod(cx.Prod(cx.Cyc(2), cx.Cyc(3)), cx.SwapSq(cx.Sym(3))),
    ]
    for e in exprs:
        assert parse_expr(cx.to_src(e)) == e


# -- commands ------------------------------------------------------------------


def test_analyze_command(capsys):
    rc = main(["analyze", "swapsq(A(5))", "-p", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "min_index  7200" in out
    assert "j_ratio    7200" in out


def test_analyze_c12(capsys):
    rc = main(["analyze", "C(12)", "-p", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "min_index  3" in out
    assert "1/9" in out
    assert "cyclic mu_4" in out


def test_analyze_linear_action_of_gl2_over_f2(capsys):
    """GL(2,2) acting on EA(2,2) is S4; over F_2, diag(z, 1) is the identity
    and is not an H generator."""
    rc = main(["analyze", "semi(EA(2,2),GL(2,2),linear)", "-p", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "order      24" in out
    assert "min_index  6" in out


def test_analyze_rejects_nonprime(capsys):
    rc = main(["analyze", "C(12)", "-p", "6"])
    assert rc == 2


def test_parse_error_exit_code(capsys):
    rc = main(["analyze", "PGL(2,6)", "-p", "5"])
    assert rc == 2
    assert "not a prime power" in capsys.readouterr().err


@pytest.mark.parametrize("argv, fragment", [
    (["EA(1000000000000000003,1)", "-p", "2"], "out of range"),
    (["PGL(2,1000000000000000003)", "-p", "2"], "out of range"),
    (["S(3)", "-p", "1000000000000000003"], "not a prime below"),
    (["C(" + "9" * 5000 + ")", "-p", "2"], "byte 2: integer out of range"),
], ids=["EA", "PGL", "p", "literal"])
def test_huge_numbers_are_refused_at_once(argv, fragment, capsys):
    """Each range is checked before any primality test, which would trial-
    divide for hours, and an overlong literal is a syntax error."""
    import signal

    def hang(signum, frame):  # main reports it as an internal error, exit 3
        raise TimeoutError("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        assert main(["analyze", *argv]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("src, fragment", [
    ('pgroup(6,"(1 ' + "9" * 5000 + ')")', "byte 0: pgroup(6,"),
    ('pgroup(6,"(1 2' + " " * 5000 + ' 1)")', "point 1 repeated"),
    ("Q" * 5000 + "(3)", "byte 0: unknown atom 'QQQ"),
    ("semi(C(7),C(3)," + "e" * 5000 + ")", "byte 15: unknown action"),
], ids=["long-point", "long-cycle", "long-atom", "long-action"])
def test_a_refused_source_is_echoed_in_short(src, fragment, capsys):
    """The error names the node at its byte offset but repeats at most
    MAX_ECHO characters of each piece of the source it quotes."""
    assert main(["aut", src]) == 2
    err = capsys.readouterr().err
    assert fragment in err and "..." in err
    assert len(err.splitlines()) == 1
    assert len(err) < 2 * cx.MAX_ECHO + 80


def test_a_non_decimal_digit_is_a_syntax_error():
    with pytest.raises(ParseError, match="byte 2: expected an integer"):
        parse_expr("C(\u00b2)")  # a superscript 2: str.isdigit, not int


def nested_prod(depth):
    return "prod(" * depth + "C(1)" + ",C(1))" * depth


def test_nesting_limit_parses_32_deep(capsys):
    assert MAX_NESTING == 32
    assert main(["analyze", nested_prod(32), "-p", "2"]) == 0
    assert "min_index  1" in capsys.readouterr().out


@pytest.mark.parametrize("depth", [33, 1000])
def test_nesting_beyond_the_limit_is_a_syntax_error(depth, capsys):
    assert main(["analyze", nested_prod(depth), "-p", "2"]) == 2
    err = capsys.readouterr().err
    assert "syntax error" in err and f"byte {33 * 5}:" in err  # at the atom


def test_cap_error_exit_code(capsys):
    rc = main(["analyze", "swapsq(A(5))", "-p", "7", "--max-order", "5000"])
    assert rc == 2
    assert "cap" in capsys.readouterr().err


def test_cap_flags_bound_every_claim(capsys):
    rc = main(["verify", "--claim", "THM-4.1-CHAR", "--jobs", "1",
               "--max-aut-order", "10"])
    assert rc == 0
    assert "exceeds automorphism cap 10" in capsys.readouterr().out


def test_build_error_exit_code(capsys):
    assert main(["aut", "semi(EA(3,3),S(4),natperm)"]) == 2
    assert "act on 3 points" in capsys.readouterr().err
    assert main(["aut", 'pgroup(3,"(1 4)")']) == 2
    assert "exceeds degree" in capsys.readouterr().err


def test_engine_error_exit_code(monkeypatch, capsys):
    from grpverify import cli, lattice

    def quotient_by_non_normal(m, p):
        sub = next(s for s in lattice.all_subgroups(m)
                   if not lattice.is_normal(m, s))
        return lattice.quotient(m, sub)

    monkeypatch.setattr(cli, "j_analysis", quotient_by_non_normal)
    assert main(["analyze", "S(3)", "-p", "3"]) == 3
    assert "subgroup is not normal" in capsys.readouterr().err


def test_closed_output_pipe_ends_quietly():
    import os
    import signal
    import subprocess
    import sys

    import grpverify

    src = os.path.dirname(os.path.dirname(grpverify.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "grpverify.cli", "subgroups", "S(5)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes before the first line is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 128 + signal.SIGPIPE
    assert err == b""


def test_subgroups_command(capsys):
    # S6: OEIS A005432 and A000638
    for group, subs, classes in [("S(4)", 30, 11), ("S(6)", 1455, 56)]:
        rc = main(["subgroups", group])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"{subs} subgroups" in out
        rc = main(["subgroups", group, "--up-to-conjugacy"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"{classes} classes" in out


def test_aut_command(capsys):
    rc = main(["aut", "S(4)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "|Aut|      24" in out
    assert "|Out|      1" in out


def test_aut_command_counts_psl29(capsys):
    assert main(["aut", "PSL(2,9)"]) == 0
    out = capsys.readouterr().out
    assert "|Aut|      1440\n" in out
    assert "|Inn|      360\n" in out
    assert "|Out|      4\n" in out


def test_claims_listing(capsys):
    rc = main(["claims", "--list"])
    out = capsys.readouterr().out.split()
    assert rc == 0
    assert "SHARP-D10" in out
    assert len(out) >= 40


def test_verify_single_claim(capsys, tmp_path):
    path = tmp_path / "r.json"
    rc = main(["verify", "--claim", "SHARP-D10", "--json", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pass 1  fail 0  skip 0" in out
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    assert doc["claims"][0]["id"] == "SHARP-D10"
    assert doc["claims"][0]["status"] == "pass"
    assert set(doc["claims"][0]) == {
        "id", "paper_ref", "status", "expected", "actual", "witness",
        "runtime_ms"}


def test_verify_filter_touches_only_matching(capsys):
    rc = main(["verify", "--filter", "SHARP-*", "--jobs", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines()
             if ln and not ln.startswith(("-", "claim", "pass"))]
    assert all(ln.startswith("SHARP-") for ln in lines)
    assert len(lines) == 4


def test_verify_requires_selection(capsys):
    rc = main(["verify"])
    assert rc == 2


def test_verify_unknown_claim(capsys):
    rc = main(["verify", "--claim", "NOPE"])
    assert rc == 2


@pytest.mark.parametrize("flags, message", [
    (["--timeout", "-1"], "--timeout -1"),
    (["--timeout", "-1", "--jobs", "2"], "--timeout -1"),
    (["--jobs", "0"], "--jobs 0"),
    (["--jobs", "-2"], "--jobs -2"),
    (["--timeout", "nan"], "--timeout nan"),
    (["--timeout", "inf"], "--timeout inf"),
    (["--timeout", "1e300"], "--timeout 1e+300"),
    (["--timeout", "nan", "--jobs", "2"], "--timeout nan"),
    (["--timeout", "inf", "--jobs", "2"], "--timeout inf"),
])
def test_verify_rejects_bad_timeout_and_jobs(capsys, flags, message):
    rc = main(["verify", "--claim", "SHARP-D10", *flags])
    out, err = capsys.readouterr()
    assert rc == 2
    assert message in err
    assert out == ""  # no claim ran


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["analyze", "A(5)", "-p", "2"],
    ["subgroups", "A(5)"],
    ["aut", "A(5)"],
], ids=lambda argv: argv[0])
def test_cap_flag_defaults_are_the_engine_caps(argv):
    args = build_arg_parser().parse_args(argv)
    parsed = Caps(max_order=args.max_order,
                  max_subgroup_order=args.max_subgroup_order,
                  max_aut_order=args.max_aut_order)
    assert parsed == Caps()


def test_jobs_default_to_the_cores_this_process_may_run_on(monkeypatch):
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert build_arg_parser().parse_args(["verify", "--all"]).jobs == 3
    # where the platform has no affinity, the logical cores
    monkeypatch.delattr(os, "sched_getaffinity")
    assert build_arg_parser().parse_args(["verify", "--all"]).jobs == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_arg_parser().parse_args(["verify", "--all"]).jobs == 1


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    from grpverify import claims as claims_mod

    rec = claims_mod.get_claim("SHARP-CHAR2").corrupted("min_index_p2")
    monkeypatch.setattr(claims_mod, "builtin_claims", lambda: [rec])
    rc = main(["verify", "--all", "--jobs", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "fail 1" in out


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 2
