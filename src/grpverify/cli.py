"""Command-line front end: analysis commands and ledger runs.

Group expressions are parsed by `construct.parse_expr` (re-exported here);
the grammar and its limits live in construct.GRAMMAR.

Exit codes: 0 all claims pass, 1 any claim fails, 2 usage, parse or cap
error (a bad command line or group expression), 3 internal or engine error.
A reader that closes the output early (``grpverify ... | head``) ends the
command quietly with 141, the status of a process killed by SIGPIPE.
Cycle notation for permutations is 1-based, e.g. "(1 2 3)(4 5)";
composition applies the right factor first.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from . import construct as cx
from .autmorph import automorphism_group
from .construct import parse_expr
from .gf import is_prime
from .lattice import all_subgroups, j_analysis, sub_materialized, subgroup_classes
from .ledger import (
    Caps,
    check_timeout,
    report_text,
    run,
    select_claims,
    summary,
    write_json_report,
)
from .smallgroup import caps_scope


class UsageError(ValueError):
    """A bad command line or group expression: exit code 2."""


MAX_P = 2**31  # -p is refused at or above this, before any primality test


def _caps_from_args(args) -> Caps:
    return Caps(max_order=args.max_order,
                max_subgroup_order=args.max_subgroup_order,
                max_aut_order=args.max_aut_order)


def _add_cap_flags(sub):
    caps = Caps()
    sub.add_argument("--max-order", type=int, default=caps.max_order,
                     help="largest order of any group built (default %(default)s)")
    sub.add_argument("--max-subgroup-order", type=int,
                     default=caps.max_subgroup_order,
                     help="largest order of a group whose subgroups are swept "
                     "or that is tested for isomorphism (default %(default)s)")
    sub.add_argument("--max-aut-order", type=int, default=caps.max_aut_order,
                     help="largest order |G| (not |Aut(G)|) of a group whose "
                     "automorphisms are searched (default %(default)s)")


def _group(args):
    """(expression, materialized group) of the command's expression.

    An expression that parses but names no group (an action that does not
    act, a malformed cycle string) is a usage error like a parse error.
    """
    try:
        expr = parse_expr(args.expr)
        handle = cx.build(expr)
    except ValueError as e:
        raise UsageError(str(e)) from e
    return expr, handle.materialized()


def cmd_analyze(args) -> int:
    if not (args.p < MAX_P and is_prime(args.p)):  # bounded before the test
        raise UsageError(f"-p {args.p}: not a prime below {MAX_P}")
    expr, m = _group(args)
    ja = j_analysis(m, args.p)
    witness = ja.witness
    hint = _iso_hint(m, witness)
    print(f"group      {cx.to_src(expr)}")
    print(f"order      {m.n}")
    print(f"p          {args.p}")
    print(f"|G_(p)|    {ja.p_part}")
    print(f"min_index  {ja.min_index}")
    print(f"j_ratio    {ja.j_ratio}")
    print(f"witness    order {witness.order}{hint}")
    return 0


def _iso_hint(m, witness) -> str:
    sm = sub_materialized(m, witness)
    if sm.n == 1:
        return " (trivial)"
    orders = sorted({sm.element_order(i) for i in range(sm.n)})
    if not sm.is_abelian():
        return ""
    if max(orders) == sm.n:
        return f" (cyclic mu_{sm.n})"
    return f" (abelian, exponent {max(orders)})"


def cmd_subgroups(args) -> int:
    expr, m = _group(args)
    if args.up_to_conjugacy:
        subs = subgroup_classes(m)
    else:
        subs = all_subgroups(m)
    kind = "classes" if args.up_to_conjugacy else "subgroups"
    print(f"group {cx.to_src(expr)}: |G| = {m.n}, {len(subs)} {kind}")
    by_order = {}
    for sub in subs:
        by_order[sub.order] = by_order.get(sub.order, 0) + 1
    for order in sorted(by_order):
        print(f"  order {order:6d}: {by_order[order]}")
    return 0


def cmd_aut(args) -> int:
    expr, m = _group(args)
    aut = automorphism_group(m)
    print(f"group      {cx.to_src(expr)}")
    print(f"order      {m.n}")
    print(f"|Aut|      {aut.order}")
    print(f"|Inn|      {aut.inner_count}")
    print(f"|Out|      {aut.out_order}")
    return 0


def cmd_claims(args) -> int:
    from .claims import builtin_claims

    for rec in builtin_claims():
        if args.list:
            print(rec.id)
        else:
            print(f"{rec.id:24s} [{rec.kind}] {rec.paper_ref[:90]}")
    return 0


def cmd_verify(args) -> int:
    from .claims import builtin_claims

    if args.jobs < 1:
        raise UsageError(f"--jobs {args.jobs}: must be at least 1")
    try:
        check_timeout(args.timeout)
    except ValueError as e:
        raise UsageError(f"--{e}") from None
    records = builtin_claims()
    if not args.all and not args.claim and args.filter is None:
        print("verify: pass --all, --claim ID, or --filter GLOB", file=sys.stderr)
        return 2
    if not args.all:
        records = select_claims(records, ids=set(args.claim) or None,
                                pattern=args.filter)
        if not records:
            print("verify: no claims match the selection", file=sys.stderr)
            return 2
    results = run(records, jobs=args.jobs, timeout=args.timeout or None)
    print(report_text(results))
    if args.json:
        write_json_report(results, args.json)
        print(f"json report written to {args.json}")
    return 1 if summary(results)["fail"] else 0


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one (taskset narrows it), else the logical cores."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="grpverify",
        description="finite-group engine and claim ledger for p-Jordan "
        "index bounds",
        epilog='permutations use 1-based cycle notation "(1 2 3)(4 5)" '
        "and products apply the right factor first")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run ledger claims")
    v.add_argument("--all", action="store_true", help="run every claim")
    v.add_argument("--claim", action="append", default=[],
                   help="claim id (repeatable)")
    v.add_argument("--filter", default=None, help="glob over claim ids")
    v.add_argument("--jobs", type=int, default=usable_cores(),
                   help="parallel claim processes (default: the cores this "
                   "process may run on)")
    v.add_argument("--timeout", type=float, default=0.0,
                   help="per-claim timeout in seconds (0 = none)")
    v.add_argument("--json", default=None, help="write the JSON report here")
    _add_cap_flags(v)
    v.set_defaults(fn=cmd_verify)

    a = sub.add_parser("analyze", help="minimal coprime abelian index of a group")
    a.add_argument("expr", help='group expression, e.g. "swapsq(A(5))"')
    a.add_argument("-p", type=int, required=True, help="the prime p")
    _add_cap_flags(a)
    a.set_defaults(fn=cmd_analyze)

    s = sub.add_parser("subgroups", help="enumerate subgroups of a group")
    s.add_argument("expr")
    s.add_argument("--up-to-conjugacy", action="store_true")
    _add_cap_flags(s)
    s.set_defaults(fn=cmd_subgroups)

    u = sub.add_parser("aut", help="automorphism group of a group")
    u.add_argument("expr")
    _add_cap_flags(u)
    u.set_defaults(fn=cmd_aut)

    c = sub.add_parser("claims", help="list the claim registry")
    c.add_argument("--list", action="store_true", help="ids only")
    c.set_defaults(fn=cmd_claims)
    return ap


def main(argv=None) -> int:
    from .smallgroup import CapExceeded

    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        # one scope per command; `claims` has no cap flags
        caps = _caps_from_args(args) if hasattr(args, "max_order") else Caps()
        with caps_scope(caps):
            rc = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return rc
    except (UsageError, CapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: send the unflushed rest nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    except Exception as e:  # engine errors and internal failures
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
