"""Child process of the benchmark: the only place the engine runs in-process.

    python3 perfbench/worker.py MODE SPEC.json OUT.json

MODE is `registry` (import the CLI and the claim registry, as every
`grpverify verify` does first), `setup` (import grpverify, build and
materialize every group of the spec), `round` (set-up, then the spec's
operations, timed), or `claims` (import the registry, then run each listed
claim in a forked process of its own, so that no group state is shared
between claims).  With `"trace": 1`
in the spec, the engine's entry points are wrapped before grpverify.claims
or grpverify.cli is imported, and the spans are returned in OUT.json.
"""

import json
import os
import select
import signal
import sys
import time
import traceback
from fractions import Fraction

from speed import SpeedClock


def _sub(m, s) -> list:
    return [format(s.mask, "x"), [list(m.perms[g]) for g in s.gens]]


def _operations(spec) -> dict:
    """query name -> f(materialized group, p); imported after the tracer."""
    from grpverify import autmorph, lattice

    aux_j = {int(p): Fraction(j) for p, j in spec.get("aux_j", {}).items()}
    return {
        "subgroup_classes": lambda m, p: lattice.subgroup_classes(m),
        "sweep_bound": lambda m, p: lattice.sweep_bound(m, p, aux_j[p]),
        "all_subgroups": lambda m, p: lattice.all_subgroups(m),
        "chermak_delgado": lambda m, p: autmorph.chermak_delgado(m),
        "conjugacy_classes": lambda m, p: m.conjugacy_classes(),
        "normal_subgroups": lambda m, p: lattice.normal_subgroups(m),
        "j_analysis": lambda m, p: lattice.j_analysis(m, p),
    }


def _serialize(m, query, result):
    if query in ("subgroup_classes", "all_subgroups", "normal_subgroups"):
        return [_sub(m, s) for s in result]
    if query == "sweep_bound":
        return {"n_classes": result.n_classes,
                "order_violations": [[e.order, e.min_index]
                                     for e in result.order_violations],
                "bound_violations": [e.order for e in result.bound_violations]}
    if query == "chermak_delgado":
        return format(result, "x")
    if query == "conjugacy_classes":
        return sorted(len(c) for c in result)
    if query == "j_analysis":
        return {"min_index": result.min_index, "p_part": result.p_part,
                "j_ratio": str(result.j_ratio),
                "witness_order": result.witness.order,
                "witness_gens": [list(m.perms[g]) for g in result.witness.gens]}
    raise ValueError(query)


def _install_tracer(spec):
    if not spec.get("trace"):
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def do_registry() -> dict:
    clock = SpeedClock()
    clock.start()
    import grpverify.cli  # noqa: F401
    from grpverify.claims import builtin_claims

    builtin_claims()
    out = {"setup_s": clock.now()}
    clock.stop()
    return out


def do_round(spec, setup_only: bool) -> dict:
    """Times in reference seconds (see speed.py), set-up from a fresh start."""
    clock = SpeedClock()
    clock.start()
    tracer = _install_tracer(spec)
    from grpverify import construct
    from grpverify.cli import parse_expr

    groups = [construct.build(parse_expr(src)).materialized()
              for src in spec["groups"]]
    out = {"setup_s": clock.now()}
    if setup_only:
        clock.stop()
        return out
    operations = _operations(spec)
    results = []
    op_s = []
    cpu0 = time.process_time()
    mark = clock.mark()
    for gi, query, p in spec["ops"]:
        t = clock.now()
        results.append(operations[query](groups[gi], p))
        op_s.append(clock.now() - t)
    out["wall_s"] = clock.now() - mark[0]
    cpu = time.process_time() - cpu0 - (clock.calibration_s - mark[2])
    out["cpu_s"] = cpu * clock.mean_factor(mark)
    out["raw_wall_s"] = time.perf_counter() - mark[1]
    out["op_s"] = op_s
    clock.stop()
    # everything below is outside the timed part
    out["results"] = [_serialize(groups[gi], q, r)
                      for (gi, q, _), r in zip(spec["ops"], results)]
    out["groups"] = [{"n": m.n, "degree": m.degree,
                      "gens": [list(m.perms[g]) for g in m.gens],
                      "perms": [list(x) for x in m.perms] if spec["dump_perms"]
                      else None}
                     for m in groups]
    if tracer is not None:
        out["trace"] = tracer.export()
    return out


def _in_fork(fn, timeout: float):
    """fn() in a forked child; its JSON-able result, or None on timeout/crash."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(r)
        code = 0
        try:
            payload = json.dumps(fn())
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        with os.fdopen(w, "w") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(w)
    chunks = []
    deadline = time.monotonic() + timeout
    timed_out = False
    with os.fdopen(r, "rb") as fh:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([fh], [], [], left)
            if ready:
                chunk = os.read(fh.fileno(), 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    os.waitpid(pid, 0)
    if timed_out or not chunks:
        return None
    return json.loads(b"".join(chunks))


def do_claims(spec) -> dict:
    tracer = _install_tracer(spec)
    from grpverify.claims import get_claim
    from grpverify.ledger import run_claim

    deadline = time.monotonic() + spec["deadline_s"]
    claims = []
    for cid in spec["claims"]:
        record = get_claim(cid)

        def one(record=record):
            t = time.perf_counter()
            if tracer is None:
                res = run_claim(record)
            else:
                res = tracer.spanned(f"claims.{record.id}", run_claim)(record)
            out = {"result": res.to_json(), "wall_s": time.perf_counter() - t}
            if tracer is not None:
                out["trace"] = tracer.export()
            return out

        left = deadline - time.monotonic()
        got = _in_fork(one, left) if left > 0 else None
        if got is None or "error" in got:
            got = {"id": cid, "lost": (got or {}).get("error", "deadline")}
        claims.append(got)
    return {"claims": claims}


def main(argv):
    mode, spec_path, out_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    if mode == "registry":
        out = do_registry()
    elif mode in ("setup", "round"):
        out = do_round(spec, setup_only=mode == "setup")
    elif mode == "claims":
        out = do_claims(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    tmp = out_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(out, fh)
    os.replace(tmp, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
