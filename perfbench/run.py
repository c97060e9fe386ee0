"""Benchmark of grpverify: the claim ledger end to end, the engine per layer.

    python3 perfbench/run.py --workload {ledger,sweep,large} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program measured is the `src/` next to this
directory.  Every workload is a closed loop of one client that repeats
whole rounds until S seconds have passed:

  ledger  one `grpverify verify --jobs 2 --json` process over a fixed slice
          of the claim registry (one operation per claim)
  sweep   subgroup classes and Lemma 3.8 bound sweeps of five groups of
          order 648..1320, then all subgroups and the Chermak-Delgado
          subgroup of 38 small groups (one operation per group and query)
  large   conjugacy classes, normal subgroups and j-analysis at p = 2..7 of
          four groups of order 1152..23040

sweep and large run in a fresh child process per round; the checks of
perfbench/checks.py run here, in this process, after the timed part.  The
last line of standard output is one JSON object: correct, attempted,
failed and the metrics (end-to-end with --trace 0, per layer with
--trace 1).  End-to-end times are in reference seconds, corrected for the
host's speed (perfbench/speed.py).  See perfbench/README.md for what each
metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import tracer
from speed import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOBS = 2             # the ledger's own --jobs; every other part is serial
RUN_BUDGET_S = 170   # a run ends within 180 s, rounds included
CHECK_RESERVE_S = 20  # kept back for the checks after the last round
# set-ups per run (setup_s is their median); more where a set-up is short
SETUP_SAMPLES = {"ledger": 21, "sweep": 3, "large": 5}


@dataclass
class Proc:
    """A finished child; times in reference seconds (see speed.py)."""
    code: int
    wall_s: float
    cpu_s: float      # user + system of the process and its reaped children
    rss_mb: float     # largest resident set among them
    timed_out: bool
    factor: float     # reference seconds per second while it ran


class Runner:
    """Spawns the measured processes of one run, each under a deadline."""

    def __init__(self):
        self.start = time.monotonic()
        work = ROOT / ".bench_build" / "perfbench"
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.peak_rss_mb = 0.0
        self.clock = SpeedClock()
        self.clock.start()

    def left(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.start)

    def spawn(self, args: list) -> Proc:
        timeout = max(self.left() - CHECK_RESERVE_S, 1.0)
        with open(self.tmp / "stderr.txt", "ab") as err:
            mark = self.clock.mark()
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, cwd=ROOT,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)
            timed_out = False
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - t0 > timeout:
                    timed_out = True
                    os.killpg(proc.pid, signal.SIGKILL)
                    _, status, ru = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
            wall = time.perf_counter() - t0
            factor = self.clock.mean_factor(mark)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _end_group(proc.pid)
        rss = ru.ru_maxrss / 1024
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return Proc(proc.returncode, wall * factor,
                    (ru.ru_utime + ru.ru_stime) * factor, rss, timed_out, factor)

    def worker(self, mode: str, spec: dict) -> tuple[Proc, dict | None]:
        spec_path = self.tmp / "spec.json"
        out_path = self.tmp / "out.json"
        spec_path.write_text(json.dumps(spec))
        out_path.unlink(missing_ok=True)
        proc = self.spawn([str(HERE / "worker.py"), mode, str(spec_path),
                           str(out_path)])
        if proc.code != 0 or not out_path.exists():
            self.report_stderr(f"worker {mode}")
            return proc, None
        return proc, json.loads(out_path.read_text())

    def report_stderr(self, what: str):
        tail = (self.tmp / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"{what} failed; its stderr ends with:\n{tail}", file=sys.stderr)

    def close(self):
        self.clock.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)


def _end_group(pgid: int):
    """Kill whatever is left of a child's process group (pool workers of a
    killed `verify`) and give it up to 5 s to be gone; what is left after
    that can only be a zombie awaiting its new parent."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def rounds(runner: Runner, seconds: float, one_round):
    """Whole rounds until `seconds` have passed or the run budget is spent."""
    done = []
    t0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        done.append(one_round())
        took = time.monotonic() - r0
        if time.monotonic() - t0 >= seconds:
            return done
        if runner.left() - CHECK_RESERVE_S < 1.5 * took:
            return done


@dataclass
class Round:
    attempted: int
    failed: int
    problems: list
    wall_s: float
    cpu_s: float
    op_sum_s: float
    setup_s: float | None = None
    results: object = None
    host_wall_s: float = 0.0   # the same wall time in plain seconds


# -- ledger -----------------------------------------------------------------


def _verify_args(json_path) -> list:
    args = ["-m", "grpverify.cli", "verify", "--jobs", str(JOBS),
            "--json", str(json_path)]
    for cid in inputs.LEDGER_CLAIMS:
        args += ["--claim", cid]
    return args


def ledger_round(runner: Runner) -> Round:
    report_path = runner.tmp / "report.json"
    report_path.unlink(missing_ok=True)
    proc = runner.spawn(_verify_args(report_path))
    n = len(inputs.LEDGER_CLAIMS)
    if proc.timed_out or not report_path.exists():
        runner.report_stderr("grpverify verify")
        return Round(n, n, [], proc.wall_s, proc.cpu_s, 0.0)
    report = json.loads(report_path.read_text())
    failed = n - sum(c["status"] == "pass" for c in report["claims"])
    problems = checks.check_ledger_report(report, proc.code,
                                          inputs.LEDGER_CLAIMS)
    return Round(n, failed, problems, proc.wall_s, proc.cpu_s,
                 sum(c["runtime_ms"] for c in report["claims"]) / 1000 * proc.factor,
                 host_wall_s=proc.wall_s / proc.factor)


def ledger_setup(runner: Runner) -> list:
    """Start-up every `verify` pays: importing the CLI and the registry."""
    outs = (runner.worker("registry", {}) for _ in range(SETUP_SAMPLES["ledger"]))
    return [out["setup_s"] for _, out in outs if out is not None]


def cold_claims(runner: Runner, trace: bool) -> Round:
    """Every claim of the slice in a forked process of its own."""
    spec = {"claims": list(inputs.LEDGER_CLAIMS), "trace": int(trace),
            "deadline_s": max(runner.left() - CHECK_RESERVE_S - 5, 1.0)}
    proc, out = runner.worker("claims", spec)
    n = len(inputs.LEDGER_CLAIMS)
    ran = [c for c in (out or {"claims": []})["claims"] if "result" in c]
    failed = n - sum(c["result"]["status"] == "pass" for c in ran)
    problems = checks.check_claim_results(
        [c["result"] for c in ran], [c["result"]["id"] for c in ran])
    walls = {c["result"]["id"]: c["wall_s"] for c in ran}
    traces = [c["trace"] for c in ran if "trace" in c]
    return Round(n, failed, problems, sum(walls.values()), proc.cpu_s,
                 sum(walls.values()), results={"walls": walls, "traces": traces},
                 host_wall_s=sum(walls.values()))


def run_ledger(runner: Runner, seed: int, seconds: float, trace: bool):
    if not trace:
        setup = ledger_setup(runner)
        done = rounds(runner, seconds, lambda: ledger_round(runner))
        return done, end_to_end(done, setup, runner), None
    cli = ledger_round(runner)
    plain = cold_claims(runner, trace=False)
    traced = cold_claims(runner, trace=True)
    merged = tracer.merge(traced.results["traces"])
    layers = tracer.layer_metrics(merged)
    walls = plain.results["walls"]
    for cid in inputs.LEDGER_TIMED_CLAIMS:
        layers[f"claims.{cid}_s"] = walls.get(cid, 0.0)
    layers["claims.rest_s"] = sum(v for k, v in walls.items()
                                  if k not in inputs.LEDGER_TIMED_CLAIMS)
    layers["ledger.parallel_efficiency"] = cli.cpu_s / (JOBS * cli.wall_s)
    layers["ledger.imbalance_s"] = cli.wall_s - cli.op_sum_s / JOBS
    layers["trace.overhead_ratio"] = traced.wall_s / plain.wall_s if (
        plain.wall_s and traced.attempted == len(traced.results["walls"])) else 0.0
    return [cli, plain, traced], layers, merged


# -- sweep and large ----------------------------------------------------------


def engine_round(runner: Runner, spec: dict, check, trace: bool) -> Round:
    proc, out = runner.worker("round", dict(spec, trace=int(trace)))
    n = len(spec["ops"])
    if out is None:
        return Round(n, n, [], proc.wall_s, proc.cpu_s, 0.0)
    return Round(n, 0, check(out), out["wall_s"], out["cpu_s"],
                 sum(out["op_s"]), out["setup_s"],
                 {"results": out["results"], "trace": out.get("trace")},
                 out["raw_wall_s"])


def run_engine(runner: Runner, spec: dict, check, seconds: float, trace: bool,
               setups: int):
    if trace:
        plain = engine_round(runner, spec, check, trace=False)
        traced = engine_round(runner, spec, check, trace=True)
        done = [plain, traced]
        layers = {}
        merged = None
        if traced.results is not None:
            merged = tracer.merge([traced.results["trace"]])
            layers = tracer.layer_metrics(merged)
        layers.update({f"claims.{cid}_s": 0.0 for cid in inputs.LEDGER_TIMED_CLAIMS})
        layers.update({"claims.rest_s": 0.0, "ledger.parallel_efficiency": 0.0,
                       "ledger.imbalance_s": 0.0})
        layers["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s
                                          if plain.wall_s else 0.0)
    else:
        setup = [out["setup_s"] for _, out in
                 (runner.worker("setup", spec) for _ in range(setups - 1))
                 if out is not None]
        done = rounds(runner, seconds,
                      lambda: engine_round(runner, spec, check, trace=False))
        setup += [r.setup_s for r in done if r.setup_s is not None]
        layers = end_to_end(done, setup, runner)
        merged = None
    # the program is deterministic: every round must give the same outputs
    outputs = [r.results["results"] for r in done if r.results is not None]
    if any(o != outputs[0] for o in outputs[1:]):
        done[0].problems.append("rounds of one run gave different outputs")
    return done, layers, merged


def run_sweep(runner: Runner, seed: int, seconds: float, trace: bool):
    spec = dict(inputs.sweep_spec(seed), dump_perms=True)
    rng = random.Random(seed)
    return run_engine(runner, spec, lambda out: checks.check_sweep(spec, out, rng),
                      seconds, trace, SETUP_SAMPLES["sweep"])


def run_large(runner: Runner, seed: int, seconds: float, trace: bool):
    spec = dict(inputs.large_spec(seed), dump_perms=False)
    return run_engine(runner, spec, lambda out: checks.check_large(spec, out),
                      seconds, trace, SETUP_SAMPLES["large"])


WORKLOADS = {"ledger": run_ledger, "sweep": run_sweep, "large": run_large}


# -- reporting ------------------------------------------------------------------


def end_to_end(done: list, setup: list, runner: Runner) -> dict:
    med = statistics.median
    return {
        "setup_s": med(setup),
        "wall_s": med(r.wall_s for r in done),
        "cpu_s": med(r.cpu_s for r in done),
        "claim_time_sum_s": med(r.op_sum_s for r in done),
        "peak_rss_mb": runner.peak_rss_mb,
    }


def conditions(args) -> dict:
    sys.path.insert(0, str(SRC))
    from grpverify.ledger import Caps

    digest = hashlib.sha256()
    for path in sorted((SRC / "grpverify").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None  # a source checkout without .git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": JOBS,
        "caps": vars(Caps()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pythonhashseed": "0",
    }


def units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_efficiency", "_per_close")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "grpverify" / "__init__.py").is_file():
        print(f"no grpverify sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so that no measured import pays for compiling
    compileall.compile_dir(str(SRC), quiet=1)
    cond = conditions(args)
    runner = Runner()
    try:
        done, metrics, merged = WORKLOADS[args.workload](
            runner, args.seed, args.seconds, bool(args.trace))
    finally:
        runner.close()
    problems = [p for r in done for p in r.problems]
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if merged is not None:
        trace_path = runner.work / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"conditions": cond, "metrics": metrics, "trace": merged}))
        print(f"trace: {trace_path} ({len(merged['name'])} spans)")
    print("conditions: " + json.dumps(cond))
    print(f"rounds: {len(done)}; wall time per round in plain seconds: "
          + ", ".join(f"{r.host_wall_s:.3f}" for r in done))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units(name)}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in done),
        "failed": sum(r.failed for r in done),
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
