"""Claim registry machinery: records, execution engine, reports.

A claim couples hard-coded expected values (exact rationals and integers,
stored as strings) with a runner that recomputes them from scratch.  The
engine compares expected against actual key by key; claims fail with a
concrete witness, are skipped with a reason on cap or timeout, and are
otherwise independent of each other.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field, replace

from . import construct
from .smallgroup import CapExceeded, Caps  # Caps: re-exported for callers

REPORT_VERSION = 1

# above about 9.2e9 s the claim timer cannot be set at all (Python keeps
# times as 64-bit nanoseconds); a billion seconds is over 31 years
MAX_TIMEOUT_S = 1e9


class SkipClaim(Exception):
    """Raised by a runner to record a skip with a mandatory reason."""


class _ClaimTimeout(Exception):
    pass


@dataclass(frozen=True)
class ClaimRecord:
    id: str
    paper_ref: str
    kind: str
    expected: dict
    fn: object = field(repr=False, compare=False)

    def corrupted(self, key: str) -> "ClaimRecord":
        """Copy with one expected constant deliberately broken."""
        bad = dict(self.expected)
        bad[key] = "CORRUPTED:" + str(bad[key])
        return replace(self, expected=bad)


@dataclass(frozen=True)
class ClaimResult:
    id: str
    paper_ref: str
    status: str  # pass | fail | skip
    expected: str
    actual: str
    witness: str | None
    runtime_ms: int

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "witness": self.witness,
            "runtime_ms": self.runtime_ms,
        }


def result_from_json(d: dict) -> ClaimResult:
    return ClaimResult(d["id"], d["paper_ref"], d["status"], d["expected"],
                       d["actual"], d["witness"], d["runtime_ms"])


def _canon(d: dict) -> str:
    return json.dumps({k: str(v) for k, v in d.items()}, sort_keys=True)


def compare(expected: dict, actual: dict):
    """(status, witness) for an expected/actual pair; exact string equality."""
    exp = {k: str(v) for k, v in expected.items()}
    act = {k: str(v) for k, v in actual.items()}
    bad = sorted(set(exp) | set(act))
    mism = [k for k in bad if exp.get(k) != act.get(k)]
    if not mism:
        return "pass", None
    parts = [f"{k}: expected {exp.get(k)!r}, actual {act.get(k)!r}" for k in mism]
    return "fail", "; ".join(parts)


def check_timeout(timeout: float | None) -> None:
    """Refuse a per-claim timeout the claim timer cannot be set to."""
    if timeout is None:
        return
    if timeout < 0:
        raise ValueError(f"timeout {timeout:g}: must not be negative")
    if not timeout <= MAX_TIMEOUT_S:  # nan and inf included
        raise ValueError(f"timeout {timeout:g}: must be a finite number of "
                         f"seconds up to {MAX_TIMEOUT_S:g}")


def run_claim(record: ClaimRecord, timeout: float | None = None) -> ClaimResult:
    """Run one claim under the active caps, from an empty group cache, so
    that nothing run before it changes its result or runtime_ms."""
    check_timeout(timeout)
    construct._CACHE.clear()
    t0 = time.monotonic()

    def done(status, actual, witness):
        ms = int((time.monotonic() - t0) * 1000)
        return ClaimResult(record.id, record.paper_ref, status,
                           _canon(record.expected), _canon(actual), witness, ms)

    def _on_alarm(signum, frame):
        raise _ClaimTimeout

    old_handler = None
    installed = False
    try:
        if timeout:
            # raises ValueError off the main thread: then nothing is installed
            old_handler = signal.signal(signal.SIGALRM, _on_alarm)
            installed = True
            signal.setitimer(signal.ITIMER_REAL, timeout)
        actual, witness = record.fn()
    except SkipClaim as e:
        return done("skip", {}, f"skipped: {e}")
    except CapExceeded as e:
        return done("skip", {}, f"skipped (cap): {e}")
    except _ClaimTimeout:
        return done("skip", {}, f"skipped (timeout after {timeout}s)")
    except Exception as e:  # engine errors are data, not crashes
        return done("fail", {}, f"error: {type(e).__name__}: {e}")
    finally:
        if installed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old_handler)
    status, mism = compare(record.expected, actual)
    if status == "pass":
        return done("pass", actual, witness or None)
    full = mism + (f" [{witness}]" if witness else "")
    return done("fail", actual, full)


def _claim_process(record, timeout, conn):
    """Run one claim in its own forked process and send back its result."""
    conn.send(run_claim(record, timeout=timeout).to_json())
    conn.close()


def select_claims(records, ids=None, pattern: str | None = None):
    """Filter by explicit ids and/or a glob pattern on the claim id."""
    out = []
    for r in records:
        if ids and r.id not in ids:
            continue
        if pattern is not None:
            from fnmatch import fnmatch

            if not fnmatch(r.id, pattern):
                continue
        out.append(r)
    return sorted(out, key=lambda r: r.id)


def run(records, jobs: int = 1, timeout: float | None = None) -> list[ClaimResult]:
    """Execute claims (in parallel if jobs > 1); results in claim-id order.

    Claims run under the active caps.  In parallel each claim runs in its
    own process, at most jobs at a time, and inherits the caps.  A process
    that dies before it reports (killed by a signal, say) makes its claim a
    fail; the other claims still run.
    """
    check_timeout(timeout)
    records = sorted(records, key=lambda r: r.id)
    if jobs <= 1 or len(records) <= 1:
        return [run_claim(r, timeout=timeout) for r in records]
    # imported here: a serial run and the CLI's start-up do without them
    from multiprocessing import get_context
    from multiprocessing.connection import wait

    # fork: a child starts from the parent's imports and needs no pickling
    # of the record, whose runner may be any function
    ctx = get_context("fork")
    pending = records[::-1]
    running = {}  # result pipe -> (process, record, start time)
    results = []
    try:
        while pending or running:
            while pending and len(running) < jobs:
                record = pending.pop()
                reader, writer = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_claim_process,
                                   args=(record, timeout, writer))
                proc.start()
                writer.close()
                running[reader] = (proc, record, time.monotonic())
            for reader in wait(list(running)):
                proc, record, t0 = running.pop(reader)
                try:
                    results.append(result_from_json(reader.recv()))
                except EOFError:  # the process ended without a result
                    proc.join()
                    results.append(_died(record, proc.exitcode, t0))
                reader.close()
                proc.join()
    finally:  # interrupted: leave no claim process behind
        for reader, (proc, _, _) in running.items():
            proc.kill()
            proc.join()
            reader.close()
    return sorted(results, key=lambda r: r.id)


def _died(record, exitcode, t0) -> ClaimResult:
    if exitcode < 0:
        cause = f"signal {-exitcode}"
    else:
        cause = f"exit code {exitcode}"
    return ClaimResult(record.id, record.paper_ref, "fail",
                       _canon(record.expected), _canon({}),
                       f"worker died: {cause}",
                       int((time.monotonic() - t0) * 1000))


def summary(results) -> dict:
    out = {"pass": 0, "fail": 0, "skip": 0}
    for r in results:
        out[r.status] += 1
    return out


def report_json(results) -> dict:
    return {
        "version": REPORT_VERSION,
        "claims": [r.to_json() for r in results],
        "summary": summary(results),
    }


def report_text(results) -> str:
    widths = {
        "id": max([len("claim")] + [len(r.id) for r in results]),
        "status": 6,
    }
    lines = []
    head = (f"{'claim':<{widths['id']}}  {'status':<6}  {'ms':>8}  "
            f"expected / actual")
    lines.append(head)
    lines.append("-" * len(head))
    for r in results:
        detail = r.expected if r.status == "pass" else f"{r.expected} / {r.actual}"
        if r.status == "skip":
            detail = r.witness or "skipped"
        if len(detail) > 100:
            detail = detail[:97] + "..."
        lines.append(f"{r.id:<{widths['id']}}  {r.status:<6}  "
                     f"{r.runtime_ms:>8}  {detail}")
        if r.status == "fail" and r.witness:
            lines.append(f"{'':<{widths['id']}}  witness: {r.witness[:160]}")
    s = summary(results)
    lines.append("-" * len(head))
    lines.append(f"pass {s['pass']}  fail {s['fail']}  skip {s['skip']}")
    return "\n".join(lines)


def write_json_report(results, path: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(report_json(results), fh, indent=1, sort_keys=False)
        fh.write("\n")
    os.replace(tmp, path)
