"""Claim registry machinery: records, execution engine, reports.

A claim couples hard-coded expected values (exact rationals and integers,
stored as strings) with a runner that recomputes them from scratch.  The
engine compares expected against actual key by key; claims fail with a
concrete witness, are skipped with a reason on cap or timeout, and are
otherwise independent of each other: `run` gives every claim a process of
its own, forked with `os.fork`, which sends its result back as a pickle
over a pipe; the parent kills one that outlives its timeout.  While claims
run, the parent's heap is frozen (`gc.freeze`), so that a child's garbage
collections do not walk, and so copy, the parent's objects.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from fnmatch import fnmatch

from . import construct
from .smallgroup import CapExceeded, Caps  # Caps: re-exported for callers

REPORT_VERSION = 1

# a billion seconds is over 31 years; a longer timeout, inf or nan is
# refused, so that every claim's deadline is a finite time
MAX_TIMEOUT_S = 1e9


class SkipClaim(Exception):
    """Raised by a runner to record a skip with a mandatory reason."""


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
        return asdict(self)


def result_from_json(d: dict) -> ClaimResult:
    """An entry's result; unknown keys are ignored, a missing one raises."""
    return ClaimResult(**{f.name: d[f.name] for f in fields(ClaimResult)})


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
    """Refuse a per-claim timeout that is negative or not a finite number
    of seconds up to MAX_TIMEOUT_S."""
    if timeout is None:
        return
    if timeout < 0:
        raise ValueError(f"timeout {timeout:g}: must not be negative")
    if not timeout <= MAX_TIMEOUT_S:  # nan and inf included
        raise ValueError(f"timeout {timeout:g}: must be a finite number of "
                         f"seconds up to {MAX_TIMEOUT_S:g}")


def _result(record, status, actual, witness, t0) -> ClaimResult:
    """The result of record, with runtime_ms counted from t0."""
    return ClaimResult(record.id, record.paper_ref, status,
                       _canon(record.expected), _canon(actual), witness,
                       int((time.monotonic() - t0) * 1000))


def run_claim(record: ClaimRecord) -> ClaimResult:
    """Run one claim in this process under the active caps, from an empty
    group cache, so that nothing run before it changes its result or
    runtime_ms."""
    construct._CACHE.clear()
    t0 = time.monotonic()
    try:
        actual, witness = record.fn()
    except SkipClaim as e:
        return _result(record, "skip", {}, f"skipped: {e}", t0)
    except CapExceeded as e:
        return _result(record, "skip", {}, f"skipped (cap): {e}", t0)
    except Exception as e:  # engine errors are data, not crashes
        return _result(record, "fail", {}, f"error: {type(e).__name__}: {e}", t0)
    status, mism = compare(record.expected, actual)
    if status == "pass":
        return _result(record, "pass", actual, witness or None, t0)
    full = mism + (f" [{witness}]" if witness else "")
    return _result(record, "fail", actual, full, t0)


def _claim_process(record, r, w):
    """Run one claim in this forked process, write its pickled result to
    the pipe w and exit; never returns."""
    import pickle  # run imported it before the fork

    code = 1  # any exception, KeyboardInterrupt included, exits 1
    try:
        os.close(r)
        result = pickle.dumps(run_claim(record))
        with open(w, "wb") as out:
            out.write(result)
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    finally:
        os._exit(code)


def select_claims(records, ids=None, pattern: str | None = None):
    """Filter by explicit ids and/or a glob pattern on the claim id."""
    return sorted((r for r in records if (not ids or r.id in ids)
                   and (pattern is None or fnmatch(r.id, pattern))),
                  key=lambda r: r.id)


def run(records, jobs: int = 1, timeout: float | None = None) -> list[ClaimResult]:
    """Run each claim in a forked process of its own, at most jobs at a
    time; results in claim-id order.

    A claim's process inherits the active caps, runs it with run_claim and
    writes its pickled result to a pipe.  With a timeout, a process still
    running timeout seconds after it started is killed and its claim
    skipped with that reason.  A process that ends without a result
    (killed by a signal, say) makes its claim a fail; the other claims
    still run.
    """
    check_timeout(timeout)
    # imported here: the CLI's start-up does without them
    import gc
    import pickle
    import selectors

    pending = sorted(records, key=lambda r: r.id, reverse=True)
    running = {}  # result pipe -> (pid, record, start time, chunks read)
    results = []
    ready = selectors.DefaultSelector()
    # a child starts from the parent's buffers and heap: empty the one,
    # and freeze the other, so that no collection in a child walks (and
    # so copies) the parent's objects
    sys.stdout.flush()
    sys.stderr.flush()
    gc.freeze()
    try:
        while pending or running:
            while pending and len(running) < max(jobs, 1):
                record = pending.pop()
                r, w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _claim_process(record, r, w)
                os.close(w)
                ready.register(r, selectors.EVENT_READ)
                running[r] = (pid, record, time.monotonic(), [])
            left = None
            if timeout:
                first = min(t0 for _, _, t0, _ in running.values())
                # epoll waits at most 2**31 - 1 ms: a longer wait is cut
                # short and taken up again on the next pass
                left = min(max(first + timeout - time.monotonic(), 0), 1e6)
            for key, _ in ready.select(left):
                pid, record, t0, chunks = running[key.fd]
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    chunks.append(chunk)
                    continue
                del running[key.fd]  # end of file: the process exits
                ready.unregister(key.fd)
                os.close(key.fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code == 0 and chunks:
                    results.append(pickle.loads(b"".join(chunks)))
                else:
                    results.append(_died(record, code, t0))
            for r, (pid, record, t0, _) in list(running.items()):
                if timeout and time.monotonic() - t0 >= timeout:
                    results.append(_result(
                        record, "skip", {},
                        f"skipped (timeout after {timeout}s)", t0))
                    del running[r]
                    _stop(pid, r, ready)
    finally:  # interrupted: leave no claim process behind
        for r, (pid, _, _, _) in running.items():
            _stop(pid, r, ready)
        ready.close()
        gc.unfreeze()
    return sorted(results, key=lambda r: r.id)


def _stop(pid, r, ready):
    """Kill process pid if it still runs, reap it and close its result
    pipe r."""
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    ready.unregister(r)
    os.close(r)


def _died(record, exitcode, t0) -> ClaimResult:
    cause = f"signal {-exitcode}" if exitcode < 0 else f"exit code {exitcode}"
    return _result(record, "fail", {}, f"worker died: {cause}", t0)


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
    w = max([len("claim")] + [len(r.id) for r in results])
    head = f"{'claim':<{w}}  {'status':<6}  {'ms':>8}  expected / actual"
    lines = [head, "-" * len(head)]
    for r in results:
        detail = r.expected if r.status == "pass" else f"{r.expected} / {r.actual}"
        if r.status == "skip":
            detail = r.witness or "skipped"
        if len(detail) > 100:
            detail = detail[:97] + "..."
        lines.append(f"{r.id:<{w}}  {r.status:<6}  {r.runtime_ms:>8}  {detail}")
        if r.status == "fail" and r.witness:
            lines.append(f"{'':<{w}}  witness: {r.witness[:160]}")
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
