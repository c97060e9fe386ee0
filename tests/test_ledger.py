import json
import os
import signal
import threading
import time
from dataclasses import replace

import pytest

from grpverify.claims import builtin_claims, get_claim
from grpverify.ledger import (
    Caps,
    ClaimRecord,
    ClaimResult,
    compare,
    report_json,
    report_text,
    result_from_json,
    run,
    run_claim,
    select_claims,
    summary,
    write_json_report,
)
from grpverify.smallgroup import caps_scope


def test_registry_size_and_unique_ids():
    claims = builtin_claims()
    assert len(claims) >= 40
    ids = [c.id for c in claims]
    assert len(ids) == len(set(ids))
    assert ids == sorted(ids)


def test_registry_required_members():
    ids = {c.id for c in builtin_claims()}
    required = {
        "EX-2.6", "EX-2.7", "EX-2.8", "EX-2.9", "EX-2.10", "EX-2.12", "EX-2.13",
        "THM-3.2", "COR-3.3", "LEM-3.4", "LEM-3.5", "THM-3.7",
        "LEM-3.8-I", "LEM-3.8-II", "LEM-3.8-III", "LEM-3.8-IV", "LEM-3.8-V",
        "LEM-3.8-VI", "LEM-3.8-VII",
        "THM-4.1-ORDERS", "THM-4.1-ISO", "THM-4.1-SIMPLE", "THM-4.1-CENT",
        "THM-4.1-DERIVED", "THM-4.1-CHAR", "THM-4.2-OUT", "PROP-4.4",
        "COR-4.5", "LEM-3.1", "LEM-10.11",
        "LEM-5.1", "COR-5.2", "LEM-5.3", "COR-5.4",
        "EXT-6.1", "EXT-6.2", "EXT-6.3", "EXT-6.4", "EXT-6.5", "EXT-6.6",
        "EXT-6.7", "EXT-6.8",
        "LEM-7.2-DIHEDRAL", "LEM-7.2-EXC", "LEM-7.2-PSLPGL", "LEM-7.2-SEMI",
        "COR-7.3", "LEM-8.2", "LEM-8.3", "PROP-9.2", "COR-9.3", "COR-10.8",
        "SHARP-A5A5", "SHARP-PSL27", "SHARP-D10", "SHARP-CHAR2",
    }
    assert required <= ids


def test_every_claim_has_paper_ref_and_expected():
    for c in builtin_claims():
        assert c.paper_ref
        assert c.expected
        assert all(isinstance(v, str) for v in c.expected.values())


def test_claim_index_doc_carries_every_reference():
    import pathlib

    from grpverify.claimdoc import render

    doc = pathlib.Path(__file__).parent.parent / "docs" / "claims.md"
    text = doc.read_text()
    for c in builtin_claims():
        assert c.paper_ref.replace("|", "\\|") in text, c.id
    assert render() == text


def test_sharp_psl27_expected_values():
    rec = get_claim("SHARP-PSL27")
    assert rec.expected["min_index_p5"] == "168"


def test_lem_3_8_vii_is_arithmetic_only():
    rec = get_claim("LEM-3.8-VII")
    assert rec.kind == "arithmetic-inequality"
    assert rec.expected["p5_exceptions"] == "192,288,576"


def test_run_claim_pass():
    res = run_claim(get_claim("SHARP-CHAR2"))
    assert res.status == "pass"
    assert res.runtime_ms >= 0


def test_corrupted_claim_fails_with_witness():
    rec = get_claim("SHARP-CHAR2")
    key = sorted(rec.expected)[0]
    res = run_claim(rec.corrupted(key))
    assert res.status == "fail"
    assert key in res.witness


def test_corruption_flips_exactly_one_claim():
    fast = ["EX-2.8", "EX-2.9", "SHARP-CHAR2", "SHARP-D10", "LEM-3.8-VII",
            "COR-10.8", "THM-1.9-ASSEMBLY"]
    records = [get_claim(i) for i in fast]
    bad = records[2].corrupted("min_index_p2")
    mixed = records[:2] + [bad] + records[3:]
    results = run(mixed)
    statuses = {r.id: r.status for r in results}
    assert statuses.pop("SHARP-CHAR2") == "fail"
    assert set(statuses.values()) == {"pass"}


def test_select_claims():
    claims = builtin_claims()
    ex = select_claims(claims, pattern="EX-*")
    assert {c.id for c in ex} == {c.id for c in claims if c.id.startswith("EX-")}
    one = select_claims(claims, ids={"SHARP-D10"})
    assert [c.id for c in one] == ["SHARP-D10"]


def test_compare_is_exact():
    status, witness = compare({"a": "1", "b": "2/3"}, {"a": "1", "b": "2/3"})
    assert status == "pass" and witness is None
    status, witness = compare({"a": "1"}, {"a": "2"})
    assert status == "fail" and "expected '1'" in witness
    status, witness = compare({"a": "1"}, {"a": "1", "extra": "x"})
    assert status == "fail"


def test_parallel_run_matches_sequential():
    fast = ["EX-2.8", "SHARP-CHAR2", "COR-10.8", "THM-1.9-ASSEMBLY",
            "PROP-10.13-J-DP"]
    records = [get_claim(i) for i in fast]
    seq = run(records, jobs=1)
    par = run(records, jobs=4)
    assert [(r.id, r.status, r.actual) for r in seq] == \
        [(r.id, r.status, r.actual) for r in par]
    assert [r.id for r in par] == sorted(r.id for r in par)


def test_rerun_deterministic():
    rec = get_claim("EX-2.8")
    a = run_claim(rec)
    b = run_claim(rec)
    assert (a.status, a.expected, a.actual, a.witness) == \
        (b.status, b.expected, b.actual, b.witness)


def test_registry_subset_rerun_identical():
    records = select_claims(builtin_claims(), pattern="SHARP-*") + \
        select_claims(builtin_claims(), pattern="EX-*")
    first = [(r.id, r.status, r.actual, r.witness) for r in run(records)]
    second = [(r.id, r.status, r.actual, r.witness) for r in run(records, jobs=2)]
    assert first == second


def test_timeout_records_skip():
    (res,) = run([get_claim("LEM-3.8-II")], timeout=0.05)
    assert res.status == "skip"
    assert res.witness == "skipped (timeout after 0.05s)"
    assert res.runtime_ms >= 50


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), -1.0], ids=str)
def test_bad_timeout_raises_before_any_handler(timeout):
    before = signal.getsignal(signal.SIGALRM)
    record = get_claim("SHARP-D10")
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="timeout"):
            run([record, record], jobs=jobs, timeout=timeout)
    assert [r.status for r in run([record], timeout=60)] == ["pass"]
    assert signal.getsignal(signal.SIGALRM) is before


# one call into C that holds the interpreter for minutes: no signal
# handler would run until it returned
STUCK = ClaimRecord("STUCK", "", "test", {"x": "0"},
                    lambda: ({"x": sum(range(10**10))}, ""))


def test_a_claim_stuck_in_one_call_is_killed_at_its_timeout():
    t0 = time.monotonic()
    (res,) = run([STUCK], timeout=0.1)
    assert time.monotonic() - t0 < 1.1
    assert res.status == "skip"
    assert res.witness == "skipped (timeout after 0.1s)"
    assert 100 <= res.runtime_ms < 1100
    # the next claim still runs, one at a time
    results = run([STUCK, replace(get_claim("EX-2.8"), id="TAIL")],
                  jobs=1, timeout=0.1)
    assert [r.status for r in results] == ["skip", "pass"]


def test_timeout_off_the_main_thread_works():
    # the parent enforces the timeout, so run needs no signal handler and
    # no main thread
    results = []
    worker = threading.Thread(target=lambda: results.extend(
        run([get_claim("SHARP-D10")], timeout=5) + run([STUCK], timeout=0.1)))
    worker.start()
    worker.join(60)
    assert not worker.is_alive()
    assert [(r.id, r.status) for r in results] == [("SHARP-D10", "pass"),
                                                   ("STUCK", "skip")]


def test_the_longest_timeout_is_kept():
    # a wait longer than poll() takes is cut into slices
    fast = ClaimRecord("FAST", "", "test", {"x": "1"}, lambda: ({"x": 1}, ""))
    assert [r.status for r in run([fast], timeout=1e9)] == ["pass"]


def test_caps_do_not_outlive_their_run():
    with caps_scope(Caps(max_order=10)):
        capped = run_claim(get_claim("EX-2.8"))
    assert capped.status == "skip"
    assert run_claim(get_claim("EX-2.8")).status == "pass"


def test_forked_claims_inherit_the_caps():
    records = [get_claim("EX-2.8"), get_claim("SHARP-D10")]
    with caps_scope(Caps(max_order=1)):
        results = run(records, jobs=2)
    assert [r.status for r in results] == ["skip", "skip"]
    assert all(r.witness.startswith("skipped (cap): ") for r in results)


def test_claim_process_starts_cold(monkeypatch):
    from grpverify import construct

    cache = {}
    monkeypatch.setattr(construct, "_CACHE", cache)  # spare the session's
    run_claim(get_claim("EX-2.8"))
    assert cache  # a claim's groups stay until the next claim starts
    probe = ClaimRecord("PROBE-1", "", "test", {"cached_groups": "0"},
                        lambda: ({"cached_groups": len(construct._CACHE)}, ""))
    results = run([probe, replace(probe, id="PROBE-2")], jobs=2)
    assert [r.status for r in results] == ["pass", "pass"]
    assert cache  # the parent's groups stay
    # one job at a time forks a process per claim as well
    results = run([probe, replace(probe, id="PROBE-2")], jobs=1)
    assert [r.status for r in results] == ["pass", "pass"]


# claims that compute with orders and fractions only and build no group
ARITHMETIC_ONLY = {"COR-10.8", "COR-9.3", "LEM-3.8-VII", "PROP-9.2",
                   "PROP-10.13-J-DP", "PROP-10.14-J-DP-ODD", "THM-1.9-ASSEMBLY"}


def test_max_order_bounds_every_claim():
    with caps_scope(Caps(max_order=1)):
        results = [run_claim(rec) for rec in builtin_claims()]
    assert {r.id for r in results if r.status == "pass"} == ARITHMETIC_ONLY
    for r in results:
        if r.id not in ARITHMETIC_ONLY:
            assert r.status == "skip", r.id
            assert r.witness.startswith("skipped (cap): "), r.id


@pytest.mark.parametrize("cid, field, label", [
    ("THM-4.1-CHAR", "max_aut_order", "automorphism"),
    ("LEM-10.11", "max_aut_order", "automorphism"),
    ("LEM-3.1", "max_aut_order", "automorphism"),
    ("EX-2.12", "max_subgroup_order", "subgroup-sweep"),
    ("EX-2.13", "max_subgroup_order", "subgroup-sweep"),
    ("EX-2.10", "max_subgroup_order", "isomorphism"),
])
def test_query_caps_bound_every_claim(cid, field, label):
    with caps_scope(Caps(**{field: 10})):
        res = run_claim(get_claim(cid))
    assert res.status == "skip"
    assert res.witness.startswith("skipped (cap): ")
    assert res.witness.endswith(f"exceeds {label} cap 10")


@pytest.mark.parametrize("jobs", [1, 2])
def test_dead_worker_fails_its_claim_and_the_run_finishes(jobs):
    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    killed = ClaimRecord("KILLED", "", "test", {"x": "1"}, die)
    records = [get_claim("EX-2.8"), killed, get_claim("SHARP-CHAR2")]

    def hung(signum, frame):
        raise TimeoutError("run() did not return after a worker died")

    old = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        results = run(records, jobs=jobs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    by_id = {r.id: r for r in results}
    assert by_id["KILLED"].status == "fail"
    assert by_id["KILLED"].witness == f"worker died: signal {int(signal.SIGKILL)}"
    assert by_id["EX-2.8"].status == by_id["SHARP-CHAR2"].status == "pass"


def test_skip_has_reason():
    # |PGL2(F13)| = 2184 is above this Aut cap, whatever the default
    with caps_scope(Caps(max_aut_order=1000)):
        res = run_claim(get_claim("LEM-7.2-CHAR-Q11-13"))
    assert res.status == "skip"
    assert "Aut cap" in res.witness


def test_json_report_round_trip(tmp_path):
    results = run([get_claim("SHARP-CHAR2"), get_claim("COR-10.8")])
    doc = report_json(results)
    assert doc["version"] == 1
    assert doc["summary"] == {"pass": 2, "fail": 0, "skip": 0}
    for entry, res in zip(doc["claims"], results):
        assert result_from_json(entry) == res
    path = tmp_path / "report.json"
    write_json_report(results, str(path))
    loaded = json.loads(path.read_text())
    assert loaded == doc


def test_result_from_json_ignores_keys_a_later_version_adds():
    res = ClaimResult("A", "Lemma 1", "pass", "{}", "{}", None, 3)
    entry = dict(res.to_json(), stats={"closures": 7, "vmhwm_kb": 21000})
    assert result_from_json(entry) == res


def test_result_from_json_refuses_an_entry_missing_a_field():
    entry = ClaimResult("A", "Lemma 1", "pass", "{}", "{}", None, 3).to_json()
    del entry["runtime_ms"]
    with pytest.raises(KeyError, match="runtime_ms"):
        result_from_json(entry)


def test_report_text_table():
    results = run([get_claim("SHARP-CHAR2")])
    text = report_text(results)
    assert "SHARP-CHAR2" in text
    assert "pass 1  fail 0  skip 0" in text
    assert "status" in text and "ms" in text


def test_report_counts_failures():
    res = [
        ClaimResult("A", "", "pass", "{}", "{}", None, 1),
        ClaimResult("B", "", "fail", "{}", "{}", "w", 1),
        ClaimResult("C", "", "skip", "{}", "{}", "s", 1),
    ]
    assert summary(res) == {"pass": 1, "fail": 1, "skip": 1}
    text = report_text(res)
    assert "witness: w" in text
