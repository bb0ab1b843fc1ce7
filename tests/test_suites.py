"""Property suite machinery: registry, determinism, and report shape."""

import json
import time
import types

import pytest

from throttlekit import report as report_module
from throttlekit import suites
from throttlekit.graphio import parse_graph6
from throttlekit.report import Report, resolve_workers, run_claims, run_suite
from throttlekit.suites import SUITES, build_cases, run_case

from .test_families import CONNECTED_ISO_COUNTS, ISO_COUNTS

# Scopes kept small here; the acceptance tests run the advertised ones.
QUICK_NMAX = {
    "ore": 5, "lemma2.2": 5, "lemma2.3": 5, "thm2.4": 5, "thm2.7": 5,
    "lemma3.1": 4, "prop3.2": 5, "prop3.12": 5, "thm3.10": 5,
    "thm3.11": 6, "thzx": 5, "remark1.1": 5, "universal-vertex": 5,
    "pt-monotone": 5, "psd-step": 4,
}


# Graphs of order n with each suite's property, from the published
# counts of all graphs (A000088, G) and connected graphs (A001349, C):
# G(n)-G(n-1) have no isolated vertex and G(n)-1 have an edge.
# Entries are (least order, graphs of order n, cases per graph); a
# lemma3.1 graph gives items 1-4 and 6-7 under three rules and item 5
# under pd alone.
_G = {0: 1, **ISO_COUNTS}
_C = CONNECTED_ISO_COUNTS
PUBLISHED = {
    "ore": (1, lambda n: _G[n] - _G[n - 1], 1),
    "lemma2.2": (2, _C.get, 1),
    "lemma2.3": (3, _C.get, 1),
    "thm2.4": (3, _C.get, 1),
    "thm2.7": (1, _C.get, 1),
    "lemma3.1": (2, _C.get, 19),
    "prop3.2": (2, _C.get, 1),
    "prop3.12": (2, lambda n: _G[n] - 1, 1),
    "thm3.10": (2, _C.get, 1),
    "thm3.11": (2, lambda n: 0 if n % 2 else _C[n], 1),
    "thzx": (1, _G.get, 1),
    "remark1.1": (2, lambda n: _G[n] - 1, 3),
    "universal-vertex": (2, lambda n: _G[n] - 1, 1),
    "pt-monotone": (1, _G.get, 3),
    "psd-step": (1, _G.get, 1),
}


def test_registry_and_quick_scopes_agree():
    assert set(QUICK_NMAX) == set(SUITES)
    for spec in SUITES.values():
        assert spec.description
        assert spec.default_nmax >= QUICK_NMAX[spec.name]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_case_count_matches_published_counts(name):
    nmin, count, per_graph = PUBLISHED[name]
    nmax = QUICK_NMAX[name]
    expected = per_graph * sum(count(n) for n in range(nmin, nmax + 1))
    assert len(build_cases(name, nmax=nmax)) == expected


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_at_quick_scope(name):
    report = run_suite(name, nmax=QUICK_NMAX[name], workers=1)
    assert report.failed == 0, [
        r for r in report.records if not r["passed"]
    ][:3]
    assert report.total > 0


def test_records_are_sorted_and_shaped():
    report = run_suite("ore", nmax=4, workers=1)
    ids = [r["id"] for r in report.records]
    assert ids == sorted(ids)
    for r in report.records:
        assert set(r) >= {"id", "graph6", "check", "expected", "computed",
                          "passed", "witness"}
        assert r["expected"] == "no violation"


def test_worker_count_does_not_change_results():
    serial = run_suite("pt-monotone", nmax=4, workers=1)
    parallel = run_suite("pt-monotone", nmax=4, workers=4)
    assert serial.records == parallel.records


def test_budget_sampling_is_deterministic():
    full_ids = [case[0] for case in build_cases("remark1.1", nmax=5)]
    a = [case[0] for case in build_cases("remark1.1", nmax=5, budget=10, seed=3)]
    b = [case[0] for case in build_cases("remark1.1", nmax=5, budget=10, seed=3)]
    c = [case[0] for case in build_cases("remark1.1", nmax=5, budget=10, seed=4)]
    assert a == b
    assert len(a) == 10
    assert a != c
    assert set(a) <= set(full_ids)
    # Sampling preserves the original ordering.
    index = {case_id: i for i, case_id in enumerate(full_ids)}
    assert [index[x] for x in a] == sorted(index[x] for x in a)


def test_budget_larger_than_suite_keeps_everything():
    full = build_cases("psd-step", nmax=4)
    assert build_cases("psd-step", nmax=4, budget=10 ** 9) == full


def test_unknown_suite_and_bad_scope():
    with pytest.raises(KeyError):
        build_cases("mystery-suite")
    with pytest.raises(ValueError):
        build_cases("ore", nmax=0)
    with pytest.raises(ValueError):
        build_cases("ore", nmax=100)
    with pytest.raises(ValueError):
        build_cases("ore", nmax=3, budget=-1)
    with pytest.raises(ValueError, match="budget"):
        build_cases("psd-step", nmax=3, budget=0)
    with pytest.raises(ValueError, match="lemma2.3 .* least order is 3"):
        build_cases("lemma2.3", nmax=2)
    with pytest.raises(ValueError, match="ore .* least order is 2"):
        build_cases("ore", nmax=1)


def test_run_case_survives_runner_crashes():
    # A malformed payload under a real suite and an unknown suite name
    # must each surface as a failing record, not a crash.
    record = run_case(("boom", "ore", {"graph6": "@@@not graph6@@@"}))
    assert record["passed"] is False
    assert record["id"] == "boom"
    assert record["witness"] and "KeyError" not in record["witness"]
    record = run_case(("bang", "no-such-suite", {"graph6": "A_"}))
    assert record["passed"] is False
    assert record["id"] == "bang"
    assert record["witness"].startswith("KeyError")


# Witnesses of failing records on the path P3 (graph6 "Bg") when the
# propagation time is the wrong value mask % 5 + n % 2 and throttling
# on P3 itself is two too high.  Each entry is (computed, witness).
PINNED_WITNESSES = {
    ("lemma3.1", 1): ("2 violation(s)",
                      "e=(0,1), B'={}: best on G 2 > 1 on G-e; "
                      "e=(1,2), B'={}: best on G 3 > 1 on G-e"),
    ("lemma3.1", 2): ("2 violation(s)",
                      "e=(0,1), B={}: best on G-e 2 > 1 on G; "
                      "e=(1,2), B={}: best on G-e 3 > 1 on G"),
    ("lemma3.1", 3): ("5 violation(s)",
                      "x=0, B'={}: 2 on G > 0 on G-x; "
                      "x=0, B'={0}: 4 on G > 1 on G-x; "
                      "x=1, B'={}: 3 on G > 0 on G-x; "
                      "x=1, B'={0}: 4 on G > 1 on G-x"),
    ("lemma3.1", 4): ("3 violation(s)",
                      "e=(0,1), B'={}: 2 on G > 0 on G/e; "
                      "e=(0,1), B'={0}: 4 on G > 1 on G/e; "
                      "e=(1,2), B'={}: 3 on G > 0 on G/e"),
    ("lemma3.1", 5): ("5 violation(s)",
                      "e=(0,1), B={0,2}: 3 on G/e > 1 on G; "
                      "e=(0,1), B={1,2}: 3 on G/e > 2 on G; "
                      "e=(1,2), B={}: 2 on G/e > 1 on G; "
                      "e=(1,2), B={0}: 3 on G/e > 2 on G"),
    ("lemma3.1", 6): ("22 violation(s)",
                      "e=(0,1), B'={}: 1 on G > 0 on subdivision; "
                      "e=(0,1), B'={0}: 2 on G > 1 on subdivision; "
                      "e=(0,1), B'={1}: 3 on G > 2 on subdivision; "
                      "e=(0,1), B'={0,1}: 4 on G > 3 on subdivision"),
    ("lemma3.1", 7): ("8 violation(s)",
                      "e=(0,1), B={}: 3 on subdivision > 1 on G; "
                      "e=(0,1), B={0}: 4 on subdivision > 2 on G; "
                      "e=(0,1), B={0,2}: 3 on subdivision > 1 on G; "
                      "e=(0,1), B={1,2}: 4 on subdivision > 2 on G"),
    ("prop3.2", None): ("16 violation(s)",
                        "(3) pd no-cost: contracting (0,1) gives 1, "
                        "original 3; (5) pd no-cost: subdividing (0,1) "
                        "gives 2, original 3; (3) pd no-cost: contracting "
                        "(1,2) gives 1, original 3; (5) pd no-cost: "
                        "subdividing (1,2) gives 2, original 3"),
    ("prop3.12", None): ("value=4",
                         "(1) deleting vertex 0 gives 1, allowed [3,4]; "
                         "(1) deleting vertex 2 gives 1, allowed [3,4]; "
                         "(2) deleting (0,1) gives 2, allowed [3,5]; "
                         "(3) contracting (0,1) gives 1, allowed [3,4]"),
}


def test_failure_witnesses_are_pinned(monkeypatch):
    p3 = parse_graph6("Bg")
    real = suites.throttling_number

    def bumped(rule, kind, g):
        value = real(rule, kind, g).value + (2 if g == p3 else 0)
        return types.SimpleNamespace(value=value)

    monkeypatch.setattr(suites, "_pt",
                        lambda rule, adj, n, mask: mask % 5 + n % 2)
    monkeypatch.setattr(suites, "throttling_number", bumped)
    for (name, item), expected in PINNED_WITNESSES.items():
        payload = {"graph6": "Bg"}
        if item is not None:
            payload.update(item=item, rule="pd" if item == 5 else "zf")
        record = run_case(("pinned", name, payload))
        assert (record["computed"], record["witness"]) == expected, name


def test_report_dict_shape():
    report = run_suite("universal-vertex", nmax=4, workers=1)
    d = report.to_dict()
    assert d["schema_version"] == 1
    assert d["suite"] == "universal-vertex"
    assert d["summary"]["total"] == report.total
    assert d["summary"]["failed"] == 0
    assert d["summary"]["passed"] == report.total
    assert isinstance(d["wall_time_seconds"], float)
    assert d["tool_version"]
    json.dumps(d)  # must be serializable as-is


def test_suite_wall_time_covers_building_cases(monkeypatch):
    def slow_build(*args, **kwargs):
        time.sleep(0.3)
        return build_cases(*args, **kwargs)

    monkeypatch.setattr(report_module, "build_cases", slow_build)
    report = run_suite("universal-vertex", nmax=3, workers=1)
    assert report.total > 0
    assert report.wall_time_seconds >= 0.3


def test_run_claims_filtered():
    report = run_claims({"family": "book"}, workers=1)
    assert report.suite == "paper-suite"
    assert report.total >= 10
    assert report.failed == 0
    assert all(r["tags"]["family"] == "book" for r in report.records)


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("THROTTLE_WORKERS", raising=False)
    assert resolve_workers(3) == 3
    monkeypatch.setenv("THROTTLE_WORKERS", "5")
    assert resolve_workers() == 5
    assert resolve_workers(2) == 2  # explicit beats the environment
    monkeypatch.setenv("THROTTLE_WORKERS", "zero")
    with pytest.raises(ValueError):
        resolve_workers()
    monkeypatch.setenv("THROTTLE_WORKERS", "0")
    with pytest.raises(ValueError, match="THROTTLE_WORKERS must be positive"):
        resolve_workers()
    with pytest.raises(ValueError, match="workers must be positive, got -4"):
        resolve_workers(-4)
    monkeypatch.delenv("THROTTLE_WORKERS")
    assert resolve_workers() >= 1
