"""Property suite machinery: registry, determinism, and report shape."""

import json
import time

import pytest

from throttlekit import report as report_module
from throttlekit.report import Report, resolve_workers, run_claims, run_suite
from throttlekit.suites import SUITES, build_cases, run_case

# Scopes kept small here; the acceptance tests run the advertised ones.
QUICK_NMAX = {
    "ore": 5, "lemma2.2": 5, "lemma2.3": 5, "thm2.4": 5, "thm2.7": 5,
    "lemma3.1": 4, "prop3.2": 5, "prop3.12": 5, "thm3.10": 5,
    "thm3.11": 6, "thzx": 5, "remark1.1": 5, "universal-vertex": 5,
    "pt-monotone": 5, "psd-step": 4,
}


def test_registry_and_quick_scopes_agree():
    assert set(QUICK_NMAX) == set(SUITES)
    for spec in SUITES.values():
        assert spec.description
        assert spec.default_nmax >= QUICK_NMAX[spec.name]


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


def test_run_case_survives_runner_crashes():
    # A malformed payload must surface as a failing record, not a crash.
    record = run_case(("boom", "ore", {"graph6": "@@@not graph6@@@"}))
    assert record["passed"] is False
    assert "boom" == record["id"]
    assert record["witness"]


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
    monkeypatch.delenv("THROTTLE_WORKERS")
    assert resolve_workers() >= 1
