"""Property suite machinery: registry, determinism, and report shape."""

import json
import random
import time
import types
from itertools import permutations

import pytest

from throttlekit import report as report_module
from throttlekit import suites
from throttlekit.families import Fixture, _apply_op, enumerate_graphs
from throttlekit.forcing import Rule
from throttlekit.graph import Graph, VertexMap
from throttlekit.graphio import parse_graph6
from throttlekit.report import Report, resolve_workers, run_claims, run_suite
from throttlekit.suites import SUITES, build_cases, run_case
from throttlekit.throttling import ThrottleKind

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
    # Each worker keeps its own value memo; only its hit rate differs.
    serial = run_suite("prop3.2", nmax=5, workers=1)
    parallel = run_suite("prop3.2", nmax=5, workers=2)
    assert serial.records == parallel.records


def _relabel(g: Graph, perm: list) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _direct(rule, kind, g):
    try:
        return suites.throttling_number(rule, kind, g).value
    except ValueError:
        return None


def test_relabeled_graphs_hit_the_value_memo(monkeypatch):
    monkeypatch.setattr(suites, "_memo", {})
    real, solved = suites.throttling_number, []
    real_key, keyed = suites.invariant_key, []

    def counted(rule, kind, g):
        solved.append(g)
        return real(rule, kind, g)

    def counted_key(n, adj):
        keyed.append(adj)
        return real_key(n, adj)

    monkeypatch.setattr(suites, "throttling_number", counted)
    monkeypatch.setattr(suites, "invariant_key", counted_key)
    g = Graph(6, [(0, 3), (0, 4), (0, 5), (1, 4), (2, 5), (3, 5)])
    # A trivial automorphism group: every relabeling is a new graph.
    assert len({_relabel(g, p) for p in permutations(range(6))}) == 720
    perm = list(range(6))
    random.Random(17).shuffle(perm)
    h = _relabel(g, perm)
    assert h != g
    pairs = [(rule, kind) for rule in Rule for kind in ThrottleKind]
    keys: dict = {}
    values = [suites._th(keys, g, rule, kind) for rule, kind in pairs]
    assert len(solved) == len(pairs) and len(keyed) == 1
    keys = {}
    assert [suites._th(keys, h, rule, kind) for rule, kind in pairs] == values
    assert len(solved) == len(pairs) and len(keyed) == 2
    assert values == [real(rule, kind, h).value for rule, kind in pairs]
    # Undefined values are memoized per class too.
    star = ThrottleKind.PRODUCT_NO_INITIAL_COST
    edgeless = Graph(4, [])
    for _ in range(2):
        assert suites._th({}, edgeless, Rule.STANDARD, star) is None
    assert solved.count(edgeless) == 1


@pytest.mark.parametrize("name", ["prop3.2", "prop3.12"])
def test_memo_state_does_not_change_records(monkeypatch, name):
    cases = build_cases(name, nmax=5)
    monkeypatch.setattr(suites, "_memo", {})
    cold = [run_case(case) for case in cases]
    # Warm, every answer is checked against a direct computation.
    real_th = suites._th

    def checked(keys, g, rule, kind):
        value = real_th(keys, g, rule, kind)
        assert value == _direct(rule, kind, g), (g, rule, kind)
        return value

    monkeypatch.setattr(suites, "_th", checked)
    warm = [run_case(case) for case in cases]
    monkeypatch.setattr(suites, "_th", real_th)
    monkeypatch.setattr(suites, "_memo", {})
    backward = [run_case(case) for case in reversed(cases)][::-1]
    assert cold == warm == backward


@pytest.mark.parametrize("n", range(1, 7))
def test_operations_match_the_expression_parser(n):
    # The surgery suites and the expression parser build through one
    # table, so each operation gives the same graph and the same images
    # either way, whichever way round the parser is given the edge.
    # Every vertex carries a name, so the parser's images show in its
    # remapped names; the names ce and se create land where the map
    # puts the merged or the new vertex.
    for g in enumerate_graphs(n):
        fx = Fixture(g, vertices={f"v{x}": x for x in range(n)})
        ops = suites._operations(g)
        assert len(ops) == 3 * g.edge_count + (n if n >= 2 else 0)
        for op, u, v, h, vmap in ops:
            if op == "de":
                assert vmap is None
                vmap = VertexMap(n, n, range(n))
            images = {f"v{x}": vmap.image(x) for x in range(n)
                      if vmap.image(x) is not None}
            refs = [str(u)] if op == "dv" else [f"{u}-{v}", f"{v}-{u}"]
            for ref in refs:
                out = _apply_op(fx, f"{op}:{ref}")
                assert out.graph.adjacency == h.adjacency, (g, op, ref)
                created = {"ce": {f"y_{ref}": vmap.image(u)},
                           "se": {f"z_{ref}": vmap.new_vertex}}
                assert out.vertices == {**images, **created.get(op, {})}


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


# Check text and computed value of each suite's record on the path P4
# (graph6 "Ch"), keyed by (suite, payload entries beyond the graph).
PINNED_CHECKS = {
    ("ore", ()): (
        "graphs without isolated vertices satisfy 2*gamma <= n", "gamma=2"),
    ("lemma2.2", ()): (
        "every edge-maximum minimum dominating set keeps an external "
        "private neighbor per member", "ok"),
    ("lemma2.3", ()): (
        "removing one external private neighbor per member of an optimal "
        "dominating set isolates nothing", "ok"),
    ("thm2.4", ()): (
        "power domination initial-cost product stays within 6n/7 and the "
        "two-step certificate covers the exact value",
        "certificate=3 (private-neighbor), exact=3"),
    ("thm2.7", ()): (
        "power domination sum throttling stays within floor(n/3)+2 and the "
        "certificate covers the exact value",
        "certificate=3 (private-neighbor), exact=3"),
    ("lemma3.1", (("item", 1), ("rule", "zf"))): (
        "propagation-time transfer, operation item 1, rule zf", "ok"),
    ("lemma3.1", (("item", 5), ("rule", "pd"))): (
        "propagation-time transfer, operation item 5, rule pd", "ok"),
    ("prop3.2", ()): (
        "product throttling moves by bounded factors under edge deletion, "
        "vertex deletion, contraction, and subdivision", "ok"),
    ("prop3.12", ()): (
        "standard-rule no-cost product throttling moves by at most one "
        "under local operations", "value=2"),
    ("thm3.10", ()): (
        "standard-rule no-cost product throttling equals the least one-step "
        "completing size and is at least n/2", "value=2, one-step=2"),
    ("thm3.11", ()): (
        "half-order no-cost product throttling happens exactly on "
        "matched-sum graphs", "value=2, matched=True"),
    ("thzx", ()): (
        "standard-rule initial-cost product throttling equals the order",
        "value=4"),
    ("remark1.1", (("rule", "zf"),)): (
        "order bounds on all throttling kinds, rule zf",
        "number=1, sum=3, x=4, star=2"),
    ("remark1.1", (("rule", "psd"),)): (
        "order bounds on all throttling kinds, rule psd",
        "number=1, sum=3, x=3, star=2"),
    ("universal-vertex", ()): (
        "unit no-cost product, a universal vertex, and initial-cost product "
        "two coincide under power domination", "ok"),
    ("pt-monotone", (("rule", "pd"),)): (
        "enlarging the initial set never slows propagation, rule pd", "ok"),
    ("pt-monotone", (("rule", "zf"),)): (
        "enlarging the initial set never slows propagation, rule zf", "ok"),
    ("psd-step", ()): (
        "the PSD step matches the standard step run inside each unfilled "
        "component", "ok"),
}


def test_check_text_is_pinned():
    assert {name for name, _ in PINNED_CHECKS} == set(SUITES)
    for (name, extra), expected in PINNED_CHECKS.items():
        record = run_case(("pinned", name, {"graph6": "Ch", **dict(extra)}))
        assert record["passed"] is True, record
        assert (record["check"], record["computed"]) == expected, name


def test_run_case_survives_runner_crashes():
    # A malformed payload under a real suite, an unknown suite name and
    # an unknown transfer item must each surface as a failing record,
    # not a crash, whose check is the suite name.
    crashes = [
        (("boom", "ore", {"graph6": "@@@"}),
         "FormatError('graph6 record for order 1 needs 0 adjacency bytes, "
         "found 2 (byte offset 3)')"),
        (("bang", "no-such-suite", {"graph6": "A_"}),
         "KeyError('no-such-suite')"),
        (("item9", "lemma3.1", {"graph6": "Bg", "item": 9, "rule": "zf"}),
         "ValueError('unknown transfer item 9')"),
    ]
    for (case_id, name, payload), error in crashes:
        record = run_case((case_id, name, payload))
        assert list(record.items()) == [
            ("id", case_id), ("graph6", payload["graph6"]), ("check", name),
            ("expected", "no violation"), ("computed", f"error: {error}"),
            ("passed", False), ("witness", error)]


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
    ("pt-monotone", None): ("7 violation(s)",
                            "B={} + vertex 0: 2 > 1; B={} + vertex 1: 3 > 1; "
                            "B={} + vertex 2: 5 > 1; B={0} + vertex 1: 4 > 2"),
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

    monkeypatch.setattr(suites, "pt_table", lambda rule, adj, n: tuple(
        m % 5 + n % 2 for m in range(1 << n)))
    monkeypatch.setattr(suites, "throttling_number", bumped)
    # A fresh value memo: values memoized by earlier tests would skip the
    # bumped throttling, and the bumped ones must not outlive this test.
    monkeypatch.setattr(suites, "_memo", {})
    for (name, item), expected in PINNED_WITNESSES.items():
        payload = {"graph6": "Bg", "rule": "pd" if item == 5 else "zf"}
        if item is not None:
            payload["item"] = item
        record = run_case(("pinned", name, payload))
        assert (record["computed"], record["witness"]) == expected, name


def test_isolation_witness_is_pinned(monkeypatch):
    # On the path P4 (graph6 "Ch") the one optimal dominating set is
    # {1,2}.  With every other vertex offered as a private neighbor of
    # each member, three of the nine removals isolate a pair.
    monkeypatch.setattr(suites, "external_private_neighbors",
                        lambda g, d, v: g.vertex_set(
                            w for w in range(g.n) if w != v))
    record = run_case(("pinned", "lemma2.3", {"graph6": "Ch"}))
    assert (record["computed"], record["witness"]) == (
        "3 violation(s)",
        "D={1,2}, removing (2, 0) isolates {1,3}; "
        "D={1,2}, removing (2, 1) isolates {0,3}; "
        "D={1,2}, removing (3, 1) isolates {0,2}")


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
