"""Property suite machinery: registry, determinism, and report shape."""

import functools
import hashlib
import json
import os
import random
import time
import types
from itertools import permutations

import pytest

from throttlekit import report as report_module
from throttlekit import suites
from throttlekit.claims import evaluate_claim
from throttlekit.families import (Fixture, _apply_op, cycle, enumerate_graphs,
                                  path, star)
from throttlekit.forcing import INFINITY, Rule
from throttlekit.graph import Graph, VertexMap
from throttlekit.graphio import format_graph6, parse_graph6
from throttlekit.iso import invariant_key
from throttlekit.report import Report, resolve_workers, run_claims, run_suite
from throttlekit.suites import SUITES, build_cases, run_case
from throttlekit.throttling import ThrottleKind

from .oracles import TRANSFER_LIFTS
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
    # Each worker keeps its own value cache; only its hit rate differs.
    serial = run_suite("prop3.2", nmax=5, workers=1)
    parallel = run_suite("prop3.2", nmax=5, workers=2)
    assert serial.records == parallel.records


_DOOMED = "psd-step-n3-g1"


def _dies_on_one_case(case):
    """A run_case stand-in whose worker process dies on one case."""
    if case[0] == _DOOMED:
        os._exit(1)
    return run_case(case)


def _dies_on_one_claim(claim):
    if claim.id == "fig2-thx-pd":
        os._exit(1)
    return evaluate_claim(claim)


def test_a_dying_worker_fails_its_items_instead_of_hanging(monkeypatch):
    # The pool sends its function by name, so spawned workers run the
    # stand-in too.
    monkeypatch.setattr(report_module, "run_case", _dies_on_one_case)
    start = time.perf_counter()
    report = run_suite("psd-step", nmax=3, workers=2)
    assert time.perf_counter() - start < 20
    assert [r["id"] for r in report.records] == [
        case[0] for case in sorted(build_cases("psd-step", nmax=3))]
    doomed = next(r for r in report.records if r["id"] == _DOOMED)
    assert doomed["passed"] is False and doomed["check"] == "psd-step"
    assert doomed["computed"].startswith("error: BrokenProcessPool(")
    for r in report.records:
        assert r["passed"] or r["witness"] == doomed["witness"]
    monkeypatch.setattr(report_module, "evaluate_claim", _dies_on_one_claim)
    report = run_claims({"figure": "2"}, workers=2)
    lost = next(r for r in report.records if r["id"] == "fig2-thx-pd")
    assert lost["passed"] is False and lost["expected"] == 8
    assert lost["computed"].startswith("error: BrokenProcessPool(")


def _relabel(g: Graph, perm: list) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _direct(rule, kind, g):
    try:
        return suites.throttling_number(rule, kind, g).value
    except ValueError:
        return None


def _key(g: Graph) -> tuple:
    return invariant_key(g.n, g.adjacency)


_CLASS_VALUE = suites._class_value.__wrapped__


def _fresh_values(monkeypatch, maxsize: int = 1 << 16) -> None:
    """An empty value cache for this test alone: values cached by earlier
    tests are not read, and values faked here do not outlive it."""
    monkeypatch.setattr(suites, "_class_value",
                        functools.lru_cache(maxsize)(_CLASS_VALUE))


def test_relabeled_graphs_hit_the_value_memo(monkeypatch):
    _fresh_values(monkeypatch)
    real, solved = suites.throttling_number, []

    def counted(rule, kind, g):
        solved.append(g)
        return real(rule, kind, g)

    monkeypatch.setattr(suites, "throttling_number", counted)
    g = Graph(6, [(0, 3), (0, 4), (0, 5), (1, 4), (2, 5), (3, 5)])
    # A trivial automorphism group: every relabeling is a new graph.
    assert len({_relabel(g, p) for p in permutations(range(6))}) == 720
    perm = list(range(6))
    random.Random(17).shuffle(perm)
    h = _relabel(g, perm)
    assert h != g and _key(h) == _key(g)
    pairs = [(rule, kind) for rule in Rule for kind in ThrottleKind]
    values = [suites._class_value(_key(g), rule, kind) for rule, kind in pairs]
    assert len(solved) == len(pairs)
    # The class is solved on its key's graph relabeled v -> 5-v.
    assert set(solved) == {Graph.from_adjacency(tuple(
        sum(1 << 5 - w for w in range(6) if row >> w & 1)
        for row in reversed(_key(g))))}
    assert [suites._class_value(_key(h), rule, kind)
            for rule, kind in pairs] == values
    assert len(solved) == len(pairs)
    assert values == [real(rule, kind, h).value for rule, kind in pairs]
    # Undefined values are cached per class too.
    star = ThrottleKind.PRODUCT_NO_INITIAL_COST
    edgeless = Graph(4, [])
    for _ in range(2):
        assert suites._class_value(_key(edgeless), Rule.STANDARD, star) is None
    assert solved.count(edgeless) == 1


def test_class_values_match_direct_computation(monkeypatch):
    # The value of a class, read from its key, is the value on any member
    # of it, or None on both where it is undefined.
    _fresh_values(monkeypatch)
    rnd = random.Random(25)
    pairs = [(rule, kind) for rule in Rule for kind in ThrottleKind]
    assert len(pairs) == 9
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rnd.shuffle(perm)
            h = _relabel(g, perm)
            for rule, kind in pairs:
                value = suites._class_value(_key(g), rule, kind)
                assert value == _direct(rule, kind, g) == _direct(
                    rule, kind, h), (g, rule, kind)


def test_equal_operated_graphs_are_keyed_once(monkeypatch):
    # Distinct sites can build one labeled graph: contracting a pendant
    # edge deletes its leaf when the leaf has the larger label.  Each
    # distinct operated graph of a case is keyed once.
    real_key, keyed = suites.invariant_key, []
    monkeypatch.setattr(suites, "invariant_key",
                        lambda n, adj: keyed.append(adj) or real_key(n, adj))
    repeats = 0
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            keyed.clear()
            key, ops = suites._orbit_operations(g)
            built = [h for *_, h, _ in suites._operations(
                g, gens=suites.automorphisms(g.n, g.adjacency)[1])]
            assert key == _key(g)
            assert sorted(keyed) == sorted({h.adjacency for h in built})
            assert [hkey for *_, hkey in ops] == [_key(h) for h in built]
            repeats += len(built) - len(keyed)
    assert repeats > 0


@pytest.mark.parametrize("name", ["prop3.2", "prop3.12"])
def test_memo_state_does_not_change_records(monkeypatch, name):
    cases = build_cases(name, nmax=5)
    _fresh_values(monkeypatch)
    cold = [run_case(case) for case in cases]
    # Warm, every answer is checked against a direct computation on the
    # key's own labeling, a member of the class other than the solved one.
    cached = suites._class_value

    def checked(key, rule, kind):
        value = cached(key, rule, kind)
        assert value == _direct(rule, kind, Graph.from_adjacency(key)), (
            key, rule, kind)
        return value

    monkeypatch.setattr(suites, "_class_value", checked)
    warm = [run_case(case) for case in cases]
    _fresh_values(monkeypatch)
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


def _fake_pt_table(rule, adj, n):
    # Every start set completes, at a time that ignores the graph, so
    # the lifted times exceed it at many sets.
    return tuple(m % 5 + n % 2 for m in range(1 << n))


@pytest.mark.parametrize("table", [suites.pt_table, _fake_pt_table],
                         ids=["pt_table", "fake"])
def test_transfer_tables_match_per_mask_lifts(table):
    # Each Lemma 3.1 item's table gives, at every start set B that
    # completes, the least destination time over B's lifts, taken one
    # set at a time by the reference in tests/oracles.py.
    rules = list(Rule) if table is suites.pt_table else [Rule.STANDARD]
    for n in range(2, 7):
        for g in enumerate_graphs(n, connected_only=True):
            for item, (kind, on_h, _, lift) in suites._TRANSFER.items():
                ops = suites._operations(g, (kind,))
                for rule in rules:
                    gtab = table(rule, g.adjacency, n)
                    for _, u, v, h, m in ops:
                        htab = table(rule, h.adjacency, h.n)
                        stab, dtab = (htab, gtab) if on_h else (gtab, htab)
                        best = lift(dtab, u, v, m)
                        assert len(best) == len(stab)
                        for b, pt in enumerate(stab):
                            if pt != INFINITY:
                                assert best[b] == min(
                                    dtab[x] for x in
                                    TRANSFER_LIFTS[item](b, u, v, m)), (
                                    g, item, rule, u, v, b)


def _unpruned(monkeypatch):
    # No generators: every operation is its own orbit and is built.
    real = suites.automorphisms
    monkeypatch.setattr(suites, "automorphisms",
                        lambda n, adj: (real(n, adj)[0], []))


@pytest.mark.parametrize("name", ["prop3.2", "prop3.12"])
def test_orbit_pruning_does_not_change_records(monkeypatch, name):
    cases = build_cases(name, nmax=6)
    pruned = [run_case(case) for case in cases]
    _unpruned(monkeypatch)
    assert [run_case(case) for case in cases] == pruned


def test_orbit_mates_name_their_own_edges(monkeypatch):
    # With G's throttling two too high, most operations break their
    # bound, so each orbit-mate's violation must name its own edge or
    # vertex, pruned or not.
    runners = (suites._run_product_stability, suites._run_one_step_stability)
    graphs = (cycle(4), star(4), path(3))
    real = suites.throttling_number

    def outcomes():
        out = []
        for g in graphs:
            # A class value is solved on a member of the class, not on g.
            _fresh_values(monkeypatch)
            monkeypatch.setattr(
                suites, "throttling_number", lambda rule, kind, h, g=g: (
                    types.SimpleNamespace(value=real(rule, kind, h).value
                                          + 2 * (_key(h) == _key(g)))))
            out += [runner(g, {}) for runner in runners]
        return out

    pruned = outcomes()
    _unpruned(monkeypatch)
    assert outcomes() == pruned
    c4_one_step = pruned[1][0]
    for u, v in cycle(4).edges():
        assert f"(2) deleting ({u},{v}) gives" in " ".join(c4_one_step)
    for x in range(4):
        assert f"(1) deleting vertex {x} gives" in " ".join(c4_one_step)


def test_orbit_pruning_builds_one_surgery_per_orbit(monkeypatch):
    # C6 has one edge orbit and one vertex orbit: one deletion,
    # contraction and subdivision of an edge and one vertex deletion
    # are built and keyed, against 6 * 3 + 6 builds without generators.
    # G's own key comes from the search that gives the generators.
    calls, keyed = [], []
    for name in ("delete_vertex", "delete_edge", "contract_edge",
                 "subdivide_edge"):
        def counted(*args, _orig=getattr(Graph, name), _name=name):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(Graph, name, counted)
    real_key = suites.invariant_key
    monkeypatch.setattr(suites, "invariant_key",
                        lambda n, adj: keyed.append(adj) or real_key(n, adj))
    case = ("c6", "prop3.12", {"graph6": format_graph6(cycle(6))})
    assert run_case(case)["passed"]
    assert sorted(calls) == ["contract_edge", "delete_edge", "delete_vertex",
                             "subdivide_edge"]
    assert len(keyed) == 4
    calls.clear()
    _unpruned(monkeypatch)
    assert run_case(case)["passed"]
    assert len(calls) == 24


# sha256 of each suite's records, as JSON with sorted keys, at the given
# nmax.  The surgery suites' digests come from the code that built and
# keyed every surgery and lifted every start set one at a time, the
# domination suites' from the code that tested every mask of each size.
RECORD_DIGESTS = {
    ("prop3.2", 6):
        "84a1b337e400beb1cdb67b82b25c7c1611256484e3c20f50e8796b5234c44518",
    ("prop3.12", 6):
        "9a71d0b0a59eb7748a3cbb785d6341acfdb00375b67b0bca3faea377b8f5b663",
    ("lemma3.1", 5):
        "27a96743d68f1708f2f7bf755374cb4c24b6f2e240eec8dd9fc06a72d5a5b3c7",
    ("ore", 7):
        "f79986319482722d1760f2e81b2c54c550c681f9112ac569ff60926a40e00974",
    ("lemma2.2", 7):
        "5ceb8cc54a4f2c7dd63f49b9cc0e7aa7fec58f7da2a6f53872f66ce833b99421",
    ("lemma2.3", 7):
        "994b04f2e48b286105819261e3af1097d808dbbc616b7635634e7169e37360d2",
    ("thm2.4", 7):
        "ce3618d7a0a5e2a65e6b5a8d503bc2532771400cc85cae6b1ce91ed3d6bcd442",
    ("thm2.7", 7):
        "3a2c7f2c2d567cd664e3a3dade5ed8e06b95686079fcfba7f239d674edf8d202",
}


@pytest.mark.parametrize("name, nmax", sorted(RECORD_DIGESTS))
def test_records_match_pinned_digests(name, nmax):
    records = run_suite(name, nmax=nmax, workers=1).records
    text = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == RECORD_DIGESTS[name, nmax]


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
        # The surgery suites solve a member of P3's class, not P3 itself.
        value = real(rule, kind, g).value + (2 if _key(g) == _key(p3) else 0)
        return types.SimpleNamespace(value=value)

    monkeypatch.setattr(suites, "pt_table", lambda rule, adj, n: tuple(
        m % 5 + n % 2 for m in range(1 << n)))
    monkeypatch.setattr(suites, "throttling_number", bumped)
    # Values cached by earlier tests would skip the bumped throttling.
    _fresh_values(monkeypatch)
    for (name, item), expected in PINNED_WITNESSES.items():
        payload = {"graph6": "Bg", "rule": "pd" if item == 5 else "zf"}
        if item is not None:
            payload["item"] = item
        record = run_case(("pinned", name, payload))
        assert (record["computed"], record["witness"]) == expected, name


def _valued(value):
    """A throttling_number stand-in: ``value(g)`` (or the constant) with
    the whole vertex set as witness."""
    return lambda rule, kind, g: types.SimpleNamespace(
        value=value(g) if callable(value) else value,
        witness=g.vertex_set(range(g.n)))


def _certified(value, pt):
    """A power_domination_certificate stand-in."""
    return lambda g, kind: types.SimpleNamespace(
        value=value, propagation_time=pt, branch="fake",
        power_set=g.vertex_set([0]))


# Failing records of the runners whose violation branches no real graph
# reaches, each forced by stand-ins for the names the runner reads, on
# P4 ("Ch"), P3 ("Bg") or P7 ("FhCGG").  Entries are (suite, graph6,
# stand-ins, (computed, witness)).
FORCED_FAILURES = [
    ("ore", "Ch",
     {"domination_number": lambda g: (3, g.vertex_set([0, 1, 2]))},
     ("gamma=3", "gamma=3 > n/2 with n=4, minimum set {0,1,2}")),
    ("lemma2.2", "Ch",
     {"external_private_neighbors": lambda g, d, v: g.vertex_set(())},
     ("2 violation(s)",
      "D={1,2}: member 1 has no external private neighbor; "
      "D={1,2}: member 2 has no external private neighbor")),
    ("lemma2.3", "Ch",
     {"external_private_neighbors": lambda g, d, v: g.vertex_set(())},
     ("1 violation(s)",
      "optimal D={1,2}: member 1 has no external private neighbor")),
    ("thm2.4", "Ch",
     {"power_domination_certificate": _certified(4, 3),
      "throttling_number": _valued(5)},
     ("certificate=4 (fake), exact=5",
      "certificate propagation time 3 > 2 (branch fake); "
      "certificate value 4 > 6n/7, n=4, set {0}; "
      "exhaustive value 5 exceeds certificate value 4; "
      "exhaustive value 5 > 6n/7, n=4, witness {0,1,2,3}")),
    ("thm2.4", "FhCGG",
     {"throttling_number": _valued(6),
      "domination_number": lambda g: (2, g.vertex_set([0, 1]))},
     ("certificate=6 (small-dominating-set), exact=6",
      "value 6n/7 attained but gamma=2 != 3n/7, n=7")),
    ("thm2.7", "Ch",
     {"power_domination_certificate": _certified(4, 1),
      "throttling_number": _valued(5)},
     ("certificate=4 (fake), exact=5",
      "certificate value 4 > floor(n/3)+2=3, set {0}; "
      "exhaustive value 5 exceeds certificate value 4; "
      "exhaustive value 5 > 3, witness {0,1,2,3}")),
    ("thm3.10", "Ch", {"throttling_number": _valued(1)},
     ("value=1, one-step=2",
      "no-cost product value 1 differs from least one-step size 2 ({1,2}); "
      "value 1 below half the order 4")),
    ("thm3.11", "Ch", {"is_matched_sum": lambda g: (False, None)},
     ("value=2, matched=False",
      "value 2 on order 4 but matched-sum test says False (no half)")),
    ("thm3.11", "Ch",
     {"is_matched_sum": lambda g: (True, g.vertex_set([0, 1])),
      "throttling_number": _valued(3)},
     ("value=3, matched=True",
      "value 3 on order 4 but matched-sum test says True (half {0,1})")),
    ("thzx", "Ch", {"throttling_number": _valued(lambda g: g.n + 1)},
     ("value=5", "initial-cost product 5 != order 4")),
    ("remark1.1", "Ch",
     {"forcing_number": lambda rule, g: (g.n, None),
      "throttling_number": _valued(lambda g: g.n)},
     ("number=4, sum=4, x=4, star=4",
      "completing number 4 outside [1,3]; "
      "initial-cost product 4 outside [5,4]; sum value 4 outside [5,4]; "
      "no-cost product 4 outside [1,3]")),
    ("universal-vertex", "Ch", {"throttling_number": _valued(1)},
     ("1 violation(s)",
      "no-cost==1 is True, universal is False, initial-cost==2 is False")),
    ("psd-step", "Bg", {"_psd_step": lambda adj, b, full: 0},
     ("6 violation(s)",
      "B={0}: direct {}, per-component {1}; "
      "B={1}: direct {}, per-component {0,2}; "
      "B={0,1}: direct {}, per-component {2}; "
      "B={2}: direct {}, per-component {1}")),
]


@pytest.mark.parametrize("name,g6,stand_ins,expected", FORCED_FAILURES)
def test_forced_failure_records_are_pinned(monkeypatch, name, g6, stand_ins,
                                           expected):
    for attr, stand_in in stand_ins.items():
        monkeypatch.setattr(suites, attr, stand_in)
    payload = {"graph6": g6, **({"rule": "zf"} if name == "remark1.1" else {})}
    record = run_case(("forced", name, payload))
    assert record["passed"] is False
    assert (record["computed"], record["witness"]) == expected


def test_value_memo_is_cleared_at_its_limit(monkeypatch):
    # With room for 4 values, prop3.2 evicts values over and over and
    # must still write the records of a roomy cache.
    _fresh_values(monkeypatch)
    reference = run_suite("prop3.2", nmax=5, workers=1).records
    _fresh_values(monkeypatch, maxsize=4)
    assert run_suite("prop3.2", nmax=5, workers=1).records == reference
    info = suites._class_value.cache_info()
    assert info.currsize == 4 and info.misses > 4 * info.maxsize


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
