"""Throttling optima against a plain-set oracle, plus witness contracts."""

import json
from itertools import combinations
from math import ceil, inf
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from throttlekit import forcing
from throttlekit.families import (
    complete,
    cycle,
    empty_graph,
    enumerate_graphs,
    matched_complete,
    path,
    star,
)
from throttlekit.forcing import (
    INFINITY,
    Rule,
    k_propagation_time,
    propagation_time,
)
from throttlekit.graph import Graph
from throttlekit.throttling import (
    ThrottleKind,
    is_matched_sum,
    least_size_with_propagation_time,
    one_step_forcing_number,
    throttling_at_size,
    throttling_number,
    throttling_of_set,
    throttling_value,
)

from . import oracles
from .strategies import graphs

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"


def all_graphs_up_to(nmax):
    return [g for n in range(1, nmax + 1) for g in enumerate_graphs(n)]


RULES = [Rule.STANDARD, Rule.PSD, Rule.POWER_DOMINATION]
KINDS = [ThrottleKind.SUM, ThrottleKind.PRODUCT_INITIAL_COST,
         ThrottleKind.PRODUCT_NO_INITIAL_COST]


def test_throttling_value_formulas():
    assert throttling_value(ThrottleKind.SUM, 3, 2) == 5
    assert throttling_value(ThrottleKind.PRODUCT_INITIAL_COST, 3, 2) == 9
    assert throttling_value(ThrottleKind.PRODUCT_NO_INITIAL_COST, 3, 2) == 6
    assert throttling_value(ThrottleKind.SUM, 3, INFINITY) == INFINITY


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("kind", KINDS)
def test_optimum_matches_oracle_exhaustively(rule, kind):
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            if kind is ThrottleKind.PRODUCT_NO_INITIAL_COST and g.edge_count == 0:
                with pytest.raises(ValueError):
                    throttling_number(rule, kind, g)
                continue
            value, size, pt = oracles.naive_throttling(
                rule.value, kind.value, g
            )
            res = throttling_number(rule, kind, g)
            assert res.value == value, f"{rule} {kind} on {g!r}"
            assert res.size == size
            assert res.propagation_time == pt
            # The witness must actually achieve the reported numbers.
            assert len(res.witness) == res.size
            assert propagation_time(rule, g, res.witness) == res.propagation_time
            assert throttling_of_set(rule, kind, g, res.witness) == res.value


def test_witness_tiebreak_least_size_then_colex():
    # Least value, then least size, then the colex-least (numerically
    # least) mask, on every graph up to order 5 and on both scan paths.
    for rule in RULES:
        for kind in KINDS:
            for g in all_graphs_up_to(5):
                if kind is ThrottleKind.PRODUCT_NO_INITIAL_COST and g.edge_count == 0:
                    continue
                seen = []
                top = g.n - 1 if kind is ThrottleKind.PRODUCT_NO_INITIAL_COST else g.n
                for k in range(1, top + 1):
                    for combo in combinations(range(g.n), k):
                        t = oracles.naive_pt(rule.value, g, combo)
                        if t is inf:
                            continue
                        cost = oracles.throttle_cost(kind.value, k, t)
                        seen.append((cost, k, sum(1 << v for v in combo), t))
                best = min(seen)
                for with_table in (False, True):
                    res = throttling_number(rule, kind, g, with_table=with_table)
                    assert (res.value, res.size, res.witness.mask,
                            res.propagation_time) == best, f"{rule} {kind} on {g!r}"


def test_witness_is_colex_least_among_minima():
    g = path(6)
    res = throttling_number(Rule.STANDARD, ThrottleKind.SUM, g)
    ties = []
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            t = oracles.naive_pt("zf", g, combo)
            if t is not inf and k + t == res.value and k == res.size:
                ties.append(sum(1 << v for v in combo))
    assert res.witness.mask == min(ties)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("kind", KINDS)
def test_per_size_table_matches_oracle(rule, kind):
    # Each entry holds the least cost at its size and the colex-least set
    # of that size reaching it.
    for g in enumerate_graphs(4):
        if kind is ThrottleKind.PRODUCT_NO_INITIAL_COST and g.edge_count == 0:
            continue
        res = throttling_number(rule, kind, g, with_table=True)
        top = g.n - 1 if kind is ThrottleKind.PRODUCT_NO_INITIAL_COST else g.n
        assert sorted(res.table) == list(range(1, top + 1))
        for k, (val, wit) in res.table.items():
            best = None
            for combo in combinations(range(g.n), k):
                t = oracles.naive_pt(rule.value, g, combo)
                if t is not inf:
                    cost = oracles.throttle_cost(kind.value, k, t)
                    key = (cost, oracles.colex_key(combo))
                    best = key if best is None else min(best, key)
            if best is None:
                assert (val, wit) == (INFINITY, None)
            else:
                assert (val, wit.mask) == best, f"{rule} {kind} k={k} on {g!r}"
        finite = [v for v, _ in res.table.values() if v != INFINITY]
        assert res.value == min(finite + ([g.n] if kind is not
                                ThrottleKind.PRODUCT_NO_INITIAL_COST else []))


def test_table_and_plain_paths_agree():
    # Includes graphs such as the disconnected graph6 CE, where the full
    # set beats every proper size.
    for rule in RULES:
        for kind in KINDS:
            for g in all_graphs_up_to(5):
                if kind is ThrottleKind.PRODUCT_NO_INITIAL_COST and g.edge_count == 0:
                    continue
                a = throttling_number(rule, kind, g)
                b = throttling_number(rule, kind, g, with_table=True)
                assert (a.value, a.size, a.propagation_time, a.witness.mask) == \
                       (b.value, b.size, b.propagation_time, b.witness.mask)


def test_throttling_at_size_bounds():
    g = path(4)
    assert throttling_at_size(Rule.STANDARD, ThrottleKind.SUM, g, 4)[0] == 4
    with pytest.raises(ValueError):
        throttling_at_size(Rule.STANDARD, ThrottleKind.SUM, g, 5)
    with pytest.raises(ValueError):
        throttling_at_size(Rule.STANDARD,
                           ThrottleKind.PRODUCT_NO_INITIAL_COST, g, 4)


def test_throttling_of_set_rejects_full_set_for_prodstar():
    g = path(3)
    with pytest.raises(ValueError):
        throttling_of_set(Rule.STANDARD, ThrottleKind.PRODUCT_NO_INITIAL_COST,
                          g, g.vertex_set())


def test_stalled_set_costs_infinity():
    g = path(5)
    assert throttling_of_set(Rule.STANDARD, ThrottleKind.SUM, g,
                             g.vertex_set([2])) == INFINITY


def test_full_set_candidate_for_product_with_initial_cost():
    # On a triangle the full set at cost 3 beats every proper set.
    res = throttling_number(Rule.STANDARD, ThrottleKind.PRODUCT_INITIAL_COST,
                            complete(3))
    assert res.value == 3
    assert res.size == 3
    assert res.witness.mask == 0b111


def test_empty_graph_edge_cases():
    g = Graph(0)
    res = throttling_number(Rule.STANDARD, ThrottleKind.SUM, g)
    assert (res.value, res.size, res.propagation_time) == (0, 0, 0)
    with pytest.raises(ValueError):
        throttling_number(Rule.STANDARD, ThrottleKind.PRODUCT_NO_INITIAL_COST, g)


def test_edgeless_graph_values():
    g = empty_graph(4)
    assert throttling_number(Rule.STANDARD, ThrottleKind.SUM, g).value == 4
    assert throttling_number(Rule.STANDARD,
                             ThrottleKind.PRODUCT_INITIAL_COST, g).value == 4


def test_path_closed_forms():
    for n in range(2, 11):
        g = path(n)
        for rule in (Rule.POWER_DOMINATION, Rule.PSD):
            assert throttling_number(
                rule, ThrottleKind.PRODUCT_NO_INITIAL_COST, g
            ).value == ceil(n / 3)
            assert throttling_number(
                rule, ThrottleKind.PRODUCT_INITIAL_COST, g
            ).value == 1 + ceil((n - 1) / 2)


def test_one_step_forcing_number_matches_oracle():
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            if g.edge_count == 0:
                with pytest.raises(ValueError):
                    one_step_forcing_number(g)
                continue
            naive = min(
                (k, sum(1 << v for v in combo)) for k in range(1, n + 1)
                for combo in combinations(range(n), k)
                if oracles.naive_pt("zf", g, combo) <= 1
            )
            k, wit = one_step_forcing_number(g)
            assert (k, wit.mask) == naive


def test_one_step_forcing_equals_no_cost_standard_throttling():
    for g in [path(6), cycle(6), star(5), complete(4),
              matched_complete(3).graph]:
        k, _ = one_step_forcing_number(g)
        res = throttling_number(Rule.STANDARD,
                                ThrottleKind.PRODUCT_NO_INITIAL_COST, g)
        assert res.value == k


def test_least_size_with_propagation_time():
    g = path(6)
    assert least_size_with_propagation_time(g, 0)[0] == 6
    k, wit = least_size_with_propagation_time(g, 1)
    assert k == 3
    assert propagation_time(Rule.STANDARD, g, wit) == 1
    with pytest.raises(ValueError):
        least_size_with_propagation_time(g, -1)


def test_is_matched_sum_matches_oracle():
    for n in (2, 4, 6):
        for g in enumerate_graphs(n):
            got, half = is_matched_sum(g)
            assert got == oracles.naive_matched_sum(g)
            if got:
                other = half.complement()
                assert len(half) == len(other) == n // 2
                for v in half:
                    assert len(g.neighborhood(v) & other) == 1


def test_is_matched_sum_requires_even_order():
    with pytest.raises(ValueError):
        is_matched_sum(path(3))
    assert is_matched_sum(matched_complete(4).graph)[0]
    assert not is_matched_sum(cycle(6))[0]
    assert is_matched_sum(cycle(4))[0]


@pytest.mark.parametrize("rule", RULES)
def test_optimum_is_at_most_the_seeded_incumbent(rule):
    # The full set costs n under sum and prodx; with an edge, V - {v} for
    # a non-isolated v costs n - 1 under prodstar.
    for g in all_graphs_up_to(6):
        n = g.n
        for kind in KINDS:
            if kind is ThrottleKind.PRODUCT_NO_INITIAL_COST:
                if g.edge_count == 0:
                    continue
                bound = n - 1
            else:
                bound = n
            value, _, _ = oracles.naive_throttling(rule.value, kind.value, g)
            assert value <= bound, f"{rule} {kind} on {g!r}"


def test_long_cycles_and_paths_finish_in_few_propagations(monkeypatch):
    # The standard scan runs blocks of start sets, not _pt, so both are
    # counted; the floor stops a scan at the block that reaches it.
    calls = blocks = 0
    pt = forcing._pt
    block_pt = forcing._block_pt

    def counted(*args):
        nonlocal calls
        calls += 1
        return pt(*args)

    def counted_block(*args):
        nonlocal blocks
        blocks += 1
        return block_pt(*args)

    monkeypatch.setattr(forcing, "_pt", counted)
    monkeypatch.setattr(forcing, "_block_pt", counted_block)
    res = throttling_number(Rule.STANDARD, ThrottleKind.PRODUCT_INITIAL_COST,
                            cycle(40))
    assert (res.value, res.size, res.witness.members) == (40, 2, (0, 1))
    assert calls <= 1000
    assert blocks <= 4
    calls = blocks = 0
    res = throttling_number(Rule.STANDARD, ThrottleKind.PRODUCT_INITIAL_COST,
                            path(60))
    assert (res.value, res.size) == (60, 1)
    assert calls <= 1000
    assert blocks <= 4
    # Size 4 on C40 spans 67 blocks; the floor, 9 steps, is first met by
    # two antipodal edges in the fourth.
    blocks = 0
    t, wit = k_propagation_time(Rule.STANDARD, cycle(40), 4)
    assert (t, wit.members) == (9, (0, 1, 20, 21))
    assert blocks == 4


def test_throttling_matches_pool_oracle_at_orders_15_to_18():
    # The benchmark's reference file holds an independent set-based
    # oracle's (value, size, pt, witness) for 12 base graphs of order
    # 15-18, each under 4 labelings.  One labeling of each base, under
    # every rule and kind, runs the block scans at those orders; PSD,
    # whose block step floods components, runs under all four.
    pool = json.loads(POOL.read_text())
    assert len(pool["graphs"]) == 48
    checked = 0
    for entry in pool["graphs"]:
        g = Graph(entry["n"], [tuple(e) for e in entry["edges"]])
        assert len(entry["results"]) == len(RULES) * len(KINDS)
        for key, expected in entry["results"].items():
            rule, kind = key.split("/")
            if rule != Rule.PSD.value and not entry["id"].endswith("@1"):
                continue
            checked += 1
            res = throttling_number(Rule(rule), ThrottleKind(kind), g)
            got = [res.value, res.size, res.propagation_time,
                   list(res.witness.members)]
            assert got == expected, f"{entry['id']} {key}"
    # Every rule and kind on the 12 @1 graphs, PSD on the 36 others.
    assert checked == 12 * len(RULES) * len(KINDS) + 36 * len(KINDS)


@given(graphs(min_n=1, max_n=6), st.sampled_from(RULES),
       st.sampled_from(KINDS))
def test_reported_numbers_are_consistent(g, rule, kind):
    if kind is ThrottleKind.PRODUCT_NO_INITIAL_COST and g.edge_count == 0:
        return
    res = throttling_number(rule, kind, g)
    assert res.value == throttling_value(kind, res.size, res.propagation_time)
    d = res.to_dict()
    assert d["value"] == res.value
    assert d["witness"] == list(res.witness.members)


@given(graphs(min_n=2, max_n=6))
def test_general_bounds_with_an_edge(g):
    # With an edge present: value and order sandwich the optima.
    if g.edge_count == 0:
        g = Graph(g.n, [(0, 1)])
    n = g.n
    for rule in RULES:
        th_sum = throttling_number(rule, ThrottleKind.SUM, g).value
        th_px = throttling_number(rule, ThrottleKind.PRODUCT_INITIAL_COST, g).value
        th_ps = throttling_number(rule, ThrottleKind.PRODUCT_NO_INITIAL_COST, g).value
        assert 2 <= th_sum <= n
        assert 2 <= th_px <= n
        assert 1 <= th_ps <= n - 1
