"""The fast engine against a plain-set oracle, plus step semantics."""

import random
from itertools import combinations
from math import ceil, comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from throttlekit import forcing
from throttlekit.families import (
    complete,
    cycle,
    enumerate_graphs,
    fixture,
    path,
    spider,
    star,
)
from throttlekit.forcing import (
    INFINITY,
    MAX_TABLE_ORDER,
    Rule,
    _block_domination_step,
    _block_psd_step,
    _block_pt,
    _blocks,
    _domination_step,
    _least_pt,
    _planes,
    _psd_step,
    _pt,
    _size_masks,
    _sized_scan,
    _standard_step,
    forcing_number,
    graph_propagation_time,
    is_forcing_set,
    k_propagation_time,
    propagate,
    propagation_time,
    pt_table,
    step,
)
from throttlekit.graph import Graph, mask_components

from . import oracles
from .strategies import graphs

RULES = [Rule.STANDARD, Rule.PSD, Rule.POWER_DOMINATION]


def oracle_pt(rule: Rule, g: Graph, members) -> float:
    return oracles.naive_pt(rule.value if rule is not Rule.STANDARD else "zf",
                            g, members)


def as_oracle_rule(rule: Rule) -> str:
    return {Rule.STANDARD: "zf", Rule.PSD: "psd", Rule.POWER_DOMINATION: "pd"}[rule]


@pytest.mark.parametrize("rule", RULES)
def test_engine_matches_oracle_exhaustively(rule):
    # Every iso class up to order 5, every start set, through _pt and
    # through propagate's trace.
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for k in range(n + 1):
                for combo in combinations(range(n), k):
                    expected = oracles.naive_pt(as_oracle_rule(rule), g, combo)
                    expected = INFINITY if expected is inf else expected
                    start = g.vertex_set(combo)
                    where = f"{rule} disagrees on {g!r} from {combo}"
                    assert propagation_time(rule, g, start) == expected, where
                    assert propagate(rule, g, start).propagation_time \
                        == expected, where


@pytest.mark.parametrize("rule", RULES)
def test_capped_pt_matches_oracle(rule):
    # Every graph up to order 6, every start mask, every cap from 0 to n:
    # a time within the cap comes back exactly, any other run is cut
    # (None) or, if it really stalls, may report the stall.
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            for mask in range(1 << n):
                members = [v for v in range(n) if mask >> v & 1]
                t = oracles.naive_pt(as_oracle_rule(rule), g, members)
                for cap in range(n + 1):
                    got = _pt(rule, g.adjacency, n, mask, cap)
                    where = f"{rule} on {g!r} from {members} with cap {cap}"
                    if t <= cap:
                        assert got == t, where
                    else:
                        assert got is None or (got == INFINITY and t == inf), where


@pytest.mark.parametrize("rule", RULES)
def test_pt_table_matches_pt_and_oracle(rule):
    # Every graph up to order 6: the table is _pt on every mask, and the
    # oracle's time; a tuple, so a cached table cannot be changed.
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            table = pt_table(rule, g.adjacency, n)
            assert type(table) is tuple
            assert list(table) == [_pt(rule, g.adjacency, n, mask)
                                   for mask in range(1 << n)], f"{g!r}"
            for mask, t in enumerate(table):
                members = [v for v in range(n) if mask >> v & 1]
                expected = oracles.naive_pt(as_oracle_rule(rule), g, members)
                assert t == (INFINITY if expected is inf else expected), \
                    f"{rule} on {g!r} from {members}"


def test_pt_table_refuses_large_orders():
    # A table holds 2**n entries; a large graph is refused before any
    # is allocated.
    n = MAX_TABLE_ORDER + 1
    with pytest.raises(ValueError, match=f"order {n} is above"):
        pt_table(Rule.STANDARD, path(n).adjacency, n)


def test_step_kernels_match_oracle():
    # Every filled mask of every graph up to order 6.
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            nbrs = oracles.adjacency_sets(g)
            for mask in range(1 << n):
                filled = {v for v in range(n) if mask >> v & 1}
                zf = sum(1 << v for v in oracles.standard_step(nbrs, filled))
                psd = sum(1 << v for v in oracles.psd_step(nbrs, n, filled))
                assert _standard_step(g.adjacency, mask, g.full_mask) == zf, \
                    f"{g!r} from {sorted(filled)}"
                assert _psd_step(g.adjacency, mask, g.full_mask) == psd, \
                    f"{g!r} from {sorted(filled)}"


def test_zero_forcing_chain_floor():
    # The k forcing chains each grow by at most one vertex a step, so a
    # completing size-k set needs at least ceil((n - k) / k) steps.  Under
    # power domination only the at most k * maxdeg vertices the first
    # round adds can start chains: ceil((n - k) / (k * maxdeg)) steps.
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            maxdeg = max(g.degree(v) for v in range(n))
            for k in range(1, n):
                floor = ceil((n - k) / k)
                assert _least_pt(Rule.STANDARD, g.adjacency, n, k) == floor
                best = oracles.naive_kpt("zf", g, k)
                assert best == inf or best >= floor, f"{g!r} at size {k}"
                floor = ceil((n - k) / (k * maxdeg)) if maxdeg else 1
                assert _least_pt(Rule.POWER_DOMINATION, g.adjacency, n, k) \
                    == floor
                best = oracles.naive_kpt("pd", g, k)
                assert best == inf or best >= floor, f"{g!r} at size {k}"


def per_mask_scan(rule, adj, n, k, slope, offset, incumbent=None):
    """The sized scan one ``_pt`` call per mask: the reference that the
    bit-sliced scans must reproduce."""
    floor = offset + slope * _least_pt(rule, adj, n, k)
    if incumbent is not None and floor >= incumbent:
        return None
    cap = None if incumbent is None or not slope else \
        (incumbent - offset - 1) // slope
    best = None
    for mask in _size_masks(n, k):
        t = _pt(rule, adj, n, mask, cap)
        if t is None or t == INFINITY:
            continue
        best = (slope * t + offset, t, mask)
        if best[0] == floor:
            break
        cap = t - 1
    return best


def random_graph(n, p, rng):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def test_blocks_list_the_size_masks_in_order():
    # Reading every set of every block off the membership planes gives
    # _size_masks exactly.
    for n in range(15):
        for k in range(n + 2):
            sliced = []
            for high, t, j in _blocks(n, k):
                planes = _planes(t, j)
                for i in range(comb(t, j)):
                    sliced.append(high | sum(1 << v for v in range(t)
                                             if planes[v] >> i & 1))
            assert sliced == list(_size_masks(n, k)), (n, k)
    # On a large graph the sets of size 1 and n - 1 fill one block each.
    n = forcing.BLOCK_SETS
    ones = (1 << n) - 1
    assert _planes(n, 1) == tuple(1 << v for v in range(n))
    assert _planes(n, n - 1) == tuple(ones ^ 1 << (n - 1 - v)
                                      for v in range(n))


def test_psd_block_step_matches_psd_step_to_order_6():
    # One block step over the planes of all size-k sets of every graph to
    # order 6, so every filled mask, against the per-mask step and the
    # oracle.  Graphs whose unfilled part splits into several components
    # catch a flood that leaks from one component into another.
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            adj, nbrs = g.adjacency, oracles.adjacency_sets(g)
            neighbors = tuple(tuple(sorted(nbrs[v])) for v in range(n))
            for k in range(n + 1):
                ones = (1 << comb(n, k)) - 1
                filled = list(_planes(n, k))
                new = _block_psd_step(neighbors, filled,
                                      [ones ^ f for f in filled])
                for i, mask in enumerate(_size_masks(n, k)):
                    got = sum(1 << v for v in range(n) if new[v] >> i & 1)
                    members = {v for v in range(n) if mask >> v & 1}
                    assert got == _psd_step(adj, mask, g.full_mask), \
                        f"{g!r} from {sorted(members)}"
                    assert got == sum(1 << v for v in oracles.psd_step(
                        nbrs, n, members)), f"{g!r} from {sorted(members)}"


def set_planes(masks, n):
    """Membership planes of a block holding ``masks`` in order."""
    return [sum(1 << i for i, mask in enumerate(masks) if mask >> v & 1)
            for v in range(n)]


def assert_psd_block_run(g, masks, steps=None):
    """Run PSD block steps from ``masks`` until none fills anything (or
    for ``steps`` steps), checking every set against ``_psd_step`` on
    every step.  Each set fills a vertex on every step until it stops,
    so step n + 1 fills nothing."""
    n, adj = g.n, g.adjacency
    neighbors = forcing._neighbors(adj)
    ones = (1 << len(masks)) - 1
    filled, masks = set_planes(masks, n), list(masks)
    for _ in range(n + 1 if steps is None else steps):
        new = _block_psd_step(neighbors, filled, [ones ^ f for f in filled])
        for i, mask in enumerate(masks):
            got = sum(1 << v for v in range(n) if new[v] >> i & 1)
            assert got == _psd_step(adj, mask, g.full_mask), \
                f"{g!r} from {mask:#b}"
            masks[i] = mask | got
        if not any(new):
            break
        filled = [f | x for f, x in zip(filled, new)]


def test_psd_block_run_matches_psd_step_at_order_7():
    # Every graph of order 7, each size as one block, on the first step
    # and on every later one until the block stops filling.
    for g in enumerate_graphs(7):
        for k in range(8):
            assert_psd_block_run(g, list(_size_masks(7, k)))


def test_psd_block_run_matches_psd_step_on_full_random_blocks():
    # Blocks of BLOCK_SETS random sets of mixed sizes on G(16..18, p).
    rng = random.Random(20)
    for n, p in ((16, 0.15), (17, 0.2), (18, 0.12), (18, 0.3)):
        g = random_graph(n, p, rng)
        masks = [sum(1 << v for v in rng.sample(range(n), rng.randint(1, 6)))
                 for _ in range(forcing.BLOCK_SETS)]
        assert_psd_block_run(g, masks, steps=3)


def test_psd_block_step_floods_once_per_component_rank(monkeypatch):
    # On a spider with four legs of two, the set {center} leaves four
    # components and each set {first vertex of a leg} two.  The block
    # floods four ranks, one standard step each after the first, though
    # nine vertices start a component next to a split vertex in some set.
    g, center = spider([2, 2, 2, 2])
    masks = [1 << center, 1 << 1, 1 << 3, 1 << 5, 1 << 7, 0]
    assert [len(mask_components(g.adjacency, g.full_mask ^ m))
            for m in masks] == [4, 2, 2, 2, 2, 1]
    calls = []
    step = forcing._block_standard_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(forcing, "_block_standard_step", counted)
    assert_psd_block_run(g, masks, steps=1)
    assert len(calls) == 1 + 4


def test_psd_block_step_mixes_split_and_unsplit_sets():
    # In one block, sets whose filled vertices all see at most one
    # unfilled neighbor sit beside sets with a split vertex, so the
    # floods must leave the first kind alone.
    g = path(7)
    masks = [0b0000001, 0b0000100, 0b1000001, 0b0001000, 0b0011000,
             0b1111111, 0]
    adj, unfilled = g.adjacency, [g.full_mask ^ m for m in masks]
    split = [any((adj[v] & u).bit_count() > 1 for v in range(7)
                 if m >> v & 1) for m, u in zip(masks, unfilled)]
    assert any(split) and not all(split)
    assert_psd_block_run(g, masks)


def test_domination_block_run_matches_pt_to_order_6():
    # One domination block step over the planes of all size-k sets of
    # every graph to order 6, against the per-mask step and the oracle.
    # Then power domination block runs, a domination round followed by
    # standard steps: each set alone as a one-set block under every cap
    # against _pt, and the whole size as one block against the least
    # and the first completing time of the per-set runs.
    rule = Rule.POWER_DOMINATION
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            adj, nbrs = g.adjacency, oracles.adjacency_sets(g)
            neighbors = tuple(tuple(sorted(nbrs[v])) for v in range(n))
            for k in range(n + 1):
                ones = (1 << comb(n, k)) - 1
                filled = list(_planes(n, k))
                new = _block_domination_step(neighbors, filled,
                                             [ones ^ f for f in filled])
                masks = list(_size_masks(n, k))
                for i, mask in enumerate(masks):
                    got = sum(1 << v for v in range(n) if new[v] >> i & 1)
                    members = {v for v in range(n) if mask >> v & 1}
                    where = f"{g!r} from {sorted(members)}"
                    assert got == _domination_step(adj, mask, g.full_mask), \
                        where
                    assert got == sum(1 << v for v in oracles.domination_step(
                        nbrs, members)), where
                    for cap in (None, *range(n + 1)):
                        t = _pt(rule, adj, n, mask, cap)
                        expected = None if t is None or t == INFINITY \
                            else (t, mask)
                        assert _block_pt(rule, neighbors, mask, 0, 0, cap,
                                         True) == expected, f"{where} cap {cap}"
                times = [_pt(rule, adj, n, mask) for mask in masks]
                done = [i for i, t in enumerate(times) if t != INFINITY]
                least = min(done, key=times.__getitem__, default=None)
                for first, index in ((True, least),
                                     (False, done[0] if done else None)):
                    expected = None if index is None \
                        else (times[index], masks[index])
                    assert _block_pt(rule, neighbors, 0, n, k, None,
                                     first) == expected, f"{g!r} at size {k}"


@pytest.mark.parametrize("rule", RULES)
def test_block_scan_matches_per_mask_scan_to_order_7(rule, monkeypatch):
    # Every graph to order 7, every size, the four cost lines of
    # k_propagation_time, prodx, prodstar and forcing_number, and
    # incumbents that leave the scan uncapped, tight and loose.  A PSD or
    # power domination scan this small would run set by set, so every
    # size is made to run in blocks.
    monkeypatch.setattr(forcing, "BLOCK_MIN_SETS", 0)
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            adj = g.adjacency
            for k in range(n + 1):
                for slope, offset in ((1, k), (k, k), (k, 0), (0, 0)):
                    for incumbent in (None, 2, n, n + 1):
                        args = (rule, adj, n, k, slope, offset, incumbent)
                        assert _sized_scan(*args) == per_mask_scan(*args), \
                            f"{g!r} at size {k} on ({slope}, {offset}) " \
                            f"under {incumbent}"


@pytest.mark.parametrize("rule", RULES)
def test_block_scan_matches_per_mask_scan_across_blocks(rule):
    # Sizes with more than one block, so the cap carries from block to
    # block and the witness may sit in any of them.
    rng = random.Random(8)
    for n, p in ((15, 0.2), (15, 0.3), (16, 0.2), (16, 0.25)):
        g = random_graph(n, p, rng)
        for k in (5, 6, 8):
            if comb(n, k) <= forcing.BLOCK_SETS:
                continue
            assert len(list(_blocks(n, k))) > 1
            for slope, offset in ((1, k), (k, k), (k, 0), (0, 0)):
                for incumbent in (None, n + 1):
                    args = (rule, g.adjacency, n, k, slope, offset,
                            incumbent)
                    assert _sized_scan(*args) == per_mask_scan(*args), \
                        f"{g!r} at size {k} on ({slope}, {offset}) " \
                        f"under {incumbent}"


def test_psd_scan_runs_few_sets_one_by_one(monkeypatch):
    # On 16 vertices the PSD and power domination sizes with fewer than
    # BLOCK_MIN_SETS sets go through _pt and the others through
    # _block_pt; both give the per-mask scan's answers.  Under each rule
    # some size spans several blocks: on the denser graph power
    # domination meets its floor in the first block of every size.
    graphs = [random_graph(16, 0.25, random.Random(9)),
              random_graph(16, 0.12, random.Random(3))]
    rules = (Rule.PSD, Rule.POWER_DOMINATION)
    n = 16
    expected = {(rule, i): [per_mask_scan(rule, g.adjacency, n, k, 1, k)
                            for k in range(n + 1)]
                for rule in rules for i, g in enumerate(graphs)}
    calls = {"_pt": 0, "_block_pt": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(forcing, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(forcing, name, counted)
    for rule in rules:
        most_blocks = 0
        for i, g in enumerate(graphs):
            for k in range(n + 1):
                calls.update(_pt=0, _block_pt=0)
                assert _sized_scan(rule, g.adjacency, n, k, 1, k) \
                    == expected[rule, i][k], (rule, i, k)
                if comb(n, k) < forcing.BLOCK_MIN_SETS:
                    assert calls["_pt"] and not calls["_block_pt"], (rule, k)
                else:
                    assert calls["_block_pt"] and not calls["_pt"], (rule, k)
                most_blocks = max(most_blocks, calls["_block_pt"])
        assert most_blocks > 1, rule
    # Both paths ran: the sizes of 1 and 16 sets one by one, and those
    # of 560 sets or more in blocks.
    assert 16 < forcing.BLOCK_MIN_SETS <= comb(n, 3)


def test_pt_reaches_step_rules_through_module_names(monkeypatch):
    # The benchmark's tracer counts steps by rebinding these names, so
    # _pt, propagate, step and pt_table must look them up on every call.
    counts = {}
    for name in ("_standard_step", "_psd_step", "_domination_step"):
        def counted(*args, _name=name, _step=getattr(forcing, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _step(*args)
        monkeypatch.setattr(forcing, name, counted)
    g = path(5)
    expected = {
        Rule.STANDARD: {"_standard_step": 4},
        Rule.PSD: {"_psd_step": 4},
        Rule.POWER_DOMINATION: {"_domination_step": 1, "_standard_step": 3},
    }
    start = g.vertex_set([0])
    for rule, steps in expected.items():
        counts.clear()
        assert forcing._pt(rule, g.adjacency, g.n, 0b1) == 4
        assert counts == steps, rule
        counts.clear()
        assert forcing.propagate(rule, g, start).propagation_time == 4
        assert counts == steps, rule
    # step takes the rule's first step at time index 1, its later one at
    # every index after.
    for rule, first, later in (
            (Rule.STANDARD, "_standard_step", "_standard_step"),
            (Rule.PSD, "_psd_step", "_psd_step"),
            (Rule.POWER_DOMINATION, "_domination_step", "_standard_step")):
        for time_index, name in ((1, first), (2, later), (3, later)):
            counts.clear()
            forcing.step(rule, g, start, time_index)
            assert counts == {name: 1}, (rule, time_index)
    # pt_table takes one step for each of the 31 masks below the full
    # one; power domination's standard steps are its cached zf table's.
    forcing.pt_table.cache_clear()
    for rule, name in ((Rule.STANDARD, "_standard_step"),
                       (Rule.PSD, "_psd_step"),
                       (Rule.POWER_DOMINATION, "_domination_step")):
        counts.clear()
        assert forcing.pt_table(rule, g.adjacency, g.n)[0b1] == 4
        assert counts == {name: 31}, rule


@given(graphs(max_n=7), st.data())
def test_engine_matches_oracle_sampled(g, data):
    rule = data.draw(st.sampled_from(RULES))
    members = data.draw(st.sets(st.integers(0, g.n - 1)))
    expected = oracles.naive_pt(as_oracle_rule(rule), g, members)
    got = propagation_time(rule, g, g.vertex_set(members))
    assert got == (INFINITY if expected is inf else expected)


def test_empty_start_on_nonempty_graph_stalls():
    g = path(3)
    for rule in RULES:
        assert propagation_time(rule, g, g.vertex_set(())) == INFINITY


def test_full_start_takes_no_steps():
    g = path(3)
    for rule in RULES:
        assert propagation_time(rule, g, g.vertex_set()) == 0


def test_standard_step_needs_unique_unfilled_neighbor():
    g = path(4)
    got = step(Rule.STANDARD, g, g.vertex_set([1]))
    # Vertex 1 sees two unfilled neighbors, so nothing moves.
    assert got.members == ()
    assert step(Rule.STANDARD, g, g.vertex_set([0, 1])).members == (2,)


def test_psd_step_splits_components():
    # Deleting the filled set separates the leaves of a star.
    g = star(4)
    got = step(Rule.PSD, g, g.vertex_set([0]))
    assert got.members == (1, 2, 3)
    assert step(Rule.STANDARD, g, g.vertex_set([0])).members == ()


def test_power_domination_first_step_dominates():
    g = star(4)
    assert step(Rule.POWER_DOMINATION, g, g.vertex_set([0])).members == (1, 2, 3)
    # From time index 2 on it behaves like the standard rule.
    assert step(Rule.POWER_DOMINATION, g, g.vertex_set([0]),
                time_index=2).members == ()


def test_power_domination_later_steps_are_standard():
    g = fixture("fig4_twin").graph
    c = fixture("fig4_twin").vertices["c"]
    first = step(Rule.POWER_DOMINATION, g, g.vertex_set([c]), time_index=1)
    assert len(first) == g.degree(c)
    after = g.vertex_set([c]) | first
    # The twin branches block the standard rule immediately afterwards.
    assert step(Rule.POWER_DOMINATION, g, after, time_index=2).members == ()
    assert propagation_time(Rule.POWER_DOMINATION, g, g.vertex_set([c])) == INFINITY


def test_step_validates_inputs():
    g = path(3)
    with pytest.raises(ValueError):
        step(Rule.STANDARD, g, g.vertex_set([0]), time_index=0)
    with pytest.raises(ValueError):
        step(Rule.STANDARD, g, Graph(4).vertex_set([0]))


def test_trace_records_each_round():
    g = path(5)
    trace = propagate(Rule.STANDARD, g, g.vertex_set([0]))
    assert trace.completed
    assert trace.propagation_time == 4
    assert [s.members for s in trace.steps] == [(1,), (2,), (3,), (4,)]
    assert trace.filled_after(0).members == (0,)
    assert trace.filled_after(2).members == (0, 1, 2)
    assert trace.final.members == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        trace.filled_after(5)


def test_trace_on_stall():
    g = path(4)
    trace = propagate(Rule.STANDARD, g, g.vertex_set([1]))
    assert not trace.completed
    assert trace.steps == ()
    assert trace.propagation_time == INFINITY
    assert trace.to_dict()["propagation_time"] is None


def test_trace_dict_shape():
    g = cycle(4)
    d = propagate(Rule.PSD, g, g.vertex_set([0, 2])).to_dict()
    assert d["rule"] == "psd"
    assert d["order"] == 4
    assert d["initial"] == [0, 2]
    assert d["completed"] is True
    # The two unfilled vertices sit in separate components, so one round
    # finishes even though each filled vertex has two unfilled neighbors.
    assert d["steps"] == [[1, 3]]


def test_psd_trace_can_record_components():
    g = path(5)
    trace = propagate(Rule.PSD, g, g.vertex_set([2]), record_components=True)
    assert trace.completed
    first_round = trace.components_per_step[0]
    assert [c.members for c in first_round] == [(0, 1), (3, 4)]


@pytest.mark.parametrize("rule", RULES)
def test_forcing_number_matches_oracle(rule):
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            k, wit = forcing_number(rule, g)
            assert k == oracles.naive_forcing_number(as_oracle_rule(rule), g)
            assert len(wit) == k
            assert is_forcing_set(rule, g, wit)
            assert wit.mask == min(
                sum(1 << v for v in combo)
                for combo in combinations(range(n), k)
                if oracles.naive_pt(as_oracle_rule(rule), g, combo) < inf
            )


def test_forcing_number_known_values():
    assert forcing_number(Rule.STANDARD, path(6))[0] == 1
    assert forcing_number(Rule.STANDARD, cycle(6))[0] == 2
    assert forcing_number(Rule.STANDARD, complete(5))[0] == 4
    assert forcing_number(Rule.PSD, path(6))[0] == 1
    assert forcing_number(Rule.PSD, cycle(6))[0] == 2
    # One measurement unit placed anywhere solves a path.
    assert forcing_number(Rule.POWER_DOMINATION, path(6))[0] == 1
    assert forcing_number(Rule.POWER_DOMINATION, star(7))[0] == 1


@pytest.mark.parametrize("rule", RULES)
def test_k_propagation_time_matches_oracle(rule):
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for k in range(n + 1):
                expected = oracles.naive_kpt(as_oracle_rule(rule), g, k)
                t, wit = k_propagation_time(rule, g, k)
                assert t == (INFINITY if expected is inf else expected)
                if t != INFINITY:
                    assert propagation_time(rule, g, wit) == t
                    assert wit.mask == min(
                        sum(1 << v for v in combo)
                        for combo in combinations(range(n), k)
                        if oracles.naive_pt(as_oracle_rule(rule), g, combo) == t
                    )
                else:
                    assert wit is None


def test_k_propagation_time_bounds_check():
    g = path(3)
    with pytest.raises(ValueError):
        k_propagation_time(Rule.STANDARD, g, 4)


def test_graph_propagation_time_uses_minimum_sets():
    t, wit = graph_propagation_time(Rule.STANDARD, path(7))
    assert t == 6 and len(wit) == 1
    t, wit = graph_propagation_time(Rule.STANDARD, cycle(6))
    assert t == 2 and len(wit) == 2


def test_rule_values_are_cli_names():
    assert Rule("zf") is Rule.STANDARD
    assert Rule("psd") is Rule.PSD
    assert Rule("pd") is Rule.POWER_DOMINATION
