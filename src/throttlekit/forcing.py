"""Propagation engines: standard, positive semidefinite, power domination.

All three processes repeatedly color vertices in strictly simultaneous
steps until nothing new is colored.  They differ only in the step rule:

* standard: a colored vertex with exactly one uncolored neighbor colors it;
* positive semidefinite: the standard rule applied separately inside
  every component of the graph minus the colored set;
* power domination: the first step colors the closed neighborhood of the
  start set, every later step uses the standard rule.

Times are exact small integers; a stalled process has time INFINITY.

Every optimizer over start sets (forcing numbers, fastest times at a
size, throttling numbers, one-step forcing) is one walk over start sizes,
``_cheapest``, running ``_sized_scan`` at each size.  At a fixed size k
the cost of a set is a line in its propagation time, ``slope * pt +
offset``, so the scan can cap each propagation by the incumbent cost,
which each hit lowers, and stop at the least cost possible at that size.
Witnesses are deterministic: a hit must strictly improve, so ties go to
the least size, then to the colexicographically first set.

All three rules scan bit-sliced (Biham, "A fast new DES implementation
in software", FSE 1997).  The scan cuts the size-k sets into blocks of
at most ``BLOCK_SETS``: a fixed mask of high vertices plus every
j-subset of {0..t-1}.  Bit i of a vertex's plane int says whether the
vertex is filled in the block's i-th set, so a few big-int operations
per edge run one step for every set in the block.  The first step at
which the AND of all planes is non-zero gives the block's least time,
and its lowest bit the colex-first set reaching it.  One loop,
``_block_pt``, runs the blocks of every rule; only the steps differ:
each rule has a first block step and a later one (``_BLOCK_STEPS``),
the same for the standard and PSD rules, and for power domination the
domination step followed by the standard one.  ``_steps`` gives the
same pair as mask steps for one set at a time, and ``_pt``,
``propagate`` and ``step`` take the first, then the later.  The PSD
step adds component planes to the standard one: in the sets where a
filled vertex sees two or more unfilled neighbors, the unfilled part is
flooded one component rank at a time, every set's next component grown
at once from its lowest vertex not yet flooded, and the standard step
runs again with that component as the unfilled part, so the vertex
forces its only neighbor in it.  A block costs more than it saves on a
few sets, so a PSD or power domination size with fewer than
``BLOCK_MIN_SETS`` sets is scanned one set at a time with ``_pt``.

The chain floors make the scan skip work: under the standard rule a
size-k start set is k forcing chains, each growing by at most one vertex
a step, so a completing set has pt >= ceil((n - k) / k) when 0 < k < n.
Under power domination the vertices of the start set have no unfilled
neighbor after the first round, so at most k * maxdeg chains grow and
pt >= ceil((n - k) / (k * maxdeg)).  The least cost at a size uses them,
so a size whose floor cannot beat the incumbent is skipped, and a scan
stops early once a set reaches it.

The suites that check a fact for every start set (Lemma 3.1's transfer
items, and that a larger start set is never slower) read ``pt_table``
instead: the time of every mask below 2**n, taking one step per mask.
A non-empty step only adds vertices, so on a walk down from the full
set the time of S is one more than that of S | step(S), known already,
or INFINITY when the step is empty.  Under power domination it is one
more than the standard time of S | dom(S).  A graph and its operated
graphs recur across the cases of one graph, so the last 256 tables are
cached; they are tuples, which no caller can change.  The sized scan
does not use them: a capped scan touches few of the 2**n sets.

``_covering_masks`` lists the size-k sets whose members' balls cover
every vertex, in colex order like ``_size_masks``, but skips every
subtree of partial sets that no completion makes a cover.  On closed
neighborhoods its covers are the dominating sets that ``domination.py``
walks size by size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Optional, Union

from .graph import Graph, VertexSet, bits, mask_components

INFINITY = float("inf")

# Start sets per block of the bit-sliced scan.
BLOCK_SETS = 4096
# A PSD or power domination scan of fewer size-k sets than this runs set
# by set through _pt: a block of a few sets costs more than walking them.
BLOCK_MIN_SETS = 80

Time = Union[int, float]


def json_time(t: Time) -> Optional[int]:
    """A time as JSON spells it: None for a stall (INFINITY)."""
    return None if t == INFINITY else t


# Largest order pt_table accepts: a table holds 2**n times, and no suite
# goes past order 10, order 9 plus a subdivision.
MAX_TABLE_ORDER = 16


class Rule(enum.Enum):
    """Which step rule drives the propagation."""

    STANDARD = "zf"
    PSD = "psd"
    POWER_DOMINATION = "pd"


def _size_masks(n: int, k: int) -> Iterator[int]:
    # Gosper's hack: all k-bit masks below 2**n in increasing numeric
    # order, which is colexicographic order on the vertex sets.
    if k == 0:
        yield 0
        return
    if k > n:
        return
    m = (1 << k) - 1
    limit = 1 << n
    while m < limit:
        yield m
        low = m & -m
        ripple = m + low
        m = (((ripple ^ m) >> 2) // low) | ripple


def _covering_masks(balls: tuple[int, ...], n: int, k: int) -> Iterator[int]:
    """The size-k masks below 2**n whose members' balls cover every
    vertex, in increasing numeric (colex) order; ``balls[v]`` holds v.

    The top member is picked first, ascending, and the rest recursively
    below it, which lists the sets in colex order.  A partial set is
    dropped when its balls, with those of every vertex below its lowest
    member, miss a vertex, or when more vertices are uncovered than its
    picks left times the largest ball: neither can be completed."""
    if k == 0:
        if n == 0:
            yield 0
        return
    if k > n:
        return
    widest = max(map(int.bit_count, balls))
    if n > k * widest:
        # The counting prune at the root, before any table is built.
        return
    full = (1 << n) - 1
    # below[v]: the union of the balls of the vertices under v.
    below = [0]
    for ball in balls:
        below.append(below[-1] | ball)

    def extend(chosen: int, covered: int, limit: int, j: int) -> Iterator[int]:
        # The covers that add j members below limit to chosen; on entry
        # covered | below[limit] is full.
        if (full ^ covered).bit_count() > j * widest:
            return
        # The union test is monotone in the top pick: start at the first
        # one that passes it.
        v = j - 1
        while covered | below[v + 1] != full:
            v += 1
        if j == 1:
            for v in range(v, limit):
                if covered | balls[v] == full:
                    yield chosen | 1 << v
            return
        for v in range(v, limit):
            yield from extend(chosen | 1 << v, covered | balls[v], v, j - 1)

    yield from extend(0, 0, n, k)


def _standard_step(adj: tuple[int, ...], filled: int, full: int) -> int:
    new = 0
    unfilled = full & ~filled
    rest = filled
    while rest:
        low = rest & -rest
        rest ^= low
        w = adj[low.bit_length() - 1] & unfilled
        if w and not (w & (w - 1)):
            new |= w
    return new


def _psd_step(adj: tuple[int, ...], filled: int, full: int) -> int:
    # A filled vertex with one unfilled neighbor forces it whatever the
    # components are; only vertices with two or more need them.
    unfilled = full & ~filled
    new = 0
    split = []
    rest = filled
    while rest:
        low = rest & -rest
        rest ^= low
        w = adj[low.bit_length() - 1] & unfilled
        if w & (w - 1):
            split.append(w)
        else:
            new |= w
    if split:
        for comp in mask_components(adj, unfilled):
            for w in split:
                w &= comp
                if w and not (w & (w - 1)):
                    new |= w
    return new


def _domination_step(adj: tuple[int, ...], filled: int, full: int) -> int:
    reach = filled
    rest = filled
    while rest:
        low = rest & -rest
        rest ^= low
        reach |= adj[low.bit_length() - 1]
    return reach & full & ~filled


def _steps(rule: Rule) -> tuple[Callable[..., int], Callable[..., int]]:
    """The rule's step for the first round and for every later one."""
    # A function, not a table like _BLOCK_STEPS: the benchmark's tracer
    # counts steps by rebinding these module names, so they are read on
    # every call.
    if rule is Rule.POWER_DOMINATION:
        return _domination_step, _standard_step
    advance = _psd_step if rule is Rule.PSD else _standard_step
    return advance, advance


def _pt(rule: Rule, adj: tuple[int, ...], n: int, mask: int,
        cap: Optional[int] = None) -> Optional[Time]:
    """Propagation time of ``mask``: an int, INFINITY on a stall, or
    None once the time would exceed ``cap``.

    The rule's first step (``_steps``) runs once, its later step after.
    """
    full = (1 << n) - 1
    filled = mask
    t = 0
    advance, later = _steps(rule)
    while filled != full:
        if cap is not None and t >= cap:
            return None
        new = advance(adj, filled, full)
        if not new:
            return INFINITY
        t += 1
        filled |= new
        advance = later
    return t


@lru_cache(maxsize=256)
def pt_table(rule: Rule, adj: tuple[int, ...], n: int) -> tuple[Time, ...]:
    """Propagation time of every mask below 2**n, indexed by mask.

    One step per mask: a non-empty step only adds vertices, so each mask
    reads the time of a larger one, already known on a descending walk.
    """
    if n > MAX_TABLE_ORDER:
        raise ValueError(f"a propagation time table holds 2**n entries; "
                         f"order {n} is above {MAX_TABLE_ORDER}")
    full = (1 << n) - 1
    tab: list[Time] = [0] * (full + 1)
    advance = _steps(rule)[0]
    # Power domination's later steps are standard ones, so after its
    # domination step it reads the standard table.
    after = pt_table(Rule.STANDARD, adj, n) \
        if rule is Rule.POWER_DOMINATION else tab
    for mask in range(full - 1, -1, -1):
        new = advance(adj, mask, full)
        tab[mask] = after[mask | new] + 1 if new else INFINITY
    return tuple(tab)


@dataclass(frozen=True)
class PropagationTrace:
    """Full record of one propagation run."""

    rule: Rule
    graph: Graph
    initial: VertexSet
    steps: tuple[VertexSet, ...]
    completed: bool
    components_per_step: Optional[tuple[tuple[VertexSet, ...], ...]] = None

    @property
    def propagation_time(self) -> Time:
        return len(self.steps) if self.completed else INFINITY

    def filled_after(self, t: int) -> VertexSet:
        """Cumulative colored set once step t has finished (t=0: start)."""
        if not 0 <= t <= len(self.steps):
            raise ValueError(f"step index {t} out of range")
        out = self.initial
        for s in self.steps[:t]:
            out = out | s
        return out

    @property
    def final(self) -> VertexSet:
        return self.filled_after(len(self.steps))

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.value,
            "order": self.graph.n,
            "initial": list(self.initial.members),
            "steps": [list(s.members) for s in self.steps],
            "completed": self.completed,
            "propagation_time": json_time(self.propagation_time),
        }


def step(rule: Rule, g: Graph, filled: VertexSet,
         time_index: int = 1) -> VertexSet:
    """Vertices newly colored by one step from ``filled`` at the given
    1-based time index (the index only matters for power domination)."""
    if filled.order != g.n:
        raise ValueError("vertex set order does not match the graph")
    if time_index < 1:
        raise ValueError(f"time index must be at least 1, got {time_index}")
    advance = _steps(rule)[time_index > 1]
    new = advance(g.adjacency, filled.mask, g.full_mask)
    return VertexSet.from_mask(g.n, new)


def propagate(rule: Rule, g: Graph, initial: VertexSet,
              record_components: bool = False) -> PropagationTrace:
    """Run the process to its fixed point and return the whole trace."""
    if initial.order != g.n:
        raise ValueError("vertex set order does not match the graph")
    adj = g.adjacency
    full = g.full_mask
    filled = initial.mask
    steps: list[VertexSet] = []
    comps: list[tuple[VertexSet, ...]] = []
    advance, later = _steps(rule)
    while filled != full:
        if record_components and rule is Rule.PSD:
            comps.append(tuple(
                VertexSet.from_mask(g.n, c)
                for c in mask_components(adj, full & ~filled)
            ))
        new = advance(adj, filled, full)
        if not new:
            break
        steps.append(VertexSet.from_mask(g.n, new))
        filled |= new
        advance = later
    return PropagationTrace(
        rule=rule,
        graph=g,
        initial=initial,
        steps=tuple(steps),
        completed=filled == full,
        components_per_step=tuple(comps) if record_components and rule is Rule.PSD else None,
    )


def propagation_time(rule: Rule, g: Graph, initial: VertexSet) -> Time:
    """Number of steps to color everything from ``initial`` (INFINITY on
    a stall)."""
    if initial.order != g.n:
        raise ValueError("vertex set order does not match the graph")
    t = _pt(rule, g.adjacency, g.n, initial.mask)
    assert t is not None
    return t


def is_forcing_set(rule: Rule, g: Graph, initial: VertexSet) -> bool:
    return propagation_time(rule, g, initial) != INFINITY


def _least_pt(rule: Rule, adj: tuple[int, ...], n: int, k: int) -> int:
    # Only the full set finishes in no steps.  Under the standard rule
    # each of the k forcing chains grows by at most one vertex a step, so
    # a completing set needs n <= k * (pt + 1).  Under power domination
    # the first round fills at most k * maxdeg vertices outside the start
    # set, and only those can start chains, so n <= k + k * maxdeg * pt.
    if k >= n:
        return 0
    if rule is Rule.STANDARD and k:
        return -(-(n - k) // k)
    if rule is Rule.POWER_DOMINATION and 0 < k < n - k:
        # Below that size the floor can exceed 1.
        maxdeg = _max_degree(adj)
        if maxdeg:
            return -(-(n - k) // (k * maxdeg))
    return 1


# The optimizers scan one graph size after size, so the per-graph facts
# the scan needs are kept for the last few adjacencies.
@lru_cache(maxsize=64)
def _max_degree(adj: tuple[int, ...]) -> int:
    return max(map(int.bit_count, adj))


@lru_cache(maxsize=64)
def _neighbors(adj: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # Built from lists: a tuple grown from a generator is resized, and on
    # a sweep over thousands of small graphs that raised the peak
    # resident memory by about 0.5 MB.
    return tuple([tuple([*bits(row)]) for row in adj])


def _blocks(n: int, k: int) -> Iterator[tuple[int, int, int]]:
    """The size-k masks below 2**n cut into blocks (high, t, j): the
    mask ``high`` joined with every j-subset of {0..t-1}, at most
    BLOCK_SETS sets each.  End to end they list ``_size_masks(n, k)``."""
    stack = [(0, n, k)]
    while stack:
        high, t, j = stack.pop()
        sets = comb(t, j)
        if sets > BLOCK_SETS:
            # Split by the largest element: the sets without t - 1 come
            # first in colex order.
            stack.append((high | 1 << (t - 1), t - 1, j - 1))
            stack.append((high, t - 1, j))
        elif sets:
            yield high, t, j


@lru_cache(maxsize=256)
def _planes(t: int, j: int) -> tuple[int, ...]:
    """Membership planes of the j-subsets of {0..t-1} in colex order:
    bit i of plane v says whether v is in the i-th subset."""
    # members(t, j) = members(t-1, j) ++ (members(t-1, j-1) + {t-1}),
    # which recurses up to t deep.  A block holds at most BLOCK_SETS
    # sets, so only j <= 1 and j >= t - 1 reach orders past 91, where
    # comb(t, 2) > BLOCK_SETS; those are built directly.
    if j == 0 or j == t:
        return (int(j > 0),) * t
    if j == 1:
        # The i-th set is {i}.
        return tuple([1 << v for v in range(t)])
    if j == t - 1:
        # The i-th set lacks t - 1 - i.
        ones = (1 << t) - 1
        return tuple([ones ^ 1 << (t - 1 - v) for v in range(t)])
    shift = comb(t - 1, j)
    return tuple([a | b << shift for a, b in
                  zip(_planes(t - 1, j), _planes(t - 1, j - 1))]) \
        + (((1 << comb(t - 1, j - 1)) - 1) << shift,)


def _block_standard_step(nbrs: tuple[tuple[int, ...], ...],
                         filled: list[int], unfilled: list[int],
                         split: Optional[list[int]] = None,
                         new: Optional[list[int]] = None) -> list[int]:
    """One standard step for every set of a block, as planes of the newly
    filled vertices.  ``split``, when given, receives per vertex the sets
    in which it is filled and sees two or more unfilled neighbors.  The
    planes are added into ``new`` when it is given, and returned."""
    if new is None:
        new = [0] * len(nbrs)
    for u, around in enumerate(nbrs):
        force = filled[u]
        if not force:
            continue
        once = twice = 0
        for w in around:
            x = unfilled[w]
            twice |= once & x
            once |= x
        if split is not None:
            split[u] = force & twice
        # twice is a subset of once, so once ^ twice holds the sets
        # where u sees exactly one unfilled neighbor.
        force &= once ^ twice
        if force:
            for w in around:
                new[w] |= force & unfilled[w]
    return new


def _block_psd_step(nbrs: tuple[tuple[int, ...], ...],
                    filled: list[int], unfilled: list[int]) -> list[int]:
    """One PSD step for every set of a block.

    The standard step covers every filled vertex with one unfilled
    neighbor.  A vertex split between two or more is judged per component
    of the unfilled part.  In the sets with a split vertex, the components
    are flooded rank by rank, all sets at once: each set's next component
    grows from its lowest vertex not yet flooded, and the split vertices
    take a standard step with it as the unfilled part, so each forces its
    only neighbor in it.  A block takes as many floods as the most
    components of any one set with a split vertex.
    """
    split = [0] * len(nbrs)
    new = _block_standard_step(nbrs, filled, unfilled, split)
    some = reduce(or_, split, 0)
    left = [x & some for x in unfilled]
    while any(left):
        # Seed each set at its lowest vertex still left, then grow the
        # seeds along the left vertices until nothing changes.
        comp, below = [], 0
        for x in left:
            comp.append(x & ~below)
            below |= x
        grew = True
        while grew:
            grew = False
            for v, around in enumerate(nbrs):
                here = left[v]
                if not here:
                    continue
                reach = comp[v]
                for w in around:
                    reach |= comp[w]
                reach &= here
                if reach != comp[v]:
                    comp[v] = reach
                    grew = True
        _block_standard_step(nbrs, split, comp, new=new)
        left = [x & ~c for x, c in zip(left, comp)]
    return new


def _block_domination_step(nbrs: tuple[tuple[int, ...], ...],
                           filled: list[int], unfilled: list[int]) -> list[int]:
    """The domination step for every set of a block: each unfilled vertex
    with a filled neighbor is filled."""
    new = []
    for v, around in enumerate(nbrs):
        seen = 0
        for w in around:
            seen |= filled[w]
        new.append(seen & unfilled[v])
    return new


# Each rule's block steps: (first step, every later step).
_BLOCK_STEPS = {
    Rule.STANDARD: (_block_standard_step, _block_standard_step),
    Rule.PSD: (_block_psd_step, _block_psd_step),
    Rule.POWER_DOMINATION: (_block_domination_step, _block_standard_step),
}


def _block_pt(rule: Rule, nbrs: tuple[tuple[int, ...], ...], high: int,
              t: int, j: int, cap: Optional[int],
              least: bool) -> Optional[tuple[int, int]]:
    """Propagation of every set in block (high, t, j) at once, the rule's
    block steps (``_BLOCK_STEPS``) taking one step for all of them.

    Returns (pt, mask) for the first set by index among those of least
    time (``least``) or among all that complete, or None when no set
    completes within ``cap`` steps.
    """
    n = len(nbrs)
    ones = (1 << comb(t, j)) - 1
    start = filled = list(_planes(t, j)) + \
        [ones if high >> v & 1 else 0 for v in range(t, n)]
    done = reduce(and_, filled, ones)
    history = [done]
    step, later = _BLOCK_STEPS[rule]
    while not (least and done) and (cap is None or len(history) <= cap):
        new = step(nbrs, filled, [ones ^ f for f in filled])
        if not any(new):
            break
        step = later
        filled = [f | x for f, x in zip(filled, new)]
        done = reduce(and_, filled, ones)
        history.append(done)
    if not done:
        return None
    low = done & -done
    pt = next(s for s, d in enumerate(history) if d & low)
    # The set is the vertices whose start plane holds its bit.
    return pt, sum(1 << v for v, plane in enumerate(start) if plane & low)


def _sized_scan(rule: Rule, adj: tuple[int, ...], n: int, k: int,
                slope: int, offset: int,
                incumbent: Optional[int] = None) -> Optional[tuple[int, int, int]]:
    """Least cost ``slope * pt + offset`` over the size-k start sets that
    strictly beat ``incumbent``, as (cost, pt, colex-first mask), or None
    when no such set completes."""
    floor = offset + slope * _least_pt(rule, adj, n, k)
    if incumbent is not None and floor >= incumbent:
        return None
    # The cap admits only times whose cost strictly beats the incumbent.
    cap = None if incumbent is None or not slope else \
        (incumbent - offset - 1) // slope
    best = None
    if rule is Rule.STANDARD or comb(n, k) >= BLOCK_MIN_SETS:
        # A block gives its least time, or under a flat cost line, where
        # every completing set costs the floor, its first completing set.
        nbrs = _neighbors(adj)
        for block in _blocks(n, k):
            hit = _block_pt(rule, nbrs, *block, cap, slope > 0)
            if hit is None:
                continue
            t, mask = hit
            best = (slope * t + offset, t, mask)
            if best[0] == floor:
                break
            cap = t - 1
        return best
    for mask in _size_masks(n, k):
        t = _pt(rule, adj, n, mask, cap)
        if t is None or t == INFINITY:
            continue
        best = (slope * t + offset, t, mask)
        if best[0] == floor:
            break
        cap = t - 1  # slope > 0 here, or the cost would be the floor
    return best


def _cheapest(rule: Rule, adj: tuple[int, ...], n: int, sizes: Iterable[int],
              line: Callable[[int], tuple[int, int]],
              incumbent: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Least cost ``slope * pt + offset``, with (slope, offset) =
    ``line(k)`` at size k, over the sets of the given sizes that strictly
    beat ``incumbent``: (cost, pt, colex-first mask, least size) or None."""
    best = None
    for k in sizes:
        hit = _sized_scan(rule, adj, n, k, *line(k), incumbent)
        if hit is not None:
            best = (*hit, k)
            incumbent = hit[0]
    return best


def forcing_number(rule: Rule, g: Graph) -> tuple[int, VertexSet]:
    """Least size of a set that colors everything, with the first witness
    in size order then colexicographic order."""
    if g.n == 0:
        return 0, g.vertex_set(())
    # Costing a set by its size makes the first completing set the best.
    hit = _cheapest(rule, g.adjacency, g.n, range(1, g.n + 1),
                    lambda k: (0, k))
    if hit is None:
        raise AssertionError("the full vertex set always forces")
    return hit[3], VertexSet.from_mask(g.n, hit[2])


def k_propagation_time(rule: Rule, g: Graph,
                       k: int) -> tuple[Time, Optional[VertexSet]]:
    """Fastest propagation time over all start sets of size k.

    Returns (INFINITY, None) when no size-k set colors everything,
    otherwise the time and its first colexicographic witness.
    """
    if not 0 <= k <= g.n:
        raise ValueError(f"size must be between 0 and {g.n}, got {k}")
    hit = _cheapest(rule, g.adjacency, g.n, range(k, k + 1), lambda _: (1, 0))
    if hit is None:
        return INFINITY, None
    return hit[1], VertexSet.from_mask(g.n, hit[2])


def graph_propagation_time(rule: Rule, g: Graph) -> tuple[Time, Optional[VertexSet]]:
    """Fastest propagation time over all minimum forcing sets."""
    y, _ = forcing_number(rule, g)
    return k_propagation_time(rule, g, y)
