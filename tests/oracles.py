"""Slow reference implementations used to cross-check the bitset engine.

Everything here works on plain sets and iterates over subsets with
itertools, deliberately sharing no code with the package internals.
Only suitable for small orders.
"""

from itertools import combinations
from math import inf


def adjacency_sets(g):
    """Neighbor sets rebuilt from the public edge list only."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def components_of(vertices, nbrs):
    vertices = set(vertices)
    comps = []
    while vertices:
        seed = vertices.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            w = frontier.pop()
            for x in nbrs[w]:
                if x in vertices:
                    vertices.discard(x)
                    comp.add(x)
                    frontier.append(x)
        comps.append(comp)
    return comps


def standard_step(nbrs, filled):
    forced = set()
    for v in filled:
        unfilled = nbrs[v] - filled
        if len(unfilled) == 1:
            forced |= unfilled
    return forced


def psd_step(nbrs, n, filled):
    # One unfilled neighbor within a single component of the unfilled part.
    forced = set()
    unfilled_all = set(range(n)) - filled
    for comp in components_of(unfilled_all, nbrs):
        for v in filled:
            here = nbrs[v] & comp
            if len(here) == 1:
                forced |= here
    return forced


def domination_step(nbrs, filled):
    # Every unfilled neighbor of a filled vertex.
    reached = set()
    for v in filled:
        reached |= nbrs[v]
    return reached - filled


def naive_pt(rule, g, initial):
    """Rounds until everything is colored; inf when the process stalls."""
    nbrs = adjacency_sets(g)
    n = g.n
    filled = set(initial)
    everything = set(range(n))
    t = 0
    if rule == "pd":
        if filled != everything:
            dominated = set(filled)
            for v in filled:
                dominated |= nbrs[v]
            if dominated == filled:
                return inf
            filled = dominated
            t = 1
    while filled != everything:
        if rule == "psd":
            forced = psd_step(nbrs, n, filled)
        else:
            forced = standard_step(nbrs, filled)
        if not forced:
            return inf
        filled |= forced
        t += 1
    return t


def naive_forcing_number(rule, g):
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if naive_pt(rule, g, combo) < inf:
                return k
    raise AssertionError("the full vertex set always completes")


def naive_kpt(rule, g, k):
    best = inf
    for combo in combinations(range(g.n), k):
        best = min(best, naive_pt(rule, g, combo))
    return best


def throttle_cost(kind, k, t):
    if kind == "sum":
        return k + t
    if kind == "prodx":
        return k * (1 + t)
    if kind == "prodstar":
        return k * t
    raise ValueError(kind)


def naive_throttling(rule, kind, g):
    """Minimum cost over admissible start sizes; (value, size, pt)."""
    top = g.n - 1 if kind == "prodstar" else g.n
    best = None
    for k in range(1, top + 1):
        for combo in combinations(range(g.n), k):
            t = naive_pt(rule, g, combo)
            if t is inf:
                continue
            cost = throttle_cost(kind, k, t)
            if best is None or cost < best[0]:
                best = (cost, k, t)
    if best is None:
        raise ValueError("no admissible start set")
    return best


def naive_gamma(g):
    nbrs = adjacency_sets(g)
    everything = set(range(g.n))
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            closed = set(combo)
            for v in combo:
                closed |= nbrs[v]
            if closed == everything:
                return k
    raise AssertionError("the full vertex set dominates")


def naive_minimum_dominating_sets(g):
    nbrs = adjacency_sets(g)
    everything = set(range(g.n))
    gamma = naive_gamma(g)
    out = []
    for combo in combinations(range(g.n), gamma):
        closed = set(combo)
        for v in combo:
            closed |= nbrs[v]
        if closed == everything:
            out.append(frozenset(combo))
    return out


def colex_key(vertices):
    """Sort key putting vertex sets in colexicographic order."""
    return sum(1 << v for v in vertices)


def naive_optimal_dominating_sets(g):
    """Minimum dominating sets of the most induced edges, then of those
    the ones of largest degree sum, each list in colex order."""
    nbrs = adjacency_sets(g)
    sets = sorted(naive_minimum_dominating_sets(g), key=colex_key)

    def edges(d):
        return sum(len(nbrs[v] & d) for v in d) // 2

    most = max(map(edges, sets))
    edge_max = [d for d in sets if edges(d) == most]

    def degrees(d):
        return sum(len(nbrs[v]) for v in d)

    most = max(map(degrees, edge_max))
    return edge_max, [d for d in edge_max if degrees(d) == most]


def naive_epn(g, dom, v):
    """Vertices outside dom adjacent to v and to nothing else in dom."""
    nbrs = adjacency_sets(g)
    return {w for w in nbrs[v] - set(dom) if nbrs[w] & set(dom) == {v}}


def naive_matched_sum(g):
    n = g.n
    if n % 2 or n == 0:
        return False
    nbrs = adjacency_sets(g)
    for combo in combinations(range(n), n // 2):
        half = set(combo)
        other = set(range(n)) - half
        if all(len(nbrs[v] & other) == 1 for v in half) and \
                all(len(nbrs[v] & half) == 1 for v in other):
            return True
    return False


# Graph surgery through the public edge list: each reference returns the
# derived graph's adjacency rows, the image of every source vertex, the
# merged pair and the new vertex, as the package's VertexMap records them.

def _rows(n, edges):
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return tuple(rows)


def _relabelled(g, images):
    """Edges between surviving vertices under images; merged ends drop."""
    return [(images[a], images[b]) for a, b in g.edges()
            if images[a] is not None and images[b] is not None
            and images[a] != images[b]]


def naive_induced_subgraph(g, members):
    keep = sorted(set(members))
    index = {v: i for i, v in enumerate(keep)}
    images = [index.get(v) for v in range(g.n)]
    return _rows(len(keep), _relabelled(g, images)), images, None, None


def naive_delete_vertex(g, x):
    return naive_induced_subgraph(g, [v for v in range(g.n) if v != x])


def naive_delete_edge(g, u, v):
    """Adjacency rows only: edge deletion returns no vertex map."""
    return _rows(g.n, [e for e in g.edges() if set(e) != {u, v}])


def naive_contract_edge(g, u, v):
    keep, drop = min(u, v), max(u, v)
    images = [x - 1 if x > drop else x for x in range(g.n)]
    images[drop] = keep
    return _rows(g.n - 1, _relabelled(g, images)), images, (keep, drop), None


def naive_subdivide_edge(g, u, v):
    z = g.n
    kept = [e for e in g.edges() if set(e) != {u, v}]
    return _rows(z + 1, kept + [(u, z), (v, z)]), list(range(z)), None, z


def unpruned_iso_classes(nmax, key):
    """Adjacency rows of one graph per isomorphism class, orders 1 to
    nmax, by vertex extension with no orbit pruning: every mask of every
    parent is keyed with ``key`` (a complete canonical key taking the
    order and the rows) and the first candidate of each class is kept.
    """
    orders = [((0,),)]
    for n in range(2, nmax + 1):
        out, seen = [], set()
        for base in orders[-1]:
            for mask in range(1 << (n - 1)):
                adj = tuple(
                    base[v] | ((mask >> v & 1) << (n - 1)) for v in range(n - 1)
                ) + (mask,)
                k = key(n, adj)
                if k not in seen:
                    seen.add(k)
                    out.append(adj)
        orders.append(tuple(out))
    return orders


# Lemma 3.1's lifts, one start set at a time: item -> the candidate
# sets on the destination graph for a source mask b, given the
# operation's (u, v) and its vertex map m.  The best lifted time is the
# least destination time over the candidates.

def _preimage(m, b):
    """Source vertices whose image lies in the target mask b."""
    images = [m.image(x) for x in range(m.source_order)]
    return sum(1 << x for x, y in enumerate(images)
               if y is not None and b >> y & 1)


def _image(m, b):
    """Images of the members of the source mask b (merged ones once)."""
    images = {m.image(x) for x in range(m.source_order) if b >> x & 1}
    return sum(1 << y for y in images if y is not None)


def _ends(b, u, v):
    return b | 1 << u, b | 1 << v


TRANSFER_LIFTS = {
    1: lambda b, u, v, m: _ends(b, u, v),
    2: lambda b, u, v, m: _ends(b, u, v),
    3: lambda b, x, _, m: (_preimage(m, b) | 1 << x,),
    4: lambda b, u, v, m: ((_preimage(m, b),) if b >> m.image(u) & 1
                           else _ends(_preimage(m, b), u, v)),
    5: lambda b, u, v, m: (_image(m, b) | 1 << m.image(u),),
    6: lambda b, u, v, m: (_ends(b & ~(1 << m.new_vertex), u, v)
                           if b >> m.new_vertex & 1 else (b,)),
    7: lambda b, u, v, m: (b | 1 << m.new_vertex,),
}


def orbit_closure_firsts(items, gens, image):
    """Each item mapped to the first item of its orbit, in the order of
    ``items``, under the group that ``gens`` generate; ``image(sigma,
    x)`` is sigma(x).  Each new item's orbit is closed by a search over
    the generators."""
    first = {}
    for x in items:
        if x in first:
            continue
        first[x] = x
        todo = [x]
        while todo:
            y = todo.pop()
            for sigma in gens:
                z = image(sigma, y)
                if z not in first:
                    first[z] = x
                    todo.append(z)
    return first
