"""Graph isomorphism and canonical keys for small orders.

``invariant_key`` is a complete canonical key found by
individualization-refinement (McKay & Piperno, "Practical graph
isomorphism II", 2014): two graphs get equal keys exactly when they are
isomorphic.  ``find_isomorphism`` keeps a backtracking search pruned by
a degree-refinement coloring, which stops at the first map it finds.
Everything is dependency-free and meant for graphs of at most about ten
vertices; enumeration and tests stay within that range.
"""

from __future__ import annotations

from .graph import Graph, bits


def refined_colors(n: int, adj: tuple[int, ...],
                   ids: dict[tuple, int]) -> tuple[int, ...]:
    """Iterated neighborhood-degree coloring, run to a fixed class count.

    Colors are interned in ``ids``; share one table between the graphs
    whose colors are compared.
    """
    def intern(term: tuple) -> int:
        return ids.setdefault(term, len(ids))

    colors = [intern(("deg", adj[v].bit_count())) for v in range(n)]
    distinct = len(set(colors))
    for _ in range(n):
        colors = [
            intern((colors[v], tuple(sorted(colors[w] for w in bits(adj[v])))))
            for v in range(n)
        ]
        now = len(set(colors))
        if now == distinct:
            break
        distinct = now
    return tuple(colors)


def _refine(adj: tuple[int, ...], cells: list[int], queue: list[int]) -> None:
    """Refine the ordered partition ``cells`` (vertex masks) in place.

    Each cell is split by how many neighbours its vertices have in a
    splitter taken from ``queue``; the sub-cells replace it in
    increasing order of that count and join the queue.  From the unit
    partition with the whole vertex set queued, or from an equitable
    partition with one vertex split off and queued, the result is
    equitable.  Every step depends only on the structure, so relabeling
    the graph relabels the result.
    """
    n = len(adj)
    while queue and len(cells) < n:
        splitter = queue.pop()
        if splitter & (splitter - 1) == 0:
            # One vertex: the counts are 0 and 1, so each cell splits
            # into its non-neighbours and its neighbours of that vertex.
            near = adj[splitter.bit_length() - 1]
            i = 0
            while i < len(cells):
                cell = cells[i]
                inside = cell & near
                if inside and inside != cell:
                    cells[i:i + 1] = [cell ^ inside, inside]
                    queue += [cell ^ inside, inside]
                    i += 2
                else:
                    i += 1
            continue
        i = 0
        while i < len(cells):
            cell = cells[i]
            if cell & (cell - 1):
                groups: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    rest ^= low
                    count = (adj[low.bit_length() - 1] & splitter).bit_count()
                    groups[count] = groups.get(count, 0) | low
                if len(groups) > 1:
                    parts = [groups[c] for c in sorted(groups)]
                    cells[i:i + 1] = parts
                    queue.extend(parts)
                    i += len(parts)
                    continue
            i += 1


def invariant_key(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """A complete canonical key: equal exactly for isomorphic graphs.

    The unit partition is refined to an equitable one; the search then
    individualizes each vertex of the first smallest non-singleton cell
    in turn (skipping twins of vertices already tried there, whose
    subtrees are images under an automorphism) and refines again, down
    to discrete partitions.  Each such leaf orders the vertices; the key
    is the least leaf certificate, the adjacency rows under that order.
    """
    best: tuple[int, ...] | None = None

    def search(cells: list[int]) -> None:
        nonlocal best
        if len(cells) == n:
            image = [0] * n
            for i, cell in enumerate(cells):
                image[cell.bit_length() - 1] = 1 << i
            rows = []
            for cell in cells:
                row = 0
                rest = adj[cell.bit_length() - 1]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row |= image[low.bit_length() - 1]
                rows.append(row)
            cert = tuple(rows)
            if best is None or cert < best:
                best = cert
            return
        target = min((c.bit_count(), i) for i, c in enumerate(cells)
                     if c & (c - 1))[1]
        cell = cells[target]
        tried: list[int] = []
        for v in bits(cell):
            if any(adj[v] & ~(1 << u) == adj[u] & ~(1 << v) for u in tried):
                continue
            tried.append(v)
            child = cells[:target] + [1 << v, cell ^ (1 << v)] + cells[target + 1:]
            _refine(adj, child, [1 << v])
            search(child)

    full = (1 << n) - 1
    cells = [full] if n else []
    _refine(adj, cells, [full])
    search(cells)
    return best


def _iso_adj(n: int, adj_a: tuple[int, ...], adj_b: tuple[int, ...]) -> tuple[int, ...] | None:
    """Find a label mapping carrying adj_a onto adj_b, or None."""
    ids: dict[tuple, int] = {}
    colors_a = refined_colors(n, adj_a, ids)
    colors_b = refined_colors(n, adj_b, ids)
    if sorted(colors_a) != sorted(colors_b):
        return None

    class_size: dict[int, int] = {}
    for c in colors_a:
        class_size[c] = class_size.get(c, 0) + 1
    order = sorted(range(n), key=lambda v: (class_size[colors_a[v]], colors_a[v], v))
    candidates = {
        v: [w for w in range(n) if colors_b[w] == colors_a[v]] for v in order
    }

    mapping: list[int] = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for j in range(i):
                p = order[j]
                if (adj_a[v] >> p & 1) != (adj_b[w] >> mapping[p] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    if extend(0):
        return tuple(mapping)
    return None


def find_isomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """A vertex bijection mapping g onto h, or None if none exists."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    return _iso_adj(g.n, g.adjacency, h.adjacency)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None
