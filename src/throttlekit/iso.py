"""Graph isomorphism and canonical keys from one search.

One individualization-refinement search (McKay & Piperno, "Practical
graph isomorphism II", 2014) gives two answers.  Its least leaf
certificate is ``invariant_key``, a complete canonical key: equal
exactly for isomorphic graphs.  It lists the adjacency rows in the
leaf's vertex order, so a key is itself a labeled graph of its class,
whose own key it is (checked to order 7).  The leaf's order also lets
``find_isomorphism`` map one graph's vertices onto the other's.  The
search is one recursive function that takes the best leaf so far and
returns the new best, so no call leaves a cycle for the collector.
Given a list, the same search also collects the automorphisms it meets
on the way: ``automorphisms`` returns them with the key, and
``orbit_firsts`` picks a representative per orbit of what they act on.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .graph import Graph, bits

_Leaf = tuple[tuple[int, ...], list[int]]  # (certificate, cells in order)


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


def _search(adj: tuple[int, ...], cells: list[int], best: _Leaf | None,
            gens: list[tuple[int, ...]] | None = None) -> _Leaf:
    """The least of ``best`` and the leaves below ``cells``, the first
    of equal certificates winning.  Each vertex of the first smallest
    non-singleton cell is individualized in turn (skipping twins of those
    tried, whose subtrees are automorphic images) and refined again.  A
    leaf's i-th cell is the vertex it puts at position i; its certificate
    is the adjacency rows in that order.

    If ``gens`` is a list, the automorphisms the search meets are
    appended to it, each as the tuple of vertex images: a leaf whose
    certificate equals the best one maps the best leaf's i-th vertex to
    its own, and a twin v skipped for a tried u gives the swap of u and v.
    """
    n = len(adj)
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
        if best is None or cert < best[0]:
            return cert, cells
        if gens is not None and cert == best[0]:
            sigma = [0] * n
            for b, c in zip(best[1], cells):
                sigma[b.bit_length() - 1] = c.bit_length() - 1
            gens.append(tuple(sigma))
        return best
    target = min((c.bit_count(), i) for i, c in enumerate(cells)
                 if c & (c - 1))[1]
    cell = cells[target]
    tried: list[int] = []
    for v in bits(cell):
        for u in tried:
            if adj[v] & ~(1 << u) == adj[u] & ~(1 << v):
                if gens is not None:
                    swap = list(range(n))
                    swap[u], swap[v] = v, u
                    gens.append(tuple(swap))
                break
        else:
            tried.append(v)
            child = cells[:target] + [1 << v, cell ^ (1 << v)] + cells[target + 1:]
            _refine(adj, child, [1 << v])
            best = _search(adj, child, best, gens)
    return best


def _canonical(n: int, adj: tuple[int, ...],
               gens: list[tuple[int, ...]] | None = None) -> _Leaf:
    """The least leaf below the unit partition, refined to equitable."""
    full = (1 << n) - 1
    cells = [full] if n else []
    _refine(adj, cells, [full])
    return _search(adj, cells, None, gens)


def invariant_key(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """A complete canonical key: equal exactly for isomorphic graphs."""
    return _canonical(n, adj)[0]


def automorphisms(n: int, adj: tuple[int, ...]
                  ) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The canonical key and the automorphisms met by the one search
    that finds it, each as the tuple of vertex images; they generate
    the graph's whole automorphism group (checked against networkx on
    every graph to order 7)."""
    gens: list[tuple[int, ...]] = []
    return _canonical(n, adj, gens)[0], gens


def orbit_firsts(items: Iterable[int], gens: Sequence[Sequence[int]]
                 ) -> dict[int, int]:
    """Each item mapped to itself or to an earlier member of its orbit
    under ``gens``, each generator the table of the items' images: an
    item that a generator maps to one already seen takes that one's
    value.  This matched the closure (``tests/oracles.py``) on the
    vertices and edges of every graph to order 8 and the extension masks
    to order 7."""
    first: dict[int, int] = {}
    for x in items:
        for sigma in gens:
            if sigma[x] in first:
                first[x] = first[sigma[x]]
                break
        else:
            first[x] = x
    return first


def _iso_adj(n: int, adj_a: tuple[int, ...], adj_b: tuple[int, ...]) -> tuple[int, ...] | None:
    """Find a label mapping carrying adj_a onto adj_b, or None.

    Equal certificates relabel both graphs to one adjacency, so the
    vertex at each leaf position in adj_a maps to the one there in adj_b.
    """
    key_a, cells_a = _canonical(n, adj_a)
    key_b, cells_b = _canonical(n, adj_b)
    if key_a != key_b:
        return None
    # Sorting the one-vertex masks of adj_a's leaf sorts by vertex.
    return tuple(b.bit_length() - 1 for _, b in sorted(zip(cells_a, cells_b)))


def find_isomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """A vertex bijection mapping g onto h, or None if none exists."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    return _iso_adj(g.n, g.adjacency, h.adjacency)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None
