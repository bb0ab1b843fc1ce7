"""Immutable simple graphs on integer labels, with bitmask vertex sets.

Graphs are value objects: labels are 0..n-1, the adjacency structure is a
tuple of bitmasks, and every derived graph (deletion, contraction,
subdivision, induced subgraph) is a new object, computed from the parent's
adjacency rows, together with a relabeling record.  Everything here is
exact and sized for exhaustive search on small orders; nothing is sampled.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class InvalidVertexError(ValueError):
    """A vertex label outside 0..n-1 was used."""


class MissingEdgeError(ValueError):
    """An operation referenced an edge the graph does not contain."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def unions(parts: Iterable[int]) -> list[int]:
    """The union of ``parts[i]`` over the members i, for every mask:
    the masks from 2^i to 2^(i+1) - 1 are those below 2^i plus i."""
    out = [0]
    for part in parts:
        out += [x | part for x in out]
    return out


def _without_vertex(rows: Iterable[int], x: int) -> list[int]:
    """The rows but row x, less bit x, with the bits above x moved down."""
    low = (1 << x) - 1
    return [r & low | r >> 1 & ~low for w, r in enumerate(rows) if w != x]


def mask_components(adj: tuple[int, ...], sub: int) -> list[int]:
    """Connected components of the subgraph induced on the mask ``sub``.

    Returns one mask per component, ordered by least member.
    """
    comps = []
    rest = sub
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            grown = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                grown |= adj[low.bit_length() - 1]
            frontier = grown & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


class VertexSet:
    """An immutable subset of the vertices of a graph of known order.

    The owning graph's order is carried along so that complements are well
    defined and so that sets from different-order graphs cannot be mixed by
    accident.  Membership is stored as a bitmask over labels 0..order-1.
    """

    __slots__ = ("_order", "_mask")

    def __init__(self, order: int, members: Iterable[int] = ()) -> None:
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        mask = 0
        for v in members:
            if not 0 <= v < order:
                raise InvalidVertexError(
                    f"vertex {v} out of range 0..{order - 1}"
                )
            mask |= 1 << v
        self._order = order
        self._mask = mask

    @classmethod
    def from_mask(cls, order: int, mask: int) -> VertexSet:
        if mask < 0 or mask >> order:
            raise InvalidVertexError(f"mask does not fit order {order}")
        out = cls.__new__(cls)
        out._order = order
        out._mask = mask
        return out

    @property
    def order(self) -> int:
        return self._order

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(bits(self._mask))

    def _check(self, other: VertexSet) -> None:
        if not isinstance(other, VertexSet):
            raise TypeError(f"expected VertexSet, got {type(other).__name__}")
        if other._order != self._order:
            raise ValueError(
                f"vertex sets have different orders "
                f"({self._order} vs {other._order})"
            )

    def union(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet.from_mask(self._order, self._mask | other._mask)

    def intersection(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet.from_mask(self._order, self._mask & other._mask)

    def difference(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet.from_mask(self._order, self._mask & ~other._mask)

    def complement(self) -> VertexSet:
        full = (1 << self._order) - 1
        return VertexSet.from_mask(self._order, full ^ self._mask)

    def issubset(self, other: VertexSet) -> bool:
        self._check(other)
        return self._mask & ~other._mask == 0

    def isdisjoint(self, other: VertexSet) -> bool:
        self._check(other)
        return self._mask & other._mask == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __le__ = issubset
    __invert__ = complement

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return bits(self._mask)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self._order and self._mask >> v & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self._order == other._order and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self._order, self._mask))

    def __repr__(self) -> str:
        inner = ", ".join(str(v) for v in self)
        return f"VertexSet({self._order}, {{{inner}}})"


class VertexMap:
    """A relabeling record from a source graph to a derived graph.

    Every surviving source vertex has exactly one image; deleted vertices
    map to ``None``.  A contraction additionally records the merged pair,
    and a subdivision records the label of the new vertex.
    """

    __slots__ = ("_source_order", "_target_order", "_images", "_merged",
                 "_new_vertex")

    def __init__(
        self,
        source_order: int,
        target_order: int,
        images: Iterable[Optional[int]],
        merged_pair: Optional[tuple[int, int]] = None,
        new_vertex: Optional[int] = None,
    ) -> None:
        images = tuple(images)
        if len(images) != source_order:
            raise ValueError("one image entry required per source vertex")
        for img in images:
            if img is not None and not 0 <= img < target_order:
                raise InvalidVertexError(f"image {img} out of range")
        if merged_pair is not None and new_vertex is not None:
            raise ValueError("a map records a merge or a new vertex, not both")
        self._source_order = source_order
        self._target_order = target_order
        self._images = images
        self._merged = merged_pair
        self._new_vertex = new_vertex

    @property
    def source_order(self) -> int:
        return self._source_order

    @property
    def target_order(self) -> int:
        return self._target_order

    @property
    def merged_pair(self) -> Optional[tuple[int, int]]:
        return self._merged

    @property
    def new_vertex(self) -> Optional[int]:
        return self._new_vertex

    def image(self, v: int) -> Optional[int]:
        if not 0 <= v < self._source_order:
            raise InvalidVertexError(f"vertex {v} out of range")
        return self._images[v]

    def map_set(self, s: VertexSet) -> VertexSet:
        """Image of a source-side set; deleted members are dropped."""
        if s.order != self._source_order:
            raise ValueError("set order does not match the map's source")
        out = 0
        for v in s:
            img = self._images[v]
            if img is not None:
                out |= 1 << img
        return VertexSet.from_mask(self._target_order, out)

    def preimage_set(self, s: VertexSet) -> VertexSet:
        """All source vertices whose image lies in a target-side set."""
        if s.order != self._target_order:
            raise ValueError("set order does not match the map's target")
        out = 0
        for v, img in enumerate(self._images):
            if img is not None and img in s:
                out |= 1 << v
        return VertexSet.from_mask(self._source_order, out)

    def __repr__(self) -> str:
        return (f"VertexMap({self._source_order}->{self._target_order}, "
                f"images={self._images})")


class Graph:
    """An immutable simple undirected graph on labels 0..n-1."""

    __slots__ = ("_n", "_adj", "_is_connected")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"order must be nonnegative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not 0 <= u < n:
                raise InvalidVertexError(f"vertex {u} out of range 0..{n - 1}")
            if not 0 <= v < n:
                raise InvalidVertexError(f"vertex {v} out of range 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._n = n
        self._adj = tuple(adj)
        self._is_connected: Optional[bool] = None

    @classmethod
    def from_adjacency(cls, adj: tuple[int, ...]) -> Graph:
        """Trusted constructor from a prebuilt adjacency mask tuple."""
        g = cls.__new__(cls)
        g._n = len(adj)
        g._adj = adj
        g._is_connected = None
        return g

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def adjacency(self) -> tuple[int, ...]:
        """Neighborhood bitmask of each vertex, indexed by label."""
        return self._adj

    @property
    def full_mask(self) -> int:
        return (1 << self._n) - 1

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in range(self._n):
            higher = self._adj[u] >> (u + 1) << (u + 1)
            for v in bits(higher):
                out.append((u, v))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self._adj[u] >> v & 1 == 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise InvalidVertexError(f"vertex {v} out of range 0..{self._n - 1}")

    def _check_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise MissingEdgeError(f"edge ({u}, {v}) is not in the graph")

    def neighborhood(self, v: int, closed: bool = False) -> VertexSet:
        self._check_vertex(v)
        m = self._adj[v]
        if closed:
            m |= 1 << v
        return VertexSet.from_mask(self._n, m)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v].bit_count()

    def is_universal(self, v: int) -> bool:
        """True when v is adjacent to every other vertex."""
        self._check_vertex(v)
        return self._adj[v] == self.full_mask ^ (1 << v)

    def has_universal_vertex(self) -> bool:
        return any(self.is_universal(v) for v in range(self._n))

    def isolated_vertices(self) -> VertexSet:
        m = 0
        for v in range(self._n):
            if self._adj[v] == 0:
                m |= 1 << v
        return VertexSet.from_mask(self._n, m)

    def vertex_set(self, members: Optional[Iterable[int]] = None) -> VertexSet:
        if members is None:
            return VertexSet.from_mask(self._n, self.full_mask)
        return VertexSet(self._n, members)

    def components(self) -> list[VertexSet]:
        """Connected components, ordered by least member label."""
        return [VertexSet.from_mask(self._n, m)
                for m in mask_components(self._adj, self.full_mask)]

    def is_connected(self) -> bool:
        if self._is_connected is None:
            self._is_connected = len(mask_components(self._adj, self.full_mask)) <= 1
        return self._is_connected

    def induced_subgraph(self, members: Iterable[int] | VertexSet) -> tuple[Graph, VertexMap]:
        """Subgraph induced on a vertex subset, relabeled compactly.

        Surviving vertices keep their relative order: the i-th smallest
        member becomes label i.
        """
        if isinstance(members, VertexSet):
            if members.order != self._n:
                raise ValueError("set order does not match the graph")
        else:
            members = VertexSet(self._n, sorted(set(members)))
        rows = list(self._adj)
        for x in reversed((~members).members):  # top down: lower labels hold
            rows = _without_vertex(rows, x)
        images: list[Optional[int]] = [None] * self._n
        for i, v in enumerate(members):
            images[v] = i
        return (Graph.from_adjacency(tuple(rows)),
                VertexMap(self._n, len(rows), images))

    def delete_vertex(self, x: int) -> tuple[Graph, VertexMap]:
        self._check_vertex(x)
        return self.induced_subgraph(
            VertexSet.from_mask(self._n, self.full_mask ^ 1 << x))

    def delete_edge(self, u: int, v: int) -> Graph:
        self._check_edge(u, v)
        rows = list(self._adj)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        return Graph.from_adjacency(tuple(rows))

    def contract_edge(self, u: int, v: int) -> tuple[Graph, VertexMap]:
        """Merge the endpoints of an edge; loops and parallels are suppressed.

        The merged vertex takes the compacted slot of min(u, v); all labels
        above max(u, v) shift down by one.
        """
        self._check_edge(u, v)
        keep, drop = min(u, v), max(u, v)
        rows = [r | 1 << keep if r >> drop & 1 else r for r in self._adj]
        rows[keep] = (rows[keep] | rows[drop]) & ~(1 << keep)
        images = [x - 1 if x > drop else x for x in range(self._n)]
        images[drop] = keep
        return (
            Graph.from_adjacency(tuple(_without_vertex(rows, drop))),
            VertexMap(self._n, self._n - 1, images, merged_pair=(keep, drop)),
        )

    def subdivide_edge(self, u: int, v: int) -> tuple[Graph, VertexMap]:
        """Replace an edge by a path of length two through a new vertex n."""
        self._check_edge(u, v)
        z = self._n
        rows = list(self._adj) + [1 << u | 1 << v]
        rows[u] ^= 1 << v | 1 << z
        rows[v] ^= 1 << u | 1 << z
        return (
            Graph.from_adjacency(tuple(rows)),
            VertexMap(self._n, self._n + 1, range(self._n), new_vertex=z),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._n, self._adj))

    def __repr__(self) -> str:
        es = self.edges()
        shown = ", ".join(f"({u},{v})" for u, v in es[:12])
        if len(es) > 12:
            shown += ", ..."
        return f"Graph(n={self._n}, edges=[{shown}])"
