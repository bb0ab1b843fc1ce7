"""Graph generators, named fixtures, and small-order enumeration.

Alongside the classical families (paths, stars, coronas, books, ...)
this module ships a catalog of small named graphs transcribed once from
figures into edge-list data files, loadable by name.  A tiny expression
language ("spider:2,2,1,1", "fig4_twin/dv:x") builds any of them plus
derived graphs on the command line and in the bundled claim catalog.
The language is declared once: ``_FORMS`` holds every parametric form
with its argument spec and builder, ``_ATOMS`` the short names (P4, K3,
...), and ``OPERATIONS`` every surgery suffix with its builder.  The
parser, the catalog listing and the CLI read those tables; the surgery
suites build through ``OPERATIONS`` too.  Integers and numeric vertex
references are ASCII decimal digits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import combinations
from typing import Iterable, Iterator

from .graph import Graph, VertexMap, unions
from .graphio import read_edge_list
from .iso import automorphisms, invariant_key, orbit_firsts

MAX_ENUMERATION_ORDER = 9

STATIC_FIXTURES = (
    "fig1_base",
    "fig2_spider_plus_e",
    "fig3_H1",
    "fig3_H2",
    "fig3_H3",
    "fig4_twin",
    "fig5_K2corona",
    "fig6_legs5_plus_e",
    "ex3_7_H",
    "fig7_subdiv",
)


@dataclass(frozen=True, eq=False)
class Fixture:
    """A graph together with its named vertices and edges."""

    graph: Graph
    vertices: dict[str, int] = field(default_factory=dict)
    edges: dict[str, tuple[int, int]] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)


def _positive(n: int, what: str) -> None:
    if n < 1:
        raise ValueError(f"{what} must be at least 1, got {n}")


def path(n: int) -> Graph:
    """The path on n vertices, labeled along the path."""
    _positive(n, "path order")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle order must be at least 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    _positive(n, "complete graph order")
    return Graph(n, combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    _positive(n, "empty graph order")
    return Graph(n)


def star(n: int) -> Graph:
    """The star on n vertices: center 0 joined to n-1 leaves."""
    _positive(n, "star order")
    return Graph(n, [(0, v) for v in range(1, n)])


def spider(leg_lengths: Iterable[int]) -> tuple[Graph, int]:
    """A center vertex with one path leg per entry; returns (graph, center).

    Leg vertices are labeled consecutively outward, one leg at a time.
    """
    legs = list(leg_lengths)
    if len(legs) < 3:
        raise ValueError(f"a spider needs at least 3 legs, got {len(legs)}")
    if any(a < 1 for a in legs):
        raise ValueError("every leg length must be at least 1")
    edges = []
    label = 1
    for a in legs:
        prev = 0
        for _ in range(a):
            edges.append((prev, label))
            prev = label
            label += 1
    return Graph(label, edges), 0


def corona(h: Graph, r: int) -> Graph:
    """Attach r new leaves to every vertex of h (the corona with r K_1's)."""
    _positive(r, "leaf count")
    if h.n < 1:
        raise ValueError("corona base must have at least one vertex")
    edges = list(h.edges())
    for v in range(h.n):
        for j in range(r):
            edges.append((v, h.n + v * r + j))
    return Graph(h.n * (1 + r), edges)


def matched_sum(g1: Graph, g2: Graph,
                matching: Iterable[tuple[int, int]]) -> Graph:
    """Disjoint union of two equal-order graphs joined by a perfect matching.

    ``matching`` pairs labels of g1 with labels of g2; the result keeps
    g1's labels and shifts g2's labels up by g1's order.
    """
    if g1.n != g2.n:
        raise ValueError(f"orders differ: {g1.n} vs {g2.n}")
    _positive(g1.n, "matched sum half order")
    pairs = list(matching)
    if len(pairs) != g1.n:
        raise ValueError(f"matching must have exactly {g1.n} edges")
    left = [u for u, _ in pairs]
    right = [v for _, v in pairs]
    if sorted(left) != list(range(g1.n)) or sorted(right) != list(range(g2.n)):
        raise ValueError("matching must saturate every vertex on both sides")
    edges = list(g1.edges())
    edges += [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    edges += [(u, v + g1.n) for u, v in pairs]
    return Graph(2 * g1.n, edges)


def matched_complete(r: int) -> Fixture:
    """Two copies of K_r joined by the identity matching."""
    _positive(r, "clique order")
    g = matched_sum(complete(r), complete(r), [(i, i) for i in range(r)])
    edges = {f"m{i + 1}": (i, i + r) for i in range(r)}
    return Fixture(g, vertices={}, edges=edges, meta={"name": f"matched_complete:{r}"})


def book(k: int) -> tuple[Graph, tuple[int, int]]:
    """The Cartesian product of a k-leaf star with one edge.

    Two star copies (centers 0 and k+1) with matched vertices joined;
    returns the graph and the center-to-center spine edge.
    """
    _positive(k, "page count")
    edges = [(0, i) for i in range(1, k + 1)]
    edges += [(k + 1, k + 1 + i) for i in range(1, k + 1)]
    edges += [(i, i + k + 1) for i in range(k + 1)]
    return Graph(2 * k + 2, edges), (0, k + 1)


def family_6n7(h: Graph, force: bool = False) -> Fixture:
    """Pendant-extended host family with order 7k for a 2k-vertex host.

    Every host vertex receives two pendant leaves, and the second leaf of
    each of the first k host vertices receives one further leaf.
    """
    if h.n < 2 or h.n % 2:
        raise ValueError(f"host order must be even and positive, got {h.n}")
    if not force and not h.is_connected():
        raise ValueError("host graph must be connected (pass force to override)")
    k = h.n // 2
    edges = list(h.edges())
    names: dict[str, int] = {}
    for i in range(2 * k):
        names[f"v{i + 1}"] = i
        first, second = 2 * k + 2 * i, 2 * k + 2 * i + 1
        edges += [(i, first), (i, second)]
        names[f"u{i + 1}_1"] = first
        names[f"u{i + 1}_2"] = second
    for i in range(k):
        deep = 6 * k + i
        edges.append((names[f"u{i + 1}_2"], deep))
        names[f"u{i + 1}_3"] = deep
    return Fixture(Graph(7 * k, edges), vertices=names,
                   meta={"name": "family_6n7", "host_order": str(2 * k)})


def ex11_57(h: Graph) -> Fixture:
    """Double-leaf corona of a connected host with one extra pendant.

    Every host vertex gets two leaves, then one more leaf is appended to
    the first leaf of host vertex 0.
    """
    if h.n < 2:
        raise ValueError(f"host order must be at least 2, got {h.n}")
    if not h.is_connected():
        raise ValueError("host graph must be connected")
    g = corona(h, 2)
    extra = g.n
    edges = list(g.edges()) + [(h.n, extra)]
    return Fixture(Graph(g.n + 1, edges),
                   vertices={"ell": h.n, "tip": extra},
                   meta={"name": "ex11_57", "host_order": str(h.n)})


def star_plus_edge(n: int) -> Fixture:
    """A star on n vertices with one extra edge between two leaves."""
    if n < 3:
        raise ValueError(f"order must be at least 3, got {n}")
    g = star(n)
    edges = list(g.edges()) + [(1, 2)]
    return Fixture(Graph(n, edges), vertices={"c": 0},
                   edges={"e": (1, 2)}, meta={"name": "star_plus_edge"})


def corona_tower(h: Graph) -> Fixture:
    """Two stacked single-leaf coronas of a connected host, plus a dome.

    The dome vertex u is joined to everything else, so the result has a
    universal vertex and order 4r+1 for a host of order r.
    """
    if h.n < 1:
        raise ValueError("host graph must have at least one vertex")
    if not h.is_connected():
        raise ValueError("host graph must be connected")
    g = corona(corona(h, 1), 1)
    u = g.n
    edges = list(g.edges()) + [(v, u) for v in range(g.n)]
    return Fixture(Graph(g.n + 1, edges), vertices={"u": u},
                   meta={"name": "corona_tower"})


@lru_cache(maxsize=None)
def _load_static_fixture(name: str) -> Fixture:
    text = (resources.files("throttlekit") / "data" / f"{name}.txt").read_text()
    graphs = list(read_edge_list(text))
    if len(graphs) != 1:
        raise ValueError(f"fixture file {name} must hold exactly one graph")
    vertices: dict[str, int] = {}
    edges: dict[str, tuple[int, int]] = {}
    meta: dict[str, str] = {"name": name}
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("#"):
            continue
        parts = line[1:].split()
        if len(parts) == 3 and parts[0] == "vertex":
            vertices[parts[1]] = int(parts[2])
        elif len(parts) == 4 and parts[0] == "edge":
            edges[parts[1]] = (int(parts[2]), int(parts[3]))
        elif len(parts) == 2 and parts[0].endswith(":"):
            meta[parts[0][:-1]] = parts[1]
    return Fixture(graphs[0], vertices=vertices, edges=edges, meta=meta)


def fixture(name: str) -> Fixture:
    """Load a named static fixture from its committed edge-list file."""
    if name not in STATIC_FIXTURES:
        raise ValueError(
            f"unknown fixture {name!r}; static fixtures are "
            f"{', '.join(STATIC_FIXTURES)}"
        )
    return _load_static_fixture(name)


# ---------------------------------------------------------------------------
# expression language


_DIGITS = re.compile(r"[0-9]+")
# The largest integer argument an expression may give.  Orders and sizes
# far below it are already beyond exhaustive search; the limit only
# stops a generator from allocating without bound.
MAX_ARGUMENT = 1000
_ATOMS = {"K": "complete", "P": "path", "C": "cycle", "E": "empty"}
_ATOM = re.compile(f"([{''.join(_ATOMS)}])([0-9]+)")


def _spider(*legs: int) -> Fixture:
    g, center = spider(legs)
    return Fixture(g, vertices={"c": center})


def _book(k: int) -> Fixture:
    g, spine = book(k)
    return Fixture(g, vertices={"c1": spine[0], "c2": spine[1]},
                   edges={"e": spine})


# head -> (argument spec, builder); in a spec, H is a graph argument,
# every other name an integer, and "a1,a2,..." any number of integers.
_FORMS = {
    "path": ("n", lambda n: Fixture(path(n))),
    "cycle": ("n", lambda n: Fixture(cycle(n))),
    "complete": ("n", lambda n: Fixture(complete(n))),
    "empty": ("n", lambda n: Fixture(empty_graph(n))),
    "star": ("n", lambda n: Fixture(star(n), vertices={"c": 0})),
    "spider": ("a1,a2,...", _spider),
    "corona": ("H,r", lambda h, r: Fixture(corona(h, r))),
    "book": ("k", _book),
    "family_6n7": ("H", family_6n7),
    "matched_complete": ("r", matched_complete),
    "ex11_57": ("H", ex11_57),
    "star_plus_edge": ("n", star_plus_edge),
    "corona_tower": ("H", corona_tower),
}

PARAMETRIC_FIXTURES = tuple(f"{name}:{spec}"
                            for name, (spec, _) in _FORMS.items())


def _add_edge(g: Graph, u: int, v: int) -> tuple[Graph, None]:
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) already present")
    return Graph(g.n, list(g.edges()) + [(u, v)]), None


# suffix -> (reference it takes, description, build): build(g, u, v)
# gives the operated graph and its VertexMap, or None where no label
# moves (v is None for a V reference).  Each build looks the method up
# on g when it runs, so a wrapper on the Graph class sees every surgery.
OPERATIONS = {
    "dv": ("V", "delete vertex, e.g. fig4_twin/dv:x",
           lambda g, u, v: g.delete_vertex(u)),
    "de": ("E", "delete edge, e.g. fig3_H1/de:e",
           lambda g, u, v: (g.delete_edge(u, v), None)),
    "ae": ("U-W", "add edge, e.g. matched_complete:3/ae:0-4", _add_edge),
    "ce": ("E", "contract edge, e.g. fig5_K2corona/ce:e",
           lambda g, u, v: g.contract_edge(u, v)),
    "se": ("E", "subdivide edge, e.g. fig7_subdiv/se:e",
           lambda g, u, v: g.subdivide_edge(u, v)),
}


def _number(name: str, token: str) -> int:
    if not _DIGITS.fullmatch(token):
        raise ValueError(f"{name} takes integer arguments, got {token!r}")
    # Leading zeros are stripped first, so a long token is refused
    # before it is converted.
    digits = token.lstrip("0") or "0"
    if len(digits) > len(str(MAX_ARGUMENT)) or int(digits) > MAX_ARGUMENT:
        raise ValueError(f"{name} takes integer arguments up to "
                         f"{MAX_ARGUMENT}, got {token}")
    return int(digits)


def _graph_arg(token: str) -> Graph:
    if _ATOM.fullmatch(token) or token in STATIC_FIXTURES:
        return _build_term(token).graph
    raise ValueError(f"cannot interpret {token!r} as a graph argument")


def _build_term(term: str) -> Fixture:
    name, _, argstr = (part.strip() for part in term.partition(":"))
    if name in STATIC_FIXTURES:
        if argstr:
            raise ValueError(f"fixture {name} takes no arguments")
        return fixture(name)
    atom = _ATOM.fullmatch(name)
    if atom:
        if argstr:
            raise ValueError(f"{name} takes no arguments")
        form, argstr, label = _ATOMS[atom[1]], atom[2], name
    else:
        form, label = name, term
    if form not in _FORMS:
        raise ValueError(f"unknown graph name {name!r}")
    spec, build = _FORMS[form]
    if not argstr:
        raise ValueError(f"{form} needs arguments")
    tokens = [tok.strip() for tok in argstr.split(",")]
    kinds = spec.split(",")
    if kinds[-1] == "...":
        kinds = kinds[:1] * len(tokens)
    elif len(tokens) != len(kinds):
        raise ValueError(
            f"{form} takes {len(kinds)} argument(s), got {len(tokens)}")
    fx = build(*(_graph_arg(tok) if kind == "H" else _number(form, tok)
                 for kind, tok in zip(kinds, tokens)))
    fx.meta.setdefault("name", label)
    return fx


def _resolve_vertex(fx: Fixture, ref: str) -> int:
    if ref in fx.vertices:
        return fx.vertices[ref]
    if _DIGITS.fullmatch(ref):
        return int(ref)
    raise ValueError(f"unknown vertex reference {ref!r}")


def _resolve_pair(fx: Fixture, ref: str) -> tuple[int, int]:
    # Names such as z_0-1 hold a dash themselves, so ``u-v`` is split at
    # the one dash whose two sides both name vertices.
    pairs = []
    for i, ch in enumerate(ref):
        if ch != "-":
            continue
        try:
            pairs.append((_resolve_vertex(fx, ref[:i].strip()),
                          _resolve_vertex(fx, ref[i + 1:].strip())))
        except ValueError:
            pass
    if not pairs:
        raise ValueError(f"unknown edge reference {ref!r}: no dash splits "
                         "it into two vertex references")
    if len(pairs) > 1:
        raise ValueError(f"ambiguous edge reference {ref!r}: it splits "
                         f"into {len(pairs)} vertex pairs")
    return pairs[0]


def _resolve_edge(fx: Fixture, ref: str) -> tuple[int, int]:
    return fx.edges[ref] if ref in fx.edges else _resolve_pair(fx, ref)


def _remap_names(fx: Fixture, g: Graph, vmap: VertexMap) -> Fixture:
    vertices = {}
    for name, v in fx.vertices.items():
        img = vmap.image(v)
        if img is not None:
            vertices[name] = img
    edges = {}
    for name, (u, v) in fx.edges.items():
        iu, iv = vmap.image(u), vmap.image(v)
        if iu is None or iv is None or iu == iv:
            continue
        if g.has_edge(iu, iv):
            edges[name] = (iu, iv)
    return Fixture(g, vertices=vertices, edges=edges, meta=dict(fx.meta))


def _apply_op(fx: Fixture, spec: str) -> Fixture:
    op, _, ref = spec.partition(":")
    op = op.strip()
    ref = ref.strip()
    if op not in OPERATIONS:
        raise ValueError(f"unknown graph operation {op!r} "
                         f"(use {'/'.join(OPERATIONS)})")
    kind, _, build = OPERATIONS[op]
    if kind == "V":
        u, v = _resolve_vertex(fx, ref), None
    else:
        u, v = (_resolve_edge if kind == "E" else _resolve_pair)(fx, ref)
    g, vmap = build(fx.graph, u, v)
    out = _remap_names(fx, g, vmap or VertexMap(g.n, g.n, range(g.n)))
    # Only the names an operation creates are its own.
    if op == "ce":
        out.vertices[f"y_{ref}"] = vmap.image(u)
    elif op == "se":
        out.vertices[f"z_{ref}"] = vmap.new_vertex
    elif op == "ae":
        out.edges[ref if ref not in out.edges else f"added_{ref}"] = (u, v)
    return out


def parse_graph_expression(expr: str) -> Fixture:
    """Build a graph from an expression like ``fig4_twin/dv:x``.

    The head names a fixture or generator (with ``:``-separated args);
    each ``/op:ref`` suffix applies a vertex deletion (dv), edge deletion
    (de), edge addition (ae), contraction (ce), or subdivision (se).
    """
    parts = [p.strip() for p in expr.split("/")]
    fx = _build_term(parts[0])
    for spec in parts[1:]:
        fx = _apply_op(fx, spec)
    return fx


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def _iso_classes(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, by vertex extension.

    The candidates are each representative of order n - 1, in order,
    joined to a new vertex n - 1 by every neighbour mask in ascending
    order; the first candidate of each isomorphism class is kept, so
    the representatives, their labels and their order are fixed.

    A mask m that a generator sigma of the parent's automorphisms maps
    lower is not an ``iso.orbit_firsts`` representative and is never
    keyed: the candidate for sigma(m) is isomorphic to m's and comes
    earlier, so m cannot be the first of its class.
    """
    if n == 1:
        return (Graph(1),)
    out: list[Graph] = []
    seen: set[tuple[int, ...]] = set()
    for parent in _iso_classes(n - 1):
        base = parent.adjacency
        images = [unions([1 << w for w in sigma])
                  for sigma in automorphisms(n - 1, base)[1]]
        for mask, rep in orbit_firsts(range(1 << (n - 1)), images).items():
            if rep != mask:
                continue
            adj = tuple(
                base[v] | ((mask >> v & 1) << (n - 1)) for v in range(n - 1)
            ) + (mask,)
            key = invariant_key(n, adj)
            if key in seen:
                continue
            seen.add(key)
            out.append(Graph.from_adjacency(adj))
    return tuple(out)


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Stream one representative per isomorphism class of order n,
    optionally connected only, in a fixed discovery order."""
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError(
            f"order must be between 1 and {MAX_ENUMERATION_ORDER}, got {n}"
        )
    for g in _iso_classes(n):
        if not connected_only or g.is_connected():
            yield g
