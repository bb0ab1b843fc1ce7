"""Property suites: documented facts checked over enumerated graphs.

Each suite expands one statement into per-graph cases.  ``SUITES``
declares every suite once: its runner, its records' check text, the
graphs it covers and the payload variants per graph.  A case is a
picklable ``(case_id, suite_name, payload)`` triple so a worker pool can
execute cases in any order; payloads carry graphs as graph6 text.

``run_case`` is the one place that parses a case's graph and writes its
record.  A runner is a pure check: given the graph and the payload, it
returns its violation strings and the record's computed text, or None
for the default "ok" / "N violation(s)".  The check text is formatted
with the payload, so ``{rule}`` and ``{item}`` name the variant.  A
runner that raises, an unknown suite and unparsable graph6 text each
give a failing record whose check is the suite name.
Failing records always include a witness precise enough to replay the
violation with the ``compute`` command.

The surgery suites (``prop3.2``, ``prop3.12``) read throttling values
by isomorphism class from ``_class_value``, a cached pure function of
the canonical key, which is itself a labeled graph of its class.  It
holds values only: the colex-least witness depends on the labeling.
Within a case, one canonical search of the graph gives its key and its
automorphism generators; only the operations on ``iso.orbit_firsts``
representatives are built and keyed, and the others reuse their keys.

``lemma3.1`` lifts start sets by table: each item gives the best time
on the other graph for every start set at once, reading tables of the
operation's preimage or image of all 2^n sets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .graph import Graph, VertexMap, VertexSet, bits, mask_components, unions
from .graphio import format_graph6, parse_graph6
from .families import MAX_ENUMERATION_ORDER, OPERATIONS, enumerate_graphs
from .iso import automorphisms, invariant_key, orbit_firsts
from .forcing import (
    Rule,
    _psd_step,
    _standard_step,
    forcing_number,
    pt_table,
)
from .domination import (
    domination_number,
    edge_maximum_dominating_sets,
    external_private_neighbors,
    optimal_dominating_sets,
)
from .throttling import (
    ThrottleKind,
    is_matched_sum,
    one_step_forcing_number,
    throttling_number,
)
from .constructive import power_domination_certificate

Case = tuple[str, str, dict]
# A runner's violations and its computed text (None: "ok" or the count).
Outcome = tuple[list[str], Optional[str]]

_PD = Rule.POWER_DOMINATION
_PSD = Rule.PSD
_ZF = Rule.STANDARD
_SUM = ThrottleKind.SUM
_X = ThrottleKind.PRODUCT_INITIAL_COST
_STAR = ThrottleKind.PRODUCT_NO_INITIAL_COST

# Violations beyond this many are counted but not spelled out.
_WITNESS_CAP = 4

# Guard for the choice-function product in the isolation check; the
# private neighborhoods are disjoint, so for n <= 9 the true product
# never comes close.
_CHOICE_CAP = 4096


def _fmt(mask: int) -> str:
    return "{" + ",".join(str(v) for v in bits(mask)) + "}"


def _record(case_id: str, g6: str, check: str, violations: list[str],
            computed: Optional[str]) -> dict:
    passed = not violations
    if computed is None:
        computed = "ok" if passed else f"{len(violations)} violation(s)"
    return {
        "id": case_id,
        "graph6": g6,
        "check": check,
        "expected": "no violation",
        "computed": computed,
        "passed": passed,
        "witness": None if passed else "; ".join(violations[:_WITNESS_CAP]),
    }


@lru_cache(maxsize=1 << 16)
def _class_value(key: tuple[int, ...], rule: Rule,
                 kind: ThrottleKind) -> Optional[int]:
    """Throttling value of the class keyed ``key``, None where undefined.

    The key's rows form a graph of the class, solved here relabeled
    v -> n-1-v.  Refinement puts the cells of fewest neighbours first, so
    the reversal hands the low labels, which the colex scans try first,
    to the last cells; over the classes the two suites solve to order 7
    that takes 1,171,414 ``_pt`` calls, against 1,592,471 unreversed."""
    top = len(key) - 1
    rows = tuple(sum(1 << (top - w) for w in bits(row))
                 for row in reversed(key))
    try:
        return throttling_number(rule, kind, Graph.from_adjacency(rows)).value
    except ValueError:
        return None


# --- runners -----------------------------------------------------------

def _run_half_order_domination(g: Graph, payload: dict) -> Outcome:
    gamma, d = domination_number(g)
    violations = []
    if 2 * gamma > g.n:
        violations.append(f"gamma={gamma} > n/2 with n={g.n}, "
                          f"minimum set {_fmt(d.mask)}")
    return violations, f"gamma={gamma}"


def _run_edge_max_epn(g: Graph, payload: dict) -> Outcome:
    violations = []
    for d in edge_maximum_dominating_sets(g):
        for v in d:
            if not external_private_neighbors(g, d, v):
                violations.append(f"D={_fmt(d.mask)}: member {v} has no "
                                  "external private neighbor")
    return violations, None


def _run_epn_removal(g: Graph, payload: dict) -> Outcome:
    violations = []
    adj = g.adjacency
    for d in optimal_dominating_sets(g):
        options = []
        for v in d:
            epn = external_private_neighbors(g, d, v).members
            if not epn:
                options = None
                violations.append(f"optimal D={_fmt(d.mask)}: member {v} "
                                  "has no external private neighbor")
                break
            options.append(epn)
        if options is None:
            continue
        for choice in itertools.islice(itertools.product(*options),
                                       _CHOICE_CAP):
            kept = g.full_mask & ~g.vertex_set(choice).mask
            iso = sum(1 << w for w in bits(kept) if not adj[w] & kept)
            if iso:
                violations.append(f"D={_fmt(d.mask)}, removing {choice} "
                                  f"isolates {_fmt(iso)}")
    return violations, None


def _run_product_six_sevenths(g: Graph, payload: dict) -> Outcome:
    n = g.n
    violations = []
    cert = power_domination_certificate(g, _X)
    if cert.propagation_time > 2:
        violations.append(f"certificate propagation time "
                          f"{cert.propagation_time} > 2 "
                          f"(branch {cert.branch})")
    if 7 * cert.value > 6 * n:
        violations.append(f"certificate value {cert.value} > 6n/7, n={n}, "
                          f"set {_fmt(cert.power_set.mask)}")
    exact = throttling_number(_PD, _X, g)
    if exact.value > cert.value:
        violations.append(f"exhaustive value {exact.value} exceeds "
                          f"certificate value {cert.value}")
    if 7 * exact.value > 6 * n:
        violations.append(f"exhaustive value {exact.value} > 6n/7, n={n}, "
                          f"witness {_fmt(exact.witness.mask)}")
    if 7 * exact.value == 6 * n:
        gamma, _ = domination_number(g)
        if 7 * gamma != 3 * n:
            violations.append(f"value 6n/7 attained but gamma={gamma} "
                              f"!= 3n/7, n={n}")
    return violations, (f"certificate={cert.value} ({cert.branch}), "
                        f"exact={exact.value}")


def _run_sum_third_plus_two(g: Graph, payload: dict) -> Outcome:
    n = g.n
    bound = n // 3 + 2
    violations = []
    cert = power_domination_certificate(g, _SUM)
    if cert.value > bound:
        violations.append(f"certificate value {cert.value} > floor(n/3)+2="
                          f"{bound}, set {_fmt(cert.power_set.mask)}")
    exact = throttling_number(_PD, _SUM, g)
    if exact.value > cert.value:
        violations.append(f"exhaustive value {exact.value} exceeds "
                          f"certificate value {cert.value}")
    if exact.value > bound:
        violations.append(f"exhaustive value {exact.value} > {bound}, "
                          f"witness {_fmt(exact.witness.mask)}")
    return violations, (f"certificate={cert.value} ({cert.branch}), "
                        f"exact={exact.value}")


_DOING = {"de": "deleting ({u},{v})", "ce": "contracting ({u},{v})",
          "se": "subdividing ({u},{v})", "dv": "deleting vertex {u}"}


def _operations(g: Graph, kinds: tuple = ("de", "ce", "se", "dv"),
                gens: Sequence[tuple[int, ...]] = ()) -> list:
    """Each local operation of the given kinds on g.

    Every operated graph is built through ``families.OPERATIONS``, as
    the expression parser builds its ``/<kind>:<ref>`` suffixes.
    Entries are ``(kind, u, v, H, vmap)``: per edge (u, v) in order its
    deletion ("de", vmap None), contraction ("ce") and subdivision
    ("se"), then each vertex deletion ("dv", u the vertex, v None) when
    g has at least two vertices.

    Given automorphisms ``gens`` of g, only the operations on the
    ``iso.orbit_firsts`` representatives of the edges and vertices, as
    vertex masks under each generator's ``graph.unions`` table, are
    built.  Each other site's representative is an earlier site in the
    same orbit, so an automorphism maps its graph onto the
    representative's: it keeps its place and its own (u, v) but shares
    that H, with vmap None, since H's map names the other site's labels.
    """
    sites = [(op, (u, v), 1 << u | 1 << v) for u, v in g.edges()
             for op in ("de", "ce", "se") if op in kinds]
    if "dv" in kinds and g.n >= 2:
        sites += [("dv", (x, None), 1 << x) for x in range(g.n)]
    tables = [unions([1 << w for w in sigma]) for sigma in gens]
    first = orbit_firsts(dict.fromkeys(m for _, _, m in sites), tables)
    built: dict = {}
    ops = []
    for op, site, m in sites:
        if first[m] == m:
            h, vmap = built[op, m] = OPERATIONS[op][2](g, *site)
        else:
            h, vmap = built[op, first[m]][0], None
        ops.append((op, *site, h, vmap))
    return ops


def _orbit_operations(g: Graph) -> tuple[tuple[int, ...], list]:
    """g's canonical key and one ``(op, u, v, hkey)`` per operation, built
    once per orbit of Aut(g) from one canonical search of g, which gives
    the key and the generators.  Distinct sites can build one graph
    (contracting a pendant edge deletes its leaf when the leaf has the
    larger label), so each distinct graph is keyed once."""
    key, gens = automorphisms(g.n, g.adjacency)
    ops = _operations(g, gens=gens)
    keys = {h: invariant_key(h.n, h.adjacency)
            for h in dict.fromkeys(op[3] for op in ops)}
    return key, [(op, u, v, keys[h]) for op, u, v, h, _ in ops]


# Lemma 3.1 lifts.  Each takes the destination graph's table d of
# times, the operation's (u, v) and its map m, and gives the best time
# on the destination over the lifts of each source mask B, for every B
# in order, carrying masks through ``graph.unions`` tables of all 2^n sets.

def _preimages(m: VertexMap) -> list[int]:
    """The source vertices whose image lies in B, for every target B."""
    parts = [0] * m.target_order
    for x in range(m.source_order):
        if m.image(x) is not None:
            parts[m.image(x)] |= 1 << x
    return unions(parts)


def _lift_end(d: list, u: int, v: int, m: Optional[VertexMap]) -> list:
    bu, bv = 1 << u, 1 << v
    return [min(d[b | bu], d[b | bv]) for b in range(len(d))]


def _lift_put_back(d: list, x: int, _: None, m: VertexMap) -> list:
    bx = 1 << x
    return [d[p | bx] for p in _preimages(m)]


def _lift_split(d: list, u: int, v: int, m: VertexMap) -> list:
    bu, bv, merged = 1 << u, 1 << v, 1 << m.image(u)
    return [d[p] if b & merged else min(d[p | bu], d[p | bv])
            for b, p in enumerate(_preimages(m))]


def _lift_push(d: list, u: int, v: int, m: VertexMap) -> list:
    merged = 1 << m.image(u)
    return [d[x | merged] for x in
            unions([1 << m.image(x) for x in range(m.source_order)])]


# Lemma 3.1, item -> (operation, whether the start set B lives on the
# operated graph H rather than on G, witness template, lift of B to
# candidate sets on the other graph).  Each item says that some lift of
# a completing B propagates no slower than B.
_TRANSFER = {
    # A completing set of G-e completes G after adding one endpoint.
    1: ("de", True, "{site}, B'={B}: best on G {best} > {pt} on G-e",
        _lift_end),
    # A completing set of G completes G-e after adding one endpoint.
    2: ("de", False, "{site}, B={B}: best on G-e {best} > {pt} on G",
        _lift_end),
    # A completing set of G-x completes G once x is put back.
    3: ("dv", True, "{site}, B'={B}: {best} on G > {pt} on G-x",
        _lift_put_back),
    # A completing set of G/e lifts back to G, splitting the merged
    # vertex or adding one endpoint.
    4: ("ce", True, "{site}, B'={B}: {best} on G > {pt} on G/e",
        _lift_split),
    # Power domination only: a completing set of G pushes forward
    # through a contraction at no time cost.
    5: ("ce", False, "{site}, B={B}: {best} on G/e > {pt} on G",
        _lift_push),
    # A completing set of the subdivision pulls back to G, trading the
    # new vertex for one endpoint.  The new vertex is the top label n,
    # so the sets that hold it are the upper half of the masks.
    6: ("se", True, "{site}, B'={B}: {best} on G > {pt} on subdivision",
        lambda d, u, v, m: [*d, *_lift_end(d, u, v, m)]),
    # A completing set of G completes the subdivision after adding the
    # new vertex, which can perform the force its edge carried.
    7: ("se", False, "{site}, B={B}: {best} on subdivision > {pt} on G",
        lambda d, u, v, m: d[len(d) // 2:]),
}


def _run_transfer(g: Graph, payload: dict) -> Outcome:
    rule = Rule(payload["rule"])
    item = payload["item"]
    if item not in _TRANSFER:
        raise ValueError(f"unknown transfer item {item}")
    kind, on_h, witness, lift = _TRANSFER[item]
    # The times of every start set on G and on each operated graph H,
    # read from one table per graph.  No best time exceeds a stalled
    # set's INFINITY, so stalled sets need no skip.
    gtab = pt_table(rule, g.adjacency, g.n)
    violations = []
    for _, u, v, h, vmap in _operations(g, (kind,)):
        htab = pt_table(rule, h.adjacency, h.n)
        stab, dtab = (htab, gtab) if on_h else (gtab, htab)
        site = f"x={u}" if kind == "dv" else f"e=({u},{v})"
        violations += [
            witness.format(site=site, B=_fmt(bmask), best=best, pt=pt)
            for bmask, (pt, best) in enumerate(zip(stab,
                                                   lift(dtab, u, v, vmap)))
            if best > pt]
    return violations, None


# Prop. 3.2 as (operation, rule, kind, label, lo, hi): the throttling a
# of G and b of the operated graph satisfy lo*a <= 2*b <= hi*a, with no
# upper bound where hi is None.  A None rule or kind matches every one;
# one row matches each operation, rule and kind the suite checks.
_PRODUCT_BOUNDS = (
    ("de", None, None, "(1)", 1, 4),
    ("dv", None, None, "(2)", 1, None),
    ("ce", _PD, None, "(3)", 1, 4),
    ("ce", _PSD, None, "(4)", 1, None),
    ("se", None, _STAR, "(5)", 2, 4),
    ("se", _PD, _X, "(6)", 2, 4),
    ("se", _PSD, _X, "(6)", 2, 3),
)


def _run_product_stability(g: Graph, payload: dict) -> Outcome:
    key, ops = _orbit_operations(g)
    violations = []
    for rule in (_PD, _PSD):
        for kind, kn in ((_STAR, "no-cost"), (_X, "initial-cost")):
            a = _class_value(key, rule, kind)
            if a is None:
                continue
            for op, u, v, hkey in ops:
                label, lo, hi = next(
                    row[3:] for row in _PRODUCT_BOUNDS if row[0] == op
                    and row[1] in (None, rule) and row[2] in (None, kind))
                b = _class_value(hkey, rule, kind)
                if b is None or (lo * a <= 2 * b
                                 and (hi is None or 2 * b <= hi * a)):
                    continue
                violations.append(f"{label} {rule.value} {kn}: "
                                  f"{_DOING[op].format(u=u, v=v)} gives "
                                  f"{b}, original {a}")
    return violations, None


# Prop. 3.12 as operation -> (label, lo, hi): the standard-rule no-cost
# product throttling t of G and b of the operated graph satisfy
# t+lo <= b <= t+hi.
_ONE_STEP_BOUNDS = {"dv": ("(1)", -1, 0), "de": ("(2)", -1, 1),
                    "ce": ("(3)", -1, 0), "se": ("(4)", 0, 1)}


def _run_one_step_stability(g: Graph, payload: dict) -> Outcome:
    key, ops = _orbit_operations(g)
    t = _class_value(key, _ZF, _STAR)
    violations = []
    # Vertex deletions are reported first (a stable sort keeps the rest).
    for op, u, v, hkey in sorted(ops, key=lambda o: o[0] != "dv"):
        label, lo, hi = _ONE_STEP_BOUNDS[op]
        b = _class_value(hkey, _ZF, _STAR)
        if b is not None and not t + lo <= b <= t + hi:
            violations.append(f"{label} {_DOING[op].format(u=u, v=v)} gives "
                              f"{b}, allowed [{t + lo},{t + hi}]")
    return violations, f"value={t}"


def _run_one_step_identity(g: Graph, payload: dict) -> Outcome:
    value = throttling_number(_ZF, _STAR, g).value
    k1, witness = one_step_forcing_number(g)
    violations = []
    if value != k1:
        violations.append(f"no-cost product value {value} differs from "
                          f"least one-step size {k1} ({_fmt(witness.mask)})")
    if 2 * value < g.n:
        violations.append(f"value {value} below half the order {g.n}")
    return violations, f"value={value}, one-step={k1}"


def _run_half_order_characterization(g: Graph, payload: dict) -> Outcome:
    value = throttling_number(_ZF, _STAR, g).value
    matched, half = is_matched_sum(g)
    violations = []
    if (2 * value == g.n) != matched:
        detail = f"half {_fmt(half.mask)}" if half is not None else "no half"
        violations.append(f"value {value} on order {g.n} but matched-sum "
                          f"test says {matched} ({detail})")
    return violations, f"value={value}, matched={matched}"


def _run_product_equals_order(g: Graph, payload: dict) -> Outcome:
    value = throttling_number(_ZF, _X, g).value
    violations = []
    if value != g.n:
        violations.append(f"initial-cost product {value} != order {g.n}")
    return violations, f"value={value}"


def _run_bounds_chain(g: Graph, payload: dict) -> Outcome:
    rule = Rule(payload["rule"])
    n = g.n
    y, _ = forcing_number(rule, g)
    th_sum = throttling_number(rule, _SUM, g).value
    th_x = throttling_number(rule, _X, g).value
    th_star = throttling_number(rule, _STAR, g).value
    violations = []
    if not 1 <= y < n:
        violations.append(f"completing number {y} outside [1,{n - 1}]")
    if not y + 1 <= th_x <= n:
        violations.append(f"initial-cost product {th_x} outside "
                          f"[{y + 1},{n}]")
    if not y + 1 <= th_sum <= n:
        violations.append(f"sum value {th_sum} outside [{y + 1},{n}]")
    if not 1 <= th_star <= n - 1:
        violations.append(f"no-cost product {th_star} outside [1,{n - 1}]")
    return violations, f"number={y}, sum={th_sum}, x={th_x}, star={th_star}"


def _run_universal_vertex(g: Graph, payload: dict) -> Outcome:
    star_one = throttling_number(_PD, _STAR, g).value == 1
    x_two = throttling_number(_PD, _X, g).value == 2
    universal = g.has_universal_vertex()
    violations = []
    if not star_one == universal == x_two:
        violations.append(f"no-cost==1 is {star_one}, universal is "
                          f"{universal}, initial-cost==2 is {x_two}")
    return violations, None


def _run_pt_superset(g: Graph, payload: dict) -> Outcome:
    rule = Rule(payload["rule"])
    full = g.full_mask
    # Every start set's time, and each one-vertex superset's, from one
    # table.
    tab = pt_table(rule, g.adjacency, g.n)
    violations = []
    for bmask, base in enumerate(tab):
        rest = full & ~bmask
        while rest:
            bit = rest & -rest
            rest ^= bit
            bigger = tab[bmask | bit]
            if bigger > base:
                violations.append(f"B={_fmt(bmask)} + vertex "
                                  f"{bit.bit_length() - 1}: {bigger} > {base}")
    return violations, None


def _run_component_step(g: Graph, payload: dict) -> Outcome:
    n, adj, full = g.n, g.adjacency, g.full_mask
    violations = []
    for bmask in range(1 << n):
        direct = _psd_step(adj, bmask, full)
        pieced = 0
        for comp in mask_components(adj, full & ~bmask):
            sub, vmap = g.induced_subgraph(VertexSet.from_mask(n, comp | bmask))
            inner = vmap.map_set(VertexSet.from_mask(n, bmask))
            newly = _standard_step(sub.adjacency, inner.mask, sub.full_mask)
            pieced |= vmap.preimage_set(VertexSet.from_mask(sub.n, newly)).mask
        if direct != pieced:
            violations.append(f"B={_fmt(bmask)}: direct {_fmt(direct)}, "
                              f"per-component {_fmt(pieced)}")
    return violations, None


def _has_edge(g: Graph) -> bool:
    return g.edge_count > 0


def _no_isolated(g: Graph) -> bool:
    return not g.isolated_vertices()


def _even_order(g: Graph) -> bool:
    return g.n % 2 == 0


_RULE_VARIANTS = tuple((f"-{r}", {"rule": r}) for r in ("zf", "psd", "pd"))
_TRANSFER_VARIANTS = tuple(
    (f"-i{item}-{r}", {"rule": r, "item": item}) for item in _TRANSFER
    for r in (("pd",) if item == 5 else ("zf", "psd", "pd")))


@dataclass(frozen=True)
class SuiteSpec:
    """One suite: its runner and the graphs and payloads it runs on.

    ``check`` is the records' check text, formatted with the payload.
    Cases cover the graphs of orders ``nmin..nmax``, connected ones only
    when ``connected``, that pass ``keep``.  Each graph gives one case
    per variant, an id suffix and the payload entries it adds to the
    graph6 text.
    """

    name: str
    description: str
    default_nmax: int
    runner: Callable[[Graph, dict], Outcome]
    check: str
    nmin: int = 1
    connected: bool = False
    keep: Optional[Callable[[Graph], bool]] = None
    variants: tuple[tuple[str, dict], ...] = (("", {}),)

    def build(self, nmax: int) -> list[Case]:
        cases: list[Case] = []
        for n in range(self.nmin, nmax + 1):
            graphs = enumerate_graphs(n, connected_only=self.connected)
            for idx, g in enumerate(graphs):
                if self.keep is not None and not self.keep(g):
                    continue
                g6 = format_graph6(g)
                for suffix, extra in self.variants:
                    cases.append((f"{self.name}-n{n}-g{idx}{suffix}",
                                  self.name, {"graph6": g6, **extra}))
        return cases


SUITES: dict[str, SuiteSpec] = {spec.name: spec for spec in (
    SuiteSpec("ore", "Graphs without isolated vertices have dominating sets "
              "of size at most half the order.", 8, _run_half_order_domination,
              "graphs without isolated vertices satisfy 2*gamma <= n",
              keep=_no_isolated),
    SuiteSpec("lemma2.2", "Edge-maximum minimum dominating sets keep an "
              "external private neighbor for every member (connected graphs).",
              7, _run_edge_max_epn,
              "every edge-maximum minimum dominating set keeps an external "
              "private neighbor per member", nmin=2, connected=True),
    SuiteSpec("lemma2.3", "Removing one external private neighbor per member "
              "of an optimal dominating set never isolates a vertex "
              "(connected graphs).", 7, _run_epn_removal,
              "removing one external private neighbor per member of an "
              "optimal dominating set isolates nothing", nmin=3,
              connected=True),
    SuiteSpec("thm2.4", "Power domination initial-cost product throttling is "
              "at most 6n/7 on connected graphs, witnessed by a two-step "
              "certificate, with extremal graphs dominating at exactly 3n/7.",
              8, _run_product_six_sevenths,
              "power domination initial-cost product stays within 6n/7 and "
              "the two-step certificate covers the exact value", nmin=3,
              connected=True),
    SuiteSpec("thm2.7", "Power domination sum throttling is at most "
              "floor(n/3)+2 on connected graphs, witnessed by a certificate.",
              8, _run_sum_third_plus_two,
              "power domination sum throttling stays within floor(n/3)+2 and "
              "the certificate covers the exact value", connected=True),
    SuiteSpec("lemma3.1", "Completing sets transfer across edge deletion, "
              "vertex deletion, contraction, and subdivision with controlled "
              "growth, for all three rules (items 1-7, exhaustive over "
              "initial sets).", 6, _run_transfer,
              "propagation-time transfer, operation item {item}, rule {rule}",
              nmin=2, connected=True, variants=_TRANSFER_VARIANTS),
    SuiteSpec("prop3.2", "Product throttling under power domination and PSD "
              "moves by a factor of at most two (three halves for the PSD "
              "initial-cost subdivision) under local operations.", 7,
              _run_product_stability,
              "product throttling moves by bounded factors under edge "
              "deletion, vertex deletion, contraction, and subdivision",
              nmin=2, connected=True),
    SuiteSpec("prop3.12", "Standard-rule no-cost product throttling moves by "
              "at most one under local operations.", 7,
              _run_one_step_stability,
              "standard-rule no-cost product throttling moves by at most one "
              "under local operations", nmin=2, keep=_has_edge),
    SuiteSpec("thm3.10", "Standard-rule no-cost product throttling equals the "
              "least size completing in one step and is at least half the "
              "order (connected graphs with an edge).", 7,
              _run_one_step_identity,
              "standard-rule no-cost product throttling equals the least "
              "one-step completing size and is at least n/2", nmin=2,
              connected=True),
    SuiteSpec("thm3.11", "Connected even-order graphs reach half-order "
              "no-cost product throttling exactly when they are matched-sum "
              "graphs.", 8, _run_half_order_characterization,
              "half-order no-cost product throttling happens exactly on "
              "matched-sum graphs", nmin=2, connected=True, keep=_even_order),
    SuiteSpec("thzx", "Standard-rule initial-cost product throttling equals "
              "the order on every graph.", 7, _run_product_equals_order,
              "standard-rule initial-cost product throttling equals the "
              "order"),
    SuiteSpec("remark1.1", "Completing numbers and all three throttling kinds "
              "sit inside their order bounds on every graph with an edge, for "
              "all rules.", 7, _run_bounds_chain,
              "order bounds on all throttling kinds, rule {rule}", nmin=2,
              keep=_has_edge, variants=_RULE_VARIANTS),
    SuiteSpec("universal-vertex", "Unit no-cost product, a universal vertex, "
              "and initial-cost product two coincide under power domination "
              "(graphs with an edge).", 7, _run_universal_vertex,
              "unit no-cost product, a universal vertex, and initial-cost "
              "product two coincide under power domination", nmin=2,
              keep=_has_edge),
    SuiteSpec("pt-monotone", "Adding a vertex to the initial set never "
              "increases propagation time, for all rules.", 6,
              _run_pt_superset,
              "enlarging the initial set never slows propagation, rule {rule}",
              variants=_RULE_VARIANTS),
    SuiteSpec("psd-step", "The PSD step agrees with the standard step applied "
              "inside each component of the unfilled subgraph.", 5,
              _run_component_step,
              "the PSD step matches the standard step run inside each "
              "unfilled component"),
)}


def run_case(case: Case) -> dict:
    """Execute one case; unexpected errors become failing records."""
    case_id, name, payload = case
    try:
        spec = SUITES[name]
        violations, computed = spec.runner(parse_graph6(payload["graph6"]),
                                           payload)
    except Exception as exc:  # pragma: no cover - indicates a bug
        return failed_case(case, exc)
    return _record(case_id, payload["graph6"], spec.check.format(**payload),
                   violations, computed)


def failed_case(case: Case, error: BaseException) -> dict:
    """The failing record of a case that raised or lost its worker."""
    case_id, name, payload = case
    return _record(case_id, payload.get("graph6", ""), name, [repr(error)],
                   f"error: {error!r}")


def build_cases(name: str, nmax: Optional[int] = None,
                budget: Optional[int] = None, seed: int = 0) -> list[Case]:
    """Expand a suite into cases, optionally sampling down to a budget.

    A scope that yields no case is an error, not an empty pass: a zero
    budget, or an nmax below the suite's least order.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    spec = SUITES[name]
    limit = spec.default_nmax if nmax is None else nmax
    if not 1 <= limit <= MAX_ENUMERATION_ORDER:
        raise ValueError(
            f"nmax must be between 1 and {MAX_ENUMERATION_ORDER}")
    cases = spec.build(limit)
    if not cases:
        least = next(n for n in range(limit + 1, MAX_ENUMERATION_ORDER + 1)
                     if spec.build(n))
        raise ValueError(f"suite {name} has no case at nmax {limit}; "
                         f"its least order is {least}")
    if budget is not None and budget < len(cases):
        rng = random.Random(seed)
        picks = sorted(rng.sample(range(len(cases)), budget))
        cases = [cases[i] for i in picks]
    return cases
