"""Catalog of documented exact values, runnable as checks.

Every claim pairs a graph expression with one measurement and its
expected value.  Tags support filtering (figure=5, theorem=2.4, ...);
a claim that measures under a rule is tagged with it (rule=pd).
The catalog backs the ``paper-suite`` command and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .families import Fixture, parse_graph_expression
from .forcing import (
    Rule,
    forcing_number,
    json_time,
    k_propagation_time,
    propagation_time,
)
from .domination import domination_number
from .iso import are_isomorphic
from .throttling import (
    ThrottleKind,
    one_step_forcing_number,
    is_matched_sum,
    throttling_number,
    throttling_of_set,
)

_RULES = {r.value: r for r in Rule}
_KINDS = {k.value: k for k in ThrottleKind}


@dataclass(frozen=True, eq=False)
class Claim:
    id: str
    expr: str
    measure: tuple
    expected: object
    tags: dict[str, str] = field(default_factory=dict)


def _names_to_set(fx: Fixture, names: tuple[str, ...]):
    return fx.graph.vertex_set(fx.vertices[name] for name in names)


def compute_measure(fx: Fixture, measure: tuple):
    """Evaluate one measurement on a built fixture."""
    g = fx.graph
    head = measure[0]
    if head == "order":
        return g.n
    if head == "forcing_number":
        return forcing_number(_RULES[measure[1]], g)[0]
    if head == "domination_number":
        return domination_number(g)[0]
    if head == "throttling":
        return throttling_number(_RULES[measure[1]], _KINDS[measure[2]], g).value
    if head == "pt_at_size":
        value, _ = k_propagation_time(_RULES[measure[1]], g, measure[2])
        return json_time(value)
    if head == "pt_of_set":
        return json_time(propagation_time(_RULES[measure[1]], g,
                                          _names_to_set(fx, measure[2])))
    if head == "throttle_of_set":
        return json_time(throttling_of_set(
            _RULES[measure[1]], _KINDS[measure[2]], g,
            _names_to_set(fx, measure[3])))
    if head == "one_step_forcing":
        return one_step_forcing_number(g)[0]
    if head == "is_matched_sum":
        return is_matched_sum(g)[0]
    if head == "has_universal_vertex":
        return g.has_universal_vertex()
    raise ValueError(f"unknown measure {measure!r}")


def evaluate_claim(claim: Claim) -> dict:
    """Run one claim and report expected vs computed."""
    fx = parse_graph_expression(claim.expr)
    if claim.measure[0] == "isomorphic_to":
        other = parse_graph_expression(str(claim.expected))
        computed = are_isomorphic(fx.graph, other.graph)
        expected: object = True
        check = "iso"
    else:
        computed = compute_measure(fx, claim.measure)
        expected = claim.expected
        check = "eq"
    return {
        "id": claim.id,
        "expr": claim.expr,
        "measure": list(claim.measure),
        "check": check,
        "expected": expected if check != "iso" else str(claim.expected),
        "computed": computed,
        "passed": computed == expected,
        "tags": dict(claim.tags),
    }


def claims_matching(filters: dict[str, str]) -> list[Claim]:
    """Claims whose tags carry every requested key=value pair."""
    out = []
    for claim in CLAIMS:
        if all(claim.tags.get(k) == v for k, v in filters.items()):
            out.append(claim)
    return out


def _build() -> tuple[Claim, ...]:
    claims: list[Claim] = []

    def add(cid: str, expr: str, measure: tuple, expected, **tags: str) -> None:
        if len(measure) > 1 and measure[1] in _RULES:
            tags["rule"] = measure[1]
        claims.append(Claim(cid, expr, measure, expected,
                            {k: str(v) for k, v in tags.items()}))

    spider6 = "spider:3,3,3,3,3,3"

    # Six-leg spider with a chord on one leg: deleting the chord halves
    # both product costs under both propagation rules.
    for rule in ("pd", "psd"):
        add(f"fig2-thstar-{rule}", "fig2_spider_plus_e",
            ("throttling", rule, "prodstar"), 6,
            figure="2", example="3.3", proposition="3.2")
        add(f"fig2-thx-{rule}", "fig2_spider_plus_e",
            ("throttling", rule, "prodx"), 8,
            figure="2", example="3.3", proposition="3.2")
        add(f"spider6-thstar-{rule}", spider6,
            ("throttling", rule, "prodstar"), 3,
            figure="2", example="3.3", family="spider")
        add(f"spider6-thx-{rule}", spider6,
            ("throttling", rule, "prodx"), 4,
            figure="2", example="3.3", family="spider")
        add(f"spider6-pt6-{rule}", spider6, ("pt_at_size", rule, 6), 2,
            figure="2", example="3.3", family="spider")
        add(f"spider6-pt7-{rule}", spider6, ("pt_at_size", rule, 7), 1,
            figure="2", example="3.3", family="spider")
    add("spider6-pt1-pd", spider6, ("pt_at_size", "pd", 1), 3,
        figure="2", example="3.3", family="spider")
    add("fig2-chordless-iso", "fig2_spider_plus_e/de:e",
        ("isomorphic_to",), spider6, figure="2", example="3.3")

    # Star plus one leaf-leaf edge: deleting the center-to-leaf edge e
    # destroys the universal vertex and doubles the no-cost product.
    add("h1-thstar-pd", "fig3_H1", ("throttling", "pd", "prodstar"), 1,
        figure="3", example="3.4", proposition="3.2")
    add("h1-universal", "fig3_H1", ("has_universal_vertex",), True,
        figure="3", example="3.4")
    add("h1-del-thstar-pd", "fig3_H1/de:e",
        ("throttling", "pd", "prodstar"), 2,
        figure="3", example="3.4", proposition="3.2")
    add("h1-del-universal", "fig3_H1/de:e", ("has_universal_vertex",), False,
        figure="3", example="3.4")

    add("h2-thx-pd", "fig3_H2", ("throttling", "pd", "prodx"), 3,
        figure="3", example="3.4", proposition="3.2")
    add("h2-del-thx-pd", "fig3_H2/de:e", ("throttling", "pd", "prodx"), 6,
        figure="3", example="3.4", proposition="3.2")
    add("h2-del-pdnumber", "fig3_H2/de:e", ("forcing_number", "pd"), 2,
        figure="3", example="3.4")
    add("h2-del-pt2", "fig3_H2/de:e", ("pt_at_size", "pd", 2), 2,
        figure="3", example="3.4")
    add("h2-del-pt3", "fig3_H2/de:e", ("pt_at_size", "pd", 3), 1,
        figure="3", example="3.4")

    add("h3-iso-spider", "fig3_H3", ("isomorphic_to",), spider6,
        figure="3", example="3.4")
    add("h3-thstar-psd", "fig3_H3", ("throttling", "psd", "prodstar"), 3,
        figure="3", example="3.4", proposition="3.2")
    add("h3-thx-psd", "fig3_H3", ("throttling", "psd", "prodx"), 4,
        figure="3", example="3.4", proposition="3.2")
    add("h3-del-thstar-psd", "fig3_H3/de:e",
        ("throttling", "psd", "prodstar"), 6,
        figure="3", example="3.4", proposition="3.2")
    add("h3-del-thx-psd", "fig3_H3/de:e", ("throttling", "psd", "prodx"), 8,
        figure="3", example="3.4", proposition="3.2")

    # Four-leg spider with an independent twin of the center: deleting
    # the twin halves both product costs under both rules.
    for rule in ("pd", "psd"):
        add(f"twin-thstar-{rule}", "fig4_twin",
            ("throttling", rule, "prodstar"), 4,
            figure="4", example="3.5", proposition="3.2")
        add(f"twin-thx-{rule}", "fig4_twin",
            ("throttling", rule, "prodx"), 6,
            figure="4", example="3.5", proposition="3.2")
        add(f"twin-del-thstar-{rule}", "fig4_twin/dv:x",
            ("throttling", rule, "prodstar"), 2,
            figure="4", example="3.5", proposition="3.2")
        add(f"twin-del-thx-{rule}", "fig4_twin/dv:x",
            ("throttling", rule, "prodx"), 3,
            figure="4", example="3.5", proposition="3.2")
    add("twin-del-iso", "fig4_twin/dv:x", ("isomorphic_to",), "spider:2,2,2,2",
        figure="4", example="3.5")

    # Double corona of one edge: contracting that edge halves the
    # no-cost product under both rules and the initial-cost product
    # under power domination.
    add("corona2-thstar-pd", "fig5_K2corona",
        ("throttling", "pd", "prodstar"), 2,
        figure="5", example="3.6", proposition="3.2")
    add("corona2-thstar-psd", "fig5_K2corona",
        ("throttling", "psd", "prodstar"), 2,
        figure="5", example="3.6", proposition="3.2")
    add("corona2-thx-pd", "fig5_K2corona", ("throttling", "pd", "prodx"), 4,
        figure="5", example="3.6", proposition="3.2")
    add("corona2-pt1-psd", "fig5_K2corona", ("pt_at_size", "psd", 1), 2,
        figure="5", example="3.6")
    add("corona2-contract-iso", "fig5_K2corona/ce:e",
        ("isomorphic_to",), "star:5", figure="5", example="3.6")
    add("corona2-contract-thstar-pd", "fig5_K2corona/ce:e",
        ("throttling", "pd", "prodstar"), 1,
        figure="5", example="3.6", proposition="3.2")
    add("corona2-contract-thstar-psd", "fig5_K2corona/ce:e",
        ("throttling", "psd", "prodstar"), 1,
        figure="5", example="3.6", proposition="3.2")
    add("corona2-contract-thx-pd", "fig5_K2corona/ce:e",
        ("throttling", "pd", "prodx"), 2,
        figure="5", example="3.6", proposition="3.2")

    # Five-leg length-two spider with a chord between two leg heads:
    # contracting the chord doubles both power domination products.
    add("legs5-thstar-pd", "fig6_legs5_plus_e",
        ("throttling", "pd", "prodstar"), 2,
        figure="6", proposition="3.2")
    add("legs5-thx-pd", "fig6_legs5_plus_e", ("throttling", "pd", "prodx"), 3,
        figure="6", proposition="3.2")
    add("legs5-contract-thstar-pd", "fig6_legs5_plus_e/ce:e",
        ("throttling", "pd", "prodstar"), 4,
        figure="6", proposition="3.2")
    add("legs5-contract-thx-pd", "fig6_legs5_plus_e/ce:e",
        ("throttling", "pd", "prodx"), 6,
        figure="6", proposition="3.2")

    # The previous graph with three legs extended by one leaf each:
    # contracting the chord halves the PSD initial-cost product.
    add("ex37-psdnumber", "ex3_7_H", ("forcing_number", "psd"), 2,
        example="3.7", proposition="3.2")
    add("ex37-thx-psd", "ex3_7_H", ("throttling", "psd", "prodx"), 8,
        example="3.7", proposition="3.2")
    add("ex37-contract-psdnumber", "ex3_7_H/ce:e",
        ("forcing_number", "psd"), 1,
        example="3.7", proposition="3.2")
    add("ex37-contract-thx-psd", "ex3_7_H/ce:e",
        ("throttling", "psd", "prodx"), 4,
        example="3.7", proposition="3.2")

    # Path formulas, both rules and both product kinds.
    for n in range(2, 11):
        star_value = -(-n // 3)
        x_value = 1 + -(-(n - 1) // 2)
        for rule in ("pd", "psd"):
            add(f"path{n}-thstar-{rule}", f"path:{n}",
                ("throttling", rule, "prodstar"), star_value,
                family="path", proposition="3.2")
            add(f"path{n}-thx-{rule}", f"path:{n}",
                ("throttling", rule, "prodx"), x_value,
                family="path", proposition="3.2")

    # Standard-rule no-cost product on paths, and the operation
    # sharpness examples built from paths.
    for n in range(2, 10):
        add(f"path{n}-thstar-zf", f"path:{n}",
            ("throttling", "zf", "prodstar"), (n + 1) // 2,
            family="path", theorem="3.10", proposition="3.12")
    add("path9-delend-iso", "path:9/dv:8", ("isomorphic_to",), "path:8",
        family="path", proposition="3.12")
    add("path9-delend-thstar-zf", "path:9/dv:8",
        ("throttling", "zf", "prodstar"), 4,
        family="path", proposition="3.12")
    add("path8-delend-thstar-zf", "path:8/dv:7",
        ("throttling", "zf", "prodstar"), 4,
        family="path", proposition="3.12")
    add("path8-contract-iso", "path:8/ce:6-7", ("isomorphic_to",), "path:7",
        family="path", proposition="3.12")
    add("path8-contract-thstar-zf", "path:8/ce:6-7",
        ("throttling", "zf", "prodstar"), 4,
        family="path", proposition="3.12")

    # Stars: subdividing any edge doubles the no-cost product for both
    # rules and raises the PSD initial-cost product from 2 to 3.
    for n in range(5, 9):
        for rule in ("pd", "psd"):
            add(f"star{n}-thstar-{rule}", f"star:{n}",
                ("throttling", rule, "prodstar"), 1,
                family="star", proposition="3.2")
            add(f"star{n}-subdiv-thstar-{rule}", f"star:{n}/se:0-1",
                ("throttling", rule, "prodstar"), 2,
                family="star", proposition="3.2")
        add(f"star{n}-thx-psd", f"star:{n}", ("throttling", "psd", "prodx"),
            2, family="star", proposition="3.2")
        add(f"star{n}-subdiv-thx-psd", f"star:{n}/se:0-1",
            ("throttling", "psd", "prodx"), 3,
            family="star", proposition="3.2")
    add("star6-thstar-zf", "star:6", ("throttling", "zf", "prodstar"), 5,
        family="star", proposition="3.12")
    add("star6-contract-iso", "star:6/ce:0-1", ("isomorphic_to",), "star:5",
        family="star", proposition="3.12")
    add("star6-contract-thstar-zf", "star:6/ce:0-1",
        ("throttling", "zf", "prodstar"), 4,
        family="star", proposition="3.12")

    # Triangle with two pendant paths and four extra center leaves:
    # subdividing the triangle edge away from the center doubles the
    # power domination initial-cost product.
    add("fig7-thx-pd", "fig7_subdiv", ("throttling", "pd", "prodx"), 3,
        figure="7", proposition="3.2")
    add("fig7-subdiv-thx-pd", "fig7_subdiv/se:e",
        ("throttling", "pd", "prodx"), 6,
        figure="7", proposition="3.2")

    # Twice-padded host plus a universal vertex: deleting the universal
    # vertex blows both power domination products up to (n-1)/2 and
    # 3(n-1)/4.
    for host, r in (("K2", 2), ("P3", 3)):
        base = f"corona_tower:{host}"
        add(f"tower-{host}-thstar-pd", base,
            ("throttling", "pd", "prodstar"), 1,
            family="corona_tower")
        add(f"tower-{host}-thx-pd", base, ("throttling", "pd", "prodx"), 2,
            family="corona_tower")
        add(f"tower-{host}-universal", base, ("has_universal_vertex",), True,
            family="corona_tower")
        add(f"tower-{host}-del-thstar-pd", f"{base}/dv:u",
            ("throttling", "pd", "prodstar"), 2 * r,
            family="corona_tower")
        add(f"tower-{host}-del-thx-pd", f"{base}/dv:u",
            ("throttling", "pd", "prodx"), 3 * r,
            family="corona_tower")

    # Star with one leaf-leaf edge: deleting the center blows both PSD
    # products up to n-2 and n-1.
    for n in (6, 7):
        base = f"star_plus_edge:{n}"
        add(f"staredge{n}-thstar-psd", base,
            ("throttling", "psd", "prodstar"), 2,
            family="star_plus_edge")
        add(f"staredge{n}-thx-psd", base, ("throttling", "psd", "prodx"), 4,
            family="star_plus_edge")
        add(f"staredge{n}-del-thstar-psd", f"{base}/dv:c",
            ("throttling", "psd", "prodstar"), n - 2,
            family="star_plus_edge")
        add(f"staredge{n}-del-thx-psd", f"{base}/dv:c",
            ("throttling", "psd", "prodx"), n - 1,
            family="star_plus_edge")

    # Books: contracting the spine raises the PSD forcing number from 2
    # to k+1 and the products accordingly.
    for k in (3, 4):
        base = f"book:{k}"
        add(f"book{k}-psdnumber", base, ("forcing_number", "psd"), 2,
            family="book")
        add(f"book{k}-pt2-psd", base, ("pt_at_size", "psd", 2), 1,
            family="book")
        add(f"book{k}-thstar-psd", base, ("throttling", "psd", "prodstar"),
            2, family="book")
        add(f"book{k}-thx-psd", base, ("throttling", "psd", "prodx"), 4,
            family="book")
        add(f"book{k}-contract-psdnumber", f"{base}/ce:e",
            ("forcing_number", "psd"), k + 1, family="book")
        add(f"book{k}-contract-thstar-psd", f"{base}/ce:e",
            ("throttling", "psd", "prodstar"), k + 1,
            family="book")
        add(f"book{k}-contract-thx-psd", f"{base}/ce:e",
            ("throttling", "psd", "prodx"), 2 * k + 1,
            family="book")

    # Matched sums of cliques: adding any edge or deleting a matching
    # edge forces one-step start sets past the half-order floor.
    add("kmk3-onestep", "matched_complete:3", ("one_step_forcing",), 3,
        family="matched_sum", theorem="3.10")
    add("kmk3-thstar-zf", "matched_complete:3",
        ("throttling", "zf", "prodstar"), 3,
        family="matched_sum", theorem="3.11")
    add("kmk3-matched", "matched_complete:3", ("is_matched_sum",), True,
        family="matched_sum", theorem="3.11")
    add("kmk3-addedge-thstar-zf", "matched_complete:3/ae:0-4",
        ("throttling", "zf", "prodstar"), 4,
        family="matched_sum", proposition="3.12")
    add("kmk3-delmatch-thstar-zf", "matched_complete:3/de:m1",
        ("throttling", "zf", "prodstar"), 4,
        family="matched_sum", proposition="3.12")
    add("kmk2-thstar-zf", "matched_complete:2",
        ("throttling", "zf", "prodstar"), 2,
        family="matched_sum", theorem="3.11")
    add("path6-matched", "path:6", ("is_matched_sum",), True,
        family="path", theorem="3.11")
    add("cycle6-matched", "cycle:6", ("is_matched_sum",), False,
        family="cycle", theorem="3.11")
    add("cycle6-thstar-zf", "cycle:6", ("throttling", "zf", "prodstar"), 4,
        family="cycle", theorem="3.11")

    # Spider with legs 2,2,1,1: domination at 3n/7 without extremal
    # product throttling.
    add("spider2211-order", "spider:2,2,1,1", ("order",), 7, example="2.6")
    add("spider2211-gamma", "spider:2,2,1,1", ("domination_number",), 3,
        example="2.6")
    add("spider2211-thx-pd", "spider:2,2,1,1", ("throttling", "pd", "prodx"),
        3, example="2.6")

    # Pendant-extended hosts of order 7k attain the 6n/7 bound.
    for host, k in (("K2", 1), ("P4", 2), ("C4", 2), ("C6", 3)):
        add(f"family67-{host}-order", f"family_6n7:{host}", ("order",), 7 * k,
            figure="1", theorem="2.4", family="family_6n7")
        add(f"family67-{host}-gamma", f"family_6n7:{host}",
            ("domination_number",), 3 * k,
            figure="1", theorem="2.4", family="family_6n7")
        add(f"family67-{host}-thx-pd", f"family_6n7:{host}",
            ("throttling", "pd", "prodx"), 6 * k,
            figure="1", theorem="2.4", family="family_6n7")
    add("family67-K2-pdnumber", "family_6n7:K2", ("forcing_number", "pd"), 2,
        figure="1", theorem="2.4", family="family_6n7")
    host_names = tuple(f"v{i}" for i in range(1, 9))
    add("family67-fig1-order", "family_6n7:fig1_base", ("order",), 28,
        figure="1", theorem="2.4", family="family_6n7")
    add("family67-fig1-hostpt", "family_6n7:fig1_base",
        ("pt_of_set", "pd", host_names), 2,
        figure="1", theorem="2.4", family="family_6n7")
    add("family67-fig1-hostcost", "family_6n7:fig1_base",
        ("throttle_of_set", "pd", "prodx", host_names), 24,
        figure="1", theorem="2.4", family="family_6n7")

    # Double-leaf coronas with one extra pendant attain floor(n/3) + 2.
    for host, n in (("K2", 7), ("P3", 10), ("P4", 13), ("C6", 19)):
        add(f"ex1157-{host}-order", f"ex11_57:{host}", ("order",), n,
            theorem="2.7", family="ex11_57")
        add(f"ex1157-{host}-th-pd", f"ex11_57:{host}",
            ("throttling", "pd", "sum"), n // 3 + 2,
            theorem="2.7", family="ex11_57")

    seen = set()
    for claim in claims:
        if claim.id in seen:
            raise AssertionError(f"duplicate claim id {claim.id}")
        seen.add(claim.id)
    return tuple(claims)


CLAIMS: tuple[Claim, ...] = _build()
