"""Exact propagation, domination, and throttling computations on small graphs.

The package models three vertex-filling processes (the standard color
change rule, its positive semidefinite variant, and power domination),
measures how fast an initial set completes each one, and minimizes the
combined cost of set size and completion time in three ways: the sum,
the product counting the initial round, and the product that does not.
Everything is exact and exhaustive, aimed at graphs small enough to
search completely.
"""

from .graph import (
    Graph,
    InvalidVertexError,
    MissingEdgeError,
    VertexMap,
    VertexSet,
)
from .graphio import (
    FormatError,
    format_edge_list,
    format_graph6,
    load_graphs,
    parse_graph6,
    read_edge_list,
    read_graph6,
)
from .iso import are_isomorphic, find_isomorphism
from .families import (
    PARAMETRIC_FIXTURES,
    STATIC_FIXTURES,
    Fixture,
    book,
    complete,
    corona,
    corona_tower,
    cycle,
    empty_graph,
    enumerate_graphs,
    ex11_57,
    family_6n7,
    fixture,
    matched_complete,
    matched_sum,
    parse_graph_expression,
    path,
    spider,
    star,
    star_plus_edge,
)
from .forcing import (
    INFINITY,
    PropagationTrace,
    Rule,
    forcing_number,
    graph_propagation_time,
    is_forcing_set,
    k_propagation_time,
    propagate,
    propagation_time,
    step,
)
from .domination import (
    DominationCertificate,
    domination_number,
    edge_maximum_dominating_sets,
    external_private_neighbors,
    is_dominating_set,
    minimum_dominating_sets,
    optimal_dominating_set,
    optimal_dominating_sets,
)
from .throttling import (
    ThrottleKind,
    ThrottlingResult,
    is_matched_sum,
    least_size_with_propagation_time,
    one_step_forcing_number,
    throttling_at_size,
    throttling_number,
    throttling_of_set,
    throttling_value,
)
from .constructive import (
    BoundCertificate,
    extremal_product_throttling_report,
    power_domination_certificate,
)
from .claims import CLAIMS, Claim, claims_matching, evaluate_claim
from .suites import SUITES, build_cases, run_case
from .report import Report, run_claims, run_suite, tool_version


def __getattr__(name: str) -> str:
    # The version is read from the installed metadata on first use only
    # (see report.tool_version).
    if name in ("TOOL_VERSION", "__version__"):
        return tool_version()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Graph", "InvalidVertexError", "MissingEdgeError", "VertexMap",
    "VertexSet",
    "FormatError", "format_edge_list", "format_graph6", "load_graphs",
    "parse_graph6", "read_edge_list", "read_graph6",
    "are_isomorphic", "find_isomorphism",
    "PARAMETRIC_FIXTURES", "STATIC_FIXTURES", "Fixture", "book", "complete",
    "corona", "corona_tower", "cycle", "empty_graph", "enumerate_graphs",
    "ex11_57", "family_6n7", "fixture", "matched_complete", "matched_sum",
    "parse_graph_expression", "path", "spider", "star", "star_plus_edge",
    "INFINITY", "PropagationTrace", "Rule", "forcing_number",
    "graph_propagation_time", "is_forcing_set", "k_propagation_time",
    "propagate", "propagation_time", "step",
    "DominationCertificate", "domination_number",
    "edge_maximum_dominating_sets", "external_private_neighbors",
    "is_dominating_set", "minimum_dominating_sets", "optimal_dominating_set",
    "optimal_dominating_sets",
    "ThrottleKind", "ThrottlingResult", "is_matched_sum",
    "least_size_with_propagation_time", "one_step_forcing_number",
    "throttling_at_size", "throttling_number", "throttling_of_set",
    "throttling_value",
    "BoundCertificate", "extremal_product_throttling_report",
    "power_domination_certificate",
    "CLAIMS", "Claim", "claims_matching", "evaluate_claim",
    "SUITES", "build_cases", "run_case",
    "Report", "TOOL_VERSION", "run_claims", "run_suite",
    "__version__",
]
