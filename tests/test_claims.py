"""The bundled claim catalog must be self-consistent and fully green."""

import pytest

from throttlekit.claims import (
    CLAIMS,
    claims_matching,
    compute_measure,
    evaluate_claim,
)
from throttlekit.families import parse_graph_expression


def test_catalog_is_nonempty_and_ids_unique():
    assert len(CLAIMS) >= 150
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))


def test_every_claim_parses_and_passes():
    failures = []
    for claim in CLAIMS:
        record = evaluate_claim(claim)
        if not record["passed"]:
            failures.append((claim.id, record["expected"], record["computed"]))
    assert failures == []


def test_record_shape():
    record = evaluate_claim(CLAIMS[0])
    assert set(record) >= {"id", "expr", "measure", "check", "expected",
                           "computed", "passed", "tags"}
    assert record["check"] in ("eq", "iso")


def test_claims_matching_filters_conjunctively():
    product_claims = claims_matching({"rule": "pd"})
    assert product_claims
    assert all(c.tags.get("rule") == "pd" for c in product_claims)
    narrowed = claims_matching({"rule": "pd", "family": "path"})
    assert narrowed
    assert len(narrowed) < len(product_claims)
    assert claims_matching({"rule": "nope"}) == []


def test_rule_tag_is_the_measured_rule():
    for claim in CLAIMS:
        rule = claim.measure[1] if len(claim.measure) > 1 else None
        expected = rule if rule in ("zf", "psd", "pd") else None
        assert claim.tags.get("rule") == expected, claim.id
    assert claims_matching({"rule": "zf"})


def test_claims_matching_empty_filter_returns_all():
    assert len(claims_matching({})) == len(CLAIMS)


def test_compute_measure_rejects_unknown():
    fx = parse_graph_expression("P4")
    with pytest.raises(ValueError):
        compute_measure(fx, ("no_such_measure",))


def test_measures_used_by_catalog_are_known():
    for claim in CLAIMS:
        if claim.measure[0] == "isomorphic_to":
            continue  # handled structurally, not as a scalar measure
        fx = parse_graph_expression(claim.expr)
        value = compute_measure(fx, claim.measure)
        assert value is not None
