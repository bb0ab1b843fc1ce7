"""End-to-end command-line behavior through cli.main."""

import json
import os
import re
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from throttlekit import claims, suites
from throttlekit.cli import main
from throttlekit.families import path
from throttlekit.graphio import format_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_product_throttling_on_fixture(capsys):
    code, out, _ = run(capsys, "compute", "--rule", "pd", "--kind", "prodx",
                       "--fixture", "family_6n7:K2")
    assert code == 0
    assert out.strip() == "6"


def test_compute_no_cost_standard_on_graph6(capsys):
    code, out, _ = run(capsys, "compute", "--rule", "zf", "--kind",
                       "prodstar", "--graph6", format_graph6(path(8)))
    assert code == 0
    assert out.strip() == "4"


def test_compute_gamma_on_spider(capsys):
    code, out, _ = run(capsys, "compute", "--parameter", "gamma",
                       "--fixture", "spider:2,2,1,1")
    assert code == 0
    assert out.strip() == "3"


# gamma(P_n) = gamma(C_n) = ceil(n / 3): k closed neighborhoods hold at
# most 3k vertices, so every smaller size is refused by counting.
@pytest.mark.parametrize("fixture, gamma", [("path:60", "20"),
                                            ("cycle:40", "14")])
def test_compute_gamma_on_long_paths_and_cycles(capsys, fixture, gamma):
    code, out, err = run(capsys, "compute", "--parameter", "gamma",
                         "--fixture", fixture)
    assert (code, out, err) == (0, gamma + "\n", "")


def test_compute_k1_is_the_standard_one_step_number(capsys):
    # k1 is taken under the standard rule alone, so --rule zf may name it.
    code, out, _ = run(capsys, "compute", "--fixture", "spider:1,1,1,1",
                       "--rule", "zf", "--parameter", "k1", "--json")
    assert code == 0
    record = json.loads(out)["records"][0]
    assert (record["rule"], record["value"]) == ("zf", 4)


def test_compute_pt_of_named_set_prints_infinity(capsys):
    code, out, _ = run(capsys, "compute", "--rule", "pd", "--parameter", "pt",
                       "--set", "c", "--fixture", "fig4_twin")
    assert code == 0
    assert out.strip() == "infinity"


def test_compute_pt_at_size(capsys):
    code, out, _ = run(capsys, "compute", "--rule", "zf", "--parameter", "pt",
                       "--k", "3", "--fixture", "path:6")
    assert code == 0
    assert out.strip() == "1"


def test_compute_json_record(capsys):
    code, out, _ = run(capsys, "compute", "--rule", "psd", "--kind", "sum",
                       "--fixture", "cycle:6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "compute"
    record = data["records"][0]
    assert record["value"] == 3
    assert record["rule"] == "psd"
    assert record["kind"] == "sum"
    assert "passed" not in record


def test_compute_json_null_for_stall(capsys):
    code, out, _ = run(capsys, "compute", "--rule", "zf", "--parameter", "pt",
                       "--set", "2", "--fixture", "path:5", "--json")
    assert code == 0
    assert json.loads(out)["records"][0]["value"] is None


def test_compute_trace_output(capsys):
    code, out, _ = run(capsys, "compute", "--rule", "zf", "--parameter", "pt",
                       "--set", "0", "--fixture", "path:3", "--trace")
    assert code == 0
    assert "t=1" in out
    assert "completed: True" in out
    assert out.strip().endswith("2")


def test_compute_per_k_table(capsys):
    code, out, _ = run(capsys, "compute", "--rule", "zf", "--kind", "sum",
                       "--fixture", "path:5", "--per-k")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k=1:")
    assert len(lines) == 6  # five sizes plus the optimum


def test_compute_per_k_prints_infinity_for_stalled_sizes(capsys):
    # Cx is a triangle with a pendant vertex: no single vertex forces it.
    code, out, _ = run(capsys, "compute", "--rule", "zf", "--kind", "sum",
                       "--per-k", "--graph6", "Cx")
    assert code == 0
    assert out.splitlines() == [
        "k=1: value=infinity witness=none",
        "k=2: value=4 witness={0,1}",
        "k=3: value=4 witness={0,1,2}",
        "k=4: value=4 witness={0,1,2,3}",
        "4",
    ]


@pytest.mark.parametrize("argv, text", [
    (("--rule", "psd", "--parameter", "number", "--fixture", "book:3"), "2"),
    # Neither --k nor --set: the least time over all start sets.
    (("--rule", "psd", "--parameter", "pt", "--fixture", "book:3"), "1"),
    (("--rule", "pd", "--kind", "prodx", "--set", "c1,c2", "--fixture",
      "fig5_K2corona"), "4"),
    (("--rule", "zf", "--kind", "sum", "--set", "1", "--fixture", "P4"),
     "infinity"),
])
def test_compute_prints_one_value(capsys, argv, text):
    code, out, err = run(capsys, "compute", *argv)
    assert (code, out, err) == (0, text + "\n", "")


@pytest.mark.parametrize("argv, fields", [
    (("--rule", "pd", "--kind", "prodx", "--set", "c1,c2", "--fixture",
      "fig5_K2corona"),
     {"id": "fig5_K2corona", "order": 6, "kind": "prodx", "value": 4,
      "witness": [0, 1], "propagation_time": 1, "rule": "pd"}),
    # A start set that stalls has no finite cost or time: both are null.
    (("--rule", "zf", "--kind", "sum", "--set", "1", "--fixture", "P4"),
     {"id": "P4", "order": 4, "kind": "sum", "value": None, "witness": [1],
      "propagation_time": None, "rule": "zf"}),
])
def test_compute_json_record_of_a_given_set(capsys, argv, fields):
    code, out, _ = run(capsys, "compute", *argv, "--json")
    assert code == 0
    assert json.loads(out)["records"] == [fields]


def test_compute_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "compute", "--rule", "zf", "--kind", "sum")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, "compute", "--rule", "zf", "--kind", "sum",
                       "--fixture", "P4", "--graph6", "Ch")
    assert code == 2


def test_compute_requires_rule_for_forcing_parameters(capsys):
    code, _, err = run(capsys, "compute", "--parameter", "number",
                       "--fixture", "P4")
    assert code == 2
    assert "requires --rule" in err


def test_compute_rejects_unknown_fixture(capsys):
    code, _, err = run(capsys, "compute", "--rule", "zf", "--kind", "sum",
                       "--fixture", "borogove:4")
    assert code == 2
    assert "error:" in err


def _limit_memory():
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_compute_refuses_huge_integer_argument_fast():
    # Without the argument limit the path generator builds a list of
    # about 10^11 edges; the child runs under a 1 GiB address-space cap
    # so such a regression fails here instead of exhausting memory.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "throttlekit", "compute", "--rule", "zf",
         "--kind", "sum", "--fixture", "path:99999999999"],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert "path takes integer arguments up to 1000" in proc.stderr
    assert time.perf_counter() - start < 20


def test_compute_rejects_bad_graph6(capsys):
    code, _, err = run(capsys, "compute", "--rule", "zf", "--kind", "sum",
                       "--graph6", "@@@")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("--rule", "zf", "--kind", "sum", "--k", "3"),
     "--k requires --parameter pt"),
    (("--rule", "zf", "--parameter", "pt", "--set", "0", "--k", "2"),
     "--k and --set"),
    (("--parameter", "gamma", "--set", "0,1"), "--parameter gamma"),
    (("--rule", "zf", "--parameter", "number", "--set", "0,1"),
     "--parameter number"),
    (("--parameter", "k1", "--set", "0,1"), "--parameter k1"),
    (("--rule", "zf", "--parameter", "number", "--per-k"), "--per-k"),
    (("--rule", "zf", "--kind", "sum", "--set", "0", "--per-k"), "--per-k"),
    (("--rule", "psd", "--parameter", "k1"),
     "--parameter k1 does not apply to --rule psd"),
    (("--rule", "pd", "--parameter", "k1"),
     "--parameter k1 does not apply to --rule pd"),
    (("--rule", "zf", "--parameter", "gamma"),
     "--parameter gamma does not apply to --rule zf"),
    (("--rule", "psd", "--parameter", "gamma"),
     "--parameter gamma does not apply to --rule psd"),
    (("--parameter", "pt"), "this computation requires --rule"),
    (("--kind", "prodstar"), "this computation requires --rule"),
    (("--rule", "zf", "--kind", "sum", "--trace"), "--trace requires --set"),
])
def test_compute_rejects_ignored_options(capsys, argv, message):
    code, out, err = run(capsys, "compute", "--fixture", "path:5", *argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_compute_empty_set_is_the_empty_start_set(capsys):
    # '' names the empty set, as ' , ' does; under pd it stalls on P3.
    for text in ("", " , "):
        assert run(capsys, "compute", "--fixture", "P3", "--rule", "pd",
                   "--kind", "sum", "--set", text) == (0, "infinity\n", "")
    code, out, _ = run(capsys, "compute", "--fixture", "P3", "--rule", "pd",
                       "--kind", "sum", "--trace", "--set", "")
    assert (code, out) == (0, "initial: {}\ncompleted: False\ninfinity\n")


@pytest.mark.parametrize("argv, message", [
    (("--parameter", "number"), "--set does not apply to --parameter number"),
    (("--kind", "sum", "--per-k"), "--per-k requires --kind without --set"),
    (("--parameter", "pt", "--k", "1"), "--k and --set cannot be combined"),
])
def test_compute_refuses_options_beside_an_empty_set(capsys, argv, message):
    code, out, err = run(capsys, "compute", "--fixture", "P3", "--rule", "pd",
                         *argv, "--set", "")
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("token", ["0_0", "+4", "\u0664"])
def test_compute_set_takes_decimal_labels_only(capsys, token):
    code, out, err = run(capsys, "compute", "--fixture", "P5", "--rule", "zf",
                         "--parameter", "pt", "--set", token)
    assert code == 2
    assert f"unknown vertex reference {token!r}" in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (("--rule", "zf", "--kind", "sum"), "holds no graph"),
    (("--rule", "zf", "--kind", "sum", "--json"), "holds no graph"),
    (("--rule", "zf", "--kind", "sum", "--format", "edgelist"),
     "holds no graph"),
    # Without --rule the refusal comes before the file is read.
    (("--kind", "sum"), "this computation requires --rule"),
])
def test_compute_refuses_empty_input_file(capsys, tmp_path, argv, message):
    f = tmp_path / "empty.g6"
    f.write_text("")
    code, out, err = run(capsys, "compute", "--input", str(f), *argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_compute_over_input_file(capsys, tmp_path):
    f = tmp_path / "batch.g6"
    f.write_text(format_graph6(path(4)) + "\n" + format_graph6(path(6)) + "\n")
    code, out, _ = run(capsys, "compute", "--rule", "zf", "--kind", "sum",
                       "--input", str(f))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split("\t")[1] == "3"
    assert lines[1].split("\t")[1] == "4"


def test_paper_suite_filtered(capsys):
    code, out, _ = run(capsys, "paper-suite", "--filter", "family=book",
                       "--workers", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "0 failed" in lines[-1]


def _timeless(text):
    """Output with each report's wall time blanked."""
    return re.sub(r"\[\d+\.\ds\]", "[-]", text).splitlines()


def test_paper_suite_prints_fail_lines(capsys, monkeypatch):
    monkeypatch.setattr(claims, "compute_measure", lambda fx, measure: -1)
    code, out, _ = run(capsys, "paper-suite", "--filter", "figure=7",
                       "--workers", "1")
    assert code == 1
    assert _timeless(out) == [
        "FAIL  fig7-subdiv-thx-pd                 throttling/pd/prodx"
        "                expected 6, got -1  [fig7_subdiv/se:e]",
        "FAIL  fig7-thx-pd                        throttling/pd/prodx"
        "                expected 3, got -1  [fig7_subdiv]",
        "2 claims: 0 passed, 2 failed [-]",
    ]


def test_props_caps_fail_lines(capsys, monkeypatch):
    # Every thzx case fails when the order is off by one: 52 failures to
    # order 5, of which the first 20 are spelled out.
    monkeypatch.setattr(suites, "throttling_number",
                        lambda rule, kind, g: types.SimpleNamespace(
                            value=g.n + 1))
    code, out, _ = run(capsys, "props", "--suite", "thzx", "--nmax", "5",
                       "--workers", "1")
    assert code == 1
    lines = _timeless(out)
    assert len(lines) == 22
    assert lines[:3] == [
        "suite thzx: 52 cases, 52 failures [-]",
        "  FAIL thzx-n1-g0 @: initial-cost product 2 != order 1",
        "  FAIL thzx-n2-g0 A?: initial-cost product 3 != order 2",
    ]
    assert all(line.startswith("  FAIL thzx-n") for line in lines[1:21])
    assert lines[20] == "  FAIL thzx-n5-g1 D?_: initial-cost product 6 != order 5"
    assert lines[21] == "  ... more failures omitted (32 total remain)"


def test_props_all_suites(capsys):
    code, out, _ = run(capsys, "props", "--suite", "all", "--nmax", "4",
                       "--budget", "2", "--workers", "1")
    assert code == 0
    assert _timeless(out) == [f"suite {name}: 2 cases, 0 failures [-]"
                              for name in suites.SUITES]


def test_paper_suite_json(capsys):
    code, out, _ = run(capsys, "paper-suite", "--filter", "figure=7",
                       "--workers", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "paper-suite"
    assert data["summary"]["failed"] == 0
    assert data["summary"]["total"] >= 2


def test_paper_suite_rejects_bad_filter(capsys):
    code, _, err = run(capsys, "paper-suite", "--filter", "rulezf")
    assert code == 2
    assert "key=value" in err


def test_paper_suite_rejects_two_values_for_one_filter_key(capsys):
    code, out, err = run(capsys, "paper-suite", "--filter", "rule=pd",
                         "--filter", "rule=psd", "--workers", "1")
    assert code == 2
    assert "rule=pd" in err and "rule=psd" in err
    assert out == ""


def test_paper_suite_repeated_filter_is_harmless(capsys):
    once = run(capsys, "paper-suite", "--filter", "figure=7", "--workers",
               "1", "--json")
    twice = run(capsys, "paper-suite", "--filter", "figure=7", "--filter",
                "figure=7", "--workers", "1", "--json")
    assert once[0] == twice[0] == 0
    reports = [json.loads(out) for _, out, _ in (once, twice)]
    for data in reports:
        del data["wall_time_seconds"]
    assert reports[0] == reports[1]


def test_props_single_suite(capsys):
    code, out, _ = run(capsys, "props", "--suite", "psd-step", "--nmax", "4",
                       "--workers", "1")
    assert code == 0
    assert "0 failures" in out


def test_props_json_shape(capsys):
    code, out, _ = run(capsys, "props", "--suite", "universal-vertex",
                       "--nmax", "4", "--workers", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "props"
    report = data["reports"][0]
    assert report["suite"] == "universal-vertex"
    assert report["summary"]["failed"] == 0


def test_props_help_describes_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["props", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, spec in suites.SUITES.items():
        assert f" {name} {spec.description}" in text


def test_props_unknown_suite(capsys):
    code, _, err = run(capsys, "props", "--suite", "gibberish")
    assert code == 2
    assert "unknown suite" in err


def test_props_budget_and_seed(capsys):
    code, out, _ = run(capsys, "props", "--suite", "remark1.1", "--nmax", "5",
                       "--budget", "7", "--seed", "1", "--workers", "1",
                       "--json")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["summary"]["total"] == 7
    assert report["parameters"]["budget"] == 7


def test_props_rejects_negative_budget(capsys):
    code, out, err = run(capsys, "props", "--suite", "psd-step", "--nmax",
                         "3", "--budget", "-3", "--workers", "1")
    assert code == 2
    assert "budget" in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (("--suite", "lemma2.3", "--nmax", "2"), "least order is 3"),
    (("--suite", "psd-step", "--nmax", "3", "--budget", "0"), "budget"),
])
def test_props_rejects_scope_without_cases(capsys, argv, message):
    code, out, err = run(capsys, "props", *argv, "--workers", "1")
    assert code == 2
    assert message in err
    assert out == ""


def test_paper_suite_rejects_filters_without_claims(capsys):
    code, out, err = run(capsys, "paper-suite", "--filter", "famly=path",
                         "--workers", "1")
    assert code == 2
    assert "famly=path" in err
    assert out == ""


@pytest.mark.parametrize("command", [
    ("paper-suite",),
    ("props", "--suite", "psd-step", "--nmax", "3"),
])
def test_rejects_workers_below_one(capsys, command):
    code, out, err = run(capsys, *command, "--workers", "-4")
    assert code == 2
    assert "error: workers must be positive, got -4" in err
    assert out == ""


def test_ingest_echoes_normalized_graph6(capsys, tmp_path):
    f = tmp_path / "in.edges"
    f.write_text("4\n0 1\n1 2\n2 3\n")
    code, out, err = run(capsys, "ingest", str(f), "--format", "edgelist")
    assert code == 0
    assert out.strip() == format_graph6(path(4))
    assert "1 graph(s) validated" in err


def test_ingest_json(capsys, tmp_path):
    f = tmp_path / "in.g6"
    f.write_text(format_graph6(path(5)) + "\n")
    code, out, _ = run(capsys, "ingest", str(f), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["graphs"][0]["order"] == 5


def test_ingest_bad_file_reports_line(capsys, tmp_path):
    f = tmp_path / "bad.g6"
    f.write_text("Ch\n@@@bad@@@\n")
    code, _, err = run(capsys, "ingest", str(f))
    assert code == 2
    assert "error:" in err


def test_ingest_refuses_absurd_edge_list_order(capsys, tmp_path):
    f = tmp_path / "huge.edges"
    f.write_text("10000000000000\n0 1\n")
    code, out, err = run(capsys, "ingest", str(f), "--format", "edgelist")
    assert code == 2
    assert "(line 1)" in err
    assert out == ""


def test_ingest_missing_file(capsys):
    code, _, err = run(capsys, "ingest", "/definitely/not/here.g6")
    assert code == 2


PARAMETRIC_FORMS = (
    "path:n", "cycle:n", "complete:n", "empty:n", "star:n",
    "spider:a1,a2,...", "corona:H,r", "book:k", "family_6n7:H",
    "matched_complete:r", "ex11_57:H", "star_plus_edge:n", "corona_tower:H",
)


def test_families_listing(capsys):
    code, out, _ = run(capsys, "families", "list")
    assert code == 0
    assert "fig2_spider_plus_e" in out
    lines = out.splitlines()
    start = lines.index("parametric forms:") + 1
    assert lines[start:start + len(PARAMETRIC_FORMS)] == [
        f"  {form}" for form in PARAMETRIC_FORMS]
    assert lines[-1] == ("operation suffixes: /dv:V /de:E /ae:U-W /ce:E "
                         "/se:E (repeatable, applied left to right)")


def test_families_json(capsys):
    code, out, _ = run(capsys, "families", "--json")
    assert code == 0
    data = json.loads(out)
    names = [entry["name"] for entry in data["static"]]
    assert "fig4_twin" in names
    assert data["parametric"] == list(PARAMETRIC_FORMS)
    assert list(data["operations"]) == ["dv", "de", "ae", "ce", "se"]
