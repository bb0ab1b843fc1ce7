"""End-to-end command-line behavior through cli.main."""

import json

import pytest

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
])
def test_compute_rejects_ignored_options(capsys, argv, message):
    code, out, err = run(capsys, "compute", "--fixture", "path:5", *argv)
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


def test_ingest_missing_file(capsys):
    code, _, err = run(capsys, "ingest", "/definitely/not/here.g6")
    assert code == 2


def test_families_listing(capsys):
    code, out, _ = run(capsys, "families", "list")
    assert code == 0
    assert "fig2_spider_plus_e" in out
    assert "spider:a1,a2,..." in out
    assert "/se:E" in out


def test_families_json(capsys):
    code, out, _ = run(capsys, "families", "--json")
    assert code == 0
    data = json.loads(out)
    names = [entry["name"] for entry in data["static"]]
    assert "fig4_twin" in names
    assert "family_6n7:H" in data["parametric"]
