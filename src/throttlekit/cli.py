"""Command-line front end.

Subcommands: ``compute`` for single values, ``paper-suite`` for the
documented-value catalog, ``props`` for property suites over enumerated
graphs, ``ingest`` for file validation, and ``families`` to list the
built-in graphs.  Exit codes: 0 success, 1 failed checks, 2 usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from typing import Optional

from .graph import VertexSet
from .graphio import FormatError, format_graph6, load_graphs, parse_graph6
from .families import (
    OPERATIONS,
    PARAMETRIC_FIXTURES,
    STATIC_FIXTURES,
    Fixture,
    _resolve_vertex,
    fixture,
    parse_graph_expression,
)
from .forcing import (
    Rule,
    graph_propagation_time,
    forcing_number,
    json_time,
    k_propagation_time,
    propagate,
    propagation_time,
)
from .domination import domination_number
from .throttling import (
    ThrottleKind,
    one_step_forcing_number,
    throttling_number,
    throttling_of_set,
)
from .report import SCHEMA_VERSION, TOOL_VERSION, Report, run_claims, run_suite
from .suites import SUITES


def _fmt_time(value) -> str:
    """A time as text; None is a JSON record's infinity."""
    return "infinity" if json_time(value) is None else str(value)


def _print_json(command: str, **body) -> None:
    print(json.dumps({"schema_version": SCHEMA_VERSION,
                      "tool_version": TOOL_VERSION, "command": command,
                      **body}, indent=2))


def _parse_set(text: str, fx: Fixture) -> VertexSet:
    tokens = (token.strip() for token in text.split(","))
    return fx.graph.vertex_set(
        _resolve_vertex(fx, token) for token in tokens if token)


def _compute_sources(args) -> list[tuple[str, Fixture]]:
    picked = [s for s in ("fixture", "graph6", "input") if getattr(args, s)]
    if len(picked) != 1:
        raise ValueError(
            "exactly one of --fixture, --graph6, or --input is required")
    if args.fixture:
        return [(args.fixture, parse_graph_expression(args.fixture))]
    if args.graph6:
        return [(args.graph6, Fixture(parse_graph6(args.graph6)))]
    graphs = list(load_graphs(args.input, args.format))
    if not graphs:
        raise ValueError(f"{args.input} holds no graph")
    return [(f"{args.input}[{i}]", Fixture(g)) for i, g in enumerate(graphs)]


def _check_compute_options(args) -> None:
    """Refuse an option the computation would ignore, or a missing rule."""
    pt = args.parameter == "pt"
    if args.k is not None and not pt:
        raise ValueError("--k requires --parameter pt")
    if args.set is not None and args.k is not None:
        raise ValueError("--k and --set cannot be combined")
    if args.set is not None and args.parameter and not pt:
        raise ValueError(
            f"--set does not apply to --parameter {args.parameter}")
    if args.per_k and (args.parameter or args.set is not None):
        raise ValueError("--per-k requires --kind without --set")
    if args.trace and args.set is None:
        raise ValueError("--trace requires --set")
    # gamma uses no rule, and k1 is the standard one-step forcing number.
    if args.rule and (args.parameter == "gamma" or
                      (args.parameter == "k1" and args.rule != "zf")):
        raise ValueError(f"--parameter {args.parameter} does not apply "
                         f"to --rule {args.rule}")
    if not args.rule and args.parameter not in ("gamma", "k1"):
        raise ValueError("this computation requires --rule")


def _compute_one(label: str, fx: Fixture, args) -> dict:
    g = fx.graph
    record: dict = {"id": label, "order": g.n}
    rule = Rule(args.rule) if args.rule else None
    initial = None if args.set is None else _parse_set(args.set, fx)
    if args.parameter:
        record["parameter"] = args.parameter
        if args.parameter == "gamma":
            value, witness = domination_number(g)
        elif args.parameter == "number":
            value, witness = forcing_number(rule, g)
        elif args.parameter == "k1":
            value, witness = one_step_forcing_number(g)
        else:  # pt
            if initial is not None:
                value, witness = propagation_time(rule, g, initial), initial
            elif args.k is not None:
                value, witness = k_propagation_time(rule, g, args.k)
                record["k"] = args.k
            else:
                value, witness = graph_propagation_time(rule, g)
        record["value"] = json_time(value)
        record["witness"] = None if witness is None else list(witness.members)
    else:
        kind = ThrottleKind(args.kind)
        record["kind"] = args.kind
        if initial is not None:
            value = throttling_of_set(rule, kind, g, initial)
            record["value"] = json_time(value)
            record["witness"] = list(initial.members)
            record["propagation_time"] = json_time(
                propagation_time(rule, g, initial))
        else:
            result = throttling_number(rule, kind, g, with_table=args.per_k)
            record.update(result.to_dict())
    if rule is not None:
        record["rule"] = rule.value

    if args.trace:
        trace = propagate(rule, g, initial)
        record["trace"] = trace.to_dict()
    return record


def _print_trace(record: dict) -> None:
    trace = record["trace"]
    print(f"initial: {set(trace['initial']) or '{}'}")
    filled = set(trace["initial"])
    for t, newly in enumerate(trace["steps"], start=1):
        filled |= set(newly)
        print(f"t={t}: +{set(newly) or '{}'} filled {sorted(filled)}")
    print(f"completed: {trace['completed']}")


def _cmd_compute(args) -> int:
    _check_compute_options(args)
    records = [_compute_one(label, fx, args)
               for label, fx in _compute_sources(args)]
    if args.json:
        _print_json("compute", records=records)
        return 0
    for record in records:
        if "trace" in record:
            _print_trace(record)
        if "table" in record:
            for k, entry in record["table"].items():
                wit = entry["witness"]
                wtext = "none" if wit is None else "{" + ",".join(map(str, wit)) + "}"
                print(f"k={k}: value={_fmt_time(entry['value'])} "
                      f"witness={wtext}")
        value = record["value"]
        if len(records) == 1:
            print(_fmt_time(value))
        else:
            print(f"{record['id']}\t{_fmt_time(value)}")
    return 0


def _cmd_paper_suite(args) -> int:
    filters: dict[str, str] = {}
    for item in args.filter or []:
        if "=" not in item:
            raise ValueError(f"--filter expects key=value, got {item!r}")
        key, val = (part.strip() for part in item.split("=", 1))
        if filters.setdefault(key, val) != val:
            raise ValueError(f"--filter {key}={filters[key]} and "
                             f"{key}={val} select no claims")
    report = run_claims(filters, workers=args.workers)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for r in report.records:
            measure = "/".join(str(part) for part in r["measure"])
            if r["passed"]:
                print(f"PASS  {r['id']:34} {measure:34} = {r['computed']}")
            else:
                print(f"FAIL  {r['id']:34} {measure:34} expected "
                      f"{r['expected']}, got {r['computed']}  [{r['expr']}]")
        print(f"{report.total} claims: {report.total - report.failed} "
              f"passed, {report.failed} failed "
              f"[{report.wall_time_seconds:.1f}s]")
    return 0 if report.passed else 1


_FAIL_DETAIL_CAP = 20


def _print_suite_report(report: Report) -> None:
    print(f"suite {report.suite}: {report.total} cases, "
          f"{report.failed} failures "
          f"[{report.wall_time_seconds:.1f}s]")
    shown = 0
    for r in report.records:
        if r["passed"]:
            continue
        if shown == _FAIL_DETAIL_CAP:
            print(f"  ... more failures omitted "
                  f"({report.failed - shown} total remain)")
            break
        print(f"  FAIL {r['id']} {r['graph6']}: {r['witness']}")
        shown += 1


def _cmd_props(args) -> int:
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        known = ", ".join(SUITES)
        raise ValueError(f"unknown suite {args.suite!r}; known: {known}, all")
    reports = [run_suite(name, nmax=args.nmax, budget=args.budget,
                         seed=args.seed, workers=args.workers)
               for name in names]
    if args.json:
        _print_json("props", reports=[rep.to_dict() for rep in reports])
    else:
        for rep in reports:
            _print_suite_report(rep)
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_ingest(args) -> int:
    graphs = list(load_graphs(args.path, args.format))
    if args.json:
        _print_json("ingest", count=len(graphs), graphs=[
            {"graph6": format_graph6(g), "order": g.n, "edges": g.edge_count}
            for g in graphs])
        return 0
    for g in graphs:
        print(format_graph6(g))
    print(f"{len(graphs)} graph(s) validated", file=sys.stderr)
    return 0


def _cmd_families(args) -> int:
    static = []
    for name in STATIC_FIXTURES:
        fx: Fixture = fixture(name)
        static.append({
            "name": name,
            "order": fx.graph.n,
            "edges": fx.graph.edge_count,
            "vertices": dict(fx.vertices),
            "named_edges": {k: list(v) for k, v in fx.edges.items()},
        })
    if args.json:
        _print_json("families", static=static,
                    parametric=list(PARAMETRIC_FIXTURES), operations={
                        op: text for op, (_, text, _) in OPERATIONS.items()})
        return 0
    print("static fixtures:")
    for entry in static:
        names = ",".join(entry["vertices"]) or "-"
        print(f"  {entry['name']:24} n={entry['order']:<3} "
              f"m={entry['edges']:<3} named: {names}")
    print("parametric forms:")
    for form in PARAMETRIC_FIXTURES:
        print(f"  {form}")
    suffixes = " ".join(f"/{op}:{ref}"
                        for op, (ref, _, _) in OPERATIONS.items())
    print(f"operation suffixes: {suffixes} "
          "(repeatable, applied left to right)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="throttlekit",
        description="Exact propagation, domination, and throttling "
                    "computations on small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="compute one value on one graph (or a file of them)")
    compute.add_argument("--rule", choices=[r.value for r in Rule])
    group = compute.add_mutually_exclusive_group(required=True)
    group.add_argument("--kind", choices=[k.value for k in ThrottleKind],
                       help="throttling kind to minimize")
    group.add_argument("--parameter",
                       choices=["number", "gamma", "pt", "k1"],
                       help="single parameter instead of a throttling kind")
    compute.add_argument("--k", type=int,
                         help="start-set size for --parameter pt")
    compute.add_argument("--set",
                         help="comma-separated vertices (labels or fixture "
                              "names) to evaluate instead of optimizing")
    compute.add_argument("--fixture",
                         help="graph expression, e.g. 'path:7' or "
                              "'fig3_H1/de:e'")
    compute.add_argument("--graph6", help="one graph6 string")
    compute.add_argument("--input", help="path to a graph file")
    compute.add_argument("--format", choices=["graph6", "edgelist"],
                         default="graph6", help="file format for --input")
    compute.add_argument("--trace", action="store_true",
                         help="print the propagation steps (needs --set)")
    compute.add_argument("--per-k", dest="per_k", action="store_true",
                         help="print the best value at every start size")
    compute.add_argument("--json", action="store_true")
    compute.set_defaults(func=_cmd_compute)

    paper = sub.add_parser(
        "paper-suite", help="check every cataloged documented value")
    paper.add_argument("--filter", action="append", metavar="KEY=VALUE",
                       help="restrict to claims tagged with KEY=VALUE "
                            "(repeatable, conjunctive)")
    paper.add_argument("--workers", type=int)
    paper.add_argument("--json", action="store_true")
    paper.set_defaults(func=_cmd_paper_suite)

    props = sub.add_parser(
        "props", help="run a property suite over enumerated graphs",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="suites:\n" + "\n".join(textwrap.fill(
            spec.description, 79, break_on_hyphens=False,
            initial_indent=f"  {name:18}",
            subsequent_indent=" " * 20) for name, spec in SUITES.items()))
    props.add_argument("--suite", required=True,
                       help="suite name or 'all' (see below)",
                       metavar="{" + ",".join(SUITES) + ",all}")
    props.add_argument("--nmax", type=int,
                       help="largest order to enumerate (suite default "
                            "otherwise)")
    props.add_argument("--budget", type=int,
                       help="sample down to this many cases")
    props.add_argument("--seed", type=int, default=0,
                       help="sampling seed for --budget")
    props.add_argument("--workers", type=int)
    props.add_argument("--json", action="store_true")
    props.set_defaults(func=_cmd_props)

    ingest = sub.add_parser(
        "ingest", help="validate a graph file and echo normalized graph6")
    ingest.add_argument("path")
    ingest.add_argument("--format", choices=["graph6", "edgelist"],
                        default="graph6")
    ingest.add_argument("--json", action="store_true")
    ingest.set_defaults(func=_cmd_ingest)

    families = sub.add_parser(
        "families", help="list built-in fixtures and parametric forms")
    families.add_argument("action", nargs="?", default="list",
                          choices=["list"])
    families.add_argument("--json", action="store_true")
    families.set_defaults(func=_cmd_families)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
