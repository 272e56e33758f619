"""Command-line surface tying the toolkit together.

Subcommands: validate, paths, rank, weights, amplify, simulate, matrix,
report. Exit codes: 0 success, 1 domain error (message on stderr), 2 usage
error. All output is deterministic for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace
from typing import Any, Sequence

from . import __version__
from .errors import BadValueError, PipelineError, SyntaxParseError
from .model import topological_order
from .propagation import amplification_matrix, clean_cost
from .ranking import PathRanking, enumerate_paths, rank_and_select, wrong_path_report
from .simulate import SimMetrics, metric_columns, metric_row, run_matrix, simulate
from .specio import SpecDocument, build_report, parse_spec_file, report_to_json

TABLE, CSV, RECORDS = "table", "csv", "records"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _emit_table(header: list[str], rows: list[list], out: io.TextIOBase) -> None:
    rendered = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in header]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))
    out.write(line.rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in rendered:
        out.write(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            + "\n"
        )


def _emit_csv(header: list[str], rows: list[list], out: io.TextIOBase) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(v) for v in row])


def _emit_records(records: list[dict], out: io.TextIOBase) -> None:
    for record in records:
        out.write(json.dumps(record, sort_keys=True) + "\n")


def _write(args, text_parts: list[str]) -> None:
    text = "".join(text_parts)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise BadValueError(
                f"cannot write --out {args.out!r}: {exc.strerror or exc}"
            ) from None
    else:
        sys.stdout.write(text)


def _capture(emitter, *call_args) -> str:
    buffer = io.StringIO()
    emitter(*call_args, buffer)
    return buffer.getvalue()


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    spec = parse_spec_file(args.spec)
    graph = spec.graph
    n_paths = len(enumerate_paths(graph, cap=args.path_cap))
    summary = (
        f"ok: {len(graph.components)} components, {len(graph.edges)} edges, "
        f"{n_paths} paths, {len(spec.scenarios)} scenarios, "
        f"{len(spec.configs)} configs, digest {spec.digest}"
    )
    _write(args, [summary + "\n"])
    return 0


def _cmd_paths(args) -> int:
    paths = enumerate_paths(parse_spec_file(args.spec).graph, cap=args.path_cap)
    header = ["path_id", "components"]
    rows = [[p.id, "|".join(p.components)] for p in paths]
    if args.format == RECORDS:
        records = [
            {"path_id": p.id, "components": list(p.components)} for p in paths
        ]
        _write(args, [_capture(_emit_records, records)])
    elif args.format == CSV:
        _write(args, [_capture(_emit_csv, header, rows)])
    else:
        _write(args, [_capture(_emit_table, header, rows)])
    return 0


def _ranking_records(ranking: PathRanking) -> list[dict]:
    selected_id = ranking.selected.path.id
    return [
        {
            "path_id": entry.path.id,
            "components": list(entry.path.components),
            "component_scores": {s.component: s.score for s in entry.component_scores},
            "path_score": entry.score,
            "selected": entry.path.id == selected_id,
            "weights": ranking.weights if entry.path.id == selected_id else None,
        }
        for entry in ranking.entries
    ]


def _ranking_rows(ranking: PathRanking) -> list[list]:
    rows: list[list] = []
    for entry in ranking.entries:
        selected = entry.path.id == ranking.selected.path.id
        weights = ranking.weights if selected else {}
        rows.append([
            entry.path.id,
            "|".join(entry.path.components),
            entry.score,
            selected,
            ";".join(f"{s.component}={_fmt(s.score)}" for s in entry.component_scores),
            ";".join(f"{c}={_fmt(v)}" for c, v in weights.items()),
        ])
    return rows


def _emit_ranking(args, ranking: PathRanking) -> None:
    if ranking.degenerate_weights:
        _note(args, "note: selected path has no positive score mass; "
                    "weights fall back to uniform")
    if args.format == RECORDS:
        _write(args, [_capture(_emit_records, _ranking_records(ranking))])
        return
    header = ["path_id", "components", "path_score", "selected",
              "component_scores", "weights"]
    emit = _emit_csv if args.format == CSV else _emit_table
    _write(args, [_capture(emit, header, _ranking_rows(ranking))])


def _rank(args) -> PathRanking:
    graph = parse_spec_file(args.spec).graph
    if args.force_label:
        return wrong_path_report(graph, args.force_label, cap=args.path_cap)
    return rank_and_select(graph, cap=args.path_cap)


def _cmd_rank(args) -> int:
    _emit_ranking(args, _rank(args))
    return 0


def _cmd_weights(args) -> int:
    ranking = _rank(args)
    header = ["component", "weight"]
    rows = [[c, w] for c, w in ranking.weights.items()]
    if args.format == RECORDS:
        records = [{"component": c, "weight": w} for c, w in ranking.weights.items()]
        records.append({
            "selected_path": ranking.selected.path.id,
            "degenerate": ranking.degenerate_weights,
        })
        _write(args, [_capture(_emit_records, records)])
    elif args.format == CSV:
        _write(args, [_capture(_emit_csv, header, rows)])
    else:
        _write(args, [_capture(_emit_table, header, rows)])
    return 0


def _cmd_amplify(args) -> int:
    graph = parse_spec_file(args.spec).graph
    matrix = amplification_matrix(graph, cap=args.path_cap)
    # Each breakdown's scenario is "clean" or "adversarial(<path id>)".
    breakdowns = [clean_cost(graph), *matrix.values()]
    best = min(matrix, key=lambda pid: (-matrix[pid].amplification, pid))
    _note(args, f"analytic argmax path: {best}")
    if args.format == RECORDS:
        records = [
            {
                "scenario": b.scenario,
                "total_gflops": b.total_gflops,
                "flops_x": b.amplification,
                "per_component_gflops": b.per_component,
            }
            for b in breakdowns
        ]
        _write(args, [_capture(_emit_records, records)])
        return 0
    comp_order = topological_order(graph)
    header = ["scenario", "total_gflops", "flops_x"] + [
        f"gflops_{cid}" for cid in comp_order
    ]
    rows = [
        [b.scenario, b.total_gflops, b.amplification]
        + [b.per_component[cid] for cid in comp_order]
        for b in breakdowns
    ]
    emit = _emit_csv if args.format == CSV else _emit_table
    _write(args, [_capture(emit, header, rows)])
    return 0


def _pick(section: dict, name: str | None, what: str, spec_path: str):
    if name is None:
        raise SyntaxParseError(
            f"{what} name required (declared in {spec_path}: "
            f"{', '.join(section) or 'none'})"
        )
    if name not in section:
        raise SyntaxParseError(
            f"unknown {what} {name!r} (declared: {', '.join(section) or 'none'})"
        )
    return section[name]


def _metrics_record(label: str, metrics: SimMetrics) -> dict:
    return {
        "label": label,
        "wall_time_s": metrics.wall_time_s,
        "throughput_ips": metrics.throughput_ips,
        "avg_e2e_s": metrics.avg_e2e_s,
        "p50_s": metrics.p50_s,
        "p95_s": metrics.p95_s,
        "p99_s": metrics.p99_s,
        "completed": metrics.completed,
        "workload": metrics.workload,
        "drops": metrics.drops,
        "filtered": metrics.filtered,
        "total_tflops": metrics.total_tflops,
        "edges": {
            key: {
                "enqueued": st.enqueued,
                "dequeued": st.dequeued,
                "dropped": st.dropped,
                "residual": st.residual,
            }
            for key, st in metrics.edge_stats.items()
        },
    }


def _metrics_output(args, spec: SpecDocument, labeled: list[tuple]) -> None:
    graph = spec.graph
    header = metric_columns(graph)
    rows = [metric_row(graph, label, metrics) for label, metrics in labeled]
    if args.format == RECORDS:
        records = [_metrics_record(label, metrics) for label, metrics in labeled]
        _write(args, [_capture(_emit_records, records)])
    elif args.format == CSV:
        _write(args, [_capture(_emit_csv, header, rows)])
    else:
        parts = [_capture(_emit_table, header, rows)]
        for label, metrics in labeled:
            if not metrics.edge_stats:
                continue
            parts.append(f"\nedges [{label}]\n")
            edge_header = ["edge", "enqueued", "dequeued", "dropped", "residual"]
            edge_rows = [
                [key, st.enqueued, st.dequeued, st.dropped, st.residual]
                for key, st in metrics.edge_stats.items()
            ]
            parts.append(_capture(_emit_table, edge_header, edge_rows))
        _write(args, parts)


def _cmd_simulate(args) -> int:
    spec = parse_spec_file(args.spec)
    scenario = _pick(spec.scenarios, args.scenario, "scenario", args.spec)
    config = _pick(spec.configs, args.config, "config", args.spec)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    metrics = simulate(spec.graph, scenario, config)
    _metrics_output(args, spec, [(f"{args.scenario}/{args.config}", metrics)])
    return 0


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadValueError(f"--seeds: {text.strip()!r} is not an integer") from None


def _cmd_matrix(args) -> int:
    spec = parse_spec_file(args.spec)
    scenarios = spec.scenarios
    configs = spec.configs
    if args.scenario:
        scenarios = {args.scenario: _pick(spec.scenarios, args.scenario,
                                          "scenario", args.spec)}
    if args.config:
        configs = {args.config: _pick(spec.configs, args.config,
                                      "config", args.spec)}
    seeds = None
    if args.seeds:
        seeds = [_seed(s) for s in args.seeds.split(",") if s.strip()]
    elif args.seed is not None:
        seeds = [args.seed]
    labeled = run_matrix(spec.graph, scenarios, configs, seeds=seeds)
    _metrics_output(args, spec, labeled)
    return 0


def _cmd_report(args) -> int:
    spec = parse_spec_file(args.spec)
    graph = spec.graph
    ranking = rank_and_select(graph, cap=args.path_cap)
    by_id = sorted(ranking.entries, key=lambda r: r.path.id)
    results: dict[str, Any] = {
        "paths": [r.path.id for r in by_id],
        "ranking": _ranking_records(ranking),
        "amplification": {r.path.id: r.flops_x for r in by_id},
    }
    params: dict[str, Any] = {"spec": os.path.basename(args.spec)}
    if args.scenario and args.config:
        scenario = _pick(spec.scenarios, args.scenario, "scenario", args.spec)
        config = _pick(spec.configs, args.config, "config", args.spec)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
            params["seed"] = args.seed
        metrics = simulate(graph, scenario, config)
        params["scenario"] = args.scenario
        params["config"] = args.config
        results["simulation"] = _metrics_record(
            f"{args.scenario}/{args.config}", metrics
        )
    report = build_report(spec, "report", params, results)
    _write(args, [report_to_json(report)])
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipevuln",
        description="Pipeline-efficiency vulnerability analysis and "
                    "deployment simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="pipeline spec file (YAML or JSON lines)")
        p.add_argument("--format", choices=[TABLE, CSV, RECORDS], default=TABLE)
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--quiet", action="store_true",
                       help="suppress informational notes on stderr")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--path-cap", type=int,
                       default=None,
                       help="override the path-enumeration cap "
                            "(default 10000, env PIPEVULN_PATH_CAP)")

    handlers = {
        "validate": (_cmd_validate, "Parse and validate a spec file."),
        "paths": (_cmd_paths, "List enumerated execution paths."),
        "rank": (_cmd_rank, "Rank paths by vulnerability score."),
        "weights": (_cmd_weights, "Loss weights over the selected path."),
        "amplify": (_cmd_amplify, "Analytic per-path FLOPs amplification."),
        "simulate": (_cmd_simulate, "Simulate one scenario under one config."),
        "matrix": (_cmd_matrix, "Run the scenario x config matrix."),
        "report": (_cmd_report, "Emit a traceable JSON report."),
    }
    for name, (handler, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(func=handler)
        if name in ("rank", "weights"):
            p.add_argument("--force-label",
                           help="force selection onto this label's path")
        if name in ("simulate", "matrix", "report"):
            p.add_argument("--scenario", help="scenario name from the spec")
            p.add_argument("--config", help="deployment config name from the spec")
        if name == "matrix":
            p.add_argument("--seeds",
                           help="comma-separated seeds for multi-seed rows")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def entry() -> None:  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
