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
from typing import Any, Callable, Sequence

from . import __version__
from .errors import BadValueError, PipelineError, SyntaxParseError
from .model import PipelineGraph, topological_order
from .propagation import amplification_matrix, clean_cost
from .ranking import PathRanking, enumerate_paths, rank_and_select, wrong_path_report
from .simulate import SimMetrics, run_matrix, simulate
from .specio import SpecDocument, build_report, parse_spec_file, report_to_json

TABLE, CSV, RECORDS = "table", "csv", "records"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _table(header: list[str], rows: list[list]) -> str:
    rendered = [[_fmt(v) for v in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(header, *rendered)]
    lines = [header, ["-" * w for w in widths], *rendered]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n"
        for line in lines
    )


def _csv(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([str(v) for v in row] for row in rows)
    return buffer.getvalue()


def _output(args, header: list[str], rows: Callable, records: Callable) -> str:
    """The ``--format`` text: ``rows()`` as a table or CSV, or ``records()``
    as JSON lines. Only the one printed is built."""
    if args.format == RECORDS:
        encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
        try:
            return "".join(encode(r) + "\n" for r in records())
        except ValueError as exc:  # RFC 8259 has no NaN or Infinity
            raise BadValueError(f"output is not valid JSON: {exc}") from None
    if args.format == CSV:
        return _csv(header, rows())
    return _table(header, rows())


def _write(args, text: str) -> None:
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
    _write(args, (
        f"ok: {len(graph.components)} components, {len(graph.edges)} edges, "
        f"{n_paths} paths, {len(spec.scenarios)} scenarios, "
        f"{len(spec.configs)} configs, digest {spec.digest}\n"
    ))
    return 0


def _cmd_paths(args) -> int:
    paths = enumerate_paths(parse_spec_file(args.spec).graph, cap=args.path_cap)
    _write(args, _output(
        args,
        ["path_id", "components"],
        lambda: [[p.id, "|".join(p.components)] for p in paths],
        lambda: [{"path_id": p.id, "components": list(p.components)} for p in paths],
    ))
    return 0


def _ranking_records(ranking: PathRanking) -> list[dict]:
    selected_id = ranking.selected.path.id
    return [
        {
            "path_id": entry.path.id,
            "components": list(entry.path.components),
            "component_scores": entry.component_scores,
            "path_score": entry.score,
            "selected": entry.path.id == selected_id,
            "weights": ranking.weights if entry.path.id == selected_id else None,
        }
        for entry in ranking.entries
    ]


def _joined(scores: dict[str, float]) -> str:
    return ";".join(f"{c}={_fmt(v)}" for c, v in scores.items())


def _ranking_rows(ranking: PathRanking) -> list[list]:
    return [
        [r["path_id"], "|".join(r["components"]), r["path_score"], r["selected"],
         _joined(r["component_scores"]), _joined(r["weights"] or {})]
        for r in _ranking_records(ranking)
    ]


def _rank(args) -> PathRanking:
    graph = parse_spec_file(args.spec).graph
    if args.force_label:
        return wrong_path_report(graph, args.force_label, cap=args.path_cap)
    return rank_and_select(graph, cap=args.path_cap)


def _cmd_rank(args) -> int:
    ranking = _rank(args)
    if ranking.degenerate_weights:
        _note(args, "note: selected path has no positive score mass; "
                    "weights fall back to uniform")
    _write(args, _output(
        args,
        ["path_id", "components", "path_score", "selected", "component_scores",
         "weights"],
        lambda: _ranking_rows(ranking),
        lambda: _ranking_records(ranking),
    ))
    return 0


def _cmd_weights(args) -> int:
    ranking = _rank(args)
    weights = ranking.weights.items()
    _write(args, _output(
        args,
        ["component", "weight"],
        lambda: [[c, w] for c, w in weights],
        lambda: [{"component": c, "weight": w} for c, w in weights] + [{
            "selected_path": ranking.selected.path.id,
            "degenerate": ranking.degenerate_weights,
        }],
    ))
    return 0


def _cmd_amplify(args) -> int:
    graph = parse_spec_file(args.spec).graph
    clean = clean_cost(graph)
    matrix = amplification_matrix(graph, cap=args.path_cap, reference=clean)
    # Each breakdown's scenario is "clean" or "adversarial(<path id>)".
    breakdowns = [clean, *matrix.values()]
    best = min(matrix, key=lambda pid: (-matrix[pid].amplification, pid))
    _note(args, f"analytic argmax path: {best}")
    comp_order = topological_order(graph)
    _write(args, _output(
        args,
        ["scenario", "total_gflops", "flops_x"]
        + [f"gflops_{cid}" for cid in comp_order],
        lambda: [
            [b.scenario, b.total_gflops, b.amplification]
            + [b.per_component[cid] for cid in comp_order]
            for b in breakdowns
        ],
        lambda: [
            {
                "scenario": b.scenario,
                "total_gflops": b.total_gflops,
                "flops_x": b.amplification,
                "per_component_gflops": b.per_component,
            }
            for b in breakdowns
        ],
    ))
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
    record = metrics._asdict()
    record["edges"] = {k: st._asdict() for k, st in record.pop("edge_stats").items()}
    return {"label": label, **record}


def _metrics_output(args, graph: PipelineGraph, labeled: list[tuple]) -> None:
    """Write one row per label in ``--format``; a table adds edge sections."""
    comp_order = topological_order(graph)
    text = _output(
        args,
        ["label", "wall_time_s", "throughput_ips", "avg_e2e_s", "p50_s", "p95_s",
         "p99_s"]
        + [f"workload_{cid}" for cid in comp_order]
        + ["drops", "filtered", "total_tflops"],
        lambda: [
            [label, m.wall_time_s, m.throughput_ips, m.avg_e2e_s, m.p50_s, m.p95_s,
             m.p99_s]
            + [m.workload.get(cid, 0) for cid in comp_order]
            + [m.drops, m.filtered, m.total_tflops]
            for label, m in labeled
        ],
        lambda: [_metrics_record(label, metrics) for label, metrics in labeled],
    )
    if args.format == TABLE:
        for label, metrics in labeled:
            if metrics.edge_stats:
                text += f"\nedges [{label}]\n" + _table(
                    ["edge", "enqueued", "dequeued", "dropped", "residual"],
                    [[key, *st] for key, st in metrics.edge_stats.items()],
                )
    _write(args, text)


def _simulate_one(args, spec: SpecDocument) -> tuple[str, SimMetrics]:
    """The labeled metrics of ``--scenario`` under ``--config``."""
    scenario = _pick(spec.scenarios, args.scenario, "scenario", args.spec)
    config = _pick(spec.configs, args.config, "config", args.spec)
    if args.seed is not None:
        scenario = scenario._replace(seed=args.seed)
    return f"{args.scenario}/{args.config}", simulate(spec.graph, scenario, config)


def _cmd_simulate(args) -> int:
    spec = parse_spec_file(args.spec)
    _metrics_output(args, spec.graph, [_simulate_one(args, spec)])
    return 0


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadValueError(f"--seeds: {text.strip()!r} is not an integer") from None


def _cmd_matrix(args) -> int:
    if args.seed is not None and args.seeds is not None:
        raise SyntaxParseError("give --seed or --seeds, not both")
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
    if args.seeds is not None:
        seeds = [_seed(s) for s in args.seeds.split(",")]
    elif args.seed is not None:
        seeds = [args.seed]
    labeled = run_matrix(spec.graph, scenarios, configs, seeds=seeds)
    _metrics_output(args, spec.graph, labeled)
    return 0


def _cmd_report(args) -> int:
    spec = parse_spec_file(args.spec)
    results: dict[str, Any] = {}
    # Any simulation flag asks for a simulation, which needs both names. It
    # runs first, so a bad name fails before any path is ranked.
    flags = {"scenario": args.scenario, "config": args.config, "seed": args.seed}
    given = {key: value for key, value in flags.items() if value is not None}
    if given:
        results["simulation"] = _metrics_record(*_simulate_one(args, spec))
    ranking = rank_and_select(spec.graph, cap=args.path_cap)
    by_id = sorted(ranking.entries, key=lambda r: r.path.id)
    results["paths"] = [r.path.id for r in by_id]
    results["ranking"] = _ranking_records(ranking)
    results["amplification"] = {r.path.id: r.flops_x for r in by_id}
    params = {"spec": os.path.basename(args.spec), **given}
    report = build_report(spec, "report", params, results)
    _write(args, report_to_json(report))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


#: Every option a subcommand can take, with its argparse settings.
_FLAGS: dict[str, dict[str, Any]] = {
    "format": {"choices": [TABLE, CSV, RECORDS], "default": TABLE},
    "out": {"help": "write output to this file instead of stdout"},
    "quiet": {"action": "store_true",
              "help": "suppress informational notes on stderr"},
    "seed": {"type": int, "help": "override the scenario seed"},
    "path-cap": {"type": int,
                 "help": "override the path-enumeration cap (default 10000)"},
    "force-label": {"help": "force selection onto this label's path"},
    "scenario": {"help": "scenario name from the spec"},
    "config": {"help": "deployment config name from the spec"},
    "seeds": {"help": "comma-separated seeds for multi-seed rows"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipevuln",
        description="Pipeline-efficiency vulnerability analysis and "
                    "deployment simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand registers only the options its handler reads.
    commands = [
        ("validate", _cmd_validate, "Parse and validate a spec file.",
         "out path-cap"),
        ("paths", _cmd_paths, "List enumerated execution paths.",
         "format out path-cap"),
        ("rank", _cmd_rank, "Rank paths by vulnerability score.",
         "format out quiet path-cap force-label"),
        ("weights", _cmd_weights, "Loss weights over the selected path.",
         "format out path-cap force-label"),
        ("amplify", _cmd_amplify, "Analytic per-path FLOPs amplification.",
         "format out quiet path-cap"),
        ("simulate", _cmd_simulate, "Simulate one scenario under one config.",
         "format out seed scenario config"),
        ("matrix", _cmd_matrix, "Run the scenario x config matrix.",
         "format out seed scenario config seeds"),
        ("report", _cmd_report, "Emit a traceable JSON report.",
         "out seed path-cap scenario config"),
    ]
    for name, handler, help_text, flags in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="pipeline spec file (YAML or JSON lines)")
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=handler)
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
