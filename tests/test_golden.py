"""Golden-output gate: CLI outputs and simulator metrics, byte for byte.

Every file in ``pipelines/`` is run through ``cli.main`` in process for each
case in ``CASES``; the exit code, stderr and stdout must equal the committed
file ``tests/golden/<spec>.<case>.txt`` exactly. Fifty seeded
``random_sim_triple`` runs must reproduce the sorted-key JSON of their
``SimMetrics`` line for line; they cover the ``shared-single-device`` model,
which no shipped spec uses. Fifty ``random_mixed_sim_triple`` runs in
``sim_mixed.jsonl`` pin the simulator's tie-break orders: an arrival before
a completion at the same instant, a shared device's choice of member, and
the device-id order of restarts around ``@shared``. ``cited_figures.txt``
lists, by ``repr``, the figures the acceptance suite checks against the
paper (the walkthrough
branch-score ratio, the throughput collapse, the buffering drop fraction)
and each shipped spec's largest FLOPs amplification, so a change to any of
them shows in review even while it stays inside its tolerance. Every
shipped spec has at most three paths, so
the analytic cases also run on ``tests/specs/layered.yaml`` (29 paths whose
ids share prefixes up to three steps deep). ``FORMAT_CASES`` run on one small
shipped spec and render each subcommand that takes ``--format`` in each
format, table ``matrix`` with its edge sections and multi-seed mean and std
rows included.

The simulator draws from its counter-hash stream (one SplitMix64 hash of
an item's key and a label's salt per draw, mapped through inverse-CDF
Poisson tables), so these files pin that stream: changing it is a
deliberate re-baseline. After a deliberate output change,
regenerate every golden file with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pipevuln.cli import main
from pipevuln.propagation import _total, amplification_matrix
from pipevuln.ranking import enumerate_paths, rank_and_select
from pipevuln.simulate import simulate
from pipevuln.specio import parse_spec_file

from conftest import (
    LAYERED_SPEC,
    PIPELINES_DIR,
    random_mixed_sim_triple,
    random_sim_triple,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SPECS = sorted(p.name for p in PIPELINES_DIR.iterdir())
CASES = (
    "validate", "paths", "rank", "rank_forced", "weights", "amplify", "report",
    "report_sim", "matrix",
)
LAYERED_CASES = ("rank", "rank_forced", "weights", "amplify", "report")
FORMAT_SPEC = PIPELINES_DIR / "traffic.yaml"
FORMAT_CASES = tuple(
    f"{command}_{fmt}"
    for command in ("paths", "rank", "weights", "amplify", "simulate", "matrix")
    for fmt in ("table", "csv")
) + ("simulate_records", "matrix_seeds_csv")
SIM_GOLDEN = GOLDEN_DIR / "sim_metrics.jsonl"
SIM_SEEDS = range(50)
MIXED_GOLDEN = GOLDEN_DIR / "sim_mixed.jsonl"
LEDGER = GOLDEN_DIR / "cited_figures.txt"


def _argv(spec: Path, case: str) -> list[str]:
    path = str(spec)
    if case == "validate":
        return ["validate", path]
    if case == "report":
        return ["report", path]
    if case == "rank_forced":
        # The last path's first label: on the shipped specs it forces
        # selection away from the top-ranked path.
        label = enumerate_paths(parse_spec_file(path).graph)[-1].steps[0][1]
        return ["rank", path, "--force-label", label, "--format", "records"]
    if case == "report_sim":
        # Every shipped spec declares "attacked"; its last config is the
        # most defended one (a path budget on the traffic variant).
        config = list(parse_spec_file(path).configs)[-1]
        return ["report", path, "--scenario", "attacked", "--config", config]
    if case in FORMAT_CASES:
        command, *_, fmt = case.split("_")
        argv = [command, path, "--format", fmt]
        if command == "simulate":
            argv += ["--scenario", "attacked", "--config", "buffered"]
        if case == "matrix_seeds_csv":
            argv += ["--seeds", "0,1,2"]
        return argv
    return [case, path, "--format", "records"]


def _golden(spec: Path, case: str) -> Path:
    return GOLDEN_DIR / f"{spec.name}.{case}.txt"


def _run_cli(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = f"exit {code}\n--- stderr\n{err.getvalue()}--- stdout\n{out.getvalue()}"
    return text.encode("utf-8")


def _sim_line(seed: int, triple=random_sim_triple) -> str:
    graph, scenario, config = triple(random.Random(seed))
    record = simulate(graph, scenario, config)._asdict()
    edges = record["edge_stats"]
    record["edge_stats"] = {key: stats._asdict() for key, stats in edges.items()}
    return json.dumps(record, sort_keys=True)


def _ledger() -> str:
    """The cited figures, one ``name: repr`` line each."""
    walkthrough = parse_spec_file(str(PIPELINES_DIR / "traffic.yaml")).graph
    scores = {e.path.id: e.score for e in rank_and_select(walkthrough).entries}
    variant = parse_spec_file(str(PIPELINES_DIR / "traffic_variant.yaml"))

    def run(scenario: str, config: str):
        return simulate(variant.graph, variant.scenarios[scenario],
                        variant.configs[config])

    clean, attacked = run("clean", "none"), run("attacked", "none")
    car = run("attacked", "b16_buf100").edge_stats["od:car"]
    figures = [
        ("walkthrough branch-score ratio (car / person)",
         scores["od:car->lpr:plate->sum:EXIT"]
         / scores["od:person->pr:face->sum:EXIT"]),
        ("traffic_variant clean/none throughput_ips", clean.throughput_ips),
        ("traffic_variant attacked/none throughput_ips", attacked.throughput_ips),
        ("throughput collapse (clean / attacked)",
         clean.throughput_ips / attacked.throughput_ips),
        ("attacked/b16_buf100 od:car dropped", car.dropped),
        ("attacked/b16_buf100 od:car enqueued", car.enqueued),
        ("attacked/b16_buf100 od:car drop fraction", car.dropped / car.enqueued),
    ]
    for spec in SPECS:
        matrix = amplification_matrix(parse_spec_file(str(PIPELINES_DIR / spec)).graph)
        figures.append((f"{spec} largest flops_x",
                        max(b.amplification for b in matrix.values())))
    return "".join(f"{name}: {value!r}\n" for name, value in figures)


def test_float_total_adds_left_to_right():
    # Every float total goes through _total, whose order of addition the
    # goldens pin on any interpreter (README, Determinism); a compensated
    # sum, such as sum() from CPython 3.12 on, would give 2.0 here.
    assert _total([1.0, 1e100, 1.0, -1e100]) == 0.0
    rng = random.Random(0)
    for _ in range(200):
        values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 30)
                  for _ in range(rng.randint(0, 60))]
        total = 0.0
        for value in values:
            total += value
        assert _total(values) == total


def test_cited_figures_match_golden():
    assert _ledger().encode("utf-8") == LEDGER.read_bytes()


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("spec", SPECS)
def test_cli_output_matches_golden(spec, case):
    path = PIPELINES_DIR / spec
    assert _run_cli(_argv(path, case)) == _golden(path, case).read_bytes()


@pytest.mark.parametrize("case", LAYERED_CASES)
def test_layered_output_matches_golden(case):
    expected = _golden(LAYERED_SPEC, case).read_bytes()
    assert _run_cli(_argv(LAYERED_SPEC, case)) == expected


@pytest.mark.parametrize("case", FORMAT_CASES)
def test_format_output_matches_golden(case):
    expected = _golden(FORMAT_SPEC, case).read_bytes()
    assert _run_cli(_argv(FORMAT_SPEC, case)) == expected


@pytest.fixture(scope="module")
def sim_golden() -> list[str]:
    return SIM_GOLDEN.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("seed", SIM_SEEDS)
def test_sim_metrics_match_golden(seed, sim_golden):
    assert _sim_line(seed) == sim_golden[seed]


@pytest.fixture(scope="module")
def mixed_golden() -> list[str]:
    return MIXED_GOLDEN.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("seed", SIM_SEEDS)
def test_mixed_sim_metrics_match_golden(seed, mixed_golden):
    assert _sim_line(seed, random_mixed_sim_triple) == mixed_golden[seed]


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    runs = [(PIPELINES_DIR / spec, case) for spec in SPECS for case in CASES]
    runs += [(LAYERED_SPEC, case) for case in LAYERED_CASES]
    runs += [(FORMAT_SPEC, case) for case in FORMAT_CASES]
    for path, case in runs:
        _golden(path, case).write_bytes(_run_cli(_argv(path, case)))
    for path, triple in ((SIM_GOLDEN, random_sim_triple),
                         (MIXED_GOLDEN, random_mixed_sim_triple)):
        lines = [_sim_line(seed, triple) for seed in SIM_SEEDS]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    LEDGER.write_text(_ledger(), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
