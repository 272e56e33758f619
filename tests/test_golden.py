"""Golden-output gate: CLI outputs and simulator metrics, byte for byte.

Every file in ``pipelines/`` is run through ``cli.main`` in process for each
case in ``CASES``; the exit code, stderr and stdout must equal the committed
file ``tests/golden/<spec>.<case>.txt`` exactly. Fifty seeded
``random_sim_triple`` runs must reproduce the sorted-key JSON of their
``SimMetrics`` line for line; they cover the ``shared-single-device`` model,
which no shipped spec uses. Every shipped spec has at most three paths, so
the analytic cases also run on ``tests/specs/layered.yaml`` (29 paths whose
ids share prefixes up to three steps deep). ``FORMAT_CASES`` run on one small
shipped spec and render each subcommand that takes ``--format`` in each
format, table ``matrix`` with its edge sections and multi-seed mean and std
rows included.

The simulator draws from its counter-hash stream (SplitMix64 keys mapped
through inverse-CDF Poisson tables), so these files pin that stream:
changing it is a deliberate re-baseline. After a deliberate output change,
regenerate every golden file with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import pytest

from pipevuln.cli import main
from pipevuln.ranking import PATH_CAP_ENV, enumerate_paths
from pipevuln.simulate import simulate
from pipevuln.specio import parse_spec_file

from conftest import LAYERED_SPEC, PIPELINES_DIR, random_sim_triple

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


def _sim_line(seed: int) -> str:
    graph, scenario, config = random_sim_triple(random.Random(seed))
    return json.dumps(asdict(simulate(graph, scenario, config)), sort_keys=True)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("spec", SPECS)
def test_cli_output_matches_golden(spec, case, monkeypatch):
    monkeypatch.delenv(PATH_CAP_ENV, raising=False)
    path = PIPELINES_DIR / spec
    assert _run_cli(_argv(path, case)) == _golden(path, case).read_bytes()


@pytest.mark.parametrize("case", LAYERED_CASES)
def test_layered_output_matches_golden(case, monkeypatch):
    monkeypatch.delenv(PATH_CAP_ENV, raising=False)
    expected = _golden(LAYERED_SPEC, case).read_bytes()
    assert _run_cli(_argv(LAYERED_SPEC, case)) == expected


@pytest.mark.parametrize("case", FORMAT_CASES)
def test_format_output_matches_golden(case, monkeypatch):
    monkeypatch.delenv(PATH_CAP_ENV, raising=False)
    expected = _golden(FORMAT_SPEC, case).read_bytes()
    assert _run_cli(_argv(FORMAT_SPEC, case)) == expected


@pytest.fixture(scope="module")
def sim_golden() -> list[str]:
    return SIM_GOLDEN.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("seed", SIM_SEEDS)
def test_sim_metrics_match_golden(seed, sim_golden):
    assert _sim_line(seed) == sim_golden[seed]


def regenerate() -> None:
    os.environ.pop(PATH_CAP_ENV, None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    runs = [(PIPELINES_DIR / spec, case) for spec in SPECS for case in CASES]
    runs += [(LAYERED_SPEC, case) for case in LAYERED_CASES]
    runs += [(FORMAT_SPEC, case) for case in FORMAT_CASES]
    for path, case in runs:
        _golden(path, case).write_bytes(_run_cli(_argv(path, case)))
    lines = [_sim_line(seed) for seed in SIM_SEEDS]
    SIM_GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
