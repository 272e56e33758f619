"""Bytecode count of the simulator: bytecodes executed in ``simulate.py``
frames per processed item, on fixed benchmark specs.

Wall times on a shared host spread between runs; these counts are exact,
so a change to the event loop can be compared with its parent without
noise. Each case simulates a spec built by ``perfbench/workloads.py``
(imported, never changed) and counts every ``opcode`` trace event
(``f_trace_opcodes``) in a frame whose code lives in ``simulate.py``,
parsing excluded. A processed item is one unit of a run's ``workload``.
The cases:

* ``none``, ``b16_buf100`` and ``shared_b16``: the ``attack_sim`` spec of
  seed 1 with its ``attacked`` scenario cut to 8 inputs;
* ``matrix``: ``run_matrix`` over every scenario x config cell of the
  ``defense_matrix`` spec, each scenario cut to at most 10 inputs, at
  seed 1.

It prints one line per case and the sha256 of every case's metrics, so
two trees that print the same digest simulated the same outputs. From
the root of a checkout::

    PYTHONPATH=src python tests/opcount.py

pytest does not collect this file. A run takes a few seconds.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from dataclasses import replace
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

from pipevuln.specio import parse_spec  # noqa: E402

SEED = 1
ATTACK_INPUTS = 8
MATRIX_INPUTS = 10
# The package exports a ``simulate`` function under the module's name.
SIM = importlib.import_module("pipevuln.simulate")
SIM_FILE = SIM.__file__


class _Counter:
    """A trace function that counts the opcodes of ``simulate.py`` frames."""

    def __init__(self) -> None:
        self.ops = 0

    def __call__(self, frame, event, arg):
        if frame.f_code.co_filename != SIM_FILE:
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return self._local

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.ops += 1
        return self._local


def _counted(run) -> tuple[float, list]:
    """Bytecodes per processed item of ``run()``, and the metrics it returns."""
    counter = _Counter()
    sys.settrace(counter)
    try:
        results = run()
    finally:
        sys.settrace(None)
    items = sum(sum(metrics.workload.values()) for metrics in results)
    return counter.ops / items, results


def _spec(name: str):
    work = workloads.build(name, SEED)
    return parse_spec(yaml.safe_dump(work.specs[work.setup_spec], sort_keys=False))


def cases() -> list[tuple[str, object]]:
    """``(name, run)`` pairs; ``run()`` returns a list of ``SimMetrics``."""
    attack = _spec("attack_sim")
    scenario = replace(attack.scenarios["attacked"], n_inputs=ATTACK_INPUTS)
    out = [
        (name, lambda config=attack.configs[name]: [
            SIM.simulate(attack.graph, scenario, config)])
        for name in ("none", "b16_buf100", "shared_b16")
    ]
    matrix = _spec("defense_matrix")
    scenarios = {
        name: replace(run, n_inputs=min(run.n_inputs, MATRIX_INPUTS))
        for name, run in matrix.scenarios.items()
    }
    out.append(("matrix", lambda: [
        metrics for _, metrics in
        SIM.run_matrix(matrix.graph, scenarios, matrix.configs, seeds=[SEED])]))
    return out


def main() -> None:
    digest = hashlib.sha256()
    for name, run in cases():
        per_item, results = _counted(run)
        print(f"{name:<12} {per_item:8.2f} bytecodes per processed item")
        for metrics in results:
            digest.update(repr(metrics).encode() + b"\n")
    print(f"metrics sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
