"""Bytecode count of the simulator: bytecodes executed in pipevuln frames
per processed item, on fixed benchmark specs.

Wall times on a shared host spread between runs; these counts are exact,
so a change to the event loop can be compared with its parent without
noise. Each case simulates a spec built by ``perfbench/workloads.py``
(imported, never changed) and counts every ``opcode`` trace event
(``f_trace_opcodes``) in a frame whose code lives under ``src/pipevuln``,
parsing excluded, so moving code between modules moves no figure. A
processed item is one unit of a run's ``workload``. The bytecodes run
while ``_poisson_table`` is on the stack are counted apart: a table is
built once per mean, not per item, so they are given as a total on a line
of their own and left out of the per-item figure. The cases:

* ``none``, ``b16_buf100`` and ``shared_b16``: the ``attack_sim`` spec of
  seed 1 with its ``attacked`` scenario cut to 8 inputs;
* ``matrix``: ``run_matrix`` over every scenario x config cell of the
  ``defense_matrix`` spec, each scenario cut to at most 10 inputs, at
  seed 1;
* ``none/100``, ``b16_buf100/100`` and ``shared_b16/100``: the first three
  at perfbench's 100 inputs.

The Poisson-table memo is cleared before each case, so each case builds
its own tables, as a fresh process does. It prints two lines per case and
the sha256 of the metrics of the first four cases, so two trees that print
the same digest simulated the same outputs, and the same for the 100-input
cases. From the root of a checkout::

    PYTHONPATH=src python tests/opcount.py

pytest does not collect this file. A run takes a few seconds.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

from pipevuln.specio import parse_spec  # noqa: E402

SEED = 1
ATTACK_INPUTS = 8
BENCH_INPUTS = 100
MATRIX_INPUTS = 10
# The package exports a ``simulate`` function under the module's name.
SIM = importlib.import_module("pipevuln.simulate")
PACKAGE_DIR = str(Path(SIM.__file__).parent) + os.sep
TABLE_CODE = SIM._poisson_table.__wrapped__.__code__


class _Counter:
    """A trace function that counts the opcodes of pipevuln frames, those
    run while ``_poisson_table`` is on the stack apart."""

    def __init__(self) -> None:
        self.ops = 0
        self.table_ops = 0
        self.in_table = False

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE_DIR):
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        if code is TABLE_CODE:
            self.in_table = True
        # A frame called from a table build, a generator's included, ends
        # before the build does.
        return self._in_table if self.in_table else self._local

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.ops += 1
        return self._local

    def _in_table(self, frame, event, arg):
        if event == "opcode":
            self.table_ops += 1
        elif event == "return" and frame.f_code is TABLE_CODE:
            self.in_table = False
        return self._in_table


def _counted(run) -> tuple[float, int, list]:
    """Bytecodes per processed item of ``run()`` outside table builds, the
    bytecodes of its table builds, and the metrics it returns."""
    SIM._poisson_table.cache_clear()
    counter = _Counter()
    sys.settrace(counter)
    try:
        results = run()
    finally:
        sys.settrace(None)
    items = sum(sum(metrics.workload.values()) for metrics in results)
    return counter.ops / items, counter.table_ops, results


def _spec(name: str):
    work = workloads.build(name, SEED)
    return parse_spec(yaml.safe_dump(work.specs[work.setup_spec], sort_keys=False))


def _attack_cases(n_inputs: int, suffix: str) -> list[tuple[str, object]]:
    attack = _spec("attack_sim")
    scenario = attack.scenarios["attacked"]._replace(n_inputs=n_inputs)
    return [
        (name + suffix, lambda config=attack.configs[name]: [
            SIM.simulate(attack.graph, scenario, config)])
        for name in ("none", "b16_buf100", "shared_b16")
    ]


def cases() -> list[list[tuple[str, object]]]:
    """Two groups of ``(name, run)`` pairs, each digested on its own;
    ``run()`` returns a list of ``SimMetrics``."""
    matrix = _spec("defense_matrix")
    scenarios = {
        name: run._replace(n_inputs=min(run.n_inputs, MATRIX_INPUTS))
        for name, run in matrix.scenarios.items()
    }
    first = _attack_cases(ATTACK_INPUTS, "") + [("matrix", lambda: [
        metrics for _, metrics in
        SIM.run_matrix(matrix.graph, scenarios, matrix.configs, seeds=[SEED])])]
    return [first, _attack_cases(BENCH_INPUTS, f"/{BENCH_INPUTS}")]


def main() -> None:
    for group, label in zip(cases(), ("metrics", f"{BENCH_INPUTS}-input metrics")):
        digest = hashlib.sha256()
        for name, run in group:
            per_item, table_ops, results = _counted(run)
            print(f"{name:<16} {per_item:8.2f} bytecodes per processed item")
            print(f"{'':<16} {table_ops:8d} bytecodes in table builds")
            for metrics in results:
                digest.update(repr(metrics).encode() + b"\n")
        print(f"{label} sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
