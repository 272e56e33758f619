"""Equivalence sweep: one digest of many random simulator runs, and one of
many mutated spec parses.

The simulator line runs 3,000 ``random_sim_triple`` (``random.Random(11)``)
and 3,000 ``random_mixed_sim_triple`` (``random.Random(12)``) triples, each
at the default event bound and at ``max_events=40``, and prints the result
count, the count of results that are coded errors, and the sha256 of every
result in order: the ``repr`` of its ``SimMetrics``, or its ``E_<CODE>:
message`` line.

The parse line applies every mutation of the contract test
(``test_contract.py``) to its shipped spec: each leaf replaced by each of
its ``VALUES`` (a dropped key included), and each mapping key replaced by
the int ``1``. Each mutated document is dumped as YAML and read by
``parse_spec``, and the line prints the parse count, the coded-error count
and the sha256 over the ``repr`` of ``(graph, scenarios, configs,
calibration)`` or the error line of each parse, in order.

A refactor that claims unchanged outputs runs it on the parent and on the
change and compares the lines. From the root of a checkout::

    PYTHONPATH=src python tests/sweep.py

pytest does not collect this file. The generators set no path budget, so
no run here puts a budget on an edge into a gateless, batch-1, sole-device
server; the ``budget`` cells of the goldens and the
``random_budget_sim_triple`` runs of
``test_simulate.py::TestReferenceSimulator`` cover that case. An
exit-feeding server that is not exit-only, which completes items without
the heap (``simulate`` module docstring), is built by 685 of the 3,000
random triples (22.8%) and 1,059 of the 3,000 mixed ones (35.3%);
``test_simulate.py::TestPropertySuite::test_run_through_matches_the_reference``
holds a floor on that count for its own triples.
"""

from __future__ import annotations

import hashlib
import random

import yaml

from pipevuln.errors import PipelineError
from pipevuln.simulate import simulate
from pipevuln.specio import parse_spec

from conftest import random_mixed_sim_triple, random_sim_triple
from test_contract import INT_KEY, KEYS, LEAVES, VALUES, _mutated

TRIPLES = 3_000
BOUNDS = ({}, {"max_events": 40})
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _simulations() -> str:
    digest = hashlib.sha256()
    results = errors = 0
    for triple, rng_seed in ((random_sim_triple, 11), (random_mixed_sim_triple, 12)):
        rng = random.Random(rng_seed)
        for _ in range(TRIPLES):
            graph, scenario, config = triple(rng)
            for bound in BOUNDS:
                try:
                    line = repr(simulate(graph, scenario, config, **bound))
                except PipelineError as exc:
                    line = str(exc)
                    errors += 1
                results += 1
                digest.update(line.encode() + b"\n")
    return f"{results} results, {errors} coded errors, sha256 {digest.hexdigest()}"


def _parses() -> str:
    digest = hashlib.sha256()
    parses = errors = 0
    mutations = [(leaf, value) for leaf in LEAVES for value in VALUES]
    mutations += [(key, INT_KEY) for key in KEYS]
    for (name, path), value in mutations:
        text = yaml.dump(_mutated(name, path, value), Dumper=DUMPER, sort_keys=False)
        try:
            spec = parse_spec(text)
            line = repr((spec.graph, spec.scenarios, spec.configs, spec.calibration))
        except PipelineError as exc:
            line = str(exc)
            errors += 1
        parses += 1
        digest.update(line.encode() + b"\n")
    return f"{parses} parses, {errors} coded errors, sha256 {digest.hexdigest()}"


def main() -> None:
    print(_simulations())
    print(_parses())


if __name__ == "__main__":
    main()
