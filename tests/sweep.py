"""Equivalence sweep: one digest of many random simulator runs.

Runs 3,000 ``random_sim_triple`` (``random.Random(11)``) and 3,000
``random_mixed_sim_triple`` (``random.Random(12)``) triples, each at the
default event bound and at ``max_events=40``, and prints the result count,
the count of results that are coded errors, and the sha256 of every result
in order: the ``repr`` of its ``SimMetrics``, or its ``E_<CODE>: message``
line. A refactor that claims unchanged outputs runs it on the parent and on
the change and compares the two lines. From the root of a checkout::

    PYTHONPATH=src python tests/sweep.py

pytest does not collect this file. The generators set no path budget, so
no run here puts a budget on an edge into a gateless, batch-1, sole-device
server; the ``budget`` cells of the goldens cover that case.
"""

from __future__ import annotations

import hashlib
import random

from pipevuln.errors import PipelineError
from pipevuln.simulate import simulate

from conftest import random_mixed_sim_triple, random_sim_triple

TRIPLES = 3_000
BOUNDS = ({}, {"max_events": 40})


def main() -> None:
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
    print(f"{results} results, {errors} coded errors, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
