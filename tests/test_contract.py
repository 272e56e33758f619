"""The coded-error contract, checked by mutating shipped specs.

One leaf of a shipped spec is replaced by a hostile value, or its key is
dropped, and the spec runs through ``cli.main`` in process. Whatever the
mutation, each command exits 0 or 1; a failure is one coded line on stderr
(``E_<CODE>: message``), never a traceback; and a success prints no
non-finite number. ``n_inputs`` is clamped to 50 so that every simulation
stays small. Hypothesis runs derandomized, so the examples are the same on
every run.
"""

from __future__ import annotations

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pipevuln.cli import main

from conftest import PIPELINES_DIR

SPECS = sorted(PIPELINES_DIR.glob("*.yaml"))
MAX_INPUTS = 50
DROP = object()
VALUES = [
    DROP, None, "x", [1], {"a": 1}, True, -1, 0,
    math.nan, math.inf, -math.inf, 1e308, 1e-308,
]
CODED = re.compile(r"^E_[A-Z_]+: ")
NON_FINITE = re.compile(r"\b(nan|NaN|inf|Infinity)\b")


def _leaves(node, path=()):
    """Key paths to every scalar in a parsed spec document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


DOCS = {spec.name: yaml.safe_load(spec.read_text()) for spec in SPECS}
LEAVES = [(name, path) for name, doc in DOCS.items() for path in _leaves(doc)]


def _mutated(name: str, path: tuple, value) -> dict:
    doc = yaml.safe_load((PIPELINES_DIR / name).read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    scenarios = doc.get("scenarios")
    for scenario in scenarios.values() if isinstance(scenarios, dict) else ():
        n_inputs = scenario.get("n_inputs") if isinstance(scenario, dict) else None
        if isinstance(n_inputs, int) and n_inputs > MAX_INPUTS:
            scenario["n_inputs"] = MAX_INPUTS
    return doc


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=120, deadline=None)
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(VALUES))
def test_mutated_spec_exits_0_or_1_with_a_coded_error(tmp_path_factory, leaf, value):
    name, path = leaf
    original = DOCS[name]
    spec = tmp_path_factory.mktemp("contract") / name
    spec.write_text(yaml.safe_dump(_mutated(name, path, value)))
    scenario, config = next(iter(original["scenarios"])), next(iter(original["configs"]))
    for argv in (
        ["validate"],
        ["rank"],
        ["amplify", "--format", "records"],
        ["report"],
        ["simulate", "--scenario", scenario, "--config", config],
    ):
        argv = [argv[0], str(spec), *argv[1:]]
        code, out, err = _run(argv)
        assert code in (0, 1), (argv, err)
        if code:
            assert CODED.match(err) and "Traceback" not in err, (argv, err)
        else:
            assert not NON_FINITE.search(out), (argv, out)
