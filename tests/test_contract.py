"""The coded-error contract, checked by mutating shipped specs.

One leaf of a shipped spec is replaced by a hostile value, or its key is
dropped, or one mapping key (at any depth, scenario and config names
included) is replaced by the int ``1``; the spec then runs through
``cli.main`` in process. Whatever the mutation, each command exits 0 or 1;
a failure is one coded line on stderr (``E_<CODE>: message``), never a
traceback; and a success prints no non-finite number, ``weights`` records
that sum to 1, and ``amplify`` rows whose ``flops_x`` is their total over
the clean total. ``tests/specs/layered.yaml`` (no scenarios or configs)
runs the analytic subcommands only. ``n_inputs`` is clamped to 50 so that
every simulation stays small. Hypothesis runs derandomized, so the
examples are the same on every run.
"""

from __future__ import annotations

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipevuln.cli import main

from conftest import LAYERED_SPEC, PIPELINES_DIR

SPECS = sorted(PIPELINES_DIR.glob("*.yaml")) + [LAYERED_SPEC]
MAX_INPUTS = 50
DROP = object()
INT_KEY = object()  # replaces the last key of the path by the int 1
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


def _keys(node, path=()):
    """Key paths to every mapping entry in a parsed spec document."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield path + (key,)
            yield from _keys(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _keys(child, path + (index,))


DOCS = {spec.name: yaml.safe_load(spec.read_text()) for spec in SPECS}
LEAVES = [(name, path) for name, doc in DOCS.items() for path in _leaves(doc)]
KEYS = [(name, path) for name, doc in DOCS.items() for path in _keys(doc)]
MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(LEAVES), st.sampled_from(VALUES)),
    st.tuples(st.sampled_from(KEYS), st.just(INT_KEY)),
)


def _mutated(name: str, path: tuple, value) -> dict:
    doc = yaml.safe_load(next(s for s in SPECS if s.name == name).read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    elif value is INT_KEY:
        parent[1] = parent.pop(path[-1])
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


def _check_records(command: str, out: str) -> None:
    """The sums a successful ``weights`` or ``amplify`` run must keep."""
    if command not in ("weights", "amplify"):
        return
    records = [json.loads(line) for line in out.splitlines()]
    if command == "weights":
        total = sum(r["weight"] for r in records if "weight" in r)
        assert abs(total - 1.0) <= 1e-12, records
    elif command == "amplify":
        clean = next(r["total_gflops"] for r in records if r["scenario"] == "clean")
        for r in records:
            expected = r["total_gflops"] / clean if clean > 0 else 1.0
            assert r["flops_x"] == expected, (r, clean)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(mutation=MUTATIONS)
# A non-string path budget key once raised a raw AttributeError from every
# command, and a non-string scenario name a raw TypeError from --scenario.
@example(mutation=(("traffic_variant.yaml", (
    "configs", "budget", "path_budgets", "od:car->lpr:plate->ret:EXIT")), INT_KEY))
@example(mutation=(("traffic_variant.yaml", ("scenarios", "clean")), INT_KEY))
def test_mutated_spec_exits_0_or_1_with_a_coded_error(tmp_path_factory, mutation):
    (name, path), value = mutation
    original = DOCS[name]
    spec = tmp_path_factory.mktemp("contract") / name
    spec.write_text(yaml.safe_dump(_mutated(name, path, value), sort_keys=False))
    commands = [
        ["validate"],
        ["paths"],
        ["rank"],
        ["weights", "--format", "records"],
        ["amplify", "--format", "records"],
        ["report"],
    ]
    if "scenarios" in original:
        picks = ["--scenario", next(iter(original["scenarios"])),
                 "--config", next(iter(original["configs"]))]
        commands += [["simulate", *picks], ["matrix", *picks]]
    for argv in commands:
        argv = [argv[0], str(spec), *argv[1:]]
        code, out, err = _run(argv)
        assert code in (0, 1), (argv, err)
        if code:
            assert CODED.match(err) and "Traceback" not in err, (argv, err)
        else:
            assert not NON_FINITE.search(out), (argv, out)
            _check_records(argv[0], out)
