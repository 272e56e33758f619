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

Two generated shapes, a 1,500-deep chain and a 16-label fan-out, run every
subcommand unmutated; they are written as JSON lines, which parse in a
fraction of the time their YAML form takes.
"""

from __future__ import annotations

import copy
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
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
    doc = copy.deepcopy(DOCS[name])
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


def _jsonl(doc: dict) -> str:
    """``doc`` as a JSON-lines spec, one record per line."""
    records = [{"type": section[:-1], **rec}
               for section in ("components", "profiles", "gates", "edges")
               for rec in doc[section]]
    records.append({"type": "source", "id": doc["source"]})
    for section in ("scenarios", "configs"):
        records += [{"type": section[:-1], "name": name, **rec}
                    for name, rec in doc[section].items()]
    return "".join(json.dumps(rec) + "\n" for rec in records)


def _generated_doc(edges: list[tuple[str, str, str]], target: str,
                   adv_mean: float) -> dict:
    """A spec whose edges ``(from, label, to)`` each carry 1 item per clean
    item and ``adv_mean`` per adversarial one.

    The configs put a batch, a path budget on ``target`` and a shared device
    on top of the bare deployment.
    """
    routes: dict[str, dict[str, str]] = {}
    for source, label, sink in edges:
        routes.setdefault(source, {})[label] = sink
    ids = sorted({cid for source, _, sink in edges for cid in (source, sink)})
    component = {"kind": "neural", "clean_cost_gflops": 1.0,
                 "adv_cost_gflops": 2.0, "device_rate_gflops_s": 1000.0,
                 "per_call_overhead_s": 0.001, "batchable": True}
    return {
        "components": [{"id": cid, **component} for cid in ids],
        "profiles": [
            {"component": cid,
             "clean_cardinality": {label: 1.0 for label in routes.get(cid, {})},
             "adv_cardinality": {label: adv_mean for label in routes.get(cid, {})}}
            for cid in ids
        ],
        "gates": [{"component": cid, "routes": routes[cid]} for cid in sorted(routes)],
        "edges": [{"from": source, "to": sink, "label": label}
                  for source, label, sink in edges],
        "source": edges[0][0],
        "scenarios": {
            "clean": {"n_inputs": 3, "seed": 1},
            "attacked": {"n_inputs": 3, "mix": 1.0, "target_path": target,
                         "seed": 1},
        },
        "configs": {
            "none": {},
            "batched": {"batch": {"default": 4}},
            "budget": {"path_budgets": {target: 0.5}},
            "shared": {"device_model": "shared-single-device"},
        },
    }


def _chain_doc(depth: int) -> dict:
    ids = [f"c{i:04d}" for i in range(depth)]
    target = "->".join(f"{cid}:x" for cid in ids[:-1]) + f"->{ids[-1]}:EXIT"
    # An adversarial mean above 1 would grow geometrically along the chain.
    return _generated_doc([(a, "x", b) for a, b in zip(ids, ids[1:])], target, 1.0)


def _fan_out_doc(width: int) -> dict:
    edges = [("a", f"l{i:02d}", f"s{i:02d}") for i in range(width)]
    _, label, sink = edges[width // 2]
    return _generated_doc(edges, f"a:{label}->{sink}:EXIT", 4.0)


@pytest.mark.parametrize("doc", [_chain_doc(1500), _fan_out_doc(16)],
                         ids=["chain-1500", "fan-out-16"])
def test_generated_shape_runs_every_subcommand(tmp_path, doc):
    spec = tmp_path / "generated.jsonl"
    spec.write_text(_jsonl(doc))
    for argv in (
        ["validate"],
        ["paths", "--format", "csv"],
        ["rank", "--format", "records"],
        ["weights", "--format", "records"],
        ["amplify", "--format", "records"],
        ["simulate", "--scenario", "attacked", "--config", "budget"],
        ["matrix", "--format", "csv"],
        ["report", "--scenario", "attacked", "--config", "none"],
    ):
        argv = [argv[0], str(spec), *argv[1:]]
        code, out, err = _run(argv)
        assert code == 0, (argv, err)
        assert out and not NON_FINITE.search(out), argv
        _check_records(argv[0], out)
