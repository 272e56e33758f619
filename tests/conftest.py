"""Shared builders for the test suite.

The random document generator keeps every cardinality and cost an integer
so brute-force oracles that expand the propagation recurrence item by item
stay exact (and small enough to enumerate).
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from pipevuln.model import PipelineGraph, build_graph

PIPELINES_DIR = Path(__file__).resolve().parent.parent / "pipelines"
#: Generated-style spec whose 29 path ids share prefixes up to three steps deep.
LAYERED_SPEC = Path(__file__).resolve().parent / "specs" / "layered.yaml"


def child_env() -> dict:
    """The environment of a child process that imports this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def scale_costs(graph: PipelineGraph, lam: float) -> PipelineGraph:
    """Uniformly scale every component's clean and adversarial unit costs."""
    return graph._replace(components={
        cid: spec._replace(clean_cost=spec.clean_cost * lam,
                           adv_cost=spec.adv_cost * lam)
        for cid, spec in graph.components.items()
    })


@pytest.fixture(scope="session")
def pipelines_dir() -> Path:
    return PIPELINES_DIR


def traffic_doc() -> dict:
    """Walkthrough-style traffic pipeline as a document literal.

    Kept independent of the shipped spec file so model/ranking unit tests
    do not couple to file parsing.
    """
    return {
        "components": [
            {"id": "od", "kind": "neural", "clean_cost_gflops": 100.0,
             "adv_cost_gflops": 100.0, "device_rate_gflops_s": 500.0,
             "per_call_overhead_s": 0.01, "batchable": True},
            {"id": "pr", "kind": "neural", "clean_cost_gflops": 10.4,
             "adv_cost_gflops": 10.4, "device_rate_gflops_s": 104.0,
             "per_call_overhead_s": 0.01, "batchable": True},
            {"id": "lpr", "kind": "neural", "clean_cost_gflops": 332.0,
             "adv_cost_gflops": 332.0, "device_rate_gflops_s": 332.0,
             "per_call_overhead_s": 0.02, "batchable": True},
            {"id": "sum", "kind": "non-neural", "clean_cost_gflops": 0.0,
             "adv_cost_gflops": 0.0, "device_rate_gflops_s": 1.0,
             "per_call_overhead_s": 0.002, "batchable": False},
        ],
        "profiles": [
            {"component": "od",
             "clean_cardinality": {"person": 1.0, "car": 1.0, "other": 1.0},
             "adv_cardinality": {"person": 100.0, "car": 100.0}},
            {"component": "pr", "clean_cardinality": {"face": 1.0}},
            {"component": "lpr", "clean_cardinality": {"plate": 1.0}},
            {"component": "sum"},
        ],
        "gates": [
            {"component": "od",
             "routes": {"person": "pr", "car": "lpr", "other": "EXIT"}},
            {"component": "pr", "routes": {"face": "sum"}},
            {"component": "lpr", "routes": {"plate": "sum"}},
        ],
        "edges": [
            {"from": "od", "to": "pr", "label": "person"},
            {"from": "od", "to": "lpr", "label": "car"},
            {"from": "pr", "to": "sum", "label": "face"},
            {"from": "lpr", "to": "sum", "label": "plate"},
        ],
        "source": "od",
    }


def huge_mean_doc() -> dict:
    """Two components; attacked inputs make ``a`` emit 1e12 items each."""
    component = {"kind": "neural", "clean_cost_gflops": 1.0,
                 "adv_cost_gflops": 1.0, "device_rate_gflops_s": 10.0,
                 "per_call_overhead_s": 0.0, "batchable": True}
    return {
        "components": [{"id": "a", **component}, {"id": "b", **component}],
        "profiles": [
            {"component": "a", "clean_cardinality": {"x": 1.0},
             "adv_cardinality": {"x": 1e12}},
            {"component": "b"},
        ],
        "gates": [{"component": "a", "routes": {"x": "b"}}],
        "edges": [{"from": "a", "to": "b", "label": "x"}],
        "source": "a",
        "scenarios": {"attacked": {
            "n_inputs": 1, "mix": 1.0, "target_path": "a:x->b:EXIT",
            "arrival": "back-to-back", "seed": 0,
        }},
        "configs": {"none": {}},
    }


def exit_only_doc(mean: float, overhead: float, n_inputs: int = 1) -> dict:
    """Source ``a`` gates label ``x`` into an exit-only server ``b``.

    ``a`` serves one input in 0.25 + 3.0 / 8.0 = 0.625 s and emits a
    Poisson(``mean``) number of ``x`` items; ``b`` is non-neural, costs
    nothing and takes ``overhead`` seconds per item, one at a time.
    """
    return {
        "components": [
            {"id": "a", "kind": "neural", "clean_cost_gflops": 3.0,
             "device_rate_gflops_s": 8.0, "per_call_overhead_s": 0.25},
            {"id": "b", "kind": "non-neural", "clean_cost_gflops": 0.0,
             "per_call_overhead_s": overhead, "batchable": False},
        ],
        "profiles": [
            {"component": "a", "clean_cardinality": {"x": mean}},
            {"component": "b"},
        ],
        "gates": [{"component": "a", "routes": {"x": "b"}}],
        "edges": [{"from": "a", "to": "b", "label": "x"}],
        "source": "a",
        "scenarios": {"clean": {"n_inputs": n_inputs, "arrival": "back-to-back"}},
        "configs": {"none": {}},
    }


@pytest.fixture
def traffic_graph() -> PipelineGraph:
    return build_graph(traffic_doc())


def random_graph_doc(rng: random.Random, max_nodes: int = 6) -> dict:
    """Random valid pipeline document with integer costs and cardinalities.

    Layout: node c0 is the source; every later node picks parents among
    earlier nodes, so the result is acyclic and fully reachable. Some gates
    carry an extra EXIT label. Adversarial entries are flat integers a few
    times the clean mean, keeping item-by-item oracle expansion feasible.
    """
    n = rng.randint(2, max_nodes)
    ids = [f"c{i}" for i in range(n)]
    components = []
    for cid in ids:
        cost = float(rng.randint(1, 9))
        components.append({
            "id": cid,
            "kind": "neural",
            "clean_cost_gflops": cost,
            "adv_cost_gflops": cost * rng.choice([1.0, 1.0, 2.0]),
            "device_rate_gflops_s": float(rng.randint(5, 50)),
            "per_call_overhead_s": rng.choice([0.0, 0.01, 0.05]),
            "batchable": rng.random() < 0.8,
        })
    edges = []
    routes: dict[str, dict[str, str]] = {cid: {} for cid in ids}
    for j in range(1, n):
        parents = rng.sample(range(j), k=min(j, rng.choice([1, 1, 2])))
        for p in parents:
            label = f"t{j}_{p}"
            edges.append({"from": ids[p], "to": ids[j], "label": label})
            routes[ids[p]][label] = ids[j]
    for cid in ids:
        if routes[cid] and rng.random() < 0.4:
            routes[cid][f"x_{cid}"] = "EXIT"
    profiles = []
    for cid in ids:
        clean = {}
        adv = {}
        for label in routes[cid]:
            clean[label] = float(rng.randint(0, 2))
            if rng.random() < 0.7:
                adv[label] = float(rng.randint(2, 6))
        profiles.append({
            "component": cid,
            "clean_cardinality": clean,
            "adv_cardinality": adv,
        })
    gates = [
        {"component": cid, "routes": table}
        for cid, table in routes.items()
        if table
    ]
    return {
        "components": components,
        "profiles": profiles,
        "gates": gates,
        "edges": edges,
        "source": ids[0],
    }


def random_graph(rng: random.Random, max_nodes: int = 6) -> PipelineGraph:
    return build_graph(random_graph_doc(rng, max_nodes))


def wide_layered_doc(seed: int, labels: int = 8) -> dict:
    """A source and three layers of ``labels`` components: ``labels ** 3`` paths.

    The source and each component of the first two layers gate ``labels``
    labels onto a seeded permutation of the next layer. Adversarial rows are
    sparse: per label, a flat mean (that label alone), a table that leaves
    most labels out, or nothing (not steerable). Costs are non-integer, adv
    costs fall below clean ones as well as above, and a quarter of the last
    layer is non-neural, so products and sums round.
    """
    rng = random.Random(seed)
    names = [f"c{i}" for i in range(labels)]
    layers = [["src"]] + [[f"l{depth}{name}" for name in names] for depth in (1, 2, 3)]
    doc: dict = {"components": [], "profiles": [], "gates": [], "edges": [],
                 "source": "src"}
    for depth, layer in enumerate(layers):
        for cid in layer:
            neural = depth < 3 or rng.random() < 0.75
            clean = rng.uniform(0.5, 50.0) if neural else 0.0
            doc["components"].append({
                "id": cid, "kind": "neural" if neural else "non-neural",
                "clean_cost_gflops": clean,
                "adv_cost_gflops": clean * rng.uniform(0.5, 3.0),
            })
            if depth == 3:
                continue
            targets = list(layers[depth + 1])
            rng.shuffle(targets)
            doc["gates"].append({"component": cid, "routes": dict(zip(names, targets))})
            doc["edges"] += [{"from": cid, "to": target, "label": name}
                             for name, target in zip(names, targets)]
            adv: dict = {}
            for name in names:
                draw = rng.random()
                if draw < 0.25:
                    adv[name] = rng.uniform(1.0, 9.0)
                elif draw < 0.5:
                    adv[name] = {other: rng.uniform(0.0, 4.0)
                                 for other in rng.sample(names, 3)}
            doc["profiles"].append({
                "component": cid,
                "clean_cardinality": {name: rng.uniform(0.05, 0.3) for name in names},
                "adv_cardinality": adv,
            })
    return doc


def random_sim_triple(rng: random.Random):
    """Random (graph, scenario, config) triple for simulator property suites."""
    from pipevuln.ranking import enumerate_paths
    from pipevuln.model import (
        Attenuation,
        ConfidenceFilter,
        DeploymentConfig,
        InputFilter,
        TrafficScenario,
    )

    graph = build_graph(random_graph_doc(rng))
    paths = enumerate_paths(graph)
    mix = rng.choice([0.0, 0.3, 1.0])
    n_inputs = rng.randint(1, 10)
    target_path = rng.choice(paths).id if mix > 0 else None
    back_to_back = rng.choice(["back-to-back", "fixed-interval"]) == "back-to-back"
    interval_s = rng.choice([0.0, 0.05, 0.4])
    scenario = TrafficScenario(
        n_inputs=n_inputs,
        mix=mix,
        target_path=target_path,
        interval_s=0.0 if back_to_back else interval_s,
        seed=rng.randint(0, 2**32),
    )
    config = DeploymentConfig(
        batch={"default": rng.choice([1, 2, 8])},
        buffers={} if rng.random() < 0.5
        else {"default": rng.choice([2, 10, 100])},
        confidence=None if rng.random() < 0.5 else ConfidenceFilter(
            adversarial={"default": rng.random()}
        ),
        attenuation=None if rng.random() < 0.7 else Attenuation(
            factor=rng.random(), residual_floor=rng.choice([0.0, 2.0])
        ),
        input_filter=None if rng.random() < 0.7 else InputFilter(
            p_detect=rng.random(),
            action=rng.choice(["drop-input", "treat-as-clean"]),
        ),
        device_model=rng.choice(
            ["per-component-server", "shared-single-device"]
        ),
    )
    return graph, scenario, config


def random_budget_sim_triple(rng: random.Random):
    """``random_sim_triple`` with path budgets: each of one or two of its
    paths is capped at 0, 0.5, 1 or 3 items per input."""
    from pipevuln.ranking import enumerate_paths

    graph, scenario, config = random_sim_triple(rng)
    paths = [path.id for path in enumerate_paths(graph)]
    chosen = rng.sample(paths, k=min(len(paths), rng.choice([1, 2])))
    budgets = {pid: rng.choice([0.0, 0.5, 1.0, 3.0]) for pid in chosen}
    return graph, scenario, config._replace(path_budgets=budgets)


#: Id prefixes around ``"@shared"`` in sort order: "0" and "-" sort before
#: it, "_", "Z" and "a" after.
MIXED_PREFIXES = ("0", "-", "_", "Z", "a")


def random_mixed_sim_triple(rng: random.Random):
    """Random triple whose runs exercise the simulator's tie-break orders.

    ``random_sim_triple`` runs only neural ``c…`` components at costs and
    intervals that almost never collide. Here ids carry the
    ``MIXED_PREFIXES``, so a shared device restarts before or after the
    per-component devices around it; most components, non-neural or neural,
    have zero cost and zero overhead, so they complete at the instant they
    start; and every service time and arrival interval is a dyadic fraction,
    so arrivals and completions meet at the same instant.
    """
    from pipevuln.ranking import enumerate_paths
    from pipevuln.model import DeploymentConfig, TrafficScenario

    doc = random_graph_doc(rng, max_nodes=8)
    names = {c["id"]: rng.choice(MIXED_PREFIXES) + c["id"] for c in doc["components"]}
    for component in doc["components"]:
        component["id"] = names[component["id"]]
        draw = rng.random()
        if draw < 0.4:
            component.update(kind="non-neural", clean_cost_gflops=0.0,
                             adv_cost_gflops=0.0, per_call_overhead_s=0.0)
        elif draw < 0.7:
            component.update(clean_cost_gflops=0.0, adv_cost_gflops=0.0,
                             per_call_overhead_s=0.0)
        else:
            component.update(device_rate_gflops_s=rng.choice([1.0, 2.0, 4.0, 8.0]),
                             per_call_overhead_s=rng.choice([0.0, 0.25, 0.5]))
    for profile in doc["profiles"]:
        profile["component"] = names[profile["component"]]
    for gate in doc["gates"]:
        gate["component"] = names[gate["component"]]
        gate["routes"] = {label: names.get(target, target)
                          for label, target in gate["routes"].items()}
    for edge in doc["edges"]:
        edge["from"], edge["to"] = names[edge["from"]], names[edge["to"]]
    doc["source"] = names[doc["source"]]
    graph = build_graph(doc)
    mix = rng.choice([0.0, 0.5, 1.0])
    scenario = TrafficScenario(
        n_inputs=rng.randint(2, 12),
        mix=mix,
        target_path=rng.choice(enumerate_paths(graph)).id if mix > 0 else None,
        interval_s=rng.choice([0.0, 0.25, 0.5, 1.0]),
        seed=rng.randint(0, 2**32),
    )
    config = DeploymentConfig(
        batch={"default": rng.choice([1, 2, 8])},
        buffers={} if rng.random() < 0.5 else {"default": rng.choice([1, 2, 4])},
        device_model=rng.choice(["per-component-server", "shared-single-device"]),
    )
    return graph, scenario, config
