"""Shared builders for the test suite.

The random document generator keeps every cardinality and cost an integer
so brute-force oracles that expand the propagation recurrence item by item
stay exact (and small enough to enumerate).
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from pipevuln.model import PipelineGraph, build_graph
from pipevuln.specio import graph_to_document

PIPELINES_DIR = Path(__file__).resolve().parent.parent / "pipelines"
#: Generated-style spec whose 29 path ids share prefixes up to three steps deep.
LAYERED_SPEC = Path(__file__).resolve().parent / "specs" / "layered.yaml"


def scale_costs(graph: PipelineGraph, lam: float) -> PipelineGraph:
    """Uniformly scale every component's clean and adversarial unit costs."""
    doc = graph_to_document(graph)
    for rec in doc["components"]:
        rec["clean_cost_gflops"] = rec["clean_cost_gflops"] * lam
        rec["adv_cost_gflops"] = rec["adv_cost_gflops"] * lam
    return build_graph(doc)


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


def random_sim_triple(rng: random.Random):
    """Random (graph, scenario, config) triple for simulator property suites."""
    from pipevuln.ranking import enumerate_paths
    from pipevuln.simulate import (
        Attenuation,
        ConfidenceFilter,
        DeploymentConfig,
        InputFilter,
        TrafficScenario,
    )

    graph = build_graph(random_graph_doc(rng))
    paths = enumerate_paths(graph)
    mix = rng.choice([0.0, 0.3, 1.0])
    scenario = TrafficScenario(
        n_inputs=rng.randint(1, 10),
        mix=mix,
        target_path=rng.choice(paths).id if mix > 0 else None,
        arrival=rng.choice(["back-to-back", "fixed-interval"]),
        interval_s=rng.choice([0.0, 0.05, 0.4]),
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
