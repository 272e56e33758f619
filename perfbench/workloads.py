"""Workload definitions: generated spec documents and the command lists run on them.

Every input is generated here from the workload seed; the program under test
receives only the spec files written from these documents and CLI flags.

* ``attack_sim``: a copy of the shipped traffic-variant pipeline with the
  ``attacked`` scenario at ``n_inputs`` 100 and a shared-single-device
  batch-16 config, simulated under three configs.
* ``defense_matrix``: an unchanged copy of the traffic-variant pipeline, run
  through every scenario x config cell of ``matrix``.
* ``wide_graph``: a layered DAG with ``labels`` labels per gate and three
  gated stages (``labels ** 3`` paths), values drawn from the seed.

``size="tiny"`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

WORKLOADS = ("attack_sim", "defense_matrix", "wide_graph")
SIZES = ("full", "tiny")

TARGET_CAR = "od:car->lpr:plate->ret:EXIT"


def _component(cid, kind, clean, adv, rate, overhead, batchable=True):
    return {
        "id": cid, "kind": kind, "clean_cost_gflops": clean,
        "adv_cost_gflops": adv, "device_rate_gflops_s": rate,
        "per_call_overhead_s": overhead, "batchable": batchable,
    }


def _scenario(n_inputs, mix, target, seed):
    return {
        "n_inputs": n_inputs, "mix": mix, "target_path": target,
        "arrival": "fixed-interval:1.73", "seed": seed,
    }


# Copy of pipelines/traffic_variant.yaml (comments and calibration text left
# out), kept here so the benchmark's inputs do not move when the shipped
# spec is recalibrated.
_TRAFFIC_VARIANT = {
    "components": [
        _component("od", "neural", 250.0, 250.0, 500.0, 0.01),
        _component("cap", "neural", 50.0, 50.0, 500.0, 0.01),
        _component("fr", "neural", 10.4, 10.4, 104.0, 0.01),
        _component("lpr", "neural", 23.1133, 23.1133, 231.133, 0.075),
        _component("ret", "non-neural", 0.0, 0.0, 1.0, 0.002, batchable=False),
    ],
    "profiles": [
        {"component": "od",
         "clean_cardinality": {"car": 0.6, "person": 1.26, "frame": 1.0},
         "adv_cardinality": {
             "car": {"car": 931.5, "person": 0.0, "frame": 1.0},
             "person": {"person": 1075.5, "car": 0.0, "frame": 1.0}}},
        {"component": "cap", "clean_cardinality": {"caption": 1.0},
         "adv_cardinality": {}},
        {"component": "fr", "clean_cardinality": {"face": 1.0},
         "adv_cardinality": {}},
        {"component": "lpr", "clean_cardinality": {"plate": 1.0},
         "adv_cardinality": {}},
        {"component": "ret", "clean_cardinality": {}, "adv_cardinality": {}},
    ],
    "gates": [
        {"component": "od", "routes": {"car": "lpr", "person": "fr", "frame": "cap"}},
        {"component": "cap", "routes": {"caption": "ret"}},
        {"component": "fr", "routes": {"face": "ret"}},
        {"component": "lpr", "routes": {"plate": "ret"}},
    ],
    "edges": [
        {"from": "od", "to": "lpr", "label": "car", "capacity": "unbounded"},
        {"from": "od", "to": "fr", "label": "person", "capacity": "unbounded"},
        {"from": "od", "to": "cap", "label": "frame", "capacity": "unbounded"},
        {"from": "cap", "to": "ret", "label": "caption", "capacity": "unbounded"},
        {"from": "fr", "to": "ret", "label": "face", "capacity": "unbounded"},
        {"from": "lpr", "to": "ret", "label": "plate", "capacity": "unbounded"},
    ],
    "source": "od",
    "scenarios": {
        "clean": _scenario(10, 0.0, None, 2024),
        "attacked": _scenario(10, 1.0, TARGET_CAR, 2024),
        "mix_90_10": _scenario(100, 0.1, TARGET_CAR, 0),
        "mix_95_05": _scenario(100, 0.05, TARGET_CAR, 0),
        "mix_99_01": _scenario(100, 0.01, TARGET_CAR, 0),
    },
    "configs": {
        "none": {},
        "conf5": {"confidence": {"adversarial": {"car": 0.599}}},
        "b16": {"batch": {"default": 16}},
        "buf100": {"buffers": {"default": 100}},
        "b16_conf5": {"batch": {"default": 16},
                      "confidence": {"adversarial": {"car": 0.599}}},
        "b16_buf100": {"batch": {"default": 16}, "buffers": {"default": 100}},
        "conf5_buf100": {"confidence": {"adversarial": {"car": 0.599}},
                         "buffers": {"default": 100}},
        "b16_conf5_buf100": {"batch": {"default": 16},
                             "confidence": {"adversarial": {"car": 0.599}},
                             "buffers": {"default": 100}},
        "gauss": {"attenuation": {"factor": 0.2, "residual_floor": 5.0}},
        "smooth": {"attenuation": {"factor": 0.19, "residual_floor": 5.0}},
        "svm": {"input_filter": {"p_detect": 0.8, "action": "drop-input"}},
        "budget": {"path_budgets": {TARGET_CAR: 1.2}},
    },
}

TRAFFIC_PATHS = 3


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``argv`` follows ``python -m pipevuln.cli``."""

    name: str
    argv: tuple[str, ...]
    kind: str  # validate | rank | amplify | report | simulate | matrix


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    specs: dict[str, dict]  # file name -> spec document
    setup_spec: str  # spec file timed by ``setup_s``
    commands: list[Command]
    expected_paths: dict[str, int]  # spec file -> generator's path count


def _traffic_attack(seed: int, size: str) -> dict:
    doc = copy.deepcopy(_TRAFFIC_VARIANT)
    doc["scenarios"]["attacked"]["n_inputs"] = 100 if size == "full" else 3
    doc["scenarios"]["attacked"]["seed"] = seed
    doc["configs"]["shared_b16"] = {
        "batch": {"default": 16}, "device_model": "shared-single-device",
    }
    return doc


def _traffic_matrix(size: str) -> dict:
    doc = copy.deepcopy(_TRAFFIC_VARIANT)
    if size == "tiny":
        for scenario in doc["scenarios"].values():
            scenario["n_inputs"] = 2
        for label in ("car", "person"):
            doc["profiles"][0]["adv_cardinality"][label][label] = 9.5
    return doc


def _wide_graph(seed: int, labels: int, n_inputs: int) -> dict:
    """Layered DAG: source -> 3 layers of ``labels`` components each.

    The source and every component of the first two layers gate ``labels``
    labels, each routed to a distinct component of the next layer through a
    seeded permutation, so there are exactly ``labels ** 3`` paths whatever
    the seed. Third-layer components have no gate; the ``attacked`` scenario
    targets a seeded path.
    """
    rng = random.Random(seed)
    names = [f"c{i:02d}" for i in range(labels)]
    layers = [["src"]] + [[f"l{d}{n}" for n in names] for d in (1, 2, 3)]

    def rnd(lo, hi):
        return round(rng.uniform(lo, hi), 4)

    doc: dict = {"components": [], "profiles": [], "gates": [], "edges": []}
    for depth, layer in enumerate(layers):
        for cid in layer:
            kind = "non-neural" if depth == 3 and rng.random() < 0.25 else "neural"
            clean = 0.0 if kind == "non-neural" else rnd(1.0, 50.0)
            adv = 0.0 if kind == "non-neural" else round(clean * rnd(1.0, 3.0), 4)
            doc["components"].append(_component(
                cid, kind, clean, adv, rnd(200.0, 2000.0), rnd(0.001, 0.02)))
            if depth == 3:
                continue
            targets = list(layers[depth + 1])
            rng.shuffle(targets)
            doc["gates"].append(
                {"component": cid, "routes": dict(zip(names, targets))})
            doc["edges"].extend(
                {"from": cid, "to": to, "label": label, "capacity": "unbounded"}
                for label, to in zip(names, targets))
            # Clean emissions sum to about one item per invocation; steering
            # toward a label emits four items on it and none elsewhere, so
            # the simulated item count does not depend on the seed.
            doc["profiles"].append({
                "component": cid,
                "clean_cardinality": {n: rnd(0.5, 1.5) / labels for n in names},
                "adv_cardinality": {n: 4.0 for n in names},
            })
    doc["source"] = "src"

    steps = []
    cid = "src"
    for _ in range(3):
        label = rng.choice(names)
        steps.append(f"{cid}:{label}")
        cid = next(g["routes"][label] for g in doc["gates"] if g["component"] == cid)
    target = "->".join(steps + [f"{cid}:EXIT"])
    doc["scenarios"] = {
        "clean": {"n_inputs": n_inputs, "mix": 0.0, "target_path": None,
                  "arrival": "back-to-back", "seed": seed},
        "attacked": {"n_inputs": n_inputs, "mix": 1.0, "target_path": target,
                     "arrival": "fixed-interval:0.5", "seed": seed},
    }
    doc["configs"] = {"none": {}, "b4": {"batch": {"default": 4}}}
    return doc


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The specs and command list of one workload for one seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    seed_flag = ("--seed", str(seed))
    if name == "attack_sim":
        spec = "attack_sim.yaml"
        commands = [
            Command(f"simulate/{config}",
                    ("simulate", spec, "--scenario", "attacked", "--config",
                     config, "--format", "records") + seed_flag, "simulate")
            for config in ("none", "b16_buf100", "shared_b16")
        ]
        doc = _traffic_attack(seed, size)
        expected = {spec: TRAFFIC_PATHS}
    elif name == "defense_matrix":
        spec = "defense_matrix.yaml"
        commands = [Command("matrix", ("matrix", spec, "--format", "csv") + seed_flag,
                            "matrix")]
        doc = _traffic_matrix(size)
        expected = {spec: TRAFFIC_PATHS}
    else:
        spec = "wide_graph.yaml"
        labels, n_inputs = (16, 250) if size == "full" else (3, 2)
        doc = _wide_graph(seed, labels, n_inputs)
        commands = [
            Command("validate", ("validate", spec), "validate"),
            Command("rank", ("rank", spec, "--format", "records"), "rank"),
            Command("amplify", ("amplify", spec, "--format", "records"), "amplify"),
            Command("report", ("report", spec), "report"),
            Command("simulate/b4",
                    ("simulate", spec, "--scenario", "attacked", "--config", "b4",
                     "--format", "records") + seed_flag, "simulate"),
        ]
        expected = {spec: labels ** 3}
    if name != "wide_graph":
        # Every end-to-end metric is reported on every workload, so the
        # traffic workloads also rank and amplify their (3-path) spec.
        commands += [
            Command("rank", ("rank", spec, "--format", "records"), "rank"),
            Command("amplify", ("amplify", spec, "--format", "records"), "amplify"),
        ]
    return Workload(name=name, seed=seed, size=size, specs={spec: doc},
                    setup_spec=spec, commands=commands, expected_paths=expected)
