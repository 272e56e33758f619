"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria anchored to published deployment measurements use the calibrated
traffic specs shipped under pipelines/; tolerances are pinned here and
nowhere else.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from pipevuln.cli import main
from pipevuln.model import EXIT, build_graph
from pipevuln.propagation import CLEAN, WorkloadVector, cost, propagate
from pipevuln.ranking import (
    ExecutionPath,
    compute_loss_weights,
    enumerate_paths,
    rank_and_select,
)
from pipevuln.simulate import simulate
from pipevuln.specio import parse_spec_file

from conftest import random_graph_doc, random_sim_triple, scale_costs

from test_ranking import oracle_argmax, oracle_paths, oracle_rank, oracle_workload


def _report(number: int, name: str, checks: dict[str, bool]) -> None:
    ok = all(checks.values())
    print(f"\n[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    failed = [key for key, value in checks.items() if not value]
    assert ok, f"criterion {number} failed checks: {failed}"


@pytest.fixture(scope="module")
def walkthrough(pipelines_dir):
    return parse_spec_file(str(pipelines_dir / "traffic.yaml"))


@pytest.fixture(scope="module")
def variant(pipelines_dir):
    return parse_spec_file(str(pipelines_dir / "traffic_variant.yaml"))


def test_criterion_01_walkthrough_ranking(walkthrough):
    start = time.perf_counter()
    ranking = rank_and_select(walkthrough.graph)
    by_id = {e.path.id: e.score for e in ranking.entries}
    ratio = (by_id["od:car->lpr:plate->sum:EXIT"]
             / by_id["od:person->pr:face->sum:EXIT"])
    elapsed = time.perf_counter() - start
    _report(1, "walkthrough ranking selects plate branch at 332.0/10.4", {
        "selects plate path": ranking.selected.path.id
                              == "od:car->lpr:plate->sum:EXIT",
        "branch score ratio 31.92 +/- 0.01": abs(ratio - 332.0 / 10.4) <= 0.01,
        "runtime < 1 s": elapsed < 1.0,
    })


def test_criterion_02_deployment_table_calibration(variant):
    start = time.perf_counter()
    graph = variant.graph
    k_fit = 215.3e3 / 9315.0  # GF per plate crop, fitted on the attacked row
    n_inputs = 10
    car_path = next(p for p in enumerate_paths(graph) if "car" in p.id)
    attacked = propagate(graph, car_path)
    reference = cost(graph, propagate(graph, CLEAN))

    def predict_tflops(lpr_per_input: float) -> float:
        entries = dict(attacked.entries)
        entries["lpr"] = lpr_per_input
        entries["ret"] = 0.0
        vector = WorkloadVector(entries=entries, scenario=attacked.scenario,
                                target_path_id=attacked.target_path_id)
        return cost(graph, vector, reference).total_gflops * n_inputs / 1000.0

    conf5_pred = predict_tflops(attacked.entries["lpr"] * 0.599)
    buffered_pred = predict_tflops(304 / n_inputs)
    elapsed = time.perf_counter() - start
    _report(2, "deployment-table FLOPs calibration", {
        "spec carries the fitted per-crop cost":
            abs(graph.components["lpr"].clean_cost - k_fit) / k_fit < 1e-4,
        "threshold row 129.6T within 5%":
            abs(conf5_pred - 129.6) / 129.6 <= 0.05,
        "buffered row 8.96T within 15%":
            abs(buffered_pred - 8.96) / 8.96 <= 0.15,
        "runtime < 1 s": elapsed < 1.0,
    })


def test_criterion_03_throughput_collapse(variant):
    start = time.perf_counter()
    graph = variant.graph
    clean = simulate(graph, variant.scenarios["clean"], variant.configs["none"])
    attacked = simulate(graph, variant.scenarios["attacked"],
                        variant.configs["none"])
    ratio = clean.throughput_ips / attacked.throughput_ips
    target = 0.578 / 0.006
    elapsed = time.perf_counter() - start
    _report(3, "throughput collapse ~96x under sustained attack", {
        f"ratio {ratio:.1f} within +/-20% of {target:.1f}":
            0.8 * target <= ratio <= 1.2 * target,
        "runtime < 10 s": elapsed < 10.0,
    })


def test_criterion_04_buffering_coverage_tradeoff(variant):
    start = time.perf_counter()
    graph = variant.graph
    buffered = simulate(graph, variant.scenarios["attacked"],
                        variant.configs["b16_buf100"])
    stats = buffered.edge_stats["od:car"]
    drop_fraction = stats.dropped / stats.enqueued
    clean = simulate(graph, variant.scenarios["clean"],
                     variant.configs["buf100"])
    elapsed = time.perf_counter() - start
    _report(4, "bounded buffering converts attack into coverage loss", {
        f"drop fraction {drop_fraction:.3f} within 0.967 +/- 0.02":
            abs(drop_fraction - 0.967) <= 0.02,
        "clean traffic with the same buffers drops nothing":
            clean.drops == 0,
        "runtime < 10 s": elapsed < 10.0,
    })


def test_criterion_05_batching_invariance(variant):
    graph = variant.graph
    conf5 = simulate(graph, variant.scenarios["attacked"],
                     variant.configs["conf5"])
    batched = simulate(graph, variant.scenarios["attacked"],
                       variant.configs["b16_conf5"])
    overheads = [spec.per_call_overhead for spec in graph.components.values()]
    _report(5, "batching amortizes overhead without reducing computation", {
        "total FLOPs exactly equal": conf5.total_tflops == batched.total_tflops,
        "wall time strictly lower with batching":
            batched.wall_time_s < conf5.wall_time_s,
        "per-call overhead present": all(o > 0 for o in overheads),
    })


def test_criterion_06_conservation_suite():
    rng = random.Random(60606)
    checks = {"conservation": True, "throughput identity": True,
              "percentile monotonicity": True}
    for _ in range(200):
        graph, scenario, config = random_sim_triple(rng)
        metrics = simulate(graph, scenario, config)
        for stats in metrics.edge_stats.values():
            if stats.enqueued != stats.dequeued + stats.dropped + stats.residual:
                checks["conservation"] = False
        if metrics.wall_time_s > 0:
            identity = metrics.completed / metrics.wall_time_s
            if metrics.throughput_ips != pytest.approx(identity):
                checks["throughput identity"] = False
        if not metrics.p50_s <= metrics.p95_s <= metrics.p99_s:
            checks["percentile monotonicity"] = False
    _report(6, "conservation suite over 200 random triples", checks)


def test_criterion_07_oracle_suite():
    rng = random.Random(70707)
    checks = {"path enumeration": True, "path scores": True,
              "ranking argmax": True, "propagation totals": True}
    for _ in range(50):
        graph = build_graph(random_graph_doc(rng))
        if {p.steps for p in enumerate_paths(graph)} != oracle_paths(graph):
            checks["path enumeration"] = False
        expected = oracle_rank(graph)
        ranking = rank_and_select(graph)
        if {e.path.id: e.score for e in ranking.entries} != expected:
            checks["path scores"] = False
        if ranking.selected.path.id != oracle_argmax(expected):
            checks["ranking argmax"] = False
        workload = propagate(graph, CLEAN)
        if workload.entries != oracle_workload(graph, {}):
            checks["propagation totals"] = False
        else:
            total = cost(graph, workload).total_gflops
            expected_total = sum(
                graph.components[cid].clean_cost * workload.entries[cid]
                for cid in sorted(graph.components)
            )
            if total != expected_total:
                checks["propagation totals"] = False
    _report(7, "oracle suite over 50 random DAGs", checks)


def test_criterion_08_cli_determinism(capsys, pipelines_dir):
    variant_path = str(pipelines_dir / "traffic_variant.yaml")
    invocations = [
        ["validate", variant_path],
        ["paths", variant_path, "--format", "records"],
        ["rank", variant_path, "--format", "csv"],
        ["weights", variant_path, "--format", "records"],
        ["amplify", variant_path, "--quiet", "--format", "csv"],
        ["simulate", variant_path, "--scenario", "attacked",
         "--config", "conf5_buf100", "--format", "records"],
        ["matrix", variant_path, "--scenario", "clean", "--config", "none",
         "--format", "csv"],
        ["report", variant_path, "--scenario", "clean", "--config", "none"],
    ]
    checks = {}
    for argv in invocations:
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        checks[argv[0]] = first == second and bool(first)
    _report(8, "byte-identical output for every subcommand", checks)


def test_criterion_09_loss_weight_suite():
    rng = random.Random(90909)
    checks = {"nonnegative": True, "sum to one within 1e-9": True,
              "share ratio exact": True, "degenerate uniform flagged": True}
    for _ in range(100):
        size = rng.randint(1, 8)
        values = [rng.uniform(0.0, 50.0) for _ in range(size)]
        steps = [(f"c{i}", "x") for i in range(size - 1)] + [
            (f"c{size - 1}", EXIT)
        ]
        path = ExecutionPath.make(steps)
        scores = {f"c{i}": v for i, v in enumerate(values)}
        weights, degenerate = compute_loss_weights(path, scores)
        if any(w < 0 for w in weights.values()):
            checks["nonnegative"] = False
        if abs(sum(weights.values()) - 1.0) > 1e-9:
            checks["sum to one within 1e-9"] = False
        total = sum(values)
        if total > 0:
            if degenerate:
                checks["degenerate uniform flagged"] = False
            for i, value in enumerate(values):
                if weights[f"c{i}"] != pytest.approx(value / total, rel=1e-12):
                    checks["share ratio exact"] = False
    zero_path = ExecutionPath.make([("a", "x"), ("b", EXIT)])
    zero_scores = {"a": 0.0, "b": 0.0}
    weights, degenerate = compute_loss_weights(zero_path, zero_scores)
    if not degenerate or weights != {"a": 0.5, "b": 0.5}:
        checks["degenerate uniform flagged"] = False
    _report(9, "adaptive loss-weight suite over 100 random score vectors",
            checks)


def test_criterion_10_scale_invariance(walkthrough, variant):
    lambdas = (1e-3, 1.0, 1e3)
    checks = {}
    for label, spec in (("walkthrough", walkthrough), ("variant", variant)):
        base = rank_and_select(spec.graph)
        base_order = [e.path.id for e in base.entries]
        ok = True
        for lam in lambdas:
            scaled = rank_and_select(scale_costs(spec.graph, lam))
            ok &= [e.path.id for e in scaled.entries] == base_order
            ok &= scaled.selected.path.id == base.selected.path.id
            ok &= scaled.weights == base.weights  # bit-identical
        checks[f"{label} spec bit-identical under scaling"] = ok
    # Arbitrary graphs: decimal scaling perturbs stored cost ratios by one
    # ulp, so selection and near-exact weights are the invariants there.
    rng = random.Random(101010)
    ok = True
    for _ in range(20):
        graph = build_graph(random_graph_doc(rng))
        base = rank_and_select(graph)
        for lam in lambdas:
            scaled = rank_and_select(scale_costs(graph, lam))
            ok &= scaled.selected.path.id == base.selected.path.id
            for cid, weight in base.weights.items():
                ok &= math.isclose(scaled.weights[cid], weight,
                                   rel_tol=1e-9, abs_tol=1e-12)
    checks["random graphs keep selection and weights"] = ok
    _report(10, "uniform cost scaling leaves rankings invariant", checks)
