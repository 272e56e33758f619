"""Analytic workload propagation, cost breakdowns, and amplification."""

from __future__ import annotations

import random
from functools import reduce
from operator import add

import pytest

from pipevuln.errors import BadValueError, NoSuchPathError, ScenarioMismatchError
from pipevuln.model import EXIT, build_graph
from pipevuln.propagation import (
    CLEAN,
    CostBreakdown,
    WorkloadVector,
    _Table,
    _walk,
    amplification_matrix,
    clean_cost,
    cost,
    expected_emission,
    propagate,
)
from pipevuln.ranking import enumerate_paths, rank_and_select, resolve_path
from pipevuln.specio import parse_spec_file

from conftest import (
    LAYERED_SPEC,
    PIPELINES_DIR,
    random_graph,
    random_graph_doc,
    traffic_doc,
    wide_layered_doc,
)

from test_ranking import oracle_argmax, oracle_paths, oracle_workload


def variant_style_doc() -> dict:
    """Two-branch pipeline with calibrated-trace cardinalities (0.6 clean
    cars, 931.5 under car targeting)."""
    doc = traffic_doc()
    for profile in doc["profiles"]:
        if profile["component"] == "od":
            profile["clean_cardinality"] = {
                "person": 1.26, "car": 0.6, "other": 1.0,
            }
            profile["adv_cardinality"] = {"car": 931.5, "person": 1075.5}
    return doc


class TestPropagate:
    def test_clean_car_cardinality_flows_to_plate_reader(self):
        graph = build_graph(variant_style_doc())
        workload = propagate(graph, CLEAN)
        assert workload.entries["od"] == 1.0
        assert workload.entries["lpr"] == pytest.approx(0.6)
        assert workload.entries["pr"] == pytest.approx(1.26)
        assert workload.scenario == "clean"

    def test_car_targeting_inflates_plate_workload(self):
        graph = build_graph(variant_style_doc())
        path = next(p for p in enumerate_paths(graph) if "car" in p.id)
        workload = propagate(graph, path)
        assert workload.entries["lpr"] == pytest.approx(931.5)
        # Flat adversarial entries suppress the other branch entirely.
        assert workload.entries["pr"] == 0.0
        assert workload.target_path_id == path.id

    def test_all_exit_gate_leaves_downstream_at_zero(self):
        doc = traffic_doc()
        doc["gates"][0] = {
            "component": "od",
            "routes": {"person": "EXIT", "car": "EXIT", "other": "EXIT"},
        }
        doc["edges"] = [e for e in doc["edges"] if e["from"] != "od"]
        graph = build_graph(doc)
        workload = propagate(graph, CLEAN)
        assert workload.entries["od"] == 1.0
        assert workload.entries["pr"] == 0.0
        assert workload.entries["lpr"] == 0.0

    def test_unknown_path_id_raises(self, traffic_graph):
        with pytest.raises(NoSuchPathError):
            resolve_path(traffic_graph, "od:zeppelin")

    def test_nested_profile_keeps_declared_side_emissions(self):
        doc = variant_style_doc()
        for profile in doc["profiles"]:
            if profile["component"] == "od":
                profile["adv_cardinality"] = {
                    "car": {"car": 931.5, "person": 0.29},
                }
        graph = build_graph(doc)
        path = next(p for p in enumerate_paths(graph) if "car" in p.id)
        workload = propagate(graph, path)
        assert workload.entries["lpr"] == pytest.approx(931.5)
        assert workload.entries["pr"] == pytest.approx(0.29)

    def test_flow_conservation_exact_on_integer_instances(self):
        rng = random.Random(52)
        for _ in range(20):
            graph = build_graph(random_graph_doc(rng))
            workload = propagate(graph, CLEAN)
            for cid in graph.components:
                if cid == graph.source:
                    continue
                inflow = 0.0
                for (from_id, label), edge in sorted(graph.edges.items()):
                    if edge.to_id != cid:
                        continue
                    mean = expected_emission(graph.profiles[from_id], label, None)
                    inflow += workload.entries[from_id] * mean
                assert workload.entries[cid] == inflow

    def test_linearity_in_source_count(self):
        graph = build_graph(variant_style_doc())
        workload = propagate(graph, CLEAN)
        breakdown = cost(graph, workload)
        # Two system inputs double every entry and every contribution.
        doubled_entries = {k: 2 * v for k, v in workload.entries.items()}
        assert doubled_entries["lpr"] == pytest.approx(1.2)
        assert 2 * breakdown.total_gflops == pytest.approx(
            sum(2 * v for v in breakdown.per_component.values())
        )


class TestCost:
    def test_workload_of_source_only_costs_source_unit(self, traffic_graph):
        workload = propagate(traffic_graph, CLEAN)
        zeroed = {cid: 0.0 for cid in workload.entries}
        zeroed[traffic_graph.source] = 1.0
        from pipevuln.propagation import WorkloadVector

        breakdown = cost(
            traffic_graph, WorkloadVector(entries=zeroed, scenario="clean")
        )
        assert breakdown.total_gflops == pytest.approx(
            traffic_graph.components["od"].clean_cost
        )

    def test_clean_self_amplification_is_one(self, traffic_graph):
        reference = clean_cost(traffic_graph)
        again = cost(traffic_graph, propagate(traffic_graph, CLEAN), reference)
        assert again.amplification == 1.0

    def test_mismatched_workload_raises(self, traffic_graph):
        from pipevuln.propagation import WorkloadVector

        bad = WorkloadVector(entries={"nope": 1.0}, scenario="clean")
        with pytest.raises(ScenarioMismatchError) as err:
            cost(traffic_graph, bad)
        assert err.value.code == "E_SCENARIO_MISMATCH"

    @pytest.mark.parametrize("analysis", ["cost", "amplification_matrix"])
    def test_mismatched_reference_raises(self, traffic_graph, analysis):
        reference = CostBreakdown({"nope": 1.0}, 1.0, "clean")
        with pytest.raises(ScenarioMismatchError) as err:
            if analysis == "cost":
                cost(traffic_graph, propagate(traffic_graph, CLEAN), reference)
            else:
                amplification_matrix(traffic_graph, reference=reference)
        assert str(err.value) == (
            "E_SCENARIO_MISMATCH: reference breakdown components do not match "
            "the graph"
        )

    @pytest.mark.parametrize("counts,where", [
        ({"od": 1.0, "lpr": float("inf")}, "component 'lpr'"),
        ({"od": 1.7e306, "pr": 1e307}, "sum overflowed"),
    ])
    def test_non_finite_total_is_bad_value(self, traffic_graph, counts, where):
        entries = dict.fromkeys(traffic_graph.components, 0.0) | counts
        with pytest.raises(BadValueError) as err:
            cost(traffic_graph, WorkloadVector(entries=entries, scenario="clean"))
        assert str(err.value) == (
            f"E_BAD_VALUE: clean: total GFLOPs is not finite ({where})"
        )

    def test_positive_total_over_zero_reference_is_unbounded(self, traffic_graph):
        zero = CostBreakdown(
            per_component=dict.fromkeys(traffic_graph.components, 0.0),
            total_gflops=0.0, scenario="clean",
        )
        workload = propagate(traffic_graph, CLEAN)
        with pytest.raises(BadValueError, match="amplification is unbounded"):
            cost(traffic_graph, workload, zero)
        idle = WorkloadVector(
            entries=dict.fromkeys(traffic_graph.components, 0.0), scenario="clean"
        )
        assert cost(traffic_graph, idle, zero).amplification == 1.0

    def test_totals_match_item_expansion_oracle_on_50_graphs(self):
        rng = random.Random(2025)
        for _ in range(50):
            graph = build_graph(random_graph_doc(rng))
            workload = propagate(graph, CLEAN)
            expected_counts = oracle_workload(graph, {})
            assert workload.entries == expected_counts
            breakdown = cost(graph, workload)
            expected_total = reduce(add, (
                graph.components[cid].clean_cost * expected_counts[cid]
                for cid in sorted(graph.components)
            ), 0.0)
            assert breakdown.total_gflops == expected_total


def _flops_x(graph) -> dict[str, float]:
    return {pid: b.amplification for pid, b in amplification_matrix(graph).items()}


class TestAmplificationMatrix:
    def test_variant_orders_car_above_person(self):
        graph = build_graph(variant_style_doc())
        matrix = _flops_x(graph)
        car = next(v for k, v in matrix.items() if "car" in k)
        person = next(v for k, v in matrix.items() if "person" in k)
        assert car > person > 1.0

    def test_calibrated_variant_reproduces_published_amplification(
        self, pipelines_dir
    ):
        from pipevuln.specio import parse_spec_file

        spec = parse_spec_file(str(pipelines_dir / "traffic_variant.yaml"))
        matrix = _flops_x(spec.graph)
        published = 215.3 / 3.27
        got = matrix["od:car->lpr:plate->ret:EXIT"]
        assert abs(got - published) / published <= 0.05

    def test_single_path_graph_matches_cost_ratio(self):
        doc = {
            "components": [
                {"id": "a", "kind": "neural", "clean_cost_gflops": 2.0},
                {"id": "b", "kind": "neural", "clean_cost_gflops": 5.0},
            ],
            "profiles": [
                {"component": "a",
                 "clean_cardinality": {"x": 1.0},
                 "adv_cardinality": {"x": 4.0}},
            ],
            "gates": [{"component": "a", "routes": {"x": "b"}}],
            "edges": [{"from": "a", "to": "b", "label": "x"}],
            "source": "a",
        }
        graph = build_graph(doc)
        matrix = _flops_x(graph)
        assert list(matrix) == ["a:x->b:EXIT"]
        # Clean 2 + 5, adversarial 2 + 4*5.
        assert matrix["a:x->b:EXIT"] == pytest.approx(22.0 / 7.0)

    def test_argmax_matches_brute_force_on_random_graphs(self):
        rng = random.Random(606)
        for _ in range(50):
            graph = build_graph(random_graph_doc(rng))
            matrix = _flops_x(graph)
            reference = clean_cost(graph)
            expected = {}
            for steps in oracle_paths(graph):
                targeting = {c: l for c, l in steps if l != "EXIT"}
                counts = oracle_workload(graph, targeting)
                total = reduce(add, (
                    graph.components[cid].adv_cost * counts[cid]
                    for cid in sorted(graph.components)
                ), 0.0)
                pid = "->".join(f"{c}:{l}" for c, l in steps)
                expected[pid] = (
                    total / reference.total_gflops
                    if reference.total_gflops > 0
                    else 1.0
                )
            assert matrix == expected
            assert oracle_argmax(matrix) == oracle_argmax(expected)

    def test_ranking_consistency_on_amplification_dominant_graphs(self):
        # Analytic FLOPs-amplification argmax must agree with the ranking
        # stage's selected path whenever the top two paths are separated by
        # more than one clean-pipeline-cost unit: the score differs from
        # amplification only by the path's clean-cost share, which is
        # bounded by that unit. Every label carries a steering entry so
        # targeted flow stays on-path.
        rng = random.Random(88)
        checked = 0
        for _ in range(60):
            doc = random_graph_doc(rng)
            for profile in doc["profiles"]:
                for label, mean in profile["clean_cardinality"].items():
                    profile["adv_cardinality"].setdefault(
                        label, max(mean, 1.0) * 4.0
                    )
            graph = build_graph(doc)
            matrix = _flops_x(graph)
            ordered = sorted(matrix.values(), reverse=True)
            if len(ordered) > 1 and ordered[0] - ordered[1] <= 1.0:
                continue
            ranking = rank_and_select(graph)
            assert ranking.selected.path.id == oracle_argmax(matrix)
            checked += 1
        assert checked >= 30


def naive_workload(graph, path=None) -> dict[str, float]:
    """Reference: one path propagated on its own, component by component."""
    targeting = {} if path is None else {
        cid: label for cid, label in path.steps if label != EXIT
    }
    entries = {cid: 0.0 for cid in graph.components}
    entries[graph.source] = 1.0
    for cid in graph.order:
        count = entries[cid]
        if count == 0.0:
            continue
        for label, target in sorted(graph.routes(cid).items()):
            if target == EXIT:
                continue
            mean = expected_emission(graph.profiles[cid], label, targeting.get(cid))
            if mean:
                entries[target] += count * mean
    return entries


def merging_labels_doc() -> dict:
    """Two labels of ``m`` route to ``t``, which ``s`` already fed: the three
    additions into ``t`` round differently in another label order."""
    component = {"kind": "neural", "clean_cost_gflops": 1.0, "adv_cost_gflops": 2.0,
                 "device_rate_gflops_s": 10.0, "per_call_overhead_s": 0.0,
                 "batchable": True}
    return {
        "components": [{"id": cid, **component} for cid in ("s", "m", "t")],
        "profiles": [
            {"component": "s", "clean_cardinality": {"a": 0.1, "b": 1.0},
             "adv_cardinality": {"a": {"a": 1.0, "b": 0.1}}},
            {"component": "m", "clean_cardinality": {"p": 0.2, "q": 0.3},
             "adv_cardinality": {"p": {"p": 0.2, "q": 0.6}, "q": 0.7}},
        ],
        "gates": [{"component": "s", "routes": {"a": "m", "b": "t"}},
                  {"component": "m", "routes": {"p": "t", "q": "t"}}],
        "edges": [{"from": "s", "to": "m", "label": "a"},
                  {"from": "s", "to": "t", "label": "b"},
                  {"from": "m", "to": "t", "label": "p"},
                  {"from": "m", "to": "t", "label": "q"}],
        "source": "s",
    }


def _exactness_graphs():
    specs = sorted(PIPELINES_DIR.iterdir()) + [LAYERED_SPEC]
    for spec in specs:
        yield spec.name, parse_spec_file(str(spec)).graph
    yield "merging-labels", build_graph(merging_labels_doc())
    for seed in range(50):
        yield f"random-{seed}", random_graph(random.Random(seed))


EXACTNESS_GRAPHS = list(_exactness_graphs())


class TestSharedWalkExactness:
    """The prefix-shared walk reproduces per-path propagation bit for bit."""

    @pytest.mark.parametrize(
        "graph", [g for _, g in EXACTNESS_GRAPHS], ids=[n for n, _ in EXACTNESS_GRAPHS]
    )
    def test_walk_equals_naive_propagation(self, graph):
        paths = enumerate_paths(graph)
        table = _Table(graph)
        walk = _walk(table, [p.steps for p in paths])
        assert iter(walk) is walk  # streamed, one path at a time
        for path, vec in zip(paths, walk, strict=True):
            # == on every float: the same sums in the same order.
            entries = dict(zip(table.ids, vec))
            assert entries == naive_workload(graph, path)
            workload = propagate(graph, path)
            assert workload.entries == entries
            assert workload.scenario == f"adversarial({path.id})"
            assert workload.target_path_id == path.id
        assert propagate(graph, CLEAN).entries == naive_workload(graph)

    @pytest.mark.parametrize(
        "graph", [g for _, g in EXACTNESS_GRAPHS], ids=[n for n, _ in EXACTNESS_GRAPHS]
    )
    def test_matrix_equals_naive_cost(self, graph):
        clean = clean_cost(graph)
        matrix = amplification_matrix(graph)
        paths = enumerate_paths(graph)
        assert list(matrix) == [p.id for p in paths]
        for path in paths:
            reference = WorkloadVector(
                naive_workload(graph, path), f"adversarial({path.id})", path.id
            )
            assert matrix[path.id] == cost(graph, reference, clean)

    def test_any_path_order_gives_the_same_workloads(self):
        graph = parse_spec_file(str(LAYERED_SPEC)).graph
        paths = enumerate_paths(graph)
        shuffled = paths[::-1] + paths[::3]
        table = _Table(graph)
        walk = _walk(table, [p.steps for p in shuffled])
        for path, vec in zip(shuffled, walk, strict=True):
            assert dict(zip(table.ids, vec)) == naive_workload(graph, path)


WIDE_GRAPH = build_graph(wide_layered_doc(9))


class TestWideGraphExactness:
    """At 512 paths, the one-walk ranking and matrix equal per-path costing.

    Each expected figure comes from public single-path ``propagate`` plus
    ``cost``, compared with ``==``: the walk must add the same products in
    the same order.
    """

    def test_ranking_equals_single_path_cost(self):
        clean = clean_cost(WIDE_GRAPH)
        ranking = rank_and_select(WIDE_GRAPH)
        assert len(ranking.entries) == 512
        for entry in ranking.entries:
            targeted = cost(WIDE_GRAPH, propagate(WIDE_GRAPH, entry.path), clean)
            expected = [
                (cid, (targeted.per_component[cid] - clean.per_component[cid])
                 / clean.total_gflops)
                for cid in entry.path.components
            ]
            assert list(entry.component_scores.items()) == expected
            assert entry.score == reduce(add, (score for _, score in expected), 0.0)
            assert entry.flops_x == targeted.amplification
            # The total adds the products in sorted-id order.
            total = reduce(add, targeted.per_component.values(), 0.0)
            assert entry.flops_x == total / clean.total_gflops

    def test_matrix_equals_single_path_cost(self):
        clean = clean_cost(WIDE_GRAPH)
        matrix = amplification_matrix(WIDE_GRAPH)
        assert len(matrix) == 512
        for pid, breakdown in matrix.items():
            path = resolve_path(WIDE_GRAPH, pid)
            expected = cost(WIDE_GRAPH, propagate(WIDE_GRAPH, path), clean)
            assert list(breakdown.per_component.items()) == list(
                expected.per_component.items()
            )
            assert breakdown == expected
            products = breakdown.per_component.values()
            assert breakdown.total_gflops == reduce(add, products, 0.0)

    def test_overflow_names_the_scenario_and_component_cost_names(self):
        doc = wide_layered_doc(9)
        for component in doc["components"]:
            if component["id"].startswith("l3") and component["kind"] == "neural":
                component["adv_cost_gflops"] = 1e308
        graph = build_graph(doc)
        clean = clean_cost(graph)
        for path in enumerate_paths(graph):
            try:
                cost(graph, propagate(graph, path), clean)
            except BadValueError as exc:
                expected = str(exc)
                break
        # l3c1 and l3c3 both overflow on this path; the first by id is named.
        assert expected == (
            "E_BAD_VALUE: adversarial(src:c0->l1c4:c0->l2c3:c0->l3c5:EXIT): "
            "total GFLOPs is not finite (component 'l3c1')"
        )
        for run in (rank_and_select, amplification_matrix):
            with pytest.raises(BadValueError) as err:
                run(graph)
            assert str(err.value) == expected
