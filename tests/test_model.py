"""Graph construction, validation, and topological ordering."""

from __future__ import annotations

import copy
import random

import pytest

from pipevuln.errors import (
    BadValueError,
    CycleError,
    DanglingReferenceError,
    DuplicateIdError,
    NoSourceError,
    SchemaError,
)
from pipevuln.model import build_graph, topological_order
from pipevuln.ranking import rank_and_select
from pipevuln.specio import graph_to_document

from conftest import random_graph_doc, traffic_doc


def chain_doc(ids=("a", "b", "c")) -> dict:
    components = [
        {"id": cid, "kind": "neural", "clean_cost_gflops": 1.0,
         "adv_cost_gflops": 1.0, "device_rate_gflops_s": 10.0}
        for cid in ids
    ]
    edges = []
    gates = []
    profiles = []
    for left, right in zip(ids, ids[1:]):
        label = f"to_{right}"
        edges.append({"from": left, "to": right, "label": label})
        gates.append({"component": left, "routes": {label: right}})
        profiles.append({"component": left, "clean_cardinality": {label: 1.0}})
    return {
        "components": components,
        "profiles": profiles,
        "gates": gates,
        "edges": edges,
        "source": ids[0],
    }


class TestBuildGraph:
    def test_traffic_doc_builds_four_components(self):
        graph = build_graph(traffic_doc())
        assert sorted(graph.components) == ["lpr", "od", "pr", "sum"]
        assert graph.source == "od"
        assert graph.routes("od")["car"] == "lpr"

    def test_two_cycle_rejected(self):
        doc = chain_doc(("a", "b"))
        doc["edges"].append({"from": "b", "to": "a", "label": "back"})
        doc["gates"].append({"component": "b", "routes": {"back": "a"}})
        with pytest.raises(CycleError) as err:
            build_graph(doc)
        assert err.value.code == "E_CYCLE"
        # The offending node sequence is part of the diagnostic.
        assert "a" in str(err.value) and "b" in str(err.value)

    def test_gate_to_undeclared_id_rejected(self):
        doc = traffic_doc()
        doc["gates"][0]["routes"]["car"] = "nonexistent"
        with pytest.raises(DanglingReferenceError) as err:
            build_graph(doc)
        assert err.value.code == "E_DANGLING"

    def test_duplicate_component_id_rejected(self):
        doc = traffic_doc()
        doc["components"].append(dict(doc["components"][0]))
        with pytest.raises(DuplicateIdError):
            build_graph(doc)

    def test_duplicate_edge_pair_rejected(self):
        doc = traffic_doc()
        doc["edges"].append({"from": "od", "to": "pr", "label": "car"})
        with pytest.raises(DuplicateIdError):
            build_graph(doc)

    def test_duplicate_profile_rejected(self):
        doc = traffic_doc()
        doc["profiles"].append({"component": "od"})
        with pytest.raises(DuplicateIdError):
            build_graph(doc)

    def test_negative_cost_rejected(self):
        doc = traffic_doc()
        doc["components"][1]["clean_cost_gflops"] = -1.0
        with pytest.raises(BadValueError) as err:
            build_graph(doc)
        assert err.value.code == "E_BAD_VALUE"

    def test_zero_device_rate_rejected(self):
        doc = traffic_doc()
        doc["components"][0]["device_rate_gflops_s"] = 0.0
        with pytest.raises(BadValueError):
            build_graph(doc)

    def test_non_neural_with_cost_rejected(self):
        doc = traffic_doc()
        doc["components"][3]["clean_cost_gflops"] = 5.0
        doc["components"][3]["adv_cost_gflops"] = 5.0
        with pytest.raises(BadValueError):
            build_graph(doc)

    def test_adv_cost_with_zero_clean_cost_rejected(self):
        # Infinite multiplicative amplification is a modeling error.
        doc = traffic_doc()
        doc["components"][1]["clean_cost_gflops"] = 0.0
        doc["components"][1]["adv_cost_gflops"] = 3.0
        with pytest.raises(BadValueError):
            build_graph(doc)

    def test_missing_source_rejected(self):
        doc = traffic_doc()
        del doc["source"]
        with pytest.raises(NoSourceError) as err:
            build_graph(doc)
        assert err.value.code == "E_NO_SOURCE"

    def test_source_with_inbound_edge_rejected(self):
        doc = traffic_doc()
        doc["source"] = "pr"
        with pytest.raises(NoSourceError):
            build_graph(doc)

    def test_edge_without_gate_route_rejected(self):
        doc = traffic_doc()
        doc["edges"].append({"from": "od", "to": "sum", "label": "stray"})
        with pytest.raises(DanglingReferenceError):
            build_graph(doc)

    def test_profile_label_missing_from_gate_rejected(self):
        doc = traffic_doc()
        doc["profiles"][1]["clean_cardinality"] = {"unknown": 1.0}
        with pytest.raises(DanglingReferenceError):
            build_graph(doc)

    def test_negative_cardinality_rejected(self):
        doc = traffic_doc()
        doc["profiles"][0]["clean_cardinality"]["car"] = -0.5
        with pytest.raises(BadValueError):
            build_graph(doc)

    def test_unknown_component_key_rejected(self):
        doc = traffic_doc()
        doc["components"][0]["flops"] = 3
        with pytest.raises(SchemaError) as err:
            build_graph(doc)
        assert err.value.code == "E_SCHEMA"

    def test_omitted_profile_synthesized_empty(self):
        doc = traffic_doc()
        doc["profiles"] = [p for p in doc["profiles"] if p["component"] != "sum"]
        graph = build_graph(doc)
        assert graph.profiles["sum"].clean_cardinality == {}


class TestDeepChain:
    """Build-time ordering and cycle detection are iterative: a 1,500-deep
    chain neither overflows the interpreter stack nor hides its cycle."""

    IDS = tuple(f"c{i:04d}" for i in range(1500))

    def test_builds_and_ranks(self):
        graph = build_graph(chain_doc(self.IDS))
        assert topological_order(graph) == list(self.IDS)
        ranking = rank_and_select(graph)
        assert ranking.selected.path.components == self.IDS

    def test_back_edge_names_the_cycle(self):
        doc = chain_doc(self.IDS)
        doc["edges"].append({"from": "c1499", "to": "c0001", "label": "back"})
        doc["gates"].append({"component": "c1499", "routes": {"back": "c0001"}})
        with pytest.raises(CycleError) as err:
            build_graph(doc)
        assert err.value.code == "E_CYCLE"
        cycle = " -> ".join(self.IDS[1:] + self.IDS[1:2])
        assert str(err.value) == f"E_CYCLE: cycle detected: {cycle}"


class TestRejectionCompleteness:
    """Mutating any single invariant-relevant field yields the matching
    error code, never a valid graph."""

    MUTATIONS = [
        ("cycle", "E_CYCLE"),
        ("dangling_gate", "E_DANGLING"),
        ("dangling_edge", "E_DANGLING"),
        ("dup_component", "E_DUP_ID"),
        ("dup_edge", "E_DUP_ID"),
        ("negative_cost", "E_BAD_VALUE"),
        ("zero_rate", "E_BAD_VALUE"),
        ("bad_source", "E_NO_SOURCE"),
    ]

    @pytest.mark.parametrize("mutation,code", MUTATIONS)
    def test_mutation_yields_matching_code(self, mutation, code):
        doc = copy.deepcopy(traffic_doc())
        if mutation == "cycle":
            doc["edges"].append({"from": "sum", "to": "od", "label": "loop"})
            doc["gates"].append({"component": "sum", "routes": {"loop": "od"}})
        elif mutation == "dangling_gate":
            doc["gates"][0]["routes"]["car"] = "ghost"
        elif mutation == "dangling_edge":
            doc["edges"][0]["to"] = "ghost"
        elif mutation == "dup_component":
            doc["components"].append(dict(doc["components"][2]))
        elif mutation == "dup_edge":
            doc["edges"].append(dict(doc["edges"][0]))
        elif mutation == "negative_cost":
            doc["components"][2]["adv_cost_gflops"] = -3.0
        elif mutation == "zero_rate":
            doc["components"][2]["device_rate_gflops_s"] = -1.0
        elif mutation == "bad_source":
            doc["source"] = "sum"
        with pytest.raises(Exception) as err:
            build_graph(doc)
        assert getattr(err.value, "code", None) == code


class TestTopologicalOrder:
    def test_chain(self):
        graph = build_graph(chain_doc(("a", "b", "c")))
        assert topological_order(graph) == ["a", "b", "c"]

    def test_traffic_order_constraints(self):
        graph = build_graph(traffic_doc())
        order = topological_order(graph)
        assert order.index("od") < order.index("pr")
        assert order.index("od") < order.index("lpr")
        assert order.index("pr") < order.index("sum")
        assert order.index("lpr") < order.index("sum")

    def test_diamond_tie_broken_by_id(self):
        doc = {
            "components": [
                {"id": cid, "kind": "neural", "clean_cost_gflops": 1.0}
                for cid in ("a", "b", "c", "d")
            ],
            "profiles": [
                {"component": "a", "clean_cardinality": {"x": 1.0, "y": 1.0}},
                {"component": "b", "clean_cardinality": {"z": 1.0}},
                {"component": "c", "clean_cardinality": {"w": 1.0}},
            ],
            "gates": [
                {"component": "a", "routes": {"x": "b", "y": "c"}},
                {"component": "b", "routes": {"z": "d"}},
                {"component": "c", "routes": {"w": "d"}},
            ],
            "edges": [
                {"from": "a", "to": "b", "label": "x"},
                {"from": "a", "to": "c", "label": "y"},
                {"from": "b", "to": "d", "label": "z"},
                {"from": "c", "to": "d", "label": "w"},
            ],
            "source": "a",
        }
        graph = build_graph(doc)
        assert topological_order(graph) == ["a", "b", "c", "d"]

    def test_permutation_and_edge_respect_on_random_graphs(self):
        rng = random.Random(1234)
        for _ in range(30):
            graph = build_graph(random_graph_doc(rng))
            order = topological_order(graph)
            assert sorted(order) == sorted(graph.components)
            position = {cid: i for i, cid in enumerate(order)}
            for edge in graph.edges.values():
                assert position[edge.from_id] < position[edge.to_id]
            assert order == topological_order(graph)


class TestRoundTrip:
    def test_serialize_rebuild_is_identity_for_100_random_graphs(self):
        rng = random.Random(99)
        for _ in range(100):
            graph = build_graph(random_graph_doc(rng))
            rebuilt = build_graph(graph_to_document(graph))
            assert rebuilt == graph

    def test_traffic_round_trip(self, traffic_graph):
        assert build_graph(graph_to_document(traffic_graph)) == traffic_graph
