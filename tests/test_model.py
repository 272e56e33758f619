"""Graph construction, validation, and topological ordering."""

from __future__ import annotations

import copy
import hashlib
import math
import random

import pytest

from pipevuln.errors import (
    BadValueError,
    CycleError,
    DanglingReferenceError,
    DuplicateIdError,
    NoSourceError,
    PipelineError,
    SchemaError,
)
from pipevuln.model import (
    Attenuation,
    BehaviorProfile,
    ConfidenceFilter,
    DeploymentConfig,
    GateSpec,
    InputFilter,
    TrafficScenario,
    build_graph,
    topological_order,
)
from pipevuln.ranking import rank_and_select
from pipevuln.specio import parse_spec_file

from conftest import PIPELINES_DIR, random_graph_doc, traffic_doc


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

    @pytest.mark.parametrize("path,value,message", [
        (("components", 0), 5,
         "E_SCHEMA: component record must be a mapping, got int"),
        (("components", 0, "kind"), "quantum",
         "E_BAD_VALUE: component 'od': kind must be one of ('neural', 'non-neural'), "
         "got 'quantum'"),
        (("components", 0, "clean_cost_gflops"), "100",
         "E_SCHEMA: component 'od'.clean_cost_gflops must be a number"),
        (("components", 0, "batchable"), "yes",
         "E_SCHEMA: component 'od'.batchable must be a boolean"),
        (("profiles", 0, "adv_cardinality", "car"), {"car": 5.0, "ghost": 1.0},
         "E_DANGLING: profile 'od' references label 'ghost' absent from its gate"),
    ])
    def test_bad_record_is_a_coded_error(self, path, value, message):
        doc = traffic_doc()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(PipelineError) as err:
            build_graph(doc)
        assert str(err.value) == message


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
        ("gate_for_unknown_component", "E_DANGLING"),
        ("dup_gate", "E_DUP_ID"),
        ("zero_capacity", "E_BAD_VALUE"),
        ("route_without_edge", "E_DANGLING"),
        ("edge_disagrees_with_gate", "E_DANGLING"),
        ("profile_for_unknown_component", "E_DANGLING"),
        ("adv_target_absent_from_gate", "E_DANGLING"),
        ("exit_as_component_id", "E_BAD_VALUE"),
        ("unknown_top_level_key", "E_SCHEMA"),
        ("non_string_top_level_key", "E_SCHEMA"),
        ("undeclared_source", "E_NO_SOURCE"),
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
        elif mutation == "gate_for_unknown_component":
            doc["gates"].append({"component": "ghost", "routes": {}})
        elif mutation == "dup_gate":
            doc["gates"].append(dict(doc["gates"][1]))
        elif mutation == "zero_capacity":
            doc["edges"][0]["capacity"] = 0
        elif mutation == "route_without_edge":
            del doc["edges"][0]
        elif mutation == "edge_disagrees_with_gate":
            doc["edges"][0]["to"] = "lpr"
        elif mutation == "profile_for_unknown_component":
            doc["profiles"].append({"component": "ghost"})
        elif mutation == "adv_target_absent_from_gate":
            doc["profiles"][0]["adv_cardinality"]["ghost"] = 5.0
        elif mutation == "exit_as_component_id":
            doc["components"].append({"id": "EXIT", "kind": "neural"})
        elif mutation == "unknown_top_level_key":
            doc["turbo"] = True
        elif mutation == "non_string_top_level_key":
            doc[1] = True
        elif mutation == "undeclared_source":
            doc["source"] = "ghost"
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



class TestRecords:
    """Records are named tuples that keep the checks, fresh mapping defaults
    and reprs they had as frozen dataclasses."""

    @pytest.mark.parametrize("cls,good,bad,message", [
        (TrafficScenario, {"n_inputs": 1}, {"n_inputs": 0},
         "scenario: n_inputs must be >= 1"),
        (TrafficScenario, {"n_inputs": 1}, {"mix": 1.5},
         "scenario: mix must be within [0, 1]"),
        (TrafficScenario, {"n_inputs": 1}, {"mix": 0.5},
         "scenario: adversarial mix requires a target_path"),
        (TrafficScenario, {"n_inputs": 1}, {"interval_s": math.nan},
         "scenario: fixed-interval needs a nonnegative interval"),
        (ConfidenceFilter, {}, {"adversarial": {"car": 1.5}},
         "confidence survival for 'car' must be within [0, 1]"),
        (Attenuation, {}, {"factor": -0.1},
         "attenuation factor must be within [0, 1]"),
        (Attenuation, {}, {"residual_floor": math.inf},
         "attenuation residual floor must be finite and >= 0"),
        (InputFilter, {}, {"p_detect": 2.0},
         "input filter p_detect must be within [0, 1]"),
        (InputFilter, {}, {"action": "ignore"},
         "unknown input filter action 'ignore'"),
        (DeploymentConfig, {}, {"batch": {"a": 0}},
         "batch size for 'a' must be an integer >= 1"),
        (DeploymentConfig, {}, {"buffers": {"a:x": 1.5}},
         "buffer capacity for 'a:x' must be an integer"),
        (DeploymentConfig, {}, {"buffers": {"a:x": 0}},
         "buffer capacity for 'a:x' must be positive"),
        (DeploymentConfig, {}, {"path_budgets": {"a:EXIT": -1.0}},
         "path budget for 'a:EXIT' must be finite and >= 0"),
        (DeploymentConfig, {}, {"device_model": "gpu"},
         "unknown device model 'gpu'"),
    ])
    def test_checked_record_rejects_alike_when_built_or_copied(
        self, cls, good, bad, message
    ):
        record = cls(**good)
        values = [bad.get(name, value) for name, value in zip(cls._fields, record)]
        for build in (lambda: cls(**{**good, **bad}), lambda: record._replace(**bad),
                      lambda: cls._make(values)):
            with pytest.raises(BadValueError) as exc:
                build()
            assert exc.value.message == message

    @pytest.mark.parametrize("cls,args,name", [
        (BehaviorProfile, ("a",), "clean_cardinality"),
        (BehaviorProfile, ("a",), "adv_cardinality"),
        (GateSpec, ("a",), "routes"),
        (ConfidenceFilter, (), "clean"),
        (ConfidenceFilter, (), "adversarial"),
        (DeploymentConfig, (), "batch"),
        (DeploymentConfig, (), "buffers"),
        (DeploymentConfig, (), "path_budgets"),
    ])
    def test_a_left_out_mapping_is_fresh_per_record(self, cls, args, name):
        first, second = cls(*args), cls(*args)
        getattr(first, name)["x"] = 1
        assert getattr(second, name) == {}
        assert getattr(cls._make([*args, *cls._field_defaults.values()]), name) == {}

    def test_records_are_immutable(self):
        graph = build_graph(traffic_doc())
        with pytest.raises(AttributeError):
            graph.source = "od"
        with pytest.raises(AttributeError):
            graph.extra = 1

    def test_repr_of_a_parsed_spec_is_unchanged(self):
        spec = parse_spec_file(str(PIPELINES_DIR / "traffic_variant.yaml"))
        assert repr(spec.scenarios["attacked"]) == (
            "TrafficScenario(n_inputs=10, mix=1.0, target_path="
            "'od:car->lpr:plate->ret:EXIT', interval_s=1.73, seed=2024)")
        assert repr(spec.configs["b16_conf5_buf100"]) == (
            "DeploymentConfig(batch={'default': 16}, buffers={'default': 100}, "
            "confidence=ConfidenceFilter(clean={}, adversarial={'car': 0.599}), "
            "attenuation=None, input_filter=None, path_budgets={}, "
            "device_model='per-component-server')")
        assert repr(spec.graph.edges[("cap", "caption")]) == (
            "EdgeSpec(from_id='cap', to_id='ret', label='caption', capacity=None)")
        # The whole document, as the frozen dataclasses printed it.
        text = repr(spec)
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (
            6637, "4a33d817ebd4e2fe2ca859a63d855ffc2c3d25a5563de84f16d8192fd13b8285")
