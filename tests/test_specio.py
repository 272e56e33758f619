"""Spec parsing (both formats), serialization round-trips, and reports."""

from __future__ import annotations

import json

import pytest
import yaml

from pipevuln.errors import (
    SchemaError,
    SyntaxParseError,
    UnresolvedReferenceError,
)
from pipevuln.ranking import enumerate_paths
from pipevuln.specio import (
    _load_yaml,
    build_report,
    document_to_jsonl,
    document_to_yaml,
    graph_to_document,
    parse_spec,
    parse_spec_file,
    report_to_json,
)

from conftest import traffic_doc


MINIMAL_YAML = """
components:
  - {id: a, kind: neural, clean_cost_gflops: 2.0}
  - {id: b, kind: neural, clean_cost_gflops: 3.0}
profiles:
  - component: a
    clean_cardinality: {x: 1.0}
    adv_cardinality: {x: 5.0}
gates:
  - component: a
    routes: {x: b}
edges:
  - {from: a, to: b, label: x, capacity: 4}
source: a
scenarios:
  demo:
    n_inputs: 3
    mix: 1.0
    target_path: "a:x->b:EXIT"
    arrival: back-to-back
    seed: 1
configs:
  tiny:
    batch: {default: 2}
    buffers: {"a:x": 2}
calibration: |
  demo values (assumed).
"""


class TestParseSpec:
    def test_minimal_yaml_parses_and_resolves(self):
        spec = parse_spec(MINIMAL_YAML)
        assert sorted(spec.graph.components) == ["a", "b"]
        assert [p.id for p in enumerate_paths(spec.graph)] == ["a:x->b:EXIT"]
        assert spec.scenarios["demo"].target_path == "a:x->b:EXIT"
        assert spec.configs["tiny"].batch_size("a") == 2
        assert spec.digest.startswith("sha256:")
        assert "demo values" in spec.calibration

    def test_shipped_variant_parses_builds_ranks(self, pipelines_dir):
        spec = parse_spec_file(str(pipelines_dir / "traffic_variant.yaml"))
        assert len(enumerate_paths(spec.graph)) == 3
        assert "attacked" in spec.scenarios
        from pipevuln.ranking import rank_and_select

        ranking = rank_and_select(spec.graph)
        assert ranking.selected.path.id == "od:car->lpr:plate->ret:EXIT"

    def test_empty_file_is_syntax_error(self):
        with pytest.raises(SyntaxParseError) as err:
            parse_spec("")
        assert err.value.code == "E_SYNTAX"

    def test_unparseable_yaml_is_syntax_error(self):
        with pytest.raises(SyntaxParseError):
            parse_spec("components: [unclosed")

    def test_shipped_yaml_loads_as_the_pure_python_loader_does(self, pipelines_dir):
        for path in sorted(pipelines_dir.glob("*.yaml")):
            text = path.read_text(encoding="utf-8")
            assert _load_yaml(text) == yaml.safe_load(text), path.name

    @pytest.mark.parametrize("text", [
        "components: [unclosed", "a: b: c", "key: 'open", "- a\nb: c", "\tx: 1",
    ])
    def test_malformed_yaml_is_e_syntax(self, text):
        with pytest.raises(SyntaxParseError) as err:
            parse_spec(text)
        assert err.value.code == "E_SYNTAX"

    def test_unknown_scenario_key_is_schema_error(self):
        text = MINIMAL_YAML.replace("seed: 1", "seed: 1\n    turbo: true")
        with pytest.raises(SchemaError) as err:
            parse_spec(text)
        assert err.value.code == "E_SCHEMA"

    def test_unresolved_target_path_is_ref_error(self):
        text = MINIMAL_YAML.replace("a:x->b:EXIT", "pi_9")
        with pytest.raises(UnresolvedReferenceError) as err:
            parse_spec(text)
        assert err.value.code == "E_REF"

    def test_unresolved_buffer_edge_is_ref_error(self):
        text = MINIMAL_YAML.replace('"a:x": 2', '"a:ghost": 2')
        with pytest.raises(UnresolvedReferenceError):
            parse_spec(text)

    def test_unresolved_budget_path_is_ref_error(self):
        text = MINIMAL_YAML.replace(
            'buffers: {"a:x": 2}',
            'buffers: {"a:x": 2}\n    path_budgets: {ghost: 1.0}',
        )
        with pytest.raises(UnresolvedReferenceError):
            parse_spec(text)

    def test_missing_file_is_syntax_error(self, tmp_path):
        with pytest.raises(SyntaxParseError):
            parse_spec_file(str(tmp_path / "missing.yaml"))

    def test_bad_arrival_string_is_schema_error(self):
        text = MINIMAL_YAML.replace("back-to-back", "whenever")
        with pytest.raises(SchemaError):
            parse_spec(text)

    def test_fixed_interval_string_form(self):
        text = MINIMAL_YAML.replace("back-to-back", '"fixed-interval:0.25"')
        spec = parse_spec(text)
        scenario = spec.scenarios["demo"]
        assert scenario.arrival == "fixed-interval"
        assert scenario.interval_s == 0.25


class TestJsonl:
    def test_jsonl_and_yaml_parse_identically(self):
        yaml_spec = parse_spec(MINIMAL_YAML)
        jsonl_text = document_to_jsonl(yaml_spec.document)
        jsonl_spec = parse_spec(jsonl_text)
        assert jsonl_spec.graph == yaml_spec.graph
        assert jsonl_spec.scenarios == yaml_spec.scenarios
        assert jsonl_spec.configs == yaml_spec.configs
        assert jsonl_spec.calibration == yaml_spec.calibration

    def test_shipped_jsonl_twin_matches_yaml(self, pipelines_dir):
        yaml_spec = parse_spec_file(str(pipelines_dir / "traffic.yaml"))
        jsonl_spec = parse_spec_file(str(pipelines_dir / "traffic.jsonl"))
        assert jsonl_spec.graph == yaml_spec.graph
        assert jsonl_spec.scenarios == yaml_spec.scenarios
        assert jsonl_spec.configs == yaml_spec.configs

    def test_bad_json_line_is_syntax_error(self):
        with pytest.raises(SyntaxParseError) as err:
            parse_spec('{"type": "component", "id": "a"\n')
        assert "line 1" in str(err.value)

    def test_unknown_record_type_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_spec('{"type": "widget", "id": "a"}\n')


class TestSerialization:
    def test_yaml_round_trip_preserves_graph(self, traffic_graph):
        doc = graph_to_document(traffic_graph)
        text = document_to_yaml(doc)
        spec = parse_spec(text)
        assert spec.graph == traffic_graph

    def test_jsonl_round_trip_preserves_graph(self, traffic_graph):
        doc = graph_to_document(traffic_graph)
        text = document_to_jsonl(doc)
        spec = parse_spec(text)
        assert spec.graph == traffic_graph

    def test_unbounded_capacity_survives_round_trip(self):
        doc = traffic_doc()
        doc["edges"][0]["capacity"] = 7
        from pipevuln.model import build_graph

        graph = build_graph(doc)
        rebuilt = parse_spec(document_to_yaml(graph_to_document(graph))).graph
        assert rebuilt.edges[("od", "person")].capacity == 7
        assert rebuilt.edges[("od", "car")].capacity is None


class TestReports:
    def test_report_is_deterministic_and_digest_stable(self):
        spec_a = parse_spec(MINIMAL_YAML)
        spec_b = parse_spec(MINIMAL_YAML)
        assert spec_a.digest == spec_b.digest
        report_a = build_report(spec_a, "rank", {"spec": "m.yaml"}, {"ok": 1})
        report_b = build_report(spec_b, "rank", {"spec": "m.yaml"}, {"ok": 1})
        assert report_to_json(report_a) == report_to_json(report_b)
        parsed = json.loads(report_to_json(report_a))
        assert parsed["spec_digest"] == spec_a.digest
        assert parsed["calibration"] == spec_a.calibration
        assert parsed["tool"] == "pipevuln"
