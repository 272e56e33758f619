"""Spec parsing (both formats) and reports."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest
import yaml

from pipevuln.errors import (
    BadValueError,
    PipelineError,
    SchemaError,
    SyntaxParseError,
    UnresolvedReferenceError,
)
from pipevuln.model import (
    Attenuation,
    BehaviorProfile,
    ComponentSpec,
    ConfidenceFilter,
    DeploymentConfig,
    EdgeSpec,
    GateSpec,
    InputFilter,
    TrafficScenario,
)
from pipevuln.ranking import enumerate_paths
from pipevuln.specio import (
    _MAX_YAML_DEPTH,
    _load_yaml,
    build_report,
    parse_spec,
    parse_spec_file,
    report_to_json,
)

from conftest import child_env


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

#: Every record leaves out every optional key.
BARE_YAML = """
components:
  - {id: a, kind: neural}
  - {id: b, kind: neural, clean_cost_gflops: 2.5}
profiles:
  - {component: b}
gates:
  - {component: a, routes: {x: b}}
  - {component: b}
edges:
  - {from: a, to: b, label: x}
source: a
scenarios:
  bare: {n_inputs: 2}
configs:
  bare: {}
  nulls: {confidence: null, attenuation: null, input_filter: null}
  defenses: {confidence: {}, attenuation: {}, input_filter: {}}
"""

JSONL = ('{"type": "component", "id": "a", "kind": "neural"}\n'
         '{"type": "source", "id": "a"}\n')


def _with(**sections) -> str:
    """``MINIMAL_YAML`` with the given top-level sections replaced."""
    doc = yaml.safe_load(MINIMAL_YAML)
    doc.update(sections)
    return yaml.safe_dump(doc, sort_keys=False)


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

    def test_unresolved_batch_component_is_ref_error(self):
        text = MINIMAL_YAML.replace("batch: {default: 2}", "batch: {ghost: 2}")
        with pytest.raises(UnresolvedReferenceError,
                           match="config 'tiny' batches unknown component 'ghost'"):
            parse_spec(text)

    def test_batching_a_non_batchable_component_is_bad_value(self):
        # The simulator serves a non-batchable component one item per call,
        # so a larger batch for it would be ignored without a word.
        text = MINIMAL_YAML.replace("clean_cost_gflops: 3.0}",
                                    "clean_cost_gflops: 3.0, batchable: false}")
        with pytest.raises(BadValueError) as err:
            parse_spec(text.replace("batch: {default: 2}", "batch: {b: 16}"))
        assert str(err.value) == (
            "E_BAD_VALUE: config 'tiny' batches non-batchable component 'b'"
        )
        for batch in ("{b: 1}", "{default: 16}"):
            parse_spec(text.replace("batch: {default: 2}", f"batch: {batch}"))

    @pytest.mark.parametrize("taint", ["clean", "adversarial"])
    def test_unresolved_confidence_label_is_ref_error(self, taint):
        # A misspelt label once matched no emission and left the defense off.
        text = MINIMAL_YAML.replace(
            "batch: {default: 2}",
            f"batch: {{default: 2}}\n    confidence: {{{taint}: {{xx: 0.5}}}}",
        )
        with pytest.raises(UnresolvedReferenceError) as err:
            parse_spec(text)
        assert err.value.code == "E_REF"
        assert "config 'tiny' filters unknown label 'xx'" in str(err.value)

    def test_confidence_default_and_gate_labels_resolve(self):
        text = MINIMAL_YAML.replace(
            "batch: {default: 2}",
            "batch: {default: 2}\n"
            "    confidence: {clean: {default: 0.5}, adversarial: {x: 0.25}}",
        )
        confidence = parse_spec(text).configs["tiny"].confidence
        assert confidence.survival("x", False) == 0.5
        assert confidence.survival("x", True) == 0.25

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
        assert scenario.interval_s == 0.25

    @pytest.mark.parametrize("old,new", [
        ("buffers: {\"a:x\": 2}", "path_budgets: {1: 0.5}"),
        ("buffers: {\"a:x\": 2}", "confidence: {clean: {1: 0.5}}"),
        ("batch: {default: 2}", "batch: {1: 2}"),
        ("  demo:", "  7:"),
        ("  tiny:", "  7:"),
    ])
    def test_non_string_key_is_schema_error(self, old, new):
        # A non-string budget key once raised a raw AttributeError, a
        # confidence entry keyed 1 matched no label, and a scenario named 7
        # could not be picked by --scenario.
        with pytest.raises(SchemaError, match="must be strings|must be a string"):
            parse_spec(MINIMAL_YAML.replace(old, new))

    @pytest.mark.parametrize("old,new,key", [
        ("  tiny:\n", "  tiny: {}\n  tiny:\n", "'tiny'"),
        ("clean_cost_gflops: 2.0}", "clean_cost_gflops: 2.0, clean_cost_gflops: 9.0}",
         "'clean_cost_gflops'"),
        ("source: a\n", "source: a\nsource: b\n", "'source'"),
    ])
    def test_duplicate_key_is_schema_error(self, old, new, key):
        # A key declared twice once kept its last value without a word.
        text = MINIMAL_YAML.replace(old, new, 1)
        with pytest.raises(SchemaError) as err:
            parse_spec(text)
        assert err.value.code == "E_SCHEMA"
        assert f"duplicate key {key}" in str(err.value)

    def test_merge_key_still_yields_to_a_key_beside_it(self):
        text = MINIMAL_YAML.replace(
            "  tiny:\n    batch: {default: 2}\n",
            "  base: &base\n    batch: {default: 2}\n"
            "  tiny:\n    <<: *base\n    batch: {default: 4}\n",
        )
        configs = parse_spec(text).configs
        assert configs["base"].batch == {"default": 2}
        assert configs["tiny"].batch == {"default": 4}

    def test_arrival_mapping_is_schema_error(self):
        text = MINIMAL_YAML.replace("back-to-back", "{fixed-interval: 0.25}")
        with pytest.raises(SchemaError, match="arrival is malformed"):
            parse_spec(text)


class TestDefaults:
    """A record that leaves out an optional key reads that key's default."""

    def test_components_and_edges(self):
        graph = parse_spec(BARE_YAML).graph
        assert graph.components == {
            "a": ComponentSpec(id="a", kind="neural", clean_cost=0.0, adv_cost=0.0,
                               device_rate=1.0, per_call_overhead=0.0,
                               batchable=True),
            # A missing adversarial cost equals the clean cost.
            "b": ComponentSpec(id="b", kind="neural", clean_cost=2.5, adv_cost=2.5,
                               device_rate=1.0, per_call_overhead=0.0,
                               batchable=True),
        }
        assert graph.edges == {
            ("a", "x"): EdgeSpec(from_id="a", to_id="b", label="x", capacity=None),
        }

    def test_profiles_and_gates(self):
        graph = parse_spec(BARE_YAML).graph
        assert graph.profiles["b"] == BehaviorProfile(
            component="b", clean_cardinality={}, adv_cardinality={})
        assert graph.gates["b"] == GateSpec(component="b", routes={})

    def test_scenario_is_back_to_back_at_seed_0_and_clean(self):
        assert parse_spec(BARE_YAML).scenarios == {"bare": TrafficScenario(
            n_inputs=2, mix=0.0, target_path=None, interval_s=0.0, seed=0,
        )}

    def test_configs(self):
        spec = parse_spec(BARE_YAML)
        bare = DeploymentConfig(
            batch={}, buffers={}, confidence=None, attenuation=None,
            input_filter=None, path_budgets={}, device_model="per-component-server",
        )
        assert spec.configs["bare"] == bare
        assert spec.configs["nulls"] == bare
        assert spec.configs["defenses"] == DeploymentConfig(
            confidence=ConfidenceFilter(clean={}, adversarial={}),
            attenuation=Attenuation(factor=1.0, residual_floor=0.0),
            input_filter=InputFilter(p_detect=0.0, action="drop-input"),
        )
        assert spec.calibration == ""

    def test_records_built_in_python_take_the_same_defaults(self):
        spec = parse_spec(BARE_YAML)
        assert spec.configs["bare"] == DeploymentConfig()
        assert spec.configs["defenses"] == DeploymentConfig(
            confidence=ConfidenceFilter(), attenuation=Attenuation(),
            input_filter=InputFilter(),
        )


class TestCodedErrors:
    """Each check below ends a parse with one coded line."""

    @pytest.mark.parametrize("text,message", [
        ("~\n", "E_SYNTAX: empty spec document"),
        ("- a\n- b\n", "E_SYNTAX: spec document must be a mapping at top level"),
        (MINIMAL_YAML.replace("    n_inputs: 3\n", ""),
         "E_SCHEMA: scenario 'demo' is missing n_inputs"),
        (MINIMAL_YAML.replace("back-to-back", '"fixed-interval:soon"'),
         "E_SCHEMA: scenario 'demo'.arrival has a bad interval"),
        (MINIMAL_YAML.replace('"a:x->b:EXIT"', "5"),
         "E_SCHEMA: scenario 'demo'.target_path must be a string"),
        (_with(scenarios=[1]),
         "E_SCHEMA: scenarios section must be a mapping of names to records"),
        (_with(scenarios={"demo": None}),
         "E_SCHEMA: scenario 'demo' must be a mapping, got NoneType"),
        (_with(configs={"tiny": None}),
         "E_SCHEMA: config 'tiny' must be a mapping, got NoneType"),
        (_with(configs={"tiny": {"attenuation": {"factr": 0.5}}}),
         "E_SCHEMA: config 'tiny'.attenuation has unknown key(s): factr"),
        (_with(configs={"tiny": {"attenuation": 5}}),
         "E_SCHEMA: config 'tiny'.attenuation must be a mapping, got int"),
        (_with(configs={"tiny": {"attenuation": {"factor": "1"}}}),
         "E_SCHEMA: config 'tiny'.attenuation.factor must be a number"),
        (_with(configs={"tiny": {"input_filter": {"action": None}}}),
         "E_SCHEMA: config 'tiny'.input_filter.action must be a string"),
        (_with(configs={"tiny": {"confidence": {"clean": None}}}),
         "E_SCHEMA: config 'tiny'.confidence.clean must be a mapping, got NoneType"),
        (_with(configs={"tiny": {"batch": {"a": 2.0}}}),
         "E_SCHEMA: config 'tiny'.batch['a'] must be an integer"),
        (_with(configs={"tiny": {"device_model": 3}}),
         "E_SCHEMA: config 'tiny'.device_model must be a string"),
        (_with(calibration=5), "E_SCHEMA: calibration section must be free text"),
    ])
    def test_yaml(self, text, message):
        with pytest.raises(PipelineError) as err:
            parse_spec(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("extra,message", [
        ('{"type": "scenario", "n_inputs": 1}\n',
         "E_SCHEMA: line 3: scenario record needs a name"),
        ('{"type": "config", "name": ""}\n',
         "E_SCHEMA: line 3: config record needs a name"),
        ('{"type": "config", "name": "x"}\n{"type": "config", "name": "x"}\n',
         "E_SCHEMA: line 4: duplicate config name 'x'"),
        ('{"type": "scenario", "name": "s", "n_inputs": 1}\n'
         '{"type": "scenario", "name": "s", "n_inputs": 2}\n',
         "E_SCHEMA: line 4: duplicate scenario name 's'"),
    ])
    def test_jsonl(self, extra, message):
        with pytest.raises(SchemaError) as err:
            parse_spec(JSONL + extra)
        assert str(err.value) == message

    def test_jsonl_invalid_json_names_its_line(self):
        with pytest.raises(SyntaxParseError) as err:
            parse_spec(JSONL + "{oops}\n")
        assert str(err.value).startswith("E_SYNTAX: line 3: invalid JSON: ")

    def test_jsonl_blank_lines_are_skipped(self):
        spec = parse_spec(JSONL.replace("\n", "\n\n   \n", 1))
        bare = parse_spec(JSONL)
        assert (spec.graph, spec.scenarios, spec.configs) == (
            bare.graph, bare.scenarios, bare.configs)


class TestJsonl:
    def test_shipped_jsonl_twin_matches_yaml(self, pipelines_dir):
        yaml_spec = parse_spec_file(str(pipelines_dir / "traffic.yaml"))
        jsonl_spec = parse_spec_file(str(pipelines_dir / "traffic.jsonl"))
        assert jsonl_spec.graph == yaml_spec.graph
        assert jsonl_spec.scenarios == yaml_spec.scenarios
        assert jsonl_spec.configs == yaml_spec.configs
        assert jsonl_spec.calibration == yaml_spec.calibration

    def test_brace_text_with_a_non_json_first_line_is_read_as_yaml(self):
        # Only text whose first line decodes as a typed JSON record takes the
        # JSON-lines reader; this one is flow-style YAML, and broken.
        with pytest.raises(SyntaxParseError) as err:
            parse_spec('{"type": "component", "id": "a"\n')
        assert str(err.value).startswith("E_SYNTAX: invalid YAML: ")

    def test_unknown_record_type_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_spec('{"type": "widget", "id": "a"}\n')

    @pytest.mark.parametrize("first", [True, False], ids=["first-line", "later-line"])
    def test_nesting_past_the_recursion_limit_is_syntax_error(self, first):
        # A first line too deep to decode still takes the JSON-lines reader.
        # From CPython 3.12 the C decoder has a depth limit of its own, well
        # past the recursion limit; 100,000 levels is past both.
        depth = 100_000
        deep = '{"type": "component", "x": ' + "[" * depth + "]" * depth + "}"
        source = '{"type": "source", "id": "a"}'
        lines = [deep, source] if first else [source, deep]
        with pytest.raises(SyntaxParseError) as err:
            parse_spec("\n".join(lines) + "\n")
        line = 1 if first else 2
        assert str(err.value).startswith(f"E_SYNTAX: line {line}: invalid JSON: ")
        assert "recursion" in str(err.value)


class TestYamlDepth:
    """Nesting past ``_MAX_YAML_DEPTH`` collections is a syntax error before
    libyaml loads the text; the top-level mapping counts as one."""

    # Each form nests k collections under ``components``. A single-pair
    # mapping in a flow sequence opens without a brace, and "pairs" puts
    # each level on a line of its own, so it has half a bracket per level
    # and no long line.
    FORMS = {
        "flow": lambda k: "components: " + "[" * k + "]" * k + "\n",
        "braces": lambda k: "components: " + "{a: " * k + "1" + "}" * k + "\n",
        "block": lambda k: "components:\n" + "- " * k + "1\n",
        "pairs": lambda k: "components: " + "[a: \n" * (k // 2)
        + ("[]" if k % 2 else "1") + "\n]" * (k // 2) + "\n",
    }
    #: The line of the first collection past the limit.
    LINES = {"flow": 1, "braces": 1, "block": 2, "pairs": _MAX_YAML_DEPTH // 2}

    @pytest.mark.parametrize("form", FORMS)
    def test_nesting_at_the_limit_is_read(self, form):
        with pytest.raises(SchemaError):
            parse_spec(self.FORMS[form](_MAX_YAML_DEPTH - 1))

    @pytest.mark.parametrize("form", FORMS)
    def test_nesting_past_the_limit_is_syntax_error(self, form):
        with pytest.raises(SyntaxParseError) as err:
            parse_spec(self.FORMS[form](_MAX_YAML_DEPTH))
        assert str(err.value) == (
            f"E_SYNTAX: invalid YAML: nested deeper than {_MAX_YAML_DEPTH} "
            f"levels at line {self.LINES[form]}")

    def test_deep_nesting_without_libyaml_is_syntax_error(self, tmp_path):
        # PyYAML's pure-Python loader recurses once per level, so it meets
        # Python's recursion limit near 490 levels, inside the limit.
        spec = tmp_path / "deep.yaml"
        spec.write_text(self.FORMS["flow"](600))
        code = ("import sys, yaml; yaml.__dict__.pop('CSafeLoader', None); "
                "from pipevuln.cli import main; sys.exit(main(sys.argv[1:]))")
        done = subprocess.run([sys.executable, "-c", code, "validate", str(spec)],
                              capture_output=True, text=True, env=child_env())
        assert done.returncode == 1, done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith("E_SYNTAX: invalid YAML: ")

    def test_many_shallow_collections_are_read(self):
        # More brackets than the limit, so the events are scanned; each
        # list closes before the next opens.
        with pytest.raises(SchemaError, match="must be a mapping, got list"):
            parse_spec("components: [" + "[], " * _MAX_YAML_DEPTH + "]\n")


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_report_value_is_bad_value(self, value):
        report = build_report(parse_spec(MINIMAL_YAML), "rank", {}, {"x": value})
        with pytest.raises(BadValueError, match="not valid JSON"):
            report_to_json(report)
