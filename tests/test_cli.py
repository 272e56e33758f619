"""CLI surface: exit codes, formats, determinism, library agreement."""

from __future__ import annotations

import argparse
import ast
import csv
import importlib
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

from pipevuln import cli, propagation, ranking
from pipevuln.cli import build_parser, main
from pipevuln.errors import BadValueError
from pipevuln.model import build_graph
from pipevuln.ranking import enumerate_paths, rank_and_select
from pipevuln.simulate import simulate
from pipevuln.specio import parse_spec_file

from conftest import LAYERED_SPEC, child_env, exit_only_doc, huge_mean_doc, traffic_doc


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def traffic_spec_path(pipelines_dir) -> str:
    return str(pipelines_dir / "traffic.yaml")


@pytest.fixture(scope="module")
def variant_spec_path(pipelines_dir) -> str:
    return str(pipelines_dir / "traffic_variant.yaml")


class TestExitCodes:
    def test_rank_success(self, capsys, traffic_spec_path):
        code, out, _ = run_cli(capsys, "rank", traffic_spec_path)
        assert code == 0
        assert "od:car->lpr:plate->sum:EXIT" in out

    def test_missing_spec_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "missing.spec",
                               "--scenario", "x", "--config", "y")
        assert code == 1
        assert "E_SYNTAX" in err

    def test_usage_error_is_exit_2(self, capsys):
        assert main(["rank"]) == 2
        capsys.readouterr()
        assert main(["frobnicate", "x.yaml"]) == 2
        capsys.readouterr()

    def test_domain_error_message_carries_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("components: []\nsource: a\n")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert "E_NO_SOURCE" in err


    def test_huge_emission_mean_exits_1_without_traceback(self, capsys, tmp_path):
        spec = tmp_path / "huge.yaml"
        spec.write_text(yaml.safe_dump(huge_mean_doc()))
        code, _, err = run_cli(capsys, "simulate", str(spec),
                               "--scenario", "attacked", "--config", "none")
        assert code == 1
        assert err.startswith("E_NONTERMINATION")
        assert "Traceback" not in err

    def test_budget_that_overflows_exits_1_without_traceback(self, capsys, tmp_path):
        doc = exit_only_doc(7.0, 0.1, n_inputs=10)
        doc["configs"]["huge"] = {"path_budgets": {"a:x->b:EXIT": 1.0e308}}
        spec = tmp_path / "huge_budget.yaml"
        spec.write_text(yaml.safe_dump(doc))
        code, _, err = run_cli(capsys, "simulate", str(spec),
                               "--scenario", "clean", "--config", "huge")
        assert code == 1
        assert err.startswith("E_BAD_VALUE: path budget for 'a:x->b:EXIT'")
        assert "Traceback" not in err

    def test_huge_mean_that_is_never_drawn_exits_0(self, capsys, tmp_path,
                                                   variant_spec_path):
        doc = yaml.safe_load(Path(variant_spec_path).read_text())
        doc["profiles"][0]["adv_cardinality"]["car"]["car"] = 2.0e7
        doc["configs"]["all_clean"] = {
            "input_filter": {"p_detect": 1.0, "action": "treat-as-clean"},
        }
        spec = tmp_path / "huge_untaken.yaml"
        spec.write_text(yaml.safe_dump(doc))
        records = {}
        for scenario, config in (("attacked", "all_clean"), ("clean", "none")):
            code, out, err = run_cli(capsys, "simulate", str(spec), "--scenario",
                                     scenario, "--config", config,
                                     "--format", "records")
            assert code == 0, err
            records[scenario] = json.loads(out)
            del records[scenario]["label"]
        assert records["attacked"].pop("filtered") == 10
        assert records["clean"].pop("filtered") == 0
        assert records["attacked"] == records["clean"]

    def test_more_inputs_than_events_exits_1_before_allocating(
        self, capsys, tmp_path, traffic_spec_path
    ):
        # Sizing per-input state for 10**12 inputs would exhaust memory.
        doc = yaml.safe_load(Path(traffic_spec_path).read_text())
        doc["scenarios"]["attacked"]["n_inputs"] = 1000000000000
        spec = tmp_path / "many_inputs.yaml"
        spec.write_text(yaml.safe_dump(doc))
        code, _, err = run_cli(capsys, "simulate", str(spec),
                               "--scenario", "attacked", "--config", "none")
        assert code == 1
        assert err.startswith("E_NONTERMINATION") and "n_inputs" in err
        assert "Traceback" not in err

    def test_fan_out_past_the_bound_exits_1_with_one_line(self, capsys, tmp_path):
        # Each input sends about 6e6 items to the exit-only server b, which
        # serves them without events; the second input's offers cross the
        # default bound of 1e7.
        spec = tmp_path / "fan_out.yaml"
        spec.write_text(yaml.safe_dump(exit_only_doc(6e6, 0.1, n_inputs=2)))
        code, out, err = run_cli(capsys, "simulate", str(spec),
                                 "--scenario", "clean", "--config", "none")
        assert code == 1 and out == ""
        assert err.startswith("E_NONTERMINATION: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_fan_out_into_the_event_path_exits_1_with_one_line(self, capsys,
                                                              tmp_path):
        # A buffer that never fills puts b on the event path, so the first
        # input's 6e6 items wait in b's FIFO, as one run, until the second
        # input's offers cross the bound.
        doc = exit_only_doc(6e6, 0.1, n_inputs=2)
        doc["configs"]["none"] = {"buffers": {"a:x": 10**9}}
        spec = tmp_path / "fan_out_queued.yaml"
        spec.write_text(yaml.safe_dump(doc))
        code, out, err = run_cli(capsys, "simulate", str(spec),
                                 "--scenario", "clean", "--config", "none")
        assert code == 1 and out == ""
        assert err.startswith("E_NONTERMINATION: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_config_declared_twice_is_schema_error(self, capsys, tmp_path,
                                                   variant_spec_path):
        # The second config of a name once won silently: batch 16 under none.
        text = Path(variant_spec_path).read_text()
        assert "  none: {}\n" in text
        spec = tmp_path / "twice.yaml"
        spec.write_text(text.replace(
            "  none: {}\n", "  none: {}\n  none: {batch: {default: 16}}\n", 1))
        code, out, err = run_cli(capsys, "validate", str(spec))
        assert code == 1 and out == ""
        assert err.startswith("E_SCHEMA: duplicate key 'none' at line ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [7, {"a": 1}, "text", None])
    @pytest.mark.parametrize("section", ["components", "profiles", "gates", "edges"])
    def test_section_that_is_not_a_list_is_schema_error(self, capsys, tmp_path,
                                                       section, value):
        doc = traffic_doc()
        doc[section] = value
        spec = tmp_path / "section.yaml"
        spec.write_text(yaml.safe_dump(doc))
        code, _, err = run_cli(capsys, "validate", str(spec))
        assert code == 1
        assert err.startswith("E_SCHEMA") and f"{section} must be a list" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra", [
        ["--scenario", "attacked", "--seed", "9"],
        ["--config", "none"],
        ["--seed", "9"],
    ])
    def test_report_with_half_the_simulation_flags_is_syntax_error(
        self, capsys, variant_spec_path, extra
    ):
        code, out, err = run_cli(capsys, "report", variant_spec_path, *extra)
        assert code == 1
        assert err.startswith("E_SYNTAX") and "name required" in err
        assert out == ""

    def test_matrix_with_seed_and_seeds_is_syntax_error(self, capsys,
                                                         traffic_spec_path):
        # --seed once gave way to --seeds without a word.
        code, out, err = run_cli(capsys, "matrix", traffic_spec_path,
                                 "--seed", "5", "--seeds", "1")
        assert code == 1
        assert err == "E_SYNTAX: give --seed or --seeds, not both\n"
        assert out == ""

    def test_bad_seed_list_is_coded_error(self, capsys, traffic_spec_path):
        code, _, err = run_cli(capsys, "matrix", traffic_spec_path,
                               "--seeds", "1,x")
        assert code == 1
        assert err.startswith("E_BAD_VALUE") and "'x'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("seeds,message", [
        (",", "--seeds: '' is not an integer"),
        ("", "--seeds: '' is not an integer"),
        ("1,,2", "--seeds: '' is not an integer"),
        ("1,", "--seeds: '' is not an integer"),
        ("1,1", "matrix: seeds must be distinct, got [1, 1]"),
    ])
    def test_blank_or_repeated_seed_is_bad_value(self, capsys, traffic_spec_path,
                                                 seeds, message):
        # A blank list once ran the scenario's own seed, and a repeated seed
        # printed two seed=1 rows and a std of 0.
        code, out, err = run_cli(capsys, "matrix", traffic_spec_path,
                                 "--scenario", "clean", "--config", "none",
                                 "--seeds", seeds)
        assert (code, out, err) == (1, "", f"E_BAD_VALUE: {message}\n")

    @pytest.mark.parametrize("target", ["missing/out.txt", "."])
    def test_unwritable_out_is_coded_error(self, capsys, tmp_path,
                                           traffic_spec_path, target):
        out = tmp_path / target
        code, stdout, err = run_cli(capsys, "rank", traffic_spec_path,
                                    "--out", str(out))
        assert code == 1
        assert err.startswith("E_BAD_VALUE") and str(out) in err
        assert stdout == ""


def _scaled_traffic_spec(tmp_path, pipelines_dir, gflops: float) -> str:
    """``traffic.yaml`` with every neural cost set to ``gflops``."""
    doc = yaml.safe_load((pipelines_dir / "traffic.yaml").read_text())
    for component in doc["components"]:
        if component["kind"] == "neural":
            component["clean_cost_gflops"] = component["adv_cost_gflops"] = gflops
    spec = tmp_path / f"traffic_{gflops:g}.yaml"
    spec.write_text(yaml.safe_dump(doc))
    return str(spec)


class TestNonFiniteResults:
    """A result that overflows is E_BAD_VALUE, never a printed nan or inf."""

    @pytest.mark.parametrize("command", [
        "rank", "rank --format csv", "rank --format records",
        "weights", "weights --format csv", "weights --format records",
        "amplify", "amplify --format csv", "amplify --format records",
        "report",
        "simulate --scenario attacked --config none",
        "simulate --scenario clean --config none --format records",
        "matrix", "matrix --format records",
    ])
    def test_overflowing_costs_are_bad_value(self, capsys, tmp_path,
                                            pipelines_dir, command):
        spec = _scaled_traffic_spec(tmp_path, pipelines_dir, 1.0e308)
        name, *extra = command.split()
        code, out, err = run_cli(capsys, name, spec, *extra)
        assert code == 1
        assert err.startswith("E_BAD_VALUE: ") and "not finite" in err
        assert "Traceback" not in err
        assert out == ""  # so no nan, NaN, inf or Infinity either

    def test_multi_seed_spread_that_overflows_is_bad_value(
        self, capsys, tmp_path, pipelines_dir
    ):
        # Each run is finite; the squared spread of their times is not.
        spec = _scaled_traffic_spec(tmp_path, pipelines_dir, 1.0e160)
        code, out, err = run_cli(capsys, "matrix", spec, "--scenario", "attacked",
                                 "--config", "none", "--seeds", "0,1")
        assert code == 1
        assert err.startswith("E_BAD_VALUE: matrix cell attacked/none")
        assert out == ""

    def test_records_output_refuses_non_finite_json(self):
        args = argparse.Namespace(format="records")
        with pytest.raises(BadValueError, match="not valid JSON"):
            cli._output(args, [], list, lambda: [{"x": float("nan")}])


class TestFlagSurface:
    """Each subcommand takes exactly the options its handler reads."""

    FLAGS = {
        "validate": {"--out", "--path-cap"},
        "paths": {"--format", "--out", "--path-cap"},
        "rank": {"--format", "--out", "--quiet", "--path-cap", "--force-label"},
        "weights": {"--format", "--out", "--path-cap", "--force-label"},
        "amplify": {"--format", "--out", "--quiet", "--path-cap"},
        "simulate": {"--format", "--out", "--seed", "--scenario", "--config"},
        "matrix": {"--format", "--out", "--seed", "--scenario", "--config",
                   "--seeds"},
        "report": {"--out", "--seed", "--path-cap", "--scenario", "--config"},
    }

    def test_each_subcommand_registers_only_the_flags_it_reads(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        got = {
            name: {flag for action in parser._actions
                   for flag in action.option_strings} - {"-h", "--help"}
            for name, parser in sub.choices.items()
        }
        assert got == self.FLAGS
        assert sum(len(flags) for flags in got.values()) == 34

    @pytest.mark.parametrize("command,extra", [
        ("rank", ["--seed", "1"]),
        ("report", ["--format", "csv"]),
    ])
    def test_flag_a_subcommand_does_not_read_is_usage_error(
        self, capsys, traffic_spec_path, command, extra
    ):
        code, out, err = run_cli(capsys, command, traffic_spec_path, *extra)
        assert code == 2
        assert "unrecognized arguments" in err
        assert out == ""


class TestPublicSurface:
    """``pipevuln.__all__`` is exactly the supported library API."""

    NAMES = {
        "__version__",
        # errors
        "PipelineError", "BadValueError", "CycleError", "DanglingReferenceError",
        "DuplicateIdError", "EmptyInputError", "MissingScoreError",
        "NoSourceError", "NoSuchPathError", "NonTerminationError",
        "PathExplosionError", "ScenarioMismatchError", "SchemaError",
        "SyntaxParseError", "UnresolvedReferenceError",
        # model
        "EXIT", "BehaviorProfile", "ComponentSpec", "EdgeSpec", "GateSpec",
        "PipelineGraph", "build_graph", "topological_order",
        # propagation
        "CostBreakdown", "WorkloadVector", "amplification_matrix", "clean_cost",
        "cost", "expected_emission", "propagate",
        # ranking
        "ExecutionPath", "PathRanking", "RankedPath", "compute_loss_weights",
        "enumerate_paths", "rank_and_select", "resolve_path", "wrong_path_report",
        # simulation
        "Attenuation", "ConfidenceFilter", "DeploymentConfig", "EdgeStats",
        "InputFilter", "SimMetrics", "TrafficScenario", "percentile",
        "run_matrix", "simulate",
        # io
        "SpecDocument", "build_report", "parse_spec", "parse_spec_file",
    }

    def test_all_is_pinned_and_every_name_resolves(self):
        import pipevuln

        assert sorted(pipevuln.__all__) == sorted(self.NAMES)
        for name in pipevuln.__all__:
            assert hasattr(pipevuln, name), name


class TestSubcommands:
    def test_validate_summary(self, capsys, variant_spec_path):
        code, out, _ = run_cli(capsys, "validate", variant_spec_path)
        assert code == 0
        assert "5 components" in out
        assert "sha256:" in out

    def test_paths_lists_every_path(self, capsys, traffic_spec_path):
        code, out, _ = run_cli(capsys, "paths", traffic_spec_path,
                               "--format", "records")
        assert code == 0
        ids = [json.loads(line)["path_id"] for line in out.splitlines()]
        assert ids == sorted(ids)
        assert len(ids) == 3

    def test_rank_selects_plate_branch(self, capsys, traffic_spec_path):
        code, out, _ = run_cli(capsys, "rank", traffic_spec_path,
                               "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        selected = [r for r in records if r["selected"]]
        assert len(selected) == 1
        assert selected[0]["path_id"] == "od:car->lpr:plate->sum:EXIT"

    def test_rank_force_label(self, capsys, traffic_spec_path):
        code, out, _ = run_cli(capsys, "rank", traffic_spec_path,
                               "--force-label", "person", "--format", "records")
        assert code == 0
        selected = [json.loads(line) for line in out.splitlines()
                    if json.loads(line)["selected"]]
        assert selected[0]["path_id"] == "od:person->pr:face->sum:EXIT"

    def test_weights_sum_to_one(self, capsys, traffic_spec_path):
        code, out, _ = run_cli(capsys, "weights", traffic_spec_path,
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert sum(float(r["weight"]) for r in rows) == pytest.approx(1.0)

    def test_amplify_emits_clean_and_per_path_rows(self, capsys,
                                                   variant_spec_path):
        code, out, _ = run_cli(capsys, "amplify", variant_spec_path,
                               "--quiet", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["scenario"] == "clean"
        assert float(rows[0]["flops_x"]) == 1.0
        assert len(rows) == 4

    def test_simulate_requires_scenario_and_config(self, capsys,
                                                   variant_spec_path):
        code, _, err = run_cli(capsys, "simulate", variant_spec_path)
        assert code == 1
        assert "scenario" in err

    def test_simulate_seed_override_changes_draws(self, capsys,
                                                  variant_spec_path):
        _, out_a, _ = run_cli(capsys, "simulate", variant_spec_path,
                              "--scenario", "attacked", "--config", "none",
                              "--format", "csv", "--seed", "1")
        _, out_b, _ = run_cli(capsys, "simulate", variant_spec_path,
                              "--scenario", "attacked", "--config", "none",
                              "--format", "csv", "--seed", "2")
        assert out_a != out_b

    def test_matrix_runs_scoped_cell(self, capsys, variant_spec_path):
        code, out, _ = run_cli(capsys, "matrix", variant_spec_path,
                               "--scenario", "clean", "--config", "buf100",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["label"] == "clean/buf100"
        assert rows[0]["drops"] == "0"

    def test_matrix_multi_seed_rows(self, capsys, variant_spec_path):
        code, out, _ = run_cli(capsys, "matrix", variant_spec_path,
                               "--scenario", "mix_99_01", "--config", "svm",
                               "--seeds", "0,1,2", "--format", "csv")
        assert code == 0
        labels = [r["label"] for r in csv.DictReader(io.StringIO(out))]
        assert labels == [
            "mix_99_01/svm/seed=0", "mix_99_01/svm/seed=1",
            "mix_99_01/svm/seed=2", "mix_99_01/svm/mean", "mix_99_01/svm/std",
        ]

    def test_matrix_seed_equals_a_one_seed_list(self, capsys, variant_spec_path):
        # The exact form the benchmark's defense_matrix workload times.
        code, out, _ = run_cli(capsys, "matrix", variant_spec_path,
                               "--format", "csv", "--seed", "3")
        assert code == 0
        assert run_cli(capsys, "matrix", variant_spec_path,
                       "--format", "csv", "--seeds", "3") == (0, out, "")
        spec = parse_spec_file(variant_spec_path)
        metrics = simulate(spec.graph, spec.scenarios["attacked"]._replace(seed=3),
                           spec.configs["none"])
        row = next(r for r in csv.DictReader(io.StringIO(out))
                   if r["label"] == "attacked/none")
        assert float(row["wall_time_s"]) == metrics.wall_time_s

    def test_report_document_shape(self, capsys, variant_spec_path):
        code, out, _ = run_cli(capsys, "report", variant_spec_path,
                               "--scenario", "clean", "--config", "none")
        assert code == 0
        report = json.loads(out)
        assert report["tool"] == "pipevuln"
        assert report["spec_digest"].startswith("sha256:")
        assert "ranking" in report["results"]
        assert "simulation" in report["results"]

    def test_out_writes_file(self, capsys, tmp_path, traffic_spec_path):
        target = tmp_path / "ranked.csv"
        code, out, _ = run_cli(capsys, "rank", traffic_spec_path,
                               "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        assert "path_id" in target.read_text()


class TestStartup:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # Every CLI process pays for its imports. Records built with
        # dataclasses exec-compiled generated methods and loaded inspect, ast,
        # dis and tokenize: about 15 ms a process that named tuples save.
        code = ("import sys, pipevuln.cli; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_package_binds_the_functions_when_the_submodule_loads_first(self):
        # ``pipevuln.simulate`` names both the submodule and the function.
        # Loading the submodule binds the module on the package; the eager
        # package rebinds the function after it. A lazy package would leave
        # README's ``pv.simulate(...)`` the module whenever anything loaded
        # ``pipevuln.simulate`` first.
        code = ("import importlib, sys; importlib.import_module('pipevuln.simulate'); "
                "import pipevuln; module = sys.modules['pipevuln.simulate']; "
                "print(pipevuln.simulate is module.simulate, "
                "pipevuln.run_matrix is module.run_matrix)")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert done.returncode == 0, done.stderr
        assert done.stdout == "True True\n"


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pipevuln"


def package_imports(name: str) -> set[tuple[str | None, str]]:
    """``(function, module)`` for each pipevuln module that ``name``'s source
    imports: ``function`` names the outermost def around the import, or is
    ``None`` at module level; the package itself is ``__init__``."""
    found: set[tuple[str | None, str]] = set()

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, function or child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                if child.level:
                    base = f"pipevuln.{child.module}" if child.module else "pipevuln"
                else:
                    base = child.module or ""
                # ``from pipevuln import name`` may load the submodule ``name``.
                names = ([f"{base}.{alias.name}" for alias in child.names]
                         if base == "pipevuln" else [base])
            elif isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            else:
                visit(child, function)
                continue
            for dotted in names:
                top, _, module = dotted.partition(".")
                if top == "pipevuln":
                    module = module.partition(".")[0]
                    found.add((function, module if (PACKAGE / f"{module}.py").is_file()
                               else "__init__"))

    visit(ast.parse((PACKAGE / f"{name}.py").read_text()), None)
    return found


class TestLayering:
    def test_layers_import_only_downward(self):
        imports = {path.stem: package_imports(path.stem)
                   for path in PACKAGE.glob("*.py")}
        at_top = {name: {module for function, module in found if function is None}
                  for name, found in imports.items()}
        # The model owns every spec record and reader; the parse layer and
        # the simulator do not depend on each other or on the CLI.
        assert at_top["model"] == {"errors"}
        assert not at_top["specio"] & {"simulate", "cli"}
        assert not at_top["simulate"] & {"specio", "cli"}
        # The one import made inside a function breaks the propagation ->
        # ranking cycle, as ranking imports propagation at module level.
        in_functions = {(name, function, module) for name, found in imports.items()
                        for function, module in found if function is not None}
        assert in_functions == {("propagation", "amplification_matrix", "ranking")}


class TestSpecBoundsAndRules:
    def test_flow_nesting_of_30000_levels_is_syntax_error(self, tmp_path):
        # libyaml's loader overflows the C stack on this text, so it runs in
        # a child process: a crash there fails the test, not the suite.
        spec = tmp_path / "deep.yaml"
        spec.write_text("components: " + "[" * 30_000 + "]" * 30_000)
        done = subprocess.run([sys.executable, "-m", "pipevuln.cli", "validate", str(spec)],
                              capture_output=True, text=True, env=child_env())
        assert done.returncode == 1
        assert done.stderr == (
            "E_SYNTAX: invalid YAML: nested deeper than 1000 levels at line 1\n")

    @pytest.mark.parametrize("name,renamed", [
        ('"pr"', '"p:r"'),  # component id
        ('"pr"', '"p->r"'),
        ('"person"', '"per:son"'),  # gate label
        ('"person"', '"per->son"'),
    ])
    def test_path_id_separators_rejected(self, capsys, tmp_path, name, renamed):
        doc = json.loads(json.dumps(traffic_doc()).replace(name, renamed))
        with pytest.raises(Exception) as err:
            build_graph(doc)
        assert getattr(err.value, "code", None) == "E_BAD_VALUE"
        spec = tmp_path / "separator.yaml"
        spec.write_text(yaml.safe_dump(doc))
        code, _, stderr = run_cli(capsys, "validate", str(spec))
        assert code == 1
        assert stderr.startswith("E_BAD_VALUE")

    @pytest.mark.parametrize("command", [
        "validate", "paths", "rank", "weights", "amplify", "report",
    ])
    def test_path_cap_flag_binds_every_enumerating_command(
        self, capsys, variant_spec_path, command
    ):
        # Three paths, one over the cap.
        code, out, stderr = run_cli(capsys, command, variant_spec_path,
                                    "--path-cap", "2")
        assert code == 1
        assert stderr.startswith("E_PATH_EXPLOSION")
        assert out == ""

    @pytest.mark.parametrize("command", [
        "validate", "paths", "rank", "weights", "amplify", "report",
    ])
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_path_cap_below_one_is_a_bad_value(
        self, capsys, variant_spec_path, command, cap
    ):
        # Every graph has a path, so the flag is at fault, not the graph.
        code, out, stderr = run_cli(capsys, command, variant_spec_path,
                                    "--path-cap", cap)
        assert (code, out) == (1, "")
        assert stderr == f"E_BAD_VALUE: path cap must be >= 1, got {cap}\n"

    def test_path_cap_environment_variable_is_not_read(
        self, capsys, monkeypatch, variant_spec_path
    ):
        expected = run_cli(capsys, "rank", variant_spec_path)
        monkeypatch.setenv("PIPEVULN_PATH_CAP", "2")
        assert run_cli(capsys, "rank", variant_spec_path) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("config,setting,value", [
        ("budget", 'ret:EXIT": 1.2}', "1.2"),
        ("gauss", "residual_floor: 5.0}", "5.0"),
    ])
    @pytest.mark.parametrize("bad", [".nan", ".inf"])
    def test_non_finite_config_value_is_bad_value(
        self, capsys, tmp_path, variant_spec_path, command, config, setting,
        value, bad
    ):
        text = Path(variant_spec_path).read_text()
        assert setting in text
        spec = tmp_path / "non_finite.yaml"
        spec.write_text(text.replace(setting, setting.replace(value, bad)))
        extra = ["--scenario", "attacked", "--config", config]
        code, _, stderr = run_cli(capsys, command, str(spec),
                                  *(extra if command == "simulate" else []))
        assert code == 1
        assert stderr.startswith("E_BAD_VALUE")

    def test_amplify_argmax_tie_breaks_toward_smallest_id(self, capsys,
                                                         tmp_path):
        # Two mirror-image branches amplify equally; the note must name the
        # path rank selects, the one with the smaller id.
        leaf = {"kind": "neural", "clean_cost_gflops": 5.0}
        doc = {
            "components": [{"id": "a", "kind": "neural", "clean_cost_gflops": 1.0},
                           {"id": "b", **leaf}, {"id": "c", **leaf}],
            "profiles": [{"component": "a",
                          "clean_cardinality": {"x": 1.0, "y": 1.0},
                          "adv_cardinality": {"x": 3.0, "y": 3.0}}],
            "gates": [{"component": "a", "routes": {"x": "b", "y": "c"}}],
            "edges": [{"from": "a", "to": "b", "label": "x"},
                      {"from": "a", "to": "c", "label": "y"}],
            "source": "a",
        }
        spec = tmp_path / "tie.yaml"
        spec.write_text(yaml.safe_dump(doc))
        code, _, stderr = run_cli(capsys, "amplify", str(spec))
        assert code == 0
        assert stderr == "analytic argmax path: a:x->b:EXIT\n"
        ranking = rank_and_select(parse_spec_file(str(spec)).graph)
        assert ranking.selected.path.id == "a:x->b:EXIT"


class TestOnePass:
    LAYERS = ("cli", "model", "propagation", "ranking", "simulate", "specio")

    @pytest.fixture
    def calls(self, monkeypatch) -> Counter:
        """Count propagate/enumerate_paths calls at every module binding them."""
        counts: Counter = Counter()
        modules = [importlib.import_module("pipevuln")] + [
            importlib.import_module(f"pipevuln.{layer}") for layer in self.LAYERS
        ]
        for fn in (propagation.propagate, ranking.enumerate_paths):
            def counted(*args, _fn=fn, **kwargs):
                counts[_fn.__name__] += 1
                return _fn(*args, **kwargs)

            for module in modules:
                if vars(module).get(fn.__name__) is fn:
                    monkeypatch.setattr(module, fn.__name__, counted)
        return counts

    @pytest.mark.parametrize("command,enumerations", [
        ("rank", 1),
        ("weights", 1),
        ("amplify", 1),
        ("report", 1),
        ("simulate --scenario attacked --config none", 0),
        ("matrix --scenario attacked", 0),
    ])
    def test_paths_enumerated_and_propagated_once(
        self, capsys, calls, variant_spec_path, command, enumerations
    ):
        name, *extra = command.split()
        code, _, stderr = run_cli(capsys, name, variant_spec_path, *extra)
        assert code == 0, stderr
        assert calls["enumerate_paths"] == enumerations
        # Public propagate runs once, for the clean reference; the paths
        # are propagated in one shared walk.
        assert calls["propagate"] == enumerations

    def test_report_checks_names_before_ranking(self, capsys, calls,
                                                variant_spec_path):
        code, out, err = run_cli(capsys, "report", variant_spec_path,
                                 "--scenario", "nope", "--config", "none")
        assert code == 1
        assert err.startswith("E_SYNTAX: unknown scenario 'nope'")
        assert out == ""
        assert calls["enumerate_paths"] == 0

    def test_rank_propagates_paths_in_one_shared_pass(self, capsys, calls):
        n_paths = len(enumerate_paths(parse_spec_file(str(LAYERED_SPEC)).graph))
        assert n_paths == 29
        calls.clear()
        code, _, stderr = run_cli(capsys, "rank", str(LAYERED_SPEC))
        assert code == 0, stderr
        assert calls["enumerate_paths"] == 1
        assert calls["propagate"] == 1


class TestDeterminismAndAgreement:
    SUBCOMMANDS = [
        ("validate", []),
        ("paths", ["--format", "records"]),
        ("rank", ["--format", "csv"]),
        ("weights", ["--format", "records"]),
        ("amplify", ["--quiet", "--format", "csv"]),
        ("simulate", ["--scenario", "attacked", "--config", "b16_buf100",
                      "--format", "records"]),
        ("matrix", ["--scenario", "clean", "--config", "conf5",
                    "--format", "csv"]),
        ("report", ["--scenario", "clean", "--config", "none"]),
    ]

    @pytest.mark.parametrize("command,extra", SUBCOMMANDS)
    def test_byte_identical_across_runs(self, capsys, variant_spec_path,
                                        command, extra):
        first = run_cli(capsys, command, variant_spec_path, *extra)
        second = run_cli(capsys, command, variant_spec_path, *extra)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    def test_rank_csv_agrees_with_library(self, capsys, traffic_spec_path):
        code, out, _ = run_cli(capsys, "rank", traffic_spec_path,
                               "--format", "csv")
        assert code == 0
        spec = parse_spec_file(traffic_spec_path)
        ranking = rank_and_select(spec.graph)
        rows = {r["path_id"]: r for r in csv.DictReader(io.StringIO(out))}
        for entry in ranking.entries:
            row = rows[entry.path.id]
            assert float(row["path_score"]) == entry.score
            assert row["selected"] == str(
                entry.path.id == ranking.selected.path.id
            )
            assert row["components"] == "|".join(entry.path.components)

    def test_paths_agree_with_library(self, capsys, variant_spec_path):
        code, out, _ = run_cli(capsys, "paths", variant_spec_path,
                               "--format", "records")
        assert code == 0
        spec = parse_spec_file(variant_spec_path)
        got = [json.loads(line) for line in out.splitlines()]
        paths = enumerate_paths(spec.graph)
        assert [r["path_id"] for r in got] == [p.id for p in paths]
        assert [r["components"] for r in got] == [
            list(p.components) for p in paths
        ]

    def test_weights_agree_with_library(self, capsys, variant_spec_path):
        code, out, _ = run_cli(capsys, "weights", variant_spec_path,
                               "--format", "csv")
        assert code == 0
        spec = parse_spec_file(variant_spec_path)
        ranking = rank_and_select(spec.graph)
        rows = {r["component"]: float(r["weight"])
                for r in csv.DictReader(io.StringIO(out))}
        assert rows == ranking.weights

    def test_amplify_agrees_with_library(self, capsys, variant_spec_path):
        from pipevuln.propagation import amplification_matrix

        code, out, _ = run_cli(capsys, "amplify", variant_spec_path,
                               "--quiet", "--format", "csv")
        assert code == 0
        spec = parse_spec_file(variant_spec_path)
        matrix = amplification_matrix(spec.graph)
        rows = {r["scenario"]: float(r["flops_x"])
                for r in csv.DictReader(io.StringIO(out))}
        for pid, breakdown in matrix.items():
            assert rows[f"adversarial({pid})"] == breakdown.amplification

    def test_matrix_agrees_with_library(self, capsys, variant_spec_path):
        from pipevuln.simulate import run_matrix

        code, out, _ = run_cli(capsys, "matrix", variant_spec_path,
                               "--scenario", "clean", "--config", "buf100",
                               "--format", "csv")
        assert code == 0
        spec = parse_spec_file(variant_spec_path)
        expected = run_matrix(spec.graph, {"clean": spec.scenarios["clean"]},
                              {"buf100": spec.configs["buf100"]})
        row = next(csv.DictReader(io.StringIO(out)))
        label, metrics = expected[0]
        assert row["label"] == label
        assert float(row["wall_time_s"]) == metrics.wall_time_s
        assert float(row["total_tflops"]) == metrics.total_tflops

    def test_simulate_records_agree_with_library(self, capsys,
                                                 variant_spec_path):
        code, out, _ = run_cli(capsys, "simulate", variant_spec_path,
                               "--scenario", "attacked", "--config", "conf5",
                               "--format", "records")
        assert code == 0
        record = json.loads(out.splitlines()[0])
        spec = parse_spec_file(variant_spec_path)
        metrics = simulate(spec.graph, spec.scenarios["attacked"],
                           spec.configs["conf5"])
        assert record["wall_time_s"] == metrics.wall_time_s
        assert record["throughput_ips"] == metrics.throughput_ips
        assert record["total_tflops"] == metrics.total_tflops
        assert record["workload"] == {
            k: v for k, v in metrics.workload.items()
        }
        assert record["drops"] == metrics.drops

    def test_every_shipped_spec_runs_all_subcommands(self, capsys,
                                                     pipelines_dir):
        import time

        start = time.perf_counter()
        for spec_file in sorted(pipelines_dir.glob("*.y*ml")) + sorted(
            pipelines_dir.glob("*.jsonl")
        ):
            path = str(spec_file)
            spec = parse_spec_file(path)
            scenario = next(iter(spec.scenarios))
            config = next(iter(spec.configs))
            for argv in (
                ["validate", path],
                ["paths", path, "--format", "csv"],
                ["rank", path, "--format", "records"],
                ["weights", path, "--format", "csv"],
                ["amplify", path, "--quiet", "--format", "records"],
                ["simulate", path, "--scenario", scenario,
                 "--config", config, "--format", "csv"],
                ["matrix", path, "--scenario", scenario,
                 "--config", config, "--format", "csv"],
                ["report", path],
            ):
                assert main(argv) == 0, argv
                capsys.readouterr()
        assert time.perf_counter() - start < 60.0
