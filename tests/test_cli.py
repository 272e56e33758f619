"""CLI surface: exit codes, formats, determinism, library agreement."""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest
import yaml

from pipevuln import propagation, ranking
from pipevuln.cli import build_parser, main
from pipevuln.model import build_graph
from pipevuln.ranking import enumerate_paths, rank_and_select
from pipevuln.simulate import simulate
from pipevuln.specio import parse_spec_file

from conftest import LAYERED_SPEC, huge_mean_doc, traffic_doc


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

    def test_bad_seed_list_is_coded_error(self, capsys, traffic_spec_path):
        code, _, err = run_cli(capsys, "matrix", traffic_spec_path,
                               "--seeds", "1,x")
        assert code == 1
        assert err.startswith("E_BAD_VALUE") and "'x'" in err
        assert "Traceback" not in err

    def test_bad_path_cap_env_is_coded_error(self, capsys, monkeypatch,
                                             traffic_spec_path):
        monkeypatch.setenv("PIPEVULN_PATH_CAP", "abc")
        code, _, err = run_cli(capsys, "rank", traffic_spec_path)
        assert code == 1
        assert err.startswith("E_BAD_VALUE") and "'abc'" in err

    @pytest.mark.parametrize("target", ["missing/out.txt", "."])
    def test_unwritable_out_is_coded_error(self, capsys, tmp_path,
                                           traffic_spec_path, target):
        out = tmp_path / target
        code, stdout, err = run_cli(capsys, "rank", traffic_spec_path,
                                    "--out", str(out))
        assert code == 1
        assert err.startswith("E_BAD_VALUE") and str(out) in err
        assert stdout == ""


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


class TestSpecBoundsAndRules:
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

    @pytest.mark.parametrize("command,config", [
        ("report", "none"),
    ])
    def test_path_cap_flag_overrides_env_in_simulating_commands(
        self, capsys, monkeypatch, variant_spec_path, command, config
    ):
        monkeypatch.setenv("PIPEVULN_PATH_CAP", "2")
        code, _, stderr = run_cli(capsys, command, variant_spec_path,
                                  "--scenario", "attacked", "--config", config,
                                  "--path-cap", "10")
        assert code == 0, stderr

    @pytest.mark.parametrize("command,code", [
        ("simulate --scenario attacked --config none", 0),
        ("matrix --scenario attacked", 0),
        ("validate", 1),
        ("paths", 1),
        ("rank", 1),
        ("weights", 1),
        ("amplify", 1),
        ("report", 1),
    ])
    def test_env_path_cap_binds_only_enumerating_commands(
        self, capsys, monkeypatch, variant_spec_path, command, code
    ):
        # Three paths: the simulator resolves path ids without enumerating.
        monkeypatch.setenv("PIPEVULN_PATH_CAP", "2")
        name, *extra = command.split()
        got, _, stderr = run_cli(capsys, name, variant_spec_path, *extra)
        assert got == code, stderr
        if code:
            assert stderr.startswith("E_PATH_EXPLOSION")

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
    ])
    def test_paths_enumerated_and_propagated_once(
        self, capsys, calls, variant_spec_path, command, enumerations
    ):
        n_paths = len(enumerate_paths(parse_spec_file(variant_spec_path).graph))
        calls.clear()
        name, *extra = command.split()
        code, _, stderr = run_cli(capsys, name, variant_spec_path, *extra)
        assert code == 0, stderr
        assert calls["enumerate_paths"] == enumerations
        if enumerations:
            # The clean reference may be propagated twice; each path once.
            assert calls["propagate"] <= n_paths + 2

    def test_rank_propagates_paths_in_one_shared_pass(self, capsys, calls):
        n_paths = len(enumerate_paths(parse_spec_file(str(LAYERED_SPEC)).graph))
        assert n_paths == 29
        calls.clear()
        code, _, stderr = run_cli(capsys, "rank", str(LAYERED_SPEC))
        assert code == 0, stderr
        assert calls["enumerate_paths"] == 1
        assert calls["propagate"] <= 2


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
