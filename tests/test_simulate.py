"""Deployment simulator: determinism, queueing semantics, and defenses."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from collections import deque
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pipevuln.errors import (
    BadValueError,
    EmptyInputError,
    NonTerminationError,
    NoSuchPathError,
)
from pipevuln.model import EXIT, build_graph
from pipevuln.propagation import CLEAN, expected_emission, propagate
from pipevuln.ranking import enumerate_paths, resolve_path
from pipevuln.simulate import (
    Attenuation,
    ConfidenceFilter,
    DeploymentConfig,
    EdgeStats,
    InputFilter,
    TrafficScenario,
    _Run,
    _mix,
    _poisson_draw,
    _poisson_table,
    _text_key,
    percentile,
    run_matrix,
    simulate,
)
from pipevuln.specio import parse_spec_file

from conftest import (
    LAYERED_SPEC,
    PIPELINES_DIR,
    exit_only_doc,
    huge_mean_doc,
    random_mixed_sim_triple,
    random_sim_triple,
    traffic_doc,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)
#: Two paths of ``tests/specs/layered.yaml`` that share the edge src:a.
LOG_PATH = "src:a->b1:log->c5:sum->f2:EXIT"
X_PATH = "src:a->b1:x->d1:p->f1:EXIT"
SHIPPED_SPECS = sorted(p.name for p in PIPELINES_DIR.iterdir())


def variant_doc() -> dict:
    doc = traffic_doc()
    for profile in doc["profiles"]:
        if profile["component"] == "od":
            profile["clean_cardinality"] = {
                "person": 1.0, "car": 0.6, "other": 1.0,
            }
            profile["adv_cardinality"] = {"car": 40.0, "person": 30.0}
    return doc


def restart_order_doc() -> dict:
    """Source ``a`` feeds ``z`` on label p and ``b`` on label q at one instant.

    Every component costs nothing and takes its overhead per item. Under the
    shared device model ``n1`` (1 s) and ``n2`` (2 s) share ``@shared``;
    ``z`` feeds ``n1``, and ``b`` feeds ``n2``, which feeds ``s`` (10 s).
    The fillers ``c``-``h`` receive no items; they give ``z`` device 10, so
    the set of devices that a's completion touches iterates as 1, 10, 2.
    """
    fillers = list("cdefgh")
    overheads = {"a": 1.0, "b": 1.0, "z": 1.0, "n1": 1.0, "n2": 2.0, "s": 10.0,
                 **{f: 1.0 for f in fillers}}
    routes = {"p": "z", "q": "b", **{f"to_{f}": f for f in fillers}}
    gates = {"a": routes, "b": {"m2": "n2"}, "z": {"m1": "n1"}, "n2": {"t": "s"}}
    return {
        "components": [
            {"id": cid, "kind": "neural" if cid.startswith("n") else "non-neural",
             "clean_cost_gflops": 0.0, "per_call_overhead_s": overhead,
             "batchable": False}
            for cid, overhead in overheads.items()
        ],
        "profiles": [
            {"component": "a", "clean_cardinality": {"p": 1.0, "q": 1.0}},
            {"component": "b", "clean_cardinality": {"m2": 1.0}},
            {"component": "z", "clean_cardinality": {"m1": 1.0}},
            {"component": "n2", "clean_cardinality": {"t": 1.0}},
        ],
        "gates": [{"component": c, "routes": r} for c, r in gates.items()],
        "edges": [{"from": c, "to": to, "label": label}
                  for c, r in gates.items() for label, to in r.items()],
        "source": "a",
    }


def car_path_id(graph) -> str:
    return next(p.id for p in enumerate_paths(graph) if "car" in p.id)


def attacked_scenario(graph, n=10, seed=7, mix=1.0) -> TrafficScenario:
    return TrafficScenario(
        n_inputs=n, mix=mix, target_path=car_path_id(graph),
        interval_s=0.3, seed=seed,
    )


def clean_scenario(n=10, seed=7) -> TrafficScenario:
    return TrafficScenario(
        n_inputs=n, mix=0.0, target_path=None, seed=seed,
    )


class TestPercentile:
    def test_nearest_rank_median_of_four(self):
        assert percentile([1, 2, 3, 4], 50) == 2

    def test_single_element_any_q(self):
        for q in (0.5, 50, 99, 100):
            assert percentile([13.5], q) == 13.5

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError) as err:
            percentile([], 50)
        assert err.value.code == "E_EMPTY"

    def test_bad_q_raises(self):
        with pytest.raises(BadValueError):
            percentile([1.0], 0)
        with pytest.raises(BadValueError):
            percentile([1.0], 101)

    def test_thousand_uniform_values_match_sort_index_oracle(self):
        rng = random.Random(19)
        values = [rng.random() for _ in range(1000)]
        for q in (1, 25, 50, 75, 99, 100):
            ordered = sorted(values)
            expected = ordered[math.ceil(q / 100 * len(values)) - 1]
            assert percentile(values, q) == expected

    @PROPERTY_SETTINGS
    @given(
        values=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1,
                        max_size=200),
        q=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_percentile_is_a_member_and_monotone(self, values, q):
        result = percentile(values, q)
        assert result in values
        assert percentile(values, 50) <= percentile(values, 95) <= percentile(
            values, 99
        )


class TestSampler:
    def test_table_matches_exact_poisson_cdf(self):
        for lam in (0.01, 0.6, 1.0, 4.0, 40.0):
            lo, cdf = _poisson_table(lam)
            assert lo == 0
            pmf = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(len(cdf))]
            for k, value in enumerate(cdf):
                assert abs(value - math.fsum(pmf[: k + 1])) <= 1e-12, (lam, k)

    @pytest.mark.parametrize("lam", [0.6, 4.0, 931.5, 1075.5, 1e5])
    def test_hashed_draws_have_poisson_mean_and_variance(self, lam):
        n = 20_000
        table = _poisson_table(lam)
        draws = [_poisson_draw(table, _mix(i)) for i in range(n)]
        mean = math.fsum(draws) / n
        var = math.fsum((d - mean) ** 2 for d in draws) / (n - 1)
        # Poisson: Var[sample var] ~ (mu4 - sigma^4) / n = (lam + 2 lam^2) / n.
        assert abs(mean - lam) <= 5 * math.sqrt(lam / n)
        assert abs(var - lam) <= 5 * math.sqrt((lam + 2 * lam * lam) / n)

    def test_draws_do_not_decrease_as_the_mean_grows(self):
        means = (0.01, 0.1, 0.5, 0.6, 1.0, 1.5, 4.0, 10.0, 40.0, 931.5, 1075.5)
        tables = [_poisson_table(lam) for lam in means]
        for i in range(2000):
            key = _mix(i)
            draws = [_poisson_draw(table, key) for table in tables]
            assert draws == sorted(draws), key

    @pytest.mark.parametrize("mean", [7.0, 900.0])
    def test_loop_draw_matches_the_reference_helpers(self, mean):
        # The completion loop writes out _mix and _poisson_draw. Input 0's
        # item at a draws the count of b on label x, and child j of that
        # draw gets the raw key draw_key + j. b is exit-only, or, behind a
        # buffer that never fills, a server on the event path whose FIFO holds
        # the items.
        graph = build_graph(exit_only_doc(mean, 0.1))
        table = _poisson_table(mean)
        spot = {(7.0, 2): 8, (900.0, 4): 932}

        class KeyRecorder(deque):
            """A FIFO that records the raw key of each item appended."""

            def __init__(self):
                super().__init__()
                self.keys = []

            def append(self, item):
                self.keys.append(item[3])
                super().append(item)

        for config in (DeploymentConfig(), DeploymentConfig(buffers={"a:x": 10**9})):
            for seed in range(6):
                draw_key = _mix(_mix(_mix(seed) + 0) ^ _text_key("x"))
                expected = _poisson_draw(table, draw_key)
                assert spot.get((mean, seed), expected) == expected
                run = _Run(graph, TrafficScenario(n_inputs=1, seed=seed), config, 10**7)
                # b's emission row takes its FIFO from run.fifo when first built.
                fifo = run.fifo[1] = KeyRecorder()
                assert run.execute().workload["b"] == expected, (seed, config.buffers)
                if config.buffers:
                    assert fifo.keys == [draw_key + j for j in range(expected)], seed

    def test_cli_import_leaves_numpy_unloaded(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c",
             "import pipevuln.cli, sys; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert done.stdout.strip() == "False"


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self):
        graph = build_graph(variant_doc())
        scenario = attacked_scenario(graph, n=8, mix=0.5)
        config = DeploymentConfig(
            batch={"default": 4},
            buffers={"default": 30},
            confidence=ConfidenceFilter(adversarial={"car": 0.7}),
            input_filter=InputFilter(p_detect=0.5),
        )
        first = simulate(graph, scenario, config)
        second = simulate(graph, scenario, config)
        assert first == second

    def test_different_seeds_differ(self):
        graph = build_graph(variant_doc())
        config = DeploymentConfig()
        a = simulate(graph, attacked_scenario(graph, seed=1, mix=0.5), config)
        b = simulate(graph, attacked_scenario(graph, seed=2, mix=0.5), config)
        assert a != b

    def test_unknown_target_path_raises(self):
        graph = build_graph(variant_doc())
        scenario = TrafficScenario(n_inputs=2, mix=1.0, target_path="nope", seed=0)
        with pytest.raises(NoSuchPathError):
            simulate(graph, scenario, DeploymentConfig())

    def test_event_cap_raises_nontermination(self):
        # One gateless component: each input is an arrival and a completion,
        # so n inputs take 2n events and offer nothing. With n equal to the
        # bound, the up-front n_inputs check passes and the loop's fires.
        graph = build_graph({
            "components": [{"id": "a", "kind": "neural", "clean_cost_gflops": 1.0}],
            "source": "a",
        })
        with pytest.raises(NonTerminationError) as err:
            simulate(graph, TrafficScenario(n_inputs=5), DeploymentConfig(),
                     max_events=5)
        assert err.value.code == "E_NONTERMINATION"
        assert "simulation exceeded 5 events" in str(err.value)
        assert simulate(graph, TrafficScenario(n_inputs=5), DeploymentConfig(),
                        max_events=10).completed == 5

    def test_more_inputs_than_events_is_rejected_up_front(self):
        graph = build_graph(variant_doc())
        with pytest.raises(NonTerminationError) as err:
            simulate(graph, attacked_scenario(graph, n=11), DeploymentConfig(),
                     max_events=10)
        assert err.value.code == "E_NONTERMINATION"
        assert "n_inputs" in str(err.value)

    def test_huge_emission_mean_raises_nontermination(self):
        graph = build_graph(huge_mean_doc())
        scenario = TrafficScenario(n_inputs=1, mix=1.0, target_path="a:x->b:EXIT")
        with pytest.raises(NonTerminationError) as err:
            simulate(graph, scenario, DeploymentConfig())
        assert err.value.code == "E_NONTERMINATION"

    @pytest.mark.parametrize("car_mean", [None, 2.0e7])
    def test_untaken_adversarial_table_is_never_built(self, car_mean, tmp_path):
        # The filter admits every attacked input as clean, so the run equals
        # the clean one but for ``filtered``, and od's adversarial rows are
        # never drawn: a mean past the event bound there must not fail it.
        doc = yaml.safe_load((PIPELINES_DIR / "traffic_variant.yaml").read_text())
        if car_mean is not None:
            doc["profiles"][0]["adv_cardinality"]["car"]["car"] = car_mean
        path = tmp_path / "variant.yaml"
        path.write_text(yaml.safe_dump(doc))
        spec = parse_spec_file(str(path))
        all_clean = DeploymentConfig(
            input_filter=InputFilter(p_detect=1.0, action="treat-as-clean")
        )
        attacked = simulate(spec.graph, spec.scenarios["attacked"], all_clean)
        clean = simulate(spec.graph, spec.scenarios["clean"], DeploymentConfig())
        assert attacked.filtered == spec.scenarios["attacked"].n_inputs
        assert replace(attacked, filtered=0) == clean

    def test_touched_devices_restart_in_device_id_order(self):
        # Seed 126 draws one item on every label. a finishes at 1 s, b and z
        # at 2 s, tied. In device-id order b (device 2) started first, so it
        # pops first and n2 takes @shared before n1: s ends at 2 + 2 + 10.
        # Restarting z (device 10) first would put n1 first and end at 15 s.
        graph = build_graph(restart_order_doc())
        config = DeploymentConfig(device_model="shared-single-device")
        metrics = simulate(graph, TrafficScenario(n_inputs=1, seed=126), config)
        assert {cid for cid, count in metrics.workload.items() if count} == {
            "a", "b", "z", "n1", "n2", "s"}
        assert max(metrics.workload.values()) == 1
        assert metrics.wall_time_s == 14.0

    def test_offered_arrivals_count_against_the_bound(self):
        # A one-slot buffer keeps the events few while the offers are many.
        graph = build_graph(variant_doc())
        scenario = attacked_scenario(graph, n=10)
        config = DeploymentConfig(buffers={"default": 1})
        events_only = simulate(graph, scenario, config)
        offered = sum(s.enqueued for s in events_only.edge_stats.values())
        assert offered > 300
        with pytest.raises(NonTerminationError):
            simulate(graph, scenario, config, max_events=offered - 1)
        assert simulate(graph, scenario, config, max_events=offered) == events_only


class TestQueueing:
    def test_clean_traffic_with_capped_buffers_drops_nothing(self):
        graph = build_graph(variant_doc())
        metrics = simulate(
            graph, clean_scenario(n=50),
            DeploymentConfig(buffers={"default": 100}),
        )
        assert metrics.drops == 0
        assert metrics.completed == 50

    def test_conservation_on_every_edge(self):
        graph = build_graph(variant_doc())
        metrics = simulate(
            graph, attacked_scenario(graph, n=10),
            DeploymentConfig(batch={"default": 4}, buffers={"default": 10}),
        )
        assert metrics.drops > 0
        for stats in metrics.edge_stats.values():
            assert stats.enqueued == stats.dequeued + stats.dropped + stats.residual

    def test_total_flops_invariant_across_batch_sizes(self):
        graph = build_graph(variant_doc())
        scenario = attacked_scenario(graph, n=10)
        totals = set()
        walls = {}
        for batch in (1, 4, 16):
            metrics = simulate(
                graph, scenario, DeploymentConfig(batch={"default": batch})
            )
            totals.add(metrics.total_tflops)
            walls[batch] = metrics.wall_time_s
        assert len(totals) == 1
        # Positive per-call overhead: amortization strictly helps here.
        assert walls[16] < walls[1]

    def test_non_batchable_component_ignores_batch_config(self):
        doc = variant_doc()
        for rec in doc["components"]:
            rec["batchable"] = False
        graph = build_graph(doc)
        scenario = attacked_scenario(graph, n=6)
        single = simulate(graph, scenario, DeploymentConfig())
        batched = simulate(graph, scenario,
                           DeploymentConfig(batch={"default": 16}))
        assert single == batched

    def test_monotone_relief_of_confidence_survival(self):
        graph = build_graph(variant_doc())
        scenario = attacked_scenario(graph, n=10)
        previous = None
        for survival in (0.2, 0.5, 0.8, 1.0):
            config = DeploymentConfig(
                confidence=ConfidenceFilter(adversarial={"car": survival})
            )
            metrics = simulate(graph, scenario, config)
            if previous is not None:
                assert metrics.workload["lpr"] >= previous
            previous = metrics.workload["lpr"]

    def test_smaller_buffers_never_drop_less(self):
        graph = build_graph(variant_doc())
        scenario = attacked_scenario(graph, n=10)
        drops = []
        for capacity in (5, 20, 80, None):
            config = DeploymentConfig(
                buffers={} if capacity is None else {"default": capacity}
            )
            drops.append(simulate(graph, scenario, config).drops)
        assert drops == sorted(drops, reverse=True)
        assert drops[-1] == 0

    def test_clean_unbounded_matches_analytic_within_three_sigma(self):
        graph = build_graph(variant_doc())
        n = 200
        metrics = simulate(graph, clean_scenario(n=n), DeploymentConfig())
        expected = propagate(graph, CLEAN)
        for cid, per_input in expected.entries.items():
            mean = n * per_input
            tolerance = 3.0 * math.sqrt(max(mean, 1.0))
            assert abs(metrics.workload[cid] - mean) <= tolerance

    def test_shared_device_serializes_neural_stages(self):
        graph = build_graph(variant_doc())
        scenario = attacked_scenario(graph, n=6)
        per_component = simulate(graph, scenario, DeploymentConfig())
        shared = simulate(
            graph, scenario,
            DeploymentConfig(device_model="shared-single-device"),
        )
        assert shared.wall_time_s >= per_component.wall_time_s
        assert shared.total_tflops == per_component.total_tflops


class TestExitOnlyServers:
    def test_lindley_schedule_sets_the_wall_time(self):
        # Seed 2 draws 8 items of b; their services are added one at a time
        # after a's 0.625 s, so the sum is not 0.625 + 8 * 0.1.
        graph = build_graph(exit_only_doc(mean=7.0, overhead=0.1))
        metrics = simulate(graph, TrafficScenario(n_inputs=1, seed=2),
                           DeploymentConfig())
        assert metrics.workload == {"a": 1, "b": 8}
        expected = 0.25 + 3.0 / 8.0
        for _ in range(metrics.workload["b"]):
            expected += 0.1
        assert expected != 0.625 + 8 * 0.1
        # The last heap event is a's completion; b's last finish is later.
        assert metrics.wall_time_s == expected
        assert metrics.avg_e2e_s == expected

    def test_exit_only_completions_count_as_events(self):
        # Per input an arrival and a completion of a, then one event per item
        # of b. The items of b are fewer offers than that, so the arrival
        # bound holds and the event bound is the one that fires.
        graph = build_graph(exit_only_doc(mean=8.0, overhead=0.1))
        scenario = TrafficScenario(n_inputs=5)
        unbounded = simulate(graph, scenario, DeploymentConfig())
        events = 2 * 5 + unbounded.workload["b"]
        with pytest.raises(NonTerminationError) as err:
            simulate(graph, scenario, DeploymentConfig(), max_events=events - 1)
        assert err.value.code == "E_NONTERMINATION"
        assert f"simulation exceeded {events - 1} events" in str(err.value)
        assert simulate(graph, scenario, DeploymentConfig(),
                        max_events=events) == unbounded

    @pytest.mark.parametrize("triple, seed", [
        (random_sim_triple, 517), (random_mixed_sim_triple, 518),
    ], ids=["random", "mixed"])
    def test_schedule_matches_the_event_path(self, triple, seed):
        # A buffer that never fills changes nothing but makes every server
        # take the event path, so both runs must agree on every metric.
        rng = random.Random(seed)
        with_exit_only = 0
        for index in range(200):
            graph, scenario, config = triple(rng)
            unbounded = {
                edge.key: 10**9 for edge in graph.edges.values()
                if config.buffer_capacity(edge.key, edge.capacity) is None
            }
            events_only = replace(config, buffers={**config.buffers, **unbounded})
            assert not any(_Run(graph, scenario, events_only, 10**7).exit_only)
            with_exit_only += any(_Run(graph, scenario, config, 10**7).exit_only)
            assert simulate(graph, scenario, config) == simulate(
                graph, scenario, events_only
            ), f"triple {index}"
        assert with_exit_only >= 20


class TestLatencyAccounting:
    def test_throughput_identity(self):
        graph = build_graph(variant_doc())
        metrics = simulate(graph, clean_scenario(n=20), DeploymentConfig())
        assert metrics.throughput_ips == pytest.approx(
            metrics.completed / metrics.wall_time_s
        )

    def test_percentiles_monotone(self):
        graph = build_graph(variant_doc())
        metrics = simulate(graph, attacked_scenario(graph, n=12, mix=0.5),
                           DeploymentConfig())
        assert metrics.p50_s <= metrics.p95_s <= metrics.p99_s

    def test_dropped_descendants_do_not_extend_latency(self):
        # With a tiny buffer most crops drop at the plate-reader edge;
        # latency reflects the surviving work only, so it shrinks.
        graph = build_graph(variant_doc())
        scenario = attacked_scenario(graph, n=8)
        unbounded = simulate(graph, scenario, DeploymentConfig())
        tiny = simulate(graph, scenario,
                        DeploymentConfig(buffers={"default": 2}))
        assert tiny.avg_e2e_s < unbounded.avg_e2e_s


class TestDefenses:
    def test_attenuation_caps_adversarial_cardinality(self):
        graph = build_graph(variant_doc())
        scenario = attacked_scenario(graph, n=10)
        raw = simulate(graph, scenario, DeploymentConfig())
        softened = simulate(
            graph, scenario,
            DeploymentConfig(attenuation=Attenuation(factor=0.0,
                                                     residual_floor=5.0)),
        )
        # Residual floor: five times the clean car cardinality per input.
        assert softened.workload["lpr"] < raw.workload["lpr"]
        expected_residual = 5.0 * 0.6 * scenario.n_inputs
        assert softened.workload["lpr"] == pytest.approx(
            expected_residual, abs=3 * math.sqrt(expected_residual) + 1
        )

    def test_attenuation_never_amplifies_clean_behavior(self):
        graph = build_graph(variant_doc())
        scenario = clean_scenario(n=30)
        raw = simulate(graph, scenario, DeploymentConfig())
        softened = simulate(
            graph, scenario,
            DeploymentConfig(attenuation=Attenuation(factor=0.5,
                                                     residual_floor=6.0)),
        )
        assert softened == raw

    def test_input_filter_drop_counts_filtered(self):
        graph = build_graph(variant_doc())
        scenario = attacked_scenario(graph, n=10, mix=1.0)
        metrics = simulate(
            graph, scenario,
            DeploymentConfig(input_filter=InputFilter(p_detect=1.0)),
        )
        assert metrics.filtered == 10
        assert metrics.completed == 10
        assert metrics.workload["od"] == 0

    def test_input_filter_treat_as_clean_keeps_clean_workload(self):
        graph = build_graph(variant_doc())
        scenario = attacked_scenario(graph, n=10, mix=1.0)
        metrics = simulate(
            graph, scenario,
            DeploymentConfig(
                input_filter=InputFilter(p_detect=1.0, action="treat-as-clean")
            ),
        )
        assert metrics.filtered == 10
        assert metrics.workload["od"] == 10
        expected = 0.6 * 10
        assert metrics.workload["lpr"] <= expected + 3 * math.sqrt(expected) + 1

    def test_filter_never_touches_clean_inputs(self):
        graph = build_graph(variant_doc())
        metrics = simulate(
            graph, clean_scenario(n=25),
            DeploymentConfig(input_filter=InputFilter(p_detect=1.0)),
        )
        assert metrics.filtered == 0
        assert metrics.completed == 25

    def test_path_budget_caps_forwarded_items(self):
        graph = build_graph(variant_doc())
        scenario = attacked_scenario(graph, n=10)
        budget = 2.0
        config = DeploymentConfig(path_budgets={scenario.target_path: budget})
        metrics = simulate(graph, scenario, config)
        cap = budget * scenario.n_inputs
        for key in ("od:car", "lpr:plate"):
            stats = metrics.edge_stats[key]
            forwarded = stats.dequeued + stats.residual
            assert forwarded <= cap
        assert metrics.edge_stats["od:car"].dropped > 0

    def test_budget_drops_on_an_edge_into_an_exit_only_server(self):
        # b is exit-only; the budget, not a buffer, drops on its inbound edge.
        graph = build_graph(exit_only_doc(7.0, 0.1, n_inputs=10))
        config = DeploymentConfig(path_budgets={"a:x->b:EXIT": 0.5})
        scenario = TrafficScenario(n_inputs=10, seed=2)
        assert _Run(graph, scenario, config, 10**7).exit_only[1]
        metrics = simulate(graph, scenario, config)
        assert metrics.edge_stats["a:x"] == EdgeStats(
            enqueued=62, dequeued=5, dropped=57, residual=0
        )
        assert metrics.workload["b"] == 5
        assert metrics.wall_time_s == 6.25

    @pytest.mark.parametrize("tight", [LOG_PATH, X_PATH])
    def test_two_budgets_on_one_edge_keep_the_smaller_cap(self, tight):
        # Both paths start on src:a, which is offered about 600 items.
        graph = parse_spec_file(str(LAYERED_SPEC)).graph
        scenario = TrafficScenario(n_inputs=200, mix=1.0, target_path=X_PATH)
        loose = LOG_PATH if tight == X_PATH else X_PATH
        config = DeploymentConfig(path_budgets={tight: 0.5, loose: 3.0})
        stats = simulate(graph, scenario, config).edge_stats["src:a"]
        assert stats.enqueued > 600 * 0.9
        assert stats.dequeued == 100

    def test_budget_cap_rounds_past_float_error(self):
        # 0.57 * 100 is 56.99999999999999; the cap is 57 items.
        graph = parse_spec_file(str(LAYERED_SPEC)).graph
        scenario = TrafficScenario(n_inputs=100, mix=1.0, target_path=X_PATH)
        config = DeploymentConfig(path_budgets={X_PATH: 0.57})
        metrics = simulate(graph, scenario, config)
        for key in ("src:a", "b1:x", "d1:p"):
            assert metrics.edge_stats[key].enqueued > 57
            assert metrics.edge_stats[key].dequeued == 57, key

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_budget_and_residual_floor_rejected(self, bad):
        with pytest.raises(BadValueError):
            DeploymentConfig(path_budgets={"od:car->lpr:plate->sum:EXIT": bad})
        with pytest.raises(BadValueError):
            Attenuation(factor=0.5, residual_floor=bad)


ORACLE_SEEDS = (0, 1, 2, 3, 4)


def branching_sd(graph, target_path) -> dict[str, float]:
    """Per-input standard deviation of items processed per component.

    Every item emits a Poisson number of children per label, independently,
    so ``Y`` children of ``X`` parent items have ``E[Y] = m E[X]`` and
    ``Var[Y] = m E[X] + m^2 Var[X]``. Standard deviations are added across
    inbound edges: an upper bound that needs no covariance terms.
    """
    targeting = {} if target_path is None else {
        cid: label for cid, label in resolve_path(graph, target_path).steps
        if label != EXIT
    }
    mean = dict.fromkeys(graph.components, 0.0)
    sd = dict(mean)
    mean[graph.source] = 1.0
    for cid in graph.order:
        for label, target in sorted(graph.routes(cid).items()):
            if target == EXIT:
                continue
            m = expected_emission(graph.profiles[cid], label, targeting.get(cid))
            mean[target] += m * mean[cid]
            sd[target] += math.sqrt(m * mean[cid] + m * m * sd[cid] ** 2)
    return sd


class TestAnalyticOracle:
    """Loss-free simulated counts agree in law with ``propagate``."""

    @pytest.mark.parametrize("scenario_name", ["clean", "attacked"])
    @pytest.mark.parametrize("spec_name", SHIPPED_SPECS)
    def test_processed_counts_within_five_sigma(self, spec_name, scenario_name):
        spec = parse_spec_file(str(PIPELINES_DIR / spec_name))
        scenario = spec.scenarios[scenario_name]
        if scenario_name == "attacked":
            scenario = replace(scenario, mix=1.0)
        target = scenario.target_path if scenario.mix == 1.0 else None
        expected = propagate(
            spec.graph, resolve_path(spec.graph, target) if target else CLEAN
        ).entries
        sd = branching_sd(spec.graph, target)
        n = scenario.n_inputs
        for seed in ORACLE_SEEDS:
            metrics = simulate(
                spec.graph, replace(scenario, seed=seed), DeploymentConfig()
            )
            assert metrics.drops == 0
            for cid, per_input in expected.items():
                width = 5.0 * math.sqrt(n) * sd[cid]
                got = metrics.workload[cid]
                assert abs(got - n * per_input) <= width + 1e-9, (
                    f"seed {seed}: {cid} processed {got}, expected "
                    f"{n * per_input:.1f} +/- {width:.1f}"
                )


class TestConfiguredOverrides:
    """Per-edge buffer and per-component batch overrides, simulated on the
    shipped traffic variant's attacked scenario."""

    @pytest.fixture(scope="class")
    def variant(self):
        return parse_spec_file(str(PIPELINES_DIR / "traffic_variant.yaml"))

    def _run(self, variant, **config):
        return simulate(variant.graph, variant.scenarios["attacked"],
                        DeploymentConfig(**config))

    def test_per_edge_buffer_drops_only_on_that_edge(self, variant):
        metrics = self._run(variant, buffers={"od:car": 5})
        dropped = {k: s.dropped for k, s in metrics.edge_stats.items() if s.dropped}
        assert dropped == {"od:car": 9201}

    def test_unbounded_per_edge_buffer_overrides_the_default(self, variant):
        metrics = self._run(variant, buffers={"default": 5, "od:car": None})
        assert metrics.edge_stats["od:car"].dropped == 0
        assert self._run(variant, buffers={"default": 5}).edge_stats[
            "od:car"].dropped == 9201

    def test_per_component_batch_overrides_the_default(self, variant):
        unbatched = self._run(variant)
        lpr_only = self._run(variant, batch={"lpr": 16})
        everywhere = self._run(variant, batch={"default": 16})
        all_but_lpr = self._run(variant, batch={"default": 16, "lpr": 1})
        assert lpr_only.wall_time_s == everywhere.wall_time_s < unbatched.wall_time_s
        assert all_but_lpr.wall_time_s == unbatched.wall_time_s
        assert len({m.total_tflops for m in (
            unbatched, lpr_only, everywhere, all_but_lpr)}) == 1


class TestRunMatrix:
    def test_labels_and_shapes(self):
        graph = build_graph(variant_doc())
        scenarios = {
            "clean": clean_scenario(n=5),
            "attacked": attacked_scenario(graph, n=5),
        }
        configs = {
            "none": DeploymentConfig(),
            "buffered": DeploymentConfig(buffers={"default": 10}),
        }
        rows = run_matrix(graph, scenarios, configs)
        assert [label for label, _ in rows] == [
            "clean/none", "clean/buffered",
            "attacked/none", "attacked/buffered",
        ]

    def test_empty_configs_empty_result(self):
        graph = build_graph(variant_doc())
        assert run_matrix(graph, {"clean": clean_scenario(n=2)}, {}) == []

    def test_multi_seed_mean_and_std_rows(self):
        graph = build_graph(variant_doc())
        scenarios = {"mix": attacked_scenario(graph, n=40, mix=0.1)}
        configs = {"none": DeploymentConfig()}
        seeds = [0, 1, 2, 3, 4]
        rows = run_matrix(graph, scenarios, configs, seeds=seeds)
        labels = [label for label, _ in rows]
        assert labels == [
            "mix/none/seed=0", "mix/none/seed=1", "mix/none/seed=2",
            "mix/none/seed=3", "mix/none/seed=4",
            "mix/none/mean", "mix/none/std",
        ]
        per_seed = [m for label, m in rows if "seed=" in label]
        mean_row = dict(rows)["mix/none/mean"]
        std_row = dict(rows)["mix/none/std"]
        values = [m.throughput_ips for m in per_seed]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert mean_row.throughput_ips == pytest.approx(mean)
        assert std_row.throughput_ips == pytest.approx(math.sqrt(var))
        # Different seeds sample different adversarial subsets.
        assert std_row.throughput_ips > 0

    def test_cell_failure_aborts_with_context(self):
        graph = build_graph(variant_doc())
        bad = TrafficScenario(n_inputs=3, mix=1.0, target_path="ghost", seed=0)
        with pytest.raises(NoSuchPathError) as err:
            run_matrix(graph, {"bad": bad}, {"none": DeploymentConfig()})
        assert "bad/none" in str(err.value)


class TestPropertySuite:
    def test_conservation_and_invariants_on_random_triples(self):
        rng = random.Random(515)
        for index in range(200):
            graph, scenario, config = random_sim_triple(rng)
            metrics = simulate(graph, scenario, config)
            for key, stats in metrics.edge_stats.items():
                assert stats.enqueued == (
                    stats.dequeued + stats.dropped + stats.residual
                ), f"triple {index}: conservation violated on {key}"
            if metrics.wall_time_s > 0:
                assert metrics.throughput_ips == pytest.approx(
                    metrics.completed / metrics.wall_time_s
                )
            assert metrics.p50_s <= metrics.p95_s <= metrics.p99_s
            assert metrics.completed == scenario.n_inputs

    @pytest.mark.parametrize("triple, seed, count", [
        (random_sim_triple, 515, 200), (random_mixed_sim_triple, 516, 300),
    ], ids=["random", "mixed"])
    def test_workload_equals_dequeued_on_inbound_edges(self, triple, seed, count):
        # Items are counted processed and dequeued when service starts, so
        # each component serves exactly what left its inbound edges; the
        # source, which has none, serves every admitted input. A finished
        # run has served every admitted item, so no edge keeps a residual.
        rng = random.Random(seed)
        for index in range(count):
            graph, scenario, config = triple(rng)
            metrics = simulate(graph, scenario, config)
            residual = {key: s.residual for key, s in metrics.edge_stats.items()}
            assert set(residual.values()) <= {0}, f"triple {index}: {residual}"
            flt = config.input_filter
            dropping = flt is not None and flt.action == "drop-input"
            dropped_inputs = metrics.filtered if dropping else 0
            inbound = dict.fromkeys(graph.components, 0)
            inbound[graph.source] = scenario.n_inputs - dropped_inputs
            for edge in graph.edges.values():
                inbound[edge.to_id] += metrics.edge_stats[edge.key].dequeued
            assert metrics.workload == inbound, f"triple {index}"
