"""Path enumeration, vulnerability scoring, selection, and loss weights.

The enumeration and scoring oracles here are written from first principles
(recursive walks, direct formula evaluation) and stay independent of the
library's iterative implementations.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipevuln.errors import (
    MissingScoreError,
    NoSuchPathError,
    PathExplosionError,
)
from pipevuln.model import EXIT, build_graph
from pipevuln.propagation import CostBreakdown
from pipevuln.ranking import (
    ExecutionPath,
    component_score,
    compute_loss_weights,
    enumerate_paths,
    rank_and_select,
    resolve_path,
    wrong_path_report,
)
from pipevuln.specio import parse_spec_file

from conftest import PIPELINES_DIR, random_graph_doc, scale_costs, traffic_doc

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def oracle_paths(graph) -> set[tuple[tuple[str, str], ...]]:
    """Exhaustive recursive source-to-exit enumeration."""

    def walk(cid: str) -> list[tuple[tuple[str, str], ...]]:
        routes = graph.routes(cid)
        if not routes:
            return [((cid, EXIT),)]
        out: list[tuple[tuple[str, str], ...]] = []
        for label in sorted(routes):
            target = routes[label]
            if target == EXIT:
                out.append(((cid, label),))
            else:
                out.extend(((cid, label),) + rest for rest in walk(target))
        return out

    return set(walk(graph.source))


def oracle_workload(graph, targeting: dict[str, str]) -> dict[str, float]:
    """Item-by-item expansion of the propagation recurrence (integers)."""
    counts = {cid: 0.0 for cid in graph.components}
    stack = [(graph.source, 1)]
    while stack:
        cid, n = stack.pop()
        counts[cid] += n
        profile = graph.profiles[cid]
        for label, target in graph.routes(cid).items():
            if target == EXIT:
                continue
            if cid in targeting:
                entry = profile.adv_cardinality.get(targeting[cid])
                if entry is None:
                    mean = profile.clean_cardinality.get(label, 0.0)
                elif isinstance(entry, dict):
                    mean = entry.get(label, 0.0)
                else:
                    mean = entry if label == targeting[cid] else 0.0
            else:
                mean = profile.clean_cardinality.get(label, 0.0)
            emitted = int(mean)
            assert emitted == mean, "oracle requires integer cardinalities"
            for _ in range(n):
                if emitted:
                    stack.append((target, emitted))
    return counts


def oracle_rank(graph):
    """Brute-force per-path scores evaluated directly from the formula."""
    clean = oracle_workload(graph, {})
    reference = sum(
        graph.components[cid].clean_cost * clean[cid]
        for cid in sorted(graph.components)
    )
    results = {}
    for steps in oracle_paths(graph):
        targeting = {cid: label for cid, label in steps if label != EXIT}
        targeted = oracle_workload(graph, targeting)
        total = 0.0
        for cid, _label in steps:
            spec = graph.components[cid]
            excess = spec.adv_cost * targeted[cid] - spec.clean_cost * clean[cid]
            total += excess / reference if reference > 0 else 0.0
        pid = "->".join(f"{cid}:{label}" for cid, label in steps)
        results[pid] = total
    return results


def oracle_argmax(scores: dict[str, float]) -> str:
    best = None
    for pid in sorted(scores):
        if best is None or scores[pid] > scores[best]:
            best = pid
    return best


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


class TestEnumeratePaths:
    def test_traffic_has_three_paths(self, traffic_graph):
        paths = enumerate_paths(traffic_graph)
        assert [p.id for p in paths] == [
            "od:car->lpr:plate->sum:EXIT",
            "od:other",
            "od:person->pr:face->sum:EXIT",
        ]

    def test_linear_chain_single_path(self):
        doc = {
            "components": [
                {"id": "a", "kind": "neural", "clean_cost_gflops": 1.0},
                {"id": "b", "kind": "neural", "clean_cost_gflops": 1.0},
            ],
            "profiles": [{"component": "a", "clean_cardinality": {"x": 1.0}}],
            "gates": [{"component": "a", "routes": {"x": "b"}}],
            "edges": [{"from": "a", "to": "b", "label": "x"}],
            "source": "a",
        }
        paths = enumerate_paths(build_graph(doc))
        assert len(paths) == 1
        assert paths[0].id == "a:x->b:EXIT"

    def test_matches_oracle_on_50_random_dags(self):
        rng = random.Random(4242)
        for _ in range(50):
            graph = build_graph(random_graph_doc(rng))
            got = {p.steps for p in enumerate_paths(graph)}
            assert got == oracle_paths(graph)

    def test_deterministic_ordering(self, traffic_graph):
        first = [p.id for p in enumerate_paths(traffic_graph)]
        second = [p.id for p in enumerate_paths(traffic_graph)]
        assert first == second == sorted(first)

    def test_cap_raises_path_explosion(self, traffic_graph):
        with pytest.raises(PathExplosionError) as err:
            enumerate_paths(traffic_graph, cap=2)
        assert err.value.code == "E_PATH_EXPLOSION"

    def test_cap_env_override(self, traffic_graph, monkeypatch):
        monkeypatch.setenv("PIPEVULN_PATH_CAP", "2")
        with pytest.raises(PathExplosionError):
            enumerate_paths(traffic_graph)


class TestResolvePath:
    def test_resolves_every_path_of_shipped_and_random_graphs(self):
        graphs = [parse_spec_file(str(f)).graph for f in PIPELINES_DIR.iterdir()]
        rng = random.Random(77)
        graphs += [build_graph(random_graph_doc(rng)) for _ in range(50)]
        for graph in graphs:
            for path in enumerate_paths(graph):
                assert resolve_path(graph, path.id) == path

    def test_ignores_the_path_cap(self, traffic_graph, monkeypatch):
        monkeypatch.setenv("PIPEVULN_PATH_CAP", "1")
        path = resolve_path(traffic_graph, "od:car->lpr:plate->sum:EXIT")
        assert path.components == ("od", "lpr", "sum")

    @pytest.mark.parametrize("path_id", [
        "od:car->lpr:plate",  # truncated
        "od:car->lpr:plate->sum:EXIT->sum:EXIT",  # extra step
        "od:other->sum:EXIT",  # step after an EXIT route
        "od:car->lpr:face->sum:EXIT",  # wrong label
        "od:car->lpr:plate->sum:done",  # gateless component, label not EXIT
        "lpr:plate->sum:EXIT",  # wrong source
        "od:car->pr:face->sum:EXIT",  # label routes elsewhere
        "od:car->lpr->sum:EXIT",  # step without a label
        "",
    ])
    def test_rejects_ids_that_are_not_walks(self, traffic_graph, path_id):
        with pytest.raises(NoSuchPathError) as err:
            resolve_path(traffic_graph, path_id)
        assert err.value.code == "E_NO_SUCH_PATH"


# ---------------------------------------------------------------------------
# Component score
# ---------------------------------------------------------------------------


def _breakdowns(
    cid: str, clean_incurred: float, adv_incurred: float, reference: float
) -> tuple[CostBreakdown, CostBreakdown]:
    """One-entry clean and targeted breakdowns for scoring ``cid``."""
    clean = CostBreakdown({cid: clean_incurred}, reference, "clean")
    targeted = CostBreakdown({cid: adv_incurred}, adv_incurred, "adversarial")
    return clean, targeted


class TestComponentScore:
    def test_published_end_to_end_pair(self):
        # End-to-end clean 10.31 GF vs attacked 3389.76 GF: score is the
        # amplification factor 328.78 minus one.
        clean, targeted = _breakdowns("od", 10.31 * 1.0, 3389.76 * 1.0, 10.31)
        score = component_score("od", clean, targeted)
        assert score == pytest.approx(327.78, abs=0.01)
        # The score is the end-to-end cost ratio minus one.
        assert score == pytest.approx(3389.76 / 10.31 - 1.0)

    def test_invariant_component_scores_zero(self):
        clean, targeted = _breakdowns("x", 7.0 * 2.0, 7.0 * 2.0, 50.0)
        assert component_score("x", clean, targeted) == 0.0

    def test_non_neural_scores_zero(self):
        clean, targeted = _breakdowns("sum", 0.0 * 5.0, 0.0 * 500.0, 100.0)
        assert component_score("sum", clean, targeted) == 0.0

    def test_zero_reference_guard(self):
        clean, targeted = _breakdowns("x", 0.0 * 1.0, 0.0 * 1.0, 0.0)
        assert component_score("x", clean, targeted) == 0.0

    def test_score_never_below_minus_one(self):
        clean, targeted = _breakdowns("x", 9.0 * 3.0, 9.0 * 0.0, 27.0)
        assert component_score("x", clean, targeted) >= -1.0


# ---------------------------------------------------------------------------
# Path score
# ---------------------------------------------------------------------------


class TestPathScore:
    def test_traffic_branch_ratio_with_equal_inflation(self, traffic_graph):
        # Equal clean cardinality and equal 100x inflation on both branches:
        # the score ratio reduces to the branch unit-cost ratio 332.0/10.4.
        ranking = rank_and_select(traffic_graph)
        by_id = {e.path.id: e.score for e in ranking.entries}
        ratio = (by_id["od:car->lpr:plate->sum:EXIT"]
                 / by_id["od:person->pr:face->sum:EXIT"])
        assert ratio == pytest.approx(332.0 / 10.4, abs=0.01)


# ---------------------------------------------------------------------------
# rank_and_select
# ---------------------------------------------------------------------------


class TestRankAndSelect:
    def test_traffic_selects_plate_branch(self, traffic_graph):
        ranking = rank_and_select(traffic_graph)
        assert ranking.selected.path.id == "od:car->lpr:plate->sum:EXIT"
        scores = [e.score for e in ranking.entries]
        assert scores == sorted(scores, reverse=True)

    def test_all_zero_ties_select_smallest_id_with_uniform_weights(self):
        doc = traffic_doc()
        for profile in doc["profiles"]:
            profile["adv_cardinality"] = {}
        graph = build_graph(doc)
        ranking = rank_and_select(graph)
        assert all(e.score == 0.0 for e in ranking.entries)
        assert ranking.selected.path.id == min(e.path.id for e in ranking.entries)
        assert ranking.degenerate_weights
        weights = list(ranking.weights.values())
        assert all(w == pytest.approx(weights[0]) for w in weights)

    def test_matches_brute_force_on_50_random_graphs(self):
        rng = random.Random(777)
        for _ in range(50):
            graph = build_graph(random_graph_doc(rng))
            expected = oracle_rank(graph)
            ranking = rank_and_select(graph)
            got = {e.path.id: e.score for e in ranking.entries}
            assert got == expected
            assert ranking.selected.path.id == oracle_argmax(expected)

    def test_scale_invariance_of_selection_and_weights(self, traffic_graph):
        base = rank_and_select(traffic_graph)
        for lam in (1e-3, 1e3):
            scaled = rank_and_select(scale_costs(traffic_graph, lam))
            assert [e.path.id for e in scaled.entries] == [
                e.path.id for e in base.entries
            ]
            assert scaled.selected.path.id == base.selected.path.id
            for cid, weight in base.weights.items():
                assert scaled.weights[cid] == pytest.approx(weight, rel=1e-12)

    def test_monotonicity_in_adversarial_cost(self):
        rng = random.Random(31)
        doc = random_graph_doc(rng)
        graph = build_graph(doc)
        base = {e.path.id: e.score for e in rank_and_select(graph).entries}
        bumped_id = sorted(graph.components)[-1]
        doc2 = {**doc, "components": [dict(c) for c in doc["components"]]}
        for rec in doc2["components"]:
            if rec["id"] == bumped_id:
                rec["adv_cost_gflops"] = rec["adv_cost_gflops"] * 10 + 5.0
        bumped = {e.path.id: e.score
                  for e in rank_and_select(build_graph(doc2)).entries}
        for entry in rank_and_select(graph).entries:
            pid = entry.path.id
            if bumped_id in entry.path.components:
                assert bumped[pid] >= base[pid]
            else:
                assert bumped[pid] == base[pid]

    def test_sum_beats_max(self):
        # Path B carries two medium amplifiers whose sum beats path A's
        # single larger one; a max aggregator would pick A.
        doc = {
            "components": [
                {"id": "src", "kind": "neural", "clean_cost_gflops": 1.0},
                {"id": "big", "kind": "neural", "clean_cost_gflops": 10.0},
                {"id": "mid1", "kind": "neural", "clean_cost_gflops": 10.0},
                {"id": "mid2", "kind": "neural", "clean_cost_gflops": 10.0},
            ],
            "profiles": [
                {"component": "src",
                 "clean_cardinality": {"a": 1.0, "b": 1.0},
                 "adv_cardinality": {"a": 8.0, "b": 6.0}},
                {"component": "mid1", "clean_cardinality": {"m": 1.0}},
            ],
            "gates": [
                {"component": "src", "routes": {"a": "big", "b": "mid1"}},
                {"component": "mid1", "routes": {"m": "mid2"}},
            ],
            "edges": [
                {"from": "src", "to": "big", "label": "a"},
                {"from": "src", "to": "mid1", "label": "b"},
                {"from": "mid1", "to": "mid2", "label": "m"},
            ],
            "source": "src",
        }
        graph = build_graph(doc)
        ranking = rank_and_select(graph)
        by_id = {e.path.id: e for e in ranking.entries}
        path_a = by_id["src:a->big:EXIT"]
        path_b = by_id["src:b->mid1:m->mid2:EXIT"]
        max_component_a = max(path_a.component_scores.values())
        max_component_b = max(path_b.component_scores.values())
        assert max_component_a > max_component_b
        assert path_b.score > path_a.score
        assert ranking.selected.path.id == path_b.path.id


# ---------------------------------------------------------------------------
# Loss weights
# ---------------------------------------------------------------------------


class TestLossWeights:
    def test_two_component_split(self):
        path = ExecutionPath.make([("od", "car"), ("lpr", EXIT)])
        scores = {"od": 1.0, "lpr": 3.0}
        weights, degenerate = compute_loss_weights(path, scores)
        assert weights == {"od": pytest.approx(0.25), "lpr": pytest.approx(0.75)}
        assert not degenerate

    def test_single_component_path(self):
        path = ExecutionPath.make([("od", EXIT)])
        weights, degenerate = compute_loss_weights(path, {"od": 4.0})
        assert weights == {"od": 1.0}
        assert not degenerate

    def test_all_zero_scores_fall_back_to_uniform(self):
        path = ExecutionPath.make([("a", "x"), ("b", EXIT)])
        scores = {"a": 0.0, "b": 0.0}
        weights, degenerate = compute_loss_weights(path, scores)
        assert degenerate
        assert weights == {"a": 0.5, "b": 0.5}

    def test_missing_score_raises(self):
        path = ExecutionPath.make([("a", "x"), ("b", EXIT)])
        with pytest.raises(MissingScoreError) as err:
            compute_loss_weights(path, {"a": 1.0})
        assert err.value.code == "E_MISSING_SCORE"

    def test_negative_scores_clamped(self):
        path = ExecutionPath.make([("a", "x"), ("b", EXIT)])
        scores = {"a": -0.5, "b": 2.0}
        weights, degenerate = compute_loss_weights(path, scores)
        assert not degenerate
        assert weights["a"] == 0.0
        assert weights["b"] == 1.0

    @PROPERTY_SETTINGS
    @given(values=st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=8,
    ))
    def test_weights_normalize_on_random_score_vectors(self, values):
        steps = [(f"c{i}", "x") for i in range(len(values) - 1)]
        steps.append((f"c{len(values) - 1}", EXIT))
        path = ExecutionPath.make(steps)
        scores = {f"c{i}": v for i, v in enumerate(values)}
        weights, degenerate = compute_loss_weights(path, scores)
        assert all(w >= 0 for w in weights.values())
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)
        total = sum(values)
        if total > 0:
            assert not degenerate
            for i, value in enumerate(values):
                assert weights[f"c{i}"] == pytest.approx(value / total)
        else:
            assert degenerate


# ---------------------------------------------------------------------------
# wrong_path_report
# ---------------------------------------------------------------------------


class TestWrongPathReport:
    def test_forced_person_selects_person_path_below_argmax(self, traffic_graph):
        forced = wrong_path_report(traffic_graph, "person")
        true_ranking = rank_and_select(traffic_graph)
        assert forced.selected.path.id == "od:person->pr:face->sum:EXIT"
        assert forced.selected.score < true_ranking.selected.score

    def test_forced_label_on_argmax_path_matches_rank_and_select(
        self, traffic_graph
    ):
        forced = wrong_path_report(traffic_graph, "car")
        true_ranking = rank_and_select(traffic_graph)
        assert forced.selected.path.id == true_ranking.selected.path.id
        assert forced.weights == true_ranking.weights
        assert [e.path.id for e in forced.entries] == [
            e.path.id for e in true_ranking.entries
        ]

    def test_unknown_label_raises(self, traffic_graph):
        with pytest.raises(NoSuchPathError) as err:
            wrong_path_report(traffic_graph, "bicycle")
        assert err.value.code == "E_NO_SUCH_PATH"
