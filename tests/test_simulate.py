"""Deployment simulator: determinism, queueing semantics, and defenses."""

from __future__ import annotations

import hashlib
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import deque
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
    PipelineError,
)
from pipevuln.model import (
    EXIT,
    PER_COMPONENT_SERVER,
    SHARED_SINGLE_DEVICE,
    Attenuation,
    ComponentSpec,
    ConfidenceFilter,
    DeploymentConfig,
    InputFilter,
    TrafficScenario,
    build_graph,
)
from pipevuln.propagation import (
    CLEAN,
    amplification_matrix,
    expected_emission,
    propagate,
)
from pipevuln.ranking import enumerate_paths, rank_and_select, resolve_path
from pipevuln.simulate import (
    _SLICE,
    EdgeStats,
    SimMetrics,
    _Run,
    _draws,
    _mix,
    _poisson_table,
    _text_key,
    percentile,
    run_matrix,
    simulate,
)
from pipevuln.specio import parse_spec, parse_spec_file

from conftest import (
    LAYERED_SPEC,
    PIPELINES_DIR,
    exit_only_doc,
    huge_mean_doc,
    random_budget_sim_triple,
    random_mixed_sim_triple,
    random_sim_triple,
    traffic_doc,
)
from refsim import _poisson_draw, reference_run, reference_simulate

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


def overhead_doc(overheads: dict, gates: dict, means: dict) -> dict:
    """Source ``a`` and zero-cost non-neural components that take their
    overhead per item; ``gates`` gives each gated component's routes and
    ``means`` its clean emission means."""
    return {
        "components": [
            {"id": cid, "kind": "non-neural", "clean_cost_gflops": 0.0,
             "per_call_overhead_s": overhead, "batchable": False}
            for cid, overhead in overheads.items()
        ],
        "profiles": [{"component": cid, "clean_cardinality": means.get(cid, {})}
                     for cid in overheads],
        "gates": [{"component": c, "routes": r} for c, r in gates.items()],
        "edges": [{"from": c, "to": to, "label": label}
                  for c, r in gates.items() for label, to in r.items() if to != EXIT],
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
            lo, cdf, _ = _poisson_table(lam)
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

    @pytest.mark.parametrize("mean, digest", [
        (1e-9, "53bdca6c2dd0921dbbdf636d91913035b484c115c8582d76362f0611976a418d"),
        (0.01, "055921fc0535cd1af51579725c7d7e69aa13745d4b83aef7d9c110ac9348df09"),
        (0.6, "8500098316faa447dc40c50fc815f01a0e15fb01fdc2ed891e1a65e0a9c7d257"),
        (1.0, "0a455764a84d0602aa6e81dffd428ef6f062ae49297afc9b2b704fcce85d733c"),
        (4.0, "9d4ded0f18f85f5e8d0a53fdb899fc2ce43f2676fb6db60fe362f4bb46870648"),
        (744.9, "d9368331ba0ad1f4a6bcfea30910e48ad49de0e904baa085648c76efd48d00a9"),
        (745.1, "5a3b31d7b4bacc98fc5b45b85b2e4494d55be302b5adf91717619cecb24dd6b5"),
        (931.5, "90d1de539985ba62c1961dda200af9e763191baa98d20522e9e114665c1ecba2"),
        (1075.5, "e361ecc8b07f1c9fc4085ceb17d9cfcb0034c56daace98a41c6fcbd2ff7b8950"),
        (1e5, "4c53d40ad7dea1a038d46fb25023706bec2662df97bb2ba72b65c13593d86197"),
        (6e6, "fb46185c84cb93ed6144669f49f1ff5e0f292f7c87f7c0664de9a89d526abe66"),
    ])
    def test_table_is_pinned_bit_for_bit(self, mean, digest):
        # The sha256 of the repr of (lo, cdf, guide), built past the memo:
        # tiny means, both sides of exp(-mean)'s underflow near 745, the
        # shipped attack means and a table of 58,813 entries. The goldens
        # draw from a few of these only, and the 1e-12 tolerance above
        # would let the last bits of the rest drift.
        table = repr(_poisson_table.__wrapped__(mean)).encode()
        assert hashlib.sha256(table).hexdigest() == digest

    def test_draws_do_not_decrease_as_the_mean_grows(self):
        means = (0.01, 0.1, 0.5, 0.6, 1.0, 1.5, 4.0, 10.0, 40.0, 931.5, 1075.5)
        tables = [_poisson_table(lam) for lam in means]
        for i in range(2000):
            key = _mix(i)
            draws = [_poisson_draw(table, key) for table in tables]
            assert draws == sorted(draws), key

    def test_run_through_draw_takes_the_uniform_of_the_whole_hash(self):
        # a is exit-feeding, so its one item completes in the run-through
        # and draws with _draws. At seed 5 this mean puts the table's step
        # past 3 items 1.05e-10 above the uniform of a's draw; off by one in
        # the hash's last shift, the uniform moves 2.1e-10 and the draw is 4.
        mean = 1.289877641336022
        lo, cdf, _ = table = _poisson_table(mean)
        draw_key = _mix((_mix(5) + 0) ^ _text_key("x"))
        assert 0 < cdf[3 - lo] - (draw_key >> 11) * 2.0**-53 < 2e-10
        graph = build_graph(exit_only_doc(mean, 0.1))
        run = _Run(graph, TrafficScenario(n_inputs=1, seed=5), DeploymentConfig(), 10**7)
        assert run.exit_feeding[run.index["a"]]
        assert run.execute().workload["b"] == _poisson_draw(table, draw_key) == 3

    @pytest.mark.parametrize("mean", [7.0, 900.0])
    def test_loop_draw_matches_the_reference_helpers(self, mean):
        # The completion loop draws with _mix and a guided form of refsim's
        # _poisson_draw; _draws packs the same hash into lanes.
        # Input 0's item at a, whose key is its raw key mix(seed) + 0, draws
        # the count of b on label x with one hash, and child j of that draw
        # gets the raw key draw_key + j. b is exit-only, so a runs through
        # and draws with _draws; or, behind a buffer that never fills, b is
        # a server on the event path whose FIFO holds the items as one run,
        # and a draws in the completion loop.
        graph = build_graph(exit_only_doc(mean, 0.1))
        table = _poisson_table(mean)
        spot = {(7.0, 2): 9, (900.0, 4): 910}

        class KeyRecorder(deque):
            """A FIFO that records the raw key of each item of each run appended."""

            def __init__(self):
                super().__init__()
                self.keys = []

            def append(self, run):
                _, count, _, _, raw, _ = run
                self.keys.extend(raw + j for j in range(count))
                super().append(run)

        for config in (DeploymentConfig(), DeploymentConfig(buffers={"a:x": 10**9})):
            for seed in range(6):
                draw_key = _mix((_mix(seed) + 0) ^ _text_key("x"))
                expected = _poisson_draw(table, draw_key)
                assert spot.get((mean, seed), expected) == expected
                run = _Run(graph, TrafficScenario(n_inputs=1, seed=seed), config, 10**7)
                # b's emission row takes its FIFO from run.fifo when first built.
                fifo = run.fifo[1] = KeyRecorder()
                assert run.execute().workload["b"] == expected, (seed, config.buffers)
                if config.buffers:
                    assert fifo.keys == [draw_key + j for j in range(expected)], seed

    def test_sibling_uniforms_are_independent(self):
        # Child j of a draw d has the key d + j, so siblings draw on a label
        # from consecutive counters: (mix((d + j) ^ salt) >> 11) * 2**-53.
        # Over 10**5 siblings the chi-square of 100 equal bins (99 degrees
        # of freedom) must lie in [55, 160], each bound about 1e-4 in its
        # tail, and the lag-1 correlation of adjacent siblings within
        # 4 / sqrt(n), about 4 standard errors. Here they read 101.93 and
        # -0.00077.
        n = 10**5
        draw = _mix((_mix(0) + 0) ^ _text_key("x"))
        salt = _text_key("y")
        uniforms = [(_mix((draw + j) ^ salt) >> 11) * 2.0**-53 for j in range(n)]
        counts = [0] * 100
        for u in uniforms:
            counts[int(u * 100)] += 1
        chi_square = sum((c - n / 100) ** 2 for c in counts) / (n / 100)
        assert 55.0 <= chi_square <= 160.0
        mean = math.fsum(uniforms) / n
        var = math.fsum((u - mean) ** 2 for u in uniforms) / n
        lag = math.fsum((uniforms[j] - mean) * (uniforms[j + 1] - mean)
                        for j in range(n - 1)) / (n - 1)
        assert abs(lag / var) <= 4 / math.sqrt(n)

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


_MASK64 = (1 << 64) - 1


def _unmix(z: int) -> int:
    """The state whose SplitMix64 output ``_mix`` is ``z``."""

    def unshift(y: int, shift: int) -> int:
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    z = unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64
    z = unshift(z, 30)
    return (z - 0x9E3779B97F4A7C15) & _MASK64


#: Means of both kinds of table (``lo`` 0 and above), 557.97 being the
#: attacked car mean under confidence 0.599. At 3.465735902799727, about
#: 5 ln 2, the table's first entry is 1/32 exactly, the edge of cell 8.
CELL_EDGE_MEAN = 3.465735902799727
GUIDE_MEANS = [1e-300, 1 / 16, 0.6, 1.0, 4.0, CELL_EDGE_MEAN, 931.5 * 0.599,
               931.5, 1e6]


class TestGuidedDraws:
    """A table's guide answers a draw from the top 8 bits of its key, and
    ``_draws`` falls back to the bisection only in a cell that a CDF entry
    splits, so it equals ``_poisson_draw`` at every key."""

    def test_unmix_inverts_mix(self):
        for z in (0, 1, _MASK64, 0x8000_0000_0000_0000, _mix(12345)):
            assert _mix(_unmix(z)) == z

    @pytest.mark.parametrize("mean", GUIDE_MEANS)
    def test_guided_draws_equal_the_bisection(self, mean):
        table = _poisson_table(mean)
        salt = _text_key("x")
        # Both ends of every cell: draw keys c << 56 and ((c + 1) << 56) - 1.
        for c in range(256):
            for z in (c << 56, ((c + 1) << 56) - 1):
                key = _unmix(z) ^ salt
                assert _draws(salt, *table, key, 1) == [_poisson_draw(table, z)], (c, z)
        rng = random.Random(mean)
        for _ in range(5):
            start = rng.getrandbits(64)
            want = [_poisson_draw(table, _mix(k ^ salt)) for k in range(start, start + 400)]
            assert _draws(salt, *table, start, 400) == want

    @pytest.mark.parametrize("mean", [0.6, 931.5, 1e6])
    @pytest.mark.parametrize("key, count", [
        (2**64 - 3, 8), (2**64 + 5, 8), (0x0123_4567_89AB_CDEF, 1),
        (0x0123_4567_89AB_CDEF, 2), (2**63 - 500, 1023), (2**64 - 700, _SLICE),
    ])
    def test_packed_lanes_equal_the_reference(self, mean, key, count):
        # Item keys that cross 2**64 or start past it (input keys are
        # mix(seed) + i), one and two lanes, and 1,023 and _SLICE lanes.
        table = _poisson_table(mean)
        salt = _text_key("x")
        want = [_poisson_draw(table, _mix(k ^ salt)) for k in range(key, key + count)]
        assert _draws(salt, *table, key, count) == want
        if mean > 1:
            # Counts past 255: no path may assume that a count fits a byte.
            assert min(want) > 255
        if mean == 931.5:
            assert max(table[2]) > 255

    @pytest.mark.parametrize("mean", [0.6, 4.0, 931.5])
    @pytest.mark.parametrize("lane", [0, 15])
    def test_a_split_cell_in_the_first_or_last_lane(self, mean, lane):
        table = _poisson_table(mean)
        salt = _text_key("x")
        split = [c for c in range(256) if table[2][c] < 0]
        # The draw key of item ``lane`` of 16 lies inside the last split cell.
        z = (split[-1] << 56) | 0x00AB_CDEF_0123_4567
        key = (_unmix(z) ^ salt) - lane
        assert key >= 0
        want = [_poisson_draw(table, _mix(k ^ salt)) for k in range(key, key + 16)]
        assert want[lane] == _poisson_draw(table, z)
        assert _draws(salt, *table, key, 16) == want

    @pytest.mark.parametrize("mean", GUIDE_MEANS)
    def test_a_cell_falls_back_only_when_an_entry_splits_it(self, mean):
        lo, cdf, guide = _poisson_table(mean)
        assert len(guide) == 256
        # v * 256 is exact, so an entry lies strictly inside cell c when its
        # scaled value has c as floor and is not c itself.
        split = {math.floor(v * 256) for v in cdf if v * 256 != math.floor(v * 256)}
        assert {c for c in range(256) if guide[c] < 0} == split
        for c in set(range(256)) - split:
            assert guide[c] == _poisson_draw((lo, cdf, guide), c << 56) >= lo
        if mean == CELL_EDGE_MEAN:
            assert cdf[0] == 8 / 256 and 8 not in split


class TestTableMemo:
    """Poisson tables are memoised for the process; the bound on an emission
    mean is checked before the memo is asked."""

    def test_matrix_builds_one_table_per_mean(self):
        spec = parse_spec_file(str(PIPELINES_DIR / "traffic_variant.yaml"))
        _poisson_table.cache_clear()
        first = run_matrix(spec.graph, spec.scenarios, spec.configs)
        assert _poisson_table.cache_info().misses == 7
        assert run_matrix(spec.graph, spec.scenarios, spec.configs) == first
        assert _poisson_table.cache_info().misses == 7

    def test_the_mean_bound_comes_before_the_memo(self):
        graph = build_graph(exit_only_doc(7.0, 0.1))
        scenario = TrafficScenario(n_inputs=1)
        _poisson_table.cache_clear()
        # A rejected mean builds no table.
        with pytest.raises(NonTerminationError, match="emission mean 7 exceeds"):
            simulate(graph, scenario, DeploymentConfig(), max_events=5)
        assert _poisson_table.cache_info().currsize == 0
        # A table memoised under a larger bound does not pass a smaller one.
        simulate(graph, scenario, DeploymentConfig())
        assert _poisson_table.cache_info().currsize == 1
        with pytest.raises(NonTerminationError, match="emission mean 7 exceeds"):
            simulate(graph, scenario, DeploymentConfig(), max_events=5)


#: Bound errors as their kind letters, one per max_events from 1 up to the
#: first bound a run passes ("."): B "exceeded the bound of N events or
#: arrivals", M "emission mean exceeds", I "scenario n_inputs exceeds".
_KIND_TEXT = {
    "B": "simulation exceeded the bound of {bound} events or arrivals",
    "M": "emission mean {mean:g} exceeds the bound of {bound} events",
    "I": "scenario n_inputs {n} exceeds the bound of {bound} events",
}


def _bound_messages(graph, scenario, config, mean: float, kinds: str,
                    sim=simulate) -> None:
    """Assert the message that each max_events from 1 raises in ``sim``, as
    ``kinds`` spells it."""
    for bound, kind in enumerate(kinds, start=1):
        if kind == ".":
            sim(graph, scenario, config, max_events=bound)
            continue
        with pytest.raises(NonTerminationError) as err:
            sim(graph, scenario, config, max_events=bound)
        want = _KIND_TEXT[kind].format(bound=bound, mean=mean, n=scenario.n_inputs)
        assert err.value.message == want, bound


class TestBoundErrors:
    """The error that each bound raises. The event and arrival bounds share
    one message, so a run drawn at once, which checks them once per slice,
    raises what per-item checks would; the order that still shows is the
    emission-mean check against the others. Each expected sequence was
    recorded item by item when the two bounds had messages of their own;
    both of those read as B here."""

    @pytest.mark.parametrize("n_inputs, seed, kinds", [
        # Input 0 completes in the run-through: its event check comes
        # before its rows, whose mean 7 is past a bound of 1.
        (1, 0, "BMMMMMBBB."),
        (3, 0, "IIBMMMBBBBBBBBBBBBBBBBBBBBBBBBBB."),
    ])
    def test_exit_only_doc(self, n_inputs, seed, kinds):
        graph = build_graph(exit_only_doc(7.0, 0.1, n_inputs=n_inputs))
        _bound_messages(graph, TrafficScenario(n_inputs=n_inputs, seed=seed),
                        DeploymentConfig(), 7.0, kinds)

    @pytest.mark.parametrize("config, runs", [
        # lpr runs through its 930 items of one input in one go.
        (DeploymentConfig(), [(1, "B"), (2, "M"), (932, "B"), (1918, ".")]),
        # lpr serves batches of 16 that feed ret, an exit-only server.
        (DeploymentConfig(batch={"default": 16}, device_model="shared-single-device"),
         [(1, "B"), (2, "M"), (932, "B"), (1916, ".")]),
    ], ids=["none", "shared_b16"])
    def test_attacked_traffic_variant(self, config, runs):
        spec = parse_spec_file(str(PIPELINES_DIR / "traffic_variant.yaml"))
        scenario = spec.scenarios["attacked"]._replace(n_inputs=1, seed=1)
        kinds = "".join(kind * (end - start) for (start, kind), (end, _) in
                        zip(runs, runs[1:])) + "."
        _bound_messages(spec.graph, scenario, config, 931.5, kinds)

    @pytest.mark.parametrize("n_inputs, kinds", [
        # With one input, a draws 7 items into f: a bound of 6 stops at
        # that offer, and bounds of 7 and 8 inside f's run-through of all 7.
        (1, "BMMMMBBB."),
        (2, "IMMMMBBBBBBBBBB."),
    ])
    def test_a_sink_runs_through_past_the_event_bound(self, n_inputs, kinds):
        # f is gateless behind a buffer that never fills: a sink on the
        # event path, so it runs through with no rows to draw.
        doc = overhead_doc({"a": 0.25, "f": 0.25}, {"a": {"x": "f"}}, {"a": {"x": 6.0}})
        graph = build_graph(doc)
        config = DeploymentConfig(buffers={"a:x": 10**9})
        scenario = TrafficScenario(n_inputs=n_inputs, interval_s=0.5, seed=0)
        run = _Run(graph, scenario, config, 10**7)
        assert run.exit_feeding[run.index["f"]] and not run.graph.routes("f")
        _bound_messages(graph, scenario, config, 6.0, kinds)
        _bound_messages(graph, scenario, config, 6.0, kinds, sim=reference_simulate)


class TestRunMemory:
    """A run drawn at once is drawn in slices, so its memory does not grow
    with its length."""

    @pytest.mark.parametrize("batch", [1, 4096])
    def test_a_run_past_a_slice_matches_the_reference(self, batch):
        # a admits about 3,000 items to f as one run. At batch limit 1, f
        # runs through them; at 4,096 it serves them as one portion. Either
        # way they are drawn in three slices.
        doc = overhead_doc({"a": 0.25, "f": 0.25, "b": 0.125},
                           {"a": {"x": "f"}, "f": {"y": "b"}},
                           {"a": {"x": 3000.0}, "f": {"y": 0.5}})
        doc["components"][1]["batchable"] = True
        graph = build_graph(doc)
        config = DeploymentConfig(batch={"f": batch})
        for seed in range(3):
            scenario = TrafficScenario(n_inputs=2, interval_s=0.5, seed=seed)
            run = _Run(graph, scenario, config, 10**7)
            assert run.exit_feeding[run.index["f"]] == (batch == 1)
            metrics = run.execute()
            assert metrics.workload["f"] > 5000
            assert metrics == reference_simulate(graph, scenario, config), seed

    def test_a_mixed_portion_past_a_slice_matches_the_reference(self):
        # f serves a's run of about 3,000 items as one portion. Its y row
        # leads to b, an exit-only server, and is drawn in three slices; its
        # z row leads through a 100-item buffer to c, on the event path, and
        # is drawn item by item. Input 0's portion crosses a bound of 4,000
        # in its exit rows and one of 5,000 in its FIFO rows.
        doc = overhead_doc({"a": 0.25, "f": 0.25, "b": 0.125, "c": 0.125},
                           {"a": {"x": "f"}, "f": {"y": "b", "z": "c"}},
                           {"a": {"x": 3000.0}, "f": {"y": 0.5, "z": 0.5}})
        doc["components"][1]["batchable"] = True
        graph = build_graph(doc)
        config = DeploymentConfig(batch={"f": 4096}, buffers={"f:z": 100})
        run = _Run(graph, TrafficScenario(n_inputs=1), config, 10**7)
        exits, _, fifo_rows = run._route_rows(run.index["f"], False)
        assert len(exits) == len(fifo_rows) == 1
        outcomes = []
        for seed in range(3):
            scenario = TrafficScenario(n_inputs=2, interval_s=0.5, seed=seed)
            metrics = simulate(graph, scenario, config)
            assert metrics.workload["f"] > 5000 and metrics.drops > 0
            for bound in (10**7, 4000, 5000):
                outcomes.append(TestReferenceSimulator._same(
                    graph, scenario, config, f"seed {seed}", bound))
        assert outcomes == [True, False, False] * 3

    @pytest.mark.parametrize("mean, sink", [(1e6, True), (2e4, False)])
    def test_a_long_run_into_an_exit_feeding_server(self, mean, sink):
        # a admits about mean items to f as one run. Behind a buffer that
        # never fills, f is a sink on the event path; otherwise it feeds b,
        # an exit-only server. Either way f is exit-feeding and runs through.
        if sink:
            doc = overhead_doc({"a": 0.25, "f": 0.25}, {"a": {"x": "f"}},
                               {"a": {"x": mean}})
            config = DeploymentConfig(buffers={"a:x": 10**9})
        else:
            doc = overhead_doc({"a": 0.25, "f": 0.25, "b": 0.125},
                               {"a": {"x": "f"}, "f": {"y": "b"}},
                               {"a": {"x": mean}, "f": {"y": 0.5}})
            config = DeploymentConfig()
        graph = build_graph(doc)
        scenario = TrafficScenario(n_inputs=1)
        run = _Run(graph, scenario, config, 10**7)
        assert run.exit_feeding[run.index["f"]]
        # The memo keeps the tables, so the traced run builds none.
        expected = run.execute()
        tracemalloc.start()
        try:
            metrics = simulate(graph, scenario, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert metrics == expected
        assert metrics.workload["f"] > 0.99 * mean
        assert peak < 256 * 1024


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
        assert err.value.message == (
            "simulation exceeded the bound of 5 events or arrivals")
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

    def test_huge_mean_routed_to_exit_builds_no_items(self):
        # A label routed to EXIT makes no items, so its mean is never drawn
        # and cannot pass the event bound.
        doc = exit_only_doc(mean=2.0, overhead=0.1)
        doc["profiles"][0]["clean_cardinality"]["done"] = 1e12
        doc["gates"][0]["routes"]["done"] = EXIT
        graph = build_graph(doc)
        metrics = simulate(graph, TrafficScenario(n_inputs=1), DeploymentConfig())
        assert metrics.completed == 1 and metrics.workload["a"] == 1

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
        assert attacked._replace(filtered=0) == clean

    def test_touched_devices_restart_in_device_id_order(self):
        # Seed 170 draws one item on every label. a finishes at 1 s, b and z
        # at 2 s, tied. In device-id order b (device 2) started first, so it
        # pops first and n2 takes @shared before n1: s ends at 2 + 2 + 10.
        # Restarting z (device 10) first would put n1 first and end at 15 s.
        graph = build_graph(restart_order_doc())
        config = DeploymentConfig(device_model="shared-single-device")
        metrics = simulate(graph, TrafficScenario(n_inputs=1, seed=170), config)
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


    @pytest.mark.parametrize("name", ["@shared", "post"])
    def test_a_component_named_at_shared_keeps_its_own_device(self, name):
        # Neural a (1 s per input) feeds three items, seed 6, to a
        # non-neural server (5 s each): on its own device it serves them
        # from 1, 2 and 3 s, back to back, whatever its name.
        graph = build_graph({
            "components": [
                {"id": "a", "kind": "neural", "clean_cost_gflops": 0.0,
                 "per_call_overhead_s": 1.0},
                {"id": name, "kind": "non-neural", "clean_cost_gflops": 0.0,
                 "per_call_overhead_s": 5.0, "batchable": False},
            ],
            "profiles": [{"component": "a", "clean_cardinality": {"x": 1.0}},
                         {"component": name}],
            "gates": [{"component": "a", "routes": {"x": name}}],
            "edges": [{"from": "a", "to": name, "label": "x"}],
            "source": "a",
        })
        scenario = TrafficScenario(n_inputs=3, seed=6)
        config = DeploymentConfig(device_model="shared-single-device")
        run = _Run(graph, scenario, config, 10**7)
        assert run.device_of[run.index["a"]] != run.device_of[run.index[name]]
        metrics = simulate(graph, scenario, config)
        assert metrics.workload == {"a": 3, name: 3}
        assert metrics.wall_time_s == 16.0
        assert metrics.avg_e2e_s == 11.0


class TestExitOnlyServers:
    def test_lindley_schedule_sets_the_wall_time(self):
        # Seed 0 draws 8 items of b; their services are added one at a time
        # after a's 0.625 s, so the sum is not 0.625 + 8 * 0.1.
        graph = build_graph(exit_only_doc(mean=7.0, overhead=0.1))
        metrics = simulate(graph, TrafficScenario(n_inputs=1, seed=0),
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
        assert err.value.message == (
            f"simulation exceeded the bound of {events - 1} events or arrivals")
        assert simulate(graph, scenario, DeploymentConfig(),
                        max_events=events) == unbounded

    @pytest.mark.parametrize("triple, seed", [
        (random_sim_triple, 517), (random_mixed_sim_triple, 518),
    ], ids=["random", "mixed"])
    def test_schedule_matches_the_reference(self, triple, seed):
        # The reference serves every item of an exit-only server as a heap
        # event of its own, so both must agree on every metric.
        rng = random.Random(seed)
        with_exit_only = 0
        for index in range(200):
            graph, scenario, config = triple(rng)
            with_exit_only += any(_Run(graph, scenario, config, 10**7).exit_only)
            assert simulate(graph, scenario, config) == reference_simulate(
                graph, scenario, config
            ), f"triple {index}"
        assert with_exit_only >= 20

    def test_a_fan_out_on_the_event_path_waits_as_one_run(self):
        # Behind a buffer that never fills, b takes the event path. Input 0
        # admits about 6e6 items to b; input 1's offers cross the arrival
        # bound while b has served only a few of them.
        graph = build_graph(exit_only_doc(6e6, 0.1, n_inputs=2))
        config = DeploymentConfig(buffers={"a:x": 10**9})

        class PeakFifo(deque):
            """A FIFO that counts its appends and its longest length."""

            appends = peak = 0

            def append(self, run):
                super().append(run)
                self.appends += 1
                self.peak = max(self.peak, len(self))

        run = _Run(graph, TrafficScenario(n_inputs=2), config, 10**7)
        fifo = run.fifo[1] = PeakFifo()
        with pytest.raises(NonTerminationError,
                           match="exceeded the bound of 10000000 events or arrivals"):
            run.execute()
        assert fifo.peak <= fifo.appends == 1
        (_, count, input_id, adv, _, edge), = fifo
        assert (input_id, adv) == (0, False)
        assert edge.queued == count > 5 * 10**6
        assert edge.enqueued == count + run.processed_clean[1]


class TestExitFeedingServers:
    """A server alone on its device, at batch limit 1, whose routes all end
    at EXIT or an exit-only server completes its items without the heap
    while each completion comes strictly first. Every service time and
    interval below is dyadic, so float sums meet exactly, and each test
    asserts the per-input latencies and wall time of the heap-only
    simulator."""

    @staticmethod
    def _run(doc: dict, seed: int):
        graph = build_graph(doc)
        scenario = TrafficScenario(n_inputs=2, interval_s=1.0, seed=seed)
        run = _Run(graph, scenario, DeploymentConfig(), 10**7)
        metrics = run.execute()
        assert [run.exit_feeding[run.index[cid]] for cid in ("a", "f")] == [False, True]
        latencies = [run.finish[i] - run.arrival_time[i] for i in sorted(run.finish)]
        return metrics, latencies

    def test_completion_on_the_next_arrival_waits_for_it(self):
        # a (0.25 s) sends x to f and y to b; f (0.25 s) sends z to b, an
        # exit-only server (0.25 s). f's completion at 1.0 ties input 1's
        # arrival, which goes first, so a's completion of input 1 at 1.25
        # started before f's next one and pops first: input 1's y reaches b
        # before input 0's z.
        doc = overhead_doc({"a": 0.25, "f": 0.25, "b": 0.25},
                           {"a": {"x": "f", "y": "b"}, "f": {"z": "b"}},
                           {"a": {"x": 4.0, "y": 1.0}, "f": {"z": 1.0}})
        metrics, latencies = self._run(doc, seed=3552)
        assert metrics.workload == {"a": 2, "b": 6, "f": 7}
        assert latencies == [1.75, 1.25]
        assert metrics.wall_time_s == 2.25

    def test_completion_on_another_devices_completion_waits_for_it(self):
        # a takes 0.75 s and f 0.5 s. a completes input 1 at 1.75, the
        # instant of f's second completion, which started later: input 1's
        # y reaches b before input 0's z.
        doc = overhead_doc({"a": 0.75, "f": 0.5, "b": 0.25},
                           {"a": {"x": "f", "y": "b"}, "f": {"z": "b"}},
                           {"a": {"x": 2.0, "y": 1.0}, "f": {"z": 1.0}})
        metrics, latencies = self._run(doc, seed=1279)
        assert metrics.workload == {"a": 2, "b": 6, "f": 5}
        assert latencies == [2.5, 2.25]
        assert metrics.wall_time_s == 3.25

    def test_rows_into_one_exit_only_server_add_their_draws(self):
        # f sends p and q to b, so b's clock takes each item's two draws
        # together, where the reference serves them one event at a time.
        doc = overhead_doc({"a": 0.25, "f": 0.25, "b": 0.125},
                           {"a": {"x": "f"}, "f": {"p": "b", "q": "b"}},
                           {"a": {"x": 3.0}, "f": {"p": 1.0, "q": 2.0}})
        graph = build_graph(doc)
        run = _Run(graph, TrafficScenario(n_inputs=1), DeploymentConfig(), 10**7)
        f, b = run.index["f"], run.index["b"]
        assert run.exit_feeding[f]
        assert run._route_rows(f, False)[1] == [(b, 0.125, 0, [1])]
        for seed in range(40):
            scenario = TrafficScenario(n_inputs=3, interval_s=0.5, seed=seed)
            assert simulate(graph, scenario, DeploymentConfig()) == reference_simulate(
                graph, scenario, DeploymentConfig()), seed

    def test_two_exit_only_servers_and_an_exit(self):
        # f sends p to b1 (1 s), q to b2 (0.25 s) and r to EXIT. Input 1's
        # last item of b1 ends at 5.5; its later items of f reach only b2,
        # which ends sooner, so the input finishes with b1.
        doc = overhead_doc({"a": 0.25, "f": 0.25, "b1": 1.0, "b2": 0.25},
                           {"a": {"x": "f"}, "f": {"p": "b1", "q": "b2", "r": EXIT}},
                           {"a": {"x": 3.0}, "f": {"p": 1.0, "q": 1.0, "r": 1.0}})
        metrics, latencies = self._run(doc, seed=9668)
        assert metrics.workload == {"a": 2, "b1": 5, "b2": 6, "f": 7}
        assert latencies == [3.5, 4.5]
        assert metrics.wall_time_s == 5.5


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

    def test_input_finishes_at_its_last_completion(self):
        # a emits done (mean 1) to EXIT and x (mean 2) to b, which is gated
        # but emits nothing. At seed 19 b serves the input's 4 items, 1 s
        # each, after a's 1 s: the input finishes with the last of them,
        # not when a's done exits.
        component = {"kind": "non-neural", "clean_cost_gflops": 0.0,
                     "per_call_overhead_s": 1.0, "batchable": False}
        graph = build_graph({
            "components": [{"id": "a", **component}, {"id": "b", **component}],
            "profiles": [
                {"component": "a", "clean_cardinality": {"done": 1.0, "x": 2.0}},
                {"component": "b"},
            ],
            "gates": [{"component": "a", "routes": {"done": EXIT, "x": "b"}},
                      {"component": "b", "routes": {"y": EXIT}}],
            "edges": [{"from": "a", "to": "b", "label": "x"}],
            "source": "a",
        })
        metrics = simulate(graph, TrafficScenario(n_inputs=1, seed=19),
                           DeploymentConfig())
        assert metrics.workload == {"a": 1, "b": 4}
        assert metrics.wall_time_s == 5.0
        assert metrics.avg_e2e_s == metrics.p99_s == 5.0

    @pytest.mark.parametrize("triple, seed", [
        (random_sim_triple, 519), (random_mixed_sim_triple, 520),
    ], ids=["random", "mixed"])
    def test_back_to_back_tail_latency_is_the_wall_time(self, triple, seed):
        # Every input arrives at 0, so the latest finish is the wall time,
        # and with at most 100 samples the nearest-rank p99 is the latest.
        # A run whose inputs the filter all dropped reads 0 for both.
        rng = random.Random(seed)
        for index in range(300):
            graph, scenario, config = triple(rng)
            scenario = scenario._replace(interval_s=0.0)
            metrics = simulate(graph, scenario, config)
            assert metrics.completed == scenario.n_inputs, f"triple {index}"
            assert metrics.p99_s == metrics.wall_time_s, f"triple {index}"

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
        # b is exit-only with no budget. The budget limits its inbound edge,
        # so b takes the event path, where offer drops past the cap.
        graph = build_graph(exit_only_doc(7.0, 0.1, n_inputs=10))
        scenario = TrafficScenario(n_inputs=10, seed=6)
        assert _Run(graph, scenario, DeploymentConfig(), 10**7).exit_only[1]
        config = DeploymentConfig(path_budgets={"a:x->b:EXIT": 0.5})
        assert not _Run(graph, scenario, config, 10**7).exit_only[1]
        metrics = simulate(graph, scenario, config)
        assert metrics.edge_stats["a:x"] == EdgeStats(
            enqueued=62, dequeued=5, dropped=57, residual=0
        )
        assert metrics.workload["b"] == 5
        assert metrics.wall_time_s == 6.25

    def test_zero_budget_drops_everything_into_a_sink(self):
        # A cap of 0 still limits the edge: b serves nothing.
        graph = build_graph(exit_only_doc(7.0, 0.1, n_inputs=10))
        scenario = TrafficScenario(n_inputs=10, seed=6)
        config = DeploymentConfig(path_budgets={"a:x->b:EXIT": 0.0})
        assert not _Run(graph, scenario, config, 10**7).exit_only[1]
        metrics = simulate(graph, scenario, config)
        assert metrics.edge_stats["a:x"] == EdgeStats(
            enqueued=62, dequeued=0, dropped=62, residual=0
        )
        assert metrics.workload == {"a": 10, "b": 0}
        assert metrics.drops == 62
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

    def test_budget_that_overflows_times_n_inputs_is_bad_value(self):
        graph = build_graph(exit_only_doc(7.0, 0.1, n_inputs=10))
        config = DeploymentConfig(path_budgets={"a:x->b:EXIT": 1.0e308})
        with pytest.raises(BadValueError) as err:
            simulate(graph, TrafficScenario(n_inputs=10), config)
        assert str(err.value) == (
            "E_BAD_VALUE: path budget for 'a:x->b:EXIT' times n_inputs 10 overflows"
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_budget_and_residual_floor_rejected(self, bad):
        with pytest.raises(BadValueError):
            DeploymentConfig(path_budgets={"od:car->lpr:plate->sum:EXIT": bad})
        with pytest.raises(BadValueError):
            Attenuation(factor=0.5, residual_floor=bad)


class TestGateLabelNamedExit:
    """A gate label may be named ``EXIT``: a path steered toward it is steered,
    in the analysis and in the simulator. ``traffic_variant.yaml`` with its
    label ``car`` renamed ``EXIT`` everywhere gives the original figures."""

    CAR = "od:car->lpr:plate->ret:EXIT"

    @staticmethod
    def renamed(pid: str) -> str:
        return pid.replace("od:car", f"od:{EXIT}")

    @pytest.fixture(scope="class")
    def specs(self):
        text = (PIPELINES_DIR / "traffic_variant.yaml").read_text()
        return parse_spec(text), parse_spec(re.sub(r"\bcar\b", EXIT, text))

    def test_amplification_is_unchanged(self, specs):
        original, renamed = (amplification_matrix(spec.graph) for spec in specs)
        assert {pid: (b.per_component, b.total_gflops, b.amplification)
                for pid, b in renamed.items()} == {
            self.renamed(pid): (b.per_component, b.total_gflops, b.amplification)
            for pid, b in original.items()}
        assert renamed[self.renamed(self.CAR)].amplification == 66.76424979901947

    def test_ranking_is_unchanged(self, specs):
        original, renamed = (rank_and_select(spec.graph) for spec in specs)
        assert [(e.path.id, e.score, e.component_scores, e.flops_x)
                for e in renamed.entries] == [
            (self.renamed(e.path.id), e.score, e.component_scores, e.flops_x)
            for e in original.entries]
        assert renamed.selected.path.id == self.renamed(self.CAR)

    def test_simulation_is_steered(self, specs):
        spec = specs[1]
        scenario, config = spec.scenarios["attacked"], spec.configs["none"]
        assert scenario.target_path == self.renamed(self.CAR)
        metrics = simulate(spec.graph, scenario, config)
        assert metrics == reference_simulate(spec.graph, scenario, config)
        assert metrics.workload["lpr"] > 5000


class TestRecordChecks:
    """Each record rejects a bad value when it is built, with a coded line."""

    @pytest.mark.parametrize("record,kwargs,message", [
        (ComponentSpec, {"id": "x", "kind": "gpu"},
         "component 'x': kind must be one of ('neural', 'non-neural'), got 'gpu'"),
        (ComponentSpec, {"id": "x", "kind": "neural", "clean_cost": -1.0},
         "component 'x' clean cost must be finite and >= 0, got -1.0"),
        (ComponentSpec, {"id": "x", "kind": "neural", "adv_cost": math.inf},
         "component 'x' adversarial cost must be finite and >= 0, got inf"),
        (ComponentSpec, {"id": "x", "kind": "neural", "per_call_overhead": math.nan},
         "component 'x' overhead must be finite and >= 0, got nan"),
        (ComponentSpec, {"id": "lpr", "kind": "neural", "device_rate": 0.0},
         "component 'lpr': device rate must be > 0, got 0.0"),
        (ComponentSpec, {"id": "x", "kind": "neural", "device_rate": math.nan},
         "component 'x': device rate must be > 0, got nan"),
        (ComponentSpec, {"id": "x", "kind": "non-neural", "clean_cost": 1.0,
                         "adv_cost": 1.0},
         "component 'x': non-neural components must have zero cost"),
        (ComponentSpec, {"id": "x", "kind": "neural", "adv_cost": 1.0},
         "component 'x': adversarial cost > 0 with zero clean cost"),
        (ComponentSpec, {"id": EXIT, "kind": "neural"},
         "'EXIT' is reserved and cannot be a component id"),
        (ComponentSpec, {"id": "a->b", "kind": "neural"},
         "component id 'a->b' must not contain ':' or '->'"),
        (TrafficScenario, {"n_inputs": 0}, "scenario: n_inputs must be >= 1"),
        (TrafficScenario, {"n_inputs": 1, "mix": 0.5},
         "scenario: adversarial mix requires a target_path"),
        (TrafficScenario, {"n_inputs": 1, "interval_s": -1.0},
         "scenario: fixed-interval needs a nonnegative interval"),
        (TrafficScenario, {"n_inputs": 1, "interval_s": math.nan},
         "scenario: fixed-interval needs a nonnegative interval"),
        (ConfidenceFilter, {"clean": {"car": 1.5}},
         "confidence survival for 'car' must be within [0, 1]"),
        (ConfidenceFilter, {"adversarial": {"car": -0.1}},
         "confidence survival for 'car' must be within [0, 1]"),
        (Attenuation, {"factor": 1.5}, "attenuation factor must be within [0, 1]"),
        (Attenuation, {"factor": -0.5}, "attenuation factor must be within [0, 1]"),
        (InputFilter, {"p_detect": 1.5}, "input filter p_detect must be within [0, 1]"),
        (InputFilter, {"p_detect": -0.5},
         "input filter p_detect must be within [0, 1]"),
        (InputFilter, {"p_detect": 0.5, "action": "shrug"},
         "unknown input filter action 'shrug'"),
        (DeploymentConfig, {"batch": {"od": 0}},
         "batch size for 'od' must be an integer >= 1"),
        (DeploymentConfig, {"buffers": {"od:car": 1.5}},
         "buffer capacity for 'od:car' must be an integer"),
        (DeploymentConfig, {"buffers": {"od:car": 0}},
         "buffer capacity for 'od:car' must be positive"),
        (DeploymentConfig, {"device_model": "gpu"}, "unknown device model 'gpu'"),
    ])
    def test_bad_value_is_rejected_when_built(self, record, kwargs, message):
        with pytest.raises(BadValueError) as err:
            record(**kwargs)
        assert str(err.value) == f"E_BAD_VALUE: {message}"


ORACLE_SEEDS = (0, 1, 2, 3, 4)


def branching_sd(graph, target_path) -> dict[str, float]:
    """Per-input standard deviation of items processed per component.

    Every item emits a Poisson number of children per label, independently,
    so ``Y`` children of ``X`` parent items have ``E[Y] = m E[X]`` and
    ``Var[Y] = m E[X] + m^2 Var[X]``. Standard deviations are added across
    inbound edges: an upper bound that needs no covariance terms.
    """
    targeting = {} if target_path is None else dict(
        resolve_path(graph, target_path).steps)
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
            scenario = scenario._replace(mix=1.0)
        target = scenario.target_path if scenario.mix == 1.0 else None
        expected = propagate(
            spec.graph, resolve_path(spec.graph, target) if target else CLEAN
        ).entries
        sd = branching_sd(spec.graph, target)
        n = scenario.n_inputs
        for seed in ORACLE_SEEDS:
            metrics = simulate(
                spec.graph, scenario._replace(seed=seed), DeploymentConfig()
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
        assert dropped == {"od:car": 9128}

    def test_unbounded_per_edge_buffer_overrides_the_default(self, variant):
        metrics = self._run(variant, buffers={"default": 5, "od:car": None})
        assert metrics.edge_stats["od:car"].dropped == 0
        assert self._run(variant, buffers={"default": 5}).edge_stats[
            "od:car"].dropped == 9128

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

    @pytest.mark.parametrize("seeds,message", [
        ([], "matrix: the seed list is empty"),
        ((), "matrix: the seed list is empty"),
        ([1, 1], "matrix: seeds must be distinct, got [1, 1]"),
        ([3, 1, 3], "matrix: seeds must be distinct, got [3, 1, 3]"),
    ])
    def test_empty_or_repeated_seeds_are_bad_values(self, seeds, message):
        # An empty list once ran the scenario's own seed, and a repeated seed
        # gave duplicate rows and a std of 0.
        graph = build_graph(variant_doc())
        with pytest.raises(BadValueError) as err:
            run_matrix(graph, {"clean": clean_scenario(n=2)},
                       {"none": DeploymentConfig()}, seeds=seeds)
        assert str(err.value) == f"E_BAD_VALUE: {message}"


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

    @pytest.mark.parametrize("triple, seed, floor", [
        (random_sim_triple, 521, 40), (random_mixed_sim_triple, 522, 75),
    ], ids=["random", "mixed"])
    def test_run_through_matches_the_reference(self, triple, seed, floor):
        # The reference takes each completion from its heap. Of 300
        # triples, 53 random and 99 mixed ones build an exit-feeding server
        # that is not exit-only.
        rng = random.Random(seed)
        feeding = 0
        for index in range(300):
            graph, scenario, config = triple(rng)
            run = _Run(graph, scenario, config, 10**7)
            feeding += any(f and not e for f, e in zip(run.exit_feeding, run.exit_only))
            assert run.execute() == reference_simulate(
                graph, scenario, config
            ), f"triple {index}"
        assert feeding >= floor

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


class TestReferenceSimulator:
    """``simulate`` equals the per-item reference of ``tests/refsim.py`` on
    every field. The reference has one heap event per service and FIFOs of
    single items: no runs, run-through or Lindley schedule. So a fault that
    the simulator's fast paths share with its heap path shows here."""

    @staticmethod
    def _same(graph, scenario, config, what: str, max_events: int = 10**7) -> bool:
        """Assert both simulators return equal metrics or raise the same
        error line, and that no device of the reference is busy for longer
        than the run (the utilisation law); True when they returned
        metrics."""
        outcomes = []
        for run in (simulate, reference_run):
            try:
                outcomes.append(run(graph, scenario, config, max_events))
            except PipelineError as exc:
                outcomes.append(str(exc))
        got, want = outcomes
        if isinstance(got, SimMetrics) and isinstance(want, tuple):
            want, busy = want
            for name in SimMetrics._fields:
                assert getattr(got, name) == getattr(want, name), (what, name)
            # Exact in floating point: a device's last completion adds its
            # services in the same order, and its idle gaps, and rounding
            # does not decrease as an addend grows.
            assert max(busy.values()) <= want.wall_time_s, what
            return True
        assert got == want, what
        return False

    @pytest.mark.parametrize("model", [PER_COMPONENT_SERVER, SHARED_SINGLE_DEVICE])
    def test_busy_seconds_add_each_device_s_services(self, model):
        # a serves 4 inputs back to back, 0.625 s each, and is a device of
        # its own or the shared one; b serves each of its items in 0.1 s.
        graph = build_graph(exit_only_doc(7.0, 0.1, n_inputs=4))
        scenario = TrafficScenario(n_inputs=4, seed=3)
        metrics, busy = reference_run(graph, scenario,
                                      DeploymentConfig(device_model=model))
        first = ("@shared", 0) if model == SHARED_SINGLE_DEVICE else ("a", 1)
        assert busy.keys() == {first, ("b", 1)}
        assert busy[first] == 2.5 < metrics.wall_time_s
        assert metrics.workload["b"] > 0
        assert busy[("b", 1)] == pytest.approx(0.1 * metrics.workload["b"])
        assert busy[("b", 1)] <= metrics.wall_time_s

    @pytest.mark.parametrize("spec_name", SHIPPED_SPECS)
    def test_every_shipped_cell(self, spec_name):
        doc = parse_spec_file(str(PIPELINES_DIR / spec_name))
        for sname, scenario in doc.scenarios.items():
            for cname, config in doc.configs.items():
                assert self._same(doc.graph, scenario, config, f"{sname}/{cname}")

    @pytest.mark.parametrize("triple, seed, floor", [
        (random_sim_triple, 523, 30), (random_mixed_sim_triple, 524, 60),
        (random_budget_sim_triple, 525, 15),
    ], ids=["random", "mixed", "budget"])
    def test_random_triples(self, triple, seed, floor):
        # Each triple runs again at max_events=40. Of 200, 40 random, 78
        # mixed and 20 budgeted ones then end in a coded error, which both
        # simulators must raise.
        rng = random.Random(seed)
        errors = 0
        for index in range(200):
            graph, scenario, config = triple(rng)
            assert self._same(graph, scenario, config, f"triple {index}")
            errors += not self._same(graph, scenario, config, f"triple {index}", 40)
        assert errors >= floor
