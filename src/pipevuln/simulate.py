"""Deterministic discrete-event simulation of the deployed pipeline.

Each component is a server with one FIFO of the items waiting for it, from
all its inbound edges in admission order; an edge keeps only counters, and
its ``queued`` count drives its capacity check. A service call takes
``min(batch, queued)`` items from the front of the FIFO (greedy flush, no
timeout) and runs for ``per_call_overhead + sum(item GFLOPs) / device_rate``
seconds. Admitted items are numbered in rising order over the run; a shared
device next serves the member whose FIFO head has the lowest number.
Emitted counts are Poisson draws around the profile's mean cardinality,
thinned by confidence survival, attenuated by input preprocessing, and
capped by per-path budgets; arrivals at a full queue are tail-dropped.

Determinism. Every random draw is keyed by the scenario seed plus the item's
lineage (a counter-based generator per item and label), never by event
order. Identical (graph, scenario, config) inputs therefore produce
bit-identical metrics, the emission tree is invariant to batch sizes and
scheduling, and coupled comparisons (same seed, one knob changed) are
meaningful. Total FLOPs are tallied from per-component processed counts in
sorted component order, so equal item trees give exactly equal totals.

A single run is strictly single-threaded; independent runs may execute
concurrently and `run_matrix` merges results in deterministic label order.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadValueError,
    EmptyInputError,
    NonTerminationError,
    PipelineError,
)
from .model import EXIT, NEURAL, PipelineGraph, topological_order
from .propagation import expected_emission
from .ranking import resolve_path

BACK_TO_BACK = "back-to-back"
FIXED_INTERVAL = "fixed-interval"

DROP_INPUT = "drop-input"
TREAT_AS_CLEAN = "treat-as-clean"

PER_COMPONENT_SERVER = "per-component-server"
SHARED_SINGLE_DEVICE = "shared-single-device"

DEFAULT_MAX_EVENTS = 10_000_000

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TrafficScenario:
    """Arrival stream mixing clean and adversarial system inputs.

    ``mix`` is the adversarial fraction; which inputs are adversarial is a
    seeded draw, so different seeds sample different subsets. ``arrival`` is
    ``"back-to-back"`` (all inputs offered at time zero) or
    ``"fixed-interval"`` with ``interval_s`` seconds between arrivals.
    """

    n_inputs: int
    mix: float = 0.0
    target_path: str | None = None
    arrival: str = BACK_TO_BACK
    interval_s: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_inputs < 1:
            raise BadValueError("scenario: n_inputs must be >= 1")
        if not 0.0 <= self.mix <= 1.0:
            raise BadValueError("scenario: mix must be within [0, 1]")
        if self.mix > 0 and not self.target_path:
            raise BadValueError("scenario: adversarial mix requires a target_path")
        if self.arrival not in (BACK_TO_BACK, FIXED_INTERVAL):
            raise BadValueError(f"scenario: unknown arrival mode {self.arrival!r}")
        if self.arrival == FIXED_INTERVAL and not (
            math.isfinite(self.interval_s) and self.interval_s >= 0
        ):
            raise BadValueError("scenario: fixed-interval needs a nonnegative interval")


@dataclass(frozen=True)
class ConfidenceFilter:
    """Survival fractions for emitted detections, by label and taint.

    Lookup falls back to the ``default`` key and then to 1.0 (keep all).
    """

    clean: Mapping[str, float] = field(default_factory=dict)
    adversarial: Mapping[str, float] = field(default_factory=dict)

    def survival(self, label: str, adversarial: bool) -> float:
        table = self.adversarial if adversarial else self.clean
        return table.get(label, table.get("default", 1.0))

    def validate(self) -> None:
        for table in (self.clean, self.adversarial):
            for label, fraction in table.items():
                if not 0.0 <= fraction <= 1.0:
                    raise BadValueError(
                        f"confidence survival for {label!r} must be within [0, 1]"
                    )


@dataclass(frozen=True)
class Attenuation:
    """Input-preprocessing model: damps adversarial emission means.

    The effective mean is ``min(adv, max(factor * adv, floor * clean))`` —
    the perturbation's gain is scaled down by ``factor`` but a residual of
    ``residual_floor`` times the clean cardinality survives preprocessing.
    """

    factor: float
    residual_floor: float = 0.0

    def validate(self) -> None:
        if not 0.0 <= self.factor <= 1.0:
            raise BadValueError("attenuation factor must be within [0, 1]")
        if not (math.isfinite(self.residual_floor) and self.residual_floor >= 0):
            raise BadValueError("attenuation residual floor must be finite and >= 0")


@dataclass(frozen=True)
class InputFilter:
    """Probabilistic adversarial-input detector at the pipeline entrance.

    Detection is a per-input Bernoulli with ``p_detect``; clean inputs
    always pass. Detected inputs are either dropped outright or admitted
    with clean behavior, and count toward the filtered total either way.
    """

    p_detect: float
    action: str = DROP_INPUT

    def validate(self) -> None:
        if not 0.0 <= self.p_detect <= 1.0:
            raise BadValueError("input filter p_detect must be within [0, 1]")
        if self.action not in (DROP_INPUT, TREAT_AS_CLEAN):
            raise BadValueError(f"unknown input filter action {self.action!r}")


@dataclass(frozen=True)
class DeploymentConfig:
    """Deployment knobs: batching, buffering, and defense parameters.

    ``batch`` and ``buffers`` accept a ``default`` key plus per-component /
    per-edge (``"from:label"``) overrides; configured buffer capacities
    override the graph's edge capacities. ``path_budgets`` caps the
    cumulative items forwarded on every edge of a path at ``budget *
    n_inputs`` (routing-layer defense); budget-rejected arrivals count as
    drops on that edge.
    """

    batch: Mapping[str, int] = field(default_factory=dict)
    buffers: Mapping[str, int | None] = field(default_factory=dict)
    confidence: ConfidenceFilter | None = None
    attenuation: Attenuation | None = None
    input_filter: InputFilter | None = None
    path_budgets: Mapping[str, float] = field(default_factory=dict)
    device_model: str = PER_COMPONENT_SERVER

    def validate(self) -> None:
        for key, size in self.batch.items():
            if isinstance(size, bool) or not isinstance(size, int) or size < 1:
                raise BadValueError(f"batch size for {key!r} must be an integer >= 1")
        for key, capacity in self.buffers.items():
            if capacity is None:
                continue
            if isinstance(capacity, bool) or not isinstance(capacity, int):
                raise BadValueError(f"buffer capacity for {key!r} must be an integer")
            if capacity < 1:
                raise BadValueError(f"buffer capacity for {key!r} must be positive")
        for pid, budget in self.path_budgets.items():
            if not (math.isfinite(budget) and budget >= 0):
                raise BadValueError(f"path budget for {pid!r} must be finite and >= 0")
        if self.confidence:
            self.confidence.validate()
        if self.attenuation:
            self.attenuation.validate()
        if self.input_filter:
            self.input_filter.validate()
        if self.device_model not in (PER_COMPONENT_SERVER, SHARED_SINGLE_DEVICE):
            raise BadValueError(f"unknown device model {self.device_model!r}")

    def batch_size(self, component: str) -> int:
        return self.batch.get(component, self.batch.get("default", 1))

    def buffer_capacity(self, edge_key: str, graph_capacity: int | None) -> int | None:
        if edge_key in self.buffers:
            return self.buffers[edge_key]
        if "default" in self.buffers:
            return self.buffers["default"]
        return graph_capacity


@dataclass(frozen=True)
class EdgeStats:
    """Arrival accounting for one edge: enqueued = dequeued + dropped + residual."""

    enqueued: int
    dequeued: int
    dropped: int
    residual: int


@dataclass(frozen=True)
class SimMetrics:
    """Metric suite of one simulation run.

    Latency of a system input is the completion time of its last descendant
    item minus its arrival time; dropped descendants do not extend it.
    Workload counts are items processed per component; ``drops`` sums every
    edge's tail and budget drops; ``filtered`` counts inputs flagged by the
    input filter.
    """

    wall_time_s: float
    throughput_ips: float
    avg_e2e_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    completed: int
    workload: dict[str, float]
    edge_stats: dict[str, EdgeStats]
    drops: int
    filtered: int
    total_tflops: float


def percentile(latencies: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: sorted value at index ceil(q/100 * n)."""
    samples = sorted(latencies)
    if not samples:
        raise EmptyInputError("percentile of an empty multiset")
    if not 0.0 < q <= 100.0:
        raise BadValueError(f"percentile q must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(samples))
    return samples[rank - 1]


# ---------------------------------------------------------------------------
# Run state
# ---------------------------------------------------------------------------


def _lineage_rng(seed: int, tag: str) -> np.random.Generator:
    digest = hashlib.blake2b(
        tag.encode(), digest_size=16, key=(seed & _MASK64).to_bytes(8, "little")
    ).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


class _EdgeQueue:
    """Counters of one edge; its queued items wait in the target's FIFO."""

    __slots__ = (
        "key", "capacity", "budget_cap", "budget_used",
        "queued", "enqueued", "dequeued", "dropped",
    )

    def __init__(self, key: str, capacity: int | None, budget_cap: int | None):
        self.key = key
        self.capacity = capacity
        self.budget_cap = budget_cap
        self.budget_used = 0
        self.queued = 0
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0

    def offer(self) -> bool:
        """Count an arrival; admit it unless budget or capacity rejects it."""
        self.enqueued += 1
        if self.budget_cap is not None and self.budget_used >= self.budget_cap:
            self.dropped += 1
            return False
        if self.capacity is not None and self.queued >= self.capacity:
            self.dropped += 1
            return False
        self.budget_used += 1
        self.queued += 1
        return True


class _Item:
    __slots__ = ("input_id", "adv", "uid", "seq", "edge")

    def __init__(
        self, input_id: int, adv: bool, uid: str, seq: int, edge: _EdgeQueue
    ):
        self.input_id = input_id
        self.adv = adv
        self.uid = uid
        self.seq = seq
        self.edge = edge


class _Device:
    __slots__ = ("id", "members", "busy")

    def __init__(self, device_id: str, members: list[str]):
        self.id = device_id
        self.members = members
        self.busy = False


class _Run:
    def __init__(
        self,
        graph: PipelineGraph,
        scenario: TrafficScenario,
        config: DeploymentConfig,
        max_events: int,
    ):
        scenario.validate()
        config.validate()
        self.graph = graph
        self.scenario = scenario
        self.config = config
        self.max_events = max_events
        self.seed = scenario.seed

        pid = scenario.target_path
        self.targeting = {} if pid is None else {
            cid: label for cid, label in resolve_path(graph, pid).steps if label != EXIT
        }
        self.edge_queues = self._build_edge_queues()
        self.fifo: dict[str, deque[_Item]] = {cid: deque() for cid in graph.components}
        self.source_queue = _EdgeQueue("@source", None, None)
        self.devices = self._build_devices()

        self.heap: list[tuple[float, int, str, object]] = []
        self.seq = 0
        self.item_seq = 0
        self.now = 0.0
        self.last_event_time = 0.0
        self.events_processed = 0

        n = scenario.n_inputs
        self.arrival_time = [0.0] * n
        self.outstanding = [0] * n
        self.last_exit: dict[int, float] = {}
        self.resolved = [False] * n
        self.completed = 0
        self.filtered = 0
        self.processed_clean = {cid: 0 for cid in graph.components}
        self.processed_adv = {cid: 0 for cid in graph.components}
        self.latencies: dict[int, float] = {}

    # -- setup ------------------------------------------------------------

    def _build_edge_queues(self) -> dict[tuple[str, str], _EdgeQueue]:
        budget_caps: dict[tuple[str, str], int] = {}
        for pid, budget in sorted(self.config.path_budgets.items()):
            path = resolve_path(self.graph, pid)
            cap = int(math.floor(budget * self.scenario.n_inputs + 1e-9))
            for cid, label in path.steps:
                if label == EXIT or self.graph.routes(cid).get(label) == EXIT:
                    continue
                key = (cid, label)
                budget_caps[key] = min(budget_caps.get(key, cap), cap)
        queues: dict[tuple[str, str], _EdgeQueue] = {}
        for (from_id, label), edge in sorted(self.graph.edges.items()):
            capacity = self.config.buffer_capacity(edge.key, edge.capacity)
            queues[(from_id, label)] = _EdgeQueue(
                edge.key, capacity, budget_caps.get((from_id, label))
            )
        return queues

    def _build_devices(self) -> dict[str, _Device]:
        devices: dict[str, _Device] = {}
        self.device_of: dict[str, str] = {}
        shared_members: list[str] = []
        for cid in sorted(self.graph.components):
            spec = self.graph.components[cid]
            if (
                self.config.device_model == SHARED_SINGLE_DEVICE
                and spec.kind == NEURAL
            ):
                shared_members.append(cid)
                self.device_of[cid] = "@shared"
            else:
                devices[cid] = _Device(cid, [cid])
                self.device_of[cid] = cid
        if shared_members:
            devices["@shared"] = _Device("@shared", shared_members)
        return devices

    def _adversarial_inputs(self) -> set[int]:
        n = self.scenario.n_inputs
        count = int(round(self.scenario.mix * n))
        if count == 0:
            return set()
        if count >= n:
            return set(range(n))
        gen = _lineage_rng(self.seed, "mix")
        return set(gen.choice(n, size=count, replace=False).tolist())

    # -- event plumbing ----------------------------------------------------

    def _push(self, time: float, kind: str, payload: object) -> None:
        heapq.heappush(self.heap, (time, self.seq, kind, payload))
        self.seq += 1

    def execute(self) -> SimMetrics:
        adversarial = self._adversarial_inputs()
        interval = (
            self.scenario.interval_s
            if self.scenario.arrival == FIXED_INTERVAL
            else 0.0
        )
        for i in range(self.scenario.n_inputs):
            self.arrival_time[i] = i * interval
            self._push(self.arrival_time[i], "arrive", (i, i in adversarial))

        while self.heap:
            self.now, _, kind, payload = heapq.heappop(self.heap)
            self.last_event_time = max(self.last_event_time, self.now)
            self.events_processed += 1
            if self.events_processed > self.max_events:
                raise NonTerminationError(
                    f"simulation exceeded {self.max_events} events"
                )
            if kind == "arrive":
                self._handle_arrival(*payload)  # type: ignore[misc]
            else:
                self._handle_completion(*payload)  # type: ignore[misc]
        return self._collect()

    def _handle_arrival(self, input_id: int, adversarial: bool) -> None:
        flt = self.config.input_filter
        if adversarial and flt is not None and flt.p_detect > 0:
            gen = _lineage_rng(self.seed, f"filter:i{input_id}")
            if gen.random() < flt.p_detect:
                self.filtered += 1
                if flt.action == DROP_INPUT:
                    self.resolved[input_id] = True
                    self.completed += 1
                    return
                adversarial = False
        item = _Item(
            input_id, adversarial, f"i{input_id}", self.item_seq, self.source_queue
        )
        self.item_seq += 1
        self.outstanding[input_id] += 1
        self.source_queue.offer()
        self.fifo[self.graph.source].append(item)
        self._try_start(self.devices[self.device_of[self.graph.source]])

    def _try_start(self, device: _Device) -> None:
        if device.busy:
            return
        best_comp = min(
            (cid for cid in device.members if self.fifo[cid]),
            key=lambda cid: self.fifo[cid][0].seq,
            default=None,
        )
        if best_comp is None:
            return
        spec = self.graph.components[best_comp]
        limit = self.config.batch_size(best_comp) if spec.batchable else 1
        fifo = self.fifo[best_comp]
        batch = [fifo.popleft() for _ in range(min(limit, len(fifo)))]
        gflops = 0.0
        for item in batch:
            item.edge.queued -= 1
            item.edge.dequeued += 1
            if item.adv:
                self.processed_adv[best_comp] += 1
                gflops += spec.adv_cost
            else:
                self.processed_clean[best_comp] += 1
                gflops += spec.clean_cost
        service = spec.per_call_overhead + gflops / spec.device_rate
        device.busy = True
        self._push(self.now + service, "complete", (device.id, best_comp, batch))

    def _emission_mean(self, item: _Item, comp: str, label: str) -> float:
        profile = self.graph.profiles[comp]
        if not item.adv:
            return profile.clean_cardinality.get(label, 0.0)
        mean = expected_emission(profile, label, self.targeting.get(comp))
        att = self.config.attenuation
        if att is not None:
            clean_mean = profile.clean_cardinality.get(label, 0.0)
            mean = min(mean, max(att.factor * mean, att.residual_floor * clean_mean))
        return mean

    def _handle_completion(
        self, device_id: str, comp: str, batch: list[_Item]
    ) -> None:
        self.devices[device_id].busy = False
        routes = self.graph.routes(comp)
        touched: set[str] = {device_id}
        for item in batch:
            input_id = item.input_id
            if not routes:
                # Gateless component: the item itself exits here.
                self.last_exit[input_id] = self.now
            for label in sorted(routes):
                mean = self._emission_mean(item, comp, label)
                if mean <= 0:
                    continue
                gen = _lineage_rng(self.seed, f"{item.uid}|{label}")
                emitted = int(gen.poisson(mean))
                if emitted == 0:
                    continue
                survival = (
                    self.config.confidence.survival(label, item.adv)
                    if self.config.confidence
                    else 1.0
                )
                if survival < 1.0:
                    # Per-item uniform thinning: the same uniforms decide
                    # survival for any threshold, so relief is monotone.
                    uniforms = gen.random(emitted)
                    survivors = int((uniforms < survival).sum())
                else:
                    survivors = emitted
                target = routes[label]
                if target == EXIT:
                    if survivors > 0:
                        self.last_exit[input_id] = max(
                            self.last_exit.get(input_id, 0.0), self.now
                        )
                    continue
                eq = self.edge_queues[(comp, label)]
                fifo = self.fifo[target]
                for child_index in range(survivors):
                    if eq.offer():
                        fifo.append(_Item(
                            input_id,
                            item.adv,
                            f"{item.uid}|{label}.{child_index}",
                            self.item_seq,
                            eq,
                        ))
                        self.item_seq += 1
                        self.outstanding[input_id] += 1
                        touched.add(self.device_of[target])
            self.outstanding[input_id] -= 1
            if self.outstanding[input_id] == 0 and not self.resolved[input_id]:
                self.resolved[input_id] = True
                self.completed += 1
                finish = self.last_exit.get(input_id, self.now)
                self.latencies[input_id] = finish - self.arrival_time[input_id]
        for touched_id in sorted(touched):
            self._try_start(self.devices[touched_id])

    # -- metrics -----------------------------------------------------------

    def _collect(self) -> SimMetrics:
        samples = [self.latencies[i] for i in sorted(self.latencies)]
        if samples:
            avg = sum(samples) / len(samples)
            p50 = percentile(samples, 50)
            p95 = percentile(samples, 95)
            p99 = percentile(samples, 99)
        else:
            avg = p50 = p95 = p99 = 0.0
        wall = self.last_event_time
        throughput = self.completed / wall if wall > 0 else 0.0
        workload = {
            cid: self.processed_clean[cid] + self.processed_adv[cid]
            for cid in sorted(self.graph.components)
        }
        edge_stats = {}
        total_dropped = 0
        for (from_id, label), eq in sorted(self.edge_queues.items()):
            edge_stats[eq.key] = EdgeStats(
                enqueued=eq.enqueued,
                dequeued=eq.dequeued,
                dropped=eq.dropped,
                residual=eq.queued,
            )
            total_dropped += eq.dropped
        total_gflops = 0.0
        for cid in sorted(self.graph.components):
            spec = self.graph.components[cid]
            total_gflops += self.processed_clean[cid] * spec.clean_cost
            total_gflops += self.processed_adv[cid] * spec.adv_cost
        return SimMetrics(
            wall_time_s=wall,
            throughput_ips=throughput,
            avg_e2e_s=avg,
            p50_s=p50,
            p95_s=p95,
            p99_s=p99,
            completed=self.completed,
            workload=workload,
            edge_stats=edge_stats,
            drops=total_dropped,
            filtered=self.filtered,
            total_tflops=total_gflops / 1000.0,
        )


def simulate(
    graph: PipelineGraph,
    scenario: TrafficScenario,
    config: DeploymentConfig,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> SimMetrics:
    """Run one deterministic simulation and collect its metric suite."""
    return _Run(graph, scenario, config, max_events).execute()


def _mean_std_rows(rows: list[SimMetrics]) -> tuple[SimMetrics, SimMetrics]:
    """Aggregate per-seed rows; population std (ddof=0) per reported field."""

    def agg(values: list[float]) -> tuple[float, float]:
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, math.sqrt(var)

    scalars = [
        "wall_time_s", "throughput_ips", "avg_e2e_s",
        "p50_s", "p95_s", "p99_s", "completed",
        "drops", "filtered", "total_tflops",
    ]
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    for name in scalars:
        means[name], stds[name] = agg([float(getattr(r, name)) for r in rows])
    comp_ids = sorted(rows[0].workload)
    w_mean: dict[str, float] = {}
    w_std: dict[str, float] = {}
    for cid in comp_ids:
        w_mean[cid], w_std[cid] = agg([float(r.workload[cid]) for r in rows])

    def build(values: dict[str, float], workload: dict[str, float]) -> SimMetrics:
        return SimMetrics(
            wall_time_s=values["wall_time_s"],
            throughput_ips=values["throughput_ips"],
            avg_e2e_s=values["avg_e2e_s"],
            p50_s=values["p50_s"],
            p95_s=values["p95_s"],
            p99_s=values["p99_s"],
            completed=values["completed"],
            workload=workload,
            edge_stats={},
            drops=values["drops"],
            filtered=values["filtered"],
            total_tflops=values["total_tflops"],
        )

    return build(means, w_mean), build(stds, w_std)


def run_matrix(
    graph: PipelineGraph,
    scenarios: Mapping[str, TrafficScenario],
    configs: Mapping[str, DeploymentConfig],
    seeds: Sequence[int] | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> list[tuple[str, SimMetrics]]:
    """One labeled metrics row per (scenario, config) pair.

    With more than one seed, each pair expands to per-seed rows followed by
    mean and std rows (the scenario's own seed is replaced; aggregate rows
    carry float-valued counts). Output order is scenario-major in
    declaration order; any cell failure aborts the whole matrix with the
    failing label in the message.
    """
    results: list[tuple[str, SimMetrics]] = []
    seed_list = list(seeds) if seeds else None
    for sname, scenario in scenarios.items():
        for cname, config in configs.items():
            label = f"{sname}/{cname}"
            try:
                if seed_list is None or len(seed_list) <= 1:
                    run_scenario = (
                        replace(scenario, seed=seed_list[0])
                        if seed_list
                        else scenario
                    )
                    results.append(
                        (label, simulate(graph, run_scenario, config, max_events))
                    )
                else:
                    rows: list[SimMetrics] = []
                    for seed in seed_list:
                        metrics = simulate(
                            graph, replace(scenario, seed=seed), config, max_events
                        )
                        rows.append(metrics)
                        results.append((f"{label}/seed={seed}", metrics))
                    mean_row, std_row = _mean_std_rows(rows)
                    results.append((f"{label}/mean", mean_row))
                    results.append((f"{label}/std", std_row))
            except PipelineError as exc:
                raise type(exc)(f"matrix cell {label}: {exc.message}") from exc
    return results


def metric_columns(graph: PipelineGraph) -> list[str]:
    """CSV header for metric rows: fixed fields plus one workload column
    per component in topological order."""
    return (
        ["label", "wall_time_s", "throughput_ips", "avg_e2e_s",
         "p50_s", "p95_s", "p99_s"]
        + [f"workload_{cid}" for cid in topological_order(graph)]
        + ["drops", "filtered", "total_tflops"]
    )


def metric_row(graph: PipelineGraph, label: str, metrics: SimMetrics) -> list:
    values: list = [
        label,
        metrics.wall_time_s,
        metrics.throughput_ips,
        metrics.avg_e2e_s,
        metrics.p50_s,
        metrics.p95_s,
        metrics.p99_s,
    ]
    values += [metrics.workload.get(cid, 0) for cid in topological_order(graph)]
    values += [metrics.drops, metrics.filtered, metrics.total_tflops]
    return values
