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

Event order. Input ``i`` arrives at ``i * interval_s``. Arrivals come from
a counter beside the heap of completions, and an arrival precedes a
completion at the same instant; completions at one instant pop in the order
their services started. Every service on the event path starts in one
restart block after its event: an arrival restarts the source's device, and
a completion the device that finished and the idle devices that received
items, in device-id order.

An exit-only server (no gate, not the source, alone on its device, batch
limit 1, unbounded inbound edges) feeds nothing, so ``k`` items admitted to
it at ``now`` are scheduled then by the Lindley recursion ``free = max(now,
free) + service`` and count as ``k`` events, with no heap entry. An input
finishes at its latest exit; the wall time is the later of the last event
and the last exit-only finish.

Core. A run indexes components in sorted-id order and devices in sorted
device-id order, ``"@shared"`` included, and keeps per-component lists:
FIFO, batch limit, costs, overhead, rate, processed counts and emission
rows, each taint's rows built on its first use (an exit-only server's items
are never built). An item is a plain tuple ``(seq, input id, adversarial,
raw key, edge)``. Its lineage key is ``mix(raw key)``, taken only where its
component emits, so sink items never hash. The completion loop writes out
``_mix`` and ``_poisson_draw``, which stay the reference definitions, and
admits to an exit-only server without ``offer`` unless a budget caps the
inbound edge. The restart block serves a batch limit of 1 from a list of
one-item service times and sums a larger batch's GFLOPs in batch order.

Determinism. Every random draw is keyed by the scenario seed plus the item's
lineage, never by event order. Each item carries a 64-bit integer key: an
input's comes from (seed, input id), the draw for (item, label) uses
``k = mix(item key ^ label salt)``, and child ``j`` of that draw gets
``mix(k + j)``, where ``mix`` is the SplitMix64 output function (a
counter-based generator: one hash per draw, no generator state). The
uniform ``(k >> 11) * 2**-53`` is mapped through an inverse-CDF table built
once per run for each distinct Poisson mean. Confidence thinning is one draw
at ``mean * survival`` with the same uniform: a thinned Poisson is Poisson,
and for a fixed uniform the inverse CDF does not decrease as the mean grows,
so relief is monotone item by item. The adversarial subset and the input
filter draw from their own domain salts. Identical (graph, scenario, config)
inputs therefore produce bit-identical metrics, the emission tree is
invariant to batch sizes and scheduling, and coupled comparisons (same seed,
one knob changed) are meaningful. Total FLOPs are tallied from
per-component processed counts in sorted component order, so equal item
trees give exactly equal totals.

A single run is strictly single-threaded; independent runs may execute
concurrently and `run_matrix` merges results in deterministic label order.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadValueError,
    EmptyInputError,
    NonTerminationError,
    PipelineError,
)
from .model import EXIT, NEURAL, PipelineGraph, topological_order
from .propagation import _Table, expected_emission
from .ranking import resolve_path

DROP_INPUT = "drop-input"
TREAT_AS_CLEAN = "treat-as-clean"

PER_COMPONENT_SERVER = "per-component-server"
SHARED_SINGLE_DEVICE = "shared-single-device"

DEFAULT_MAX_EVENTS = 10_000_000

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53
# A table spans mean +/- (12 sd + 12): the Poisson mass outside is below 1e-26.
_TABLE_SDS = 12.0


@dataclass(frozen=True)
class TrafficScenario:
    """Arrival stream mixing clean and adversarial system inputs.

    ``mix`` is the adversarial fraction; which inputs are adversarial is a
    seeded draw, so different seeds sample different subsets. Input ``i``
    arrives at ``i * interval_s`` seconds, so 0 offers every input at time
    zero (back to back). A scenario checks its values when built.
    """

    n_inputs: int
    mix: float = 0.0
    target_path: str | None = None
    interval_s: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise BadValueError("scenario: n_inputs must be >= 1")
        if not 0.0 <= self.mix <= 1.0:
            raise BadValueError("scenario: mix must be within [0, 1]")
        if self.mix > 0 and not self.target_path:
            raise BadValueError("scenario: adversarial mix requires a target_path")
        if not (math.isfinite(self.interval_s) and self.interval_s >= 0):
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

    def __post_init__(self) -> None:
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

    def __post_init__(self) -> None:
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

    def __post_init__(self) -> None:
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
    drops on that edge. A config checks its own values when built; its
    defense records checked theirs when they were built.
    """

    batch: Mapping[str, int] = field(default_factory=dict)
    buffers: Mapping[str, int | None] = field(default_factory=dict)
    confidence: ConfidenceFilter | None = None
    attenuation: Attenuation | None = None
    input_filter: InputFilter | None = None
    path_budgets: Mapping[str, float] = field(default_factory=dict)
    device_model: str = PER_COMPONENT_SERVER

    def __post_init__(self) -> None:
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


def _mix(z: int) -> int:
    """SplitMix64 output of state ``z``: a 64-bit bijection with full avalanche."""
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _text_key(text: str) -> int:
    """64-bit key of a string, folded eight UTF-8 bytes at a time."""
    data = text.encode()
    key = _mix(len(data))
    for start in range(0, len(data), 8):
        key = _mix(key ^ int.from_bytes(data[start:start + 8], "little"))
    return key


def _uniform(key: int) -> float:
    """The top 53 bits of ``key`` as a float in [0, 1)."""
    return (key >> 11) * _UNIT


def _poisson_table(mean: float) -> tuple[int, list[float]]:
    """Inverse-CDF table ``(lo, cdf)`` of Poisson(``mean``), ``mean > 0``.

    ``lo + bisect_right(cdf, u)`` is the draw for a uniform ``u`` in [0, 1).
    The pmf is taken in log space: ``exp(-mean)`` underflows to 0.0 for a
    mean past about 745, so a recurrence from ``k = 0`` would fail there.
    The sums are normalised so that the last entry is 1.0 and every
    ``u < 1`` lands inside the table.
    """
    spread = _TABLE_SDS * math.sqrt(mean) + _TABLE_SDS
    lo = max(0, math.floor(mean - spread))
    hi = math.ceil(mean + spread)
    log_mean = math.log(mean)
    total = 0.0
    sums = []
    for k in range(lo, hi + 1):
        total += math.exp(k * log_mean - mean - math.lgamma(k + 1))
        sums.append(total)
    return lo, [value / total for value in sums]


def _poisson_draw(table: tuple[int, list[float]], key: int) -> int:
    """Inverse-CDF draw from a :func:`_poisson_table` at the uniform of ``key``."""
    lo, cdf = table
    return lo + bisect_right(cdf, (key >> 11) * _UNIT)


# Domain salts keep the subset, filter and lineage draws apart.
_SUBSET_SALT = _text_key("adversarial-subset")
_FILTER_SALT = _text_key("input-filter")


class _EdgeQueue:
    """Counters of one edge; its queued items wait in the target's FIFO."""

    __slots__ = (
        "key", "capacity", "budget_cap", "budget_used",
        "queued", "enqueued", "dropped",
    )

    def __init__(self, key: str, capacity: int | None, budget_cap: int | None):
        self.key = key
        self.capacity = capacity
        self.budget_cap = budget_cap
        self.budget_used = 0
        self.queued = 0
        self.enqueued = 0
        self.dropped = 0

    def offer(self, count: int) -> int:
        """Count ``count`` arrivals; admit as many as budget and capacity allow.

        Nothing dequeues between the arrivals of one emission, so the first
        ``admitted`` of them enter and the rest are dropped. Admission keeps
        ``queued <= capacity`` and ``budget_used <= budget_cap``, so
        ``admitted`` is never negative.
        """
        admitted = count
        if self.budget_cap is not None:
            admitted = min(admitted, self.budget_cap - self.budget_used)
        if self.capacity is not None:
            admitted = min(admitted, self.capacity - self.queued)
        self.enqueued += count
        self.dropped += count - admitted
        self.budget_used += admitted
        self.queued += admitted
        return admitted


class _Run:
    """State of one run, indexed as "Core" in the module docstring says."""

    def __init__(
        self,
        graph: PipelineGraph,
        scenario: TrafficScenario,
        config: DeploymentConfig,
        max_events: int,
    ):
        # Each input is at least one event: check before sizing anything by it.
        if scenario.n_inputs > max_events:
            raise NonTerminationError(
                f"scenario n_inputs {scenario.n_inputs} exceeds the bound of "
                f"{max_events} events"
            )
        self.graph = graph
        self.scenario = scenario
        self.config = config
        self.max_events = max_events
        self.seed_key = _mix(scenario.seed & _MASK64)

        pid = scenario.target_path
        self.targeting = {} if pid is None else {
            cid: label for cid, label in resolve_path(graph, pid).steps if label != EXIT
        }
        self.edge_queues = self._build_edge_queues()
        self.source_queue = _EdgeQueue("@source", None, None)

        table = _Table(graph)
        self.ids = ids = table.ids
        self.index = table.index
        specs = [graph.components[cid] for cid in ids]
        self.fifo: list[deque[tuple]] = [deque() for _ in ids]
        self.batch_limit = [
            config.batch_size(cid) if spec.batchable else 1
            for cid, spec in zip(ids, specs)
        ]
        self.clean_cost = table.clean
        self.adv_cost = table.adv
        self.overhead = [spec.per_call_overhead for spec in specs]
        self.rate = [spec.device_rate for spec in specs]
        # One-item service times [clean, adversarial] at batch limit 1, else None.
        self.service = [
            [spec.per_call_overhead + (0.0 + cost) / spec.device_rate
             for cost in (spec.clean_cost, spec.adv_cost)] if limit == 1 else None
            for spec, limit in zip(specs, self.batch_limit)
        ]
        self.gateless = [not graph.routes(cid) for cid in ids]
        # Emission rows per component, [clean, adversarial], each built on use.
        self.rows: list[list[list[tuple] | None]] = [[None, None] for _ in ids]
        self.processed_clean = [0] * len(ids)
        self.processed_adv = [0] * len(ids)

        shared = config.device_model == SHARED_SINGLE_DEVICE
        device_ids = [
            "@shared" if shared and spec.kind == NEURAL else cid
            for cid, spec in zip(ids, specs)
        ]
        slot = {device_id: i for i, device_id in enumerate(sorted(set(device_ids)))}
        self.device_of = [slot[device_id] for device_id in device_ids]
        self.members: list[list[int]] = [[] for _ in slot]
        for comp, device in enumerate(self.device_of):
            self.members[device].append(comp)
        # The one member of each device, or -1 for a device shared by several.
        self.sole = [comps[0] if len(comps) == 1 else -1 for comps in self.members]
        self.busy = [False] * len(slot)

        # Exit-only servers and their Lindley clocks (module docstring).
        bounded = {graph.edges[key].to_id
                   for key, queue in self.edge_queues.items() if queue.capacity}
        self.exit_only = [
            self.gateless[c] and cid != graph.source and cid not in bounded
            and self.batch_limit[c] == 1 and self.sole[self.device_of[c]] == c
            for c, cid in enumerate(ids)
        ]
        self.free = [0.0] * len(ids)

        # Completions are (time, seq, device, comp, batch); arrivals are not
        # in the heap but come from a counter beside it.
        self.heap: list[tuple] = []
        self.tables: dict[float, tuple[int, list[float]]] = {}

        n = scenario.n_inputs
        self.arrival_time = [i * scenario.interval_s for i in range(n)]
        self.outstanding = [0] * n
        self.last_exit: dict[int, float] = {}
        self.completed = 0
        self.filtered = 0
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

    def _adversarial_inputs(self) -> set[int]:
        n = self.scenario.n_inputs
        count = int(round(self.scenario.mix * n))
        if count == 0:
            return set()
        if count >= n:
            return set(range(n))
        base = _mix(self.seed_key ^ _SUBSET_SALT)
        return set(sorted(range(n), key=lambda i: _mix(base + i))[:count])

    # -- event plumbing ----------------------------------------------------

    def execute(self) -> SimMetrics:
        adversarial = self._adversarial_inputs()
        n = self.scenario.n_inputs
        arrival_time = self.arrival_time
        heap = self.heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        busy = self.busy
        fifos = self.fifo
        sole = self.sole
        service_of = self.service
        processed_of = (self.processed_clean, self.processed_adv)
        rows_of = self.rows
        gateless_of = self.gateless
        outstanding = self.outstanding
        last_exit = self.last_exit
        latencies = self.latencies
        free_at = self.free
        max_events = self.max_events
        input_filter = self.config.input_filter
        source = self.index[self.graph.source]
        source_device = self.device_of[source]
        now = 0.0
        events = arrived = offered = seq = item_seq = 0
        while heap or arrived < n:
            events += 1
            if events > max_events:
                raise NonTerminationError(f"simulation exceeded {max_events} events")
            # An arrival precedes a completion at the same instant.
            if arrived < n and (not heap or arrival_time[arrived] <= heap[0][0]):
                input_id = arrived
                arrived += 1
                now = arrival_time[input_id]
                raw = self.seed_key + input_id
                adv = input_id in adversarial
                if adv and input_filter is not None and input_filter.p_detect > 0:
                    if _uniform(_mix(_mix(raw) ^ _FILTER_SALT)) < input_filter.p_detect:
                        self.filtered += 1
                        if input_filter.action == DROP_INPUT:
                            self.completed += 1
                            continue
                        adv = False
                self.source_queue.offer(1)
                fifos[source].append((item_seq, input_id, adv, raw, self.source_queue))
                item_seq += 1
                outstanding[input_id] += 1
                touched = () if busy[source_device] else (source_device,)
            else:
                # A completion: emit each item's children.
                now, _, device, comp, batch = heappop(heap)
                busy[device] = False
                rows = rows_of[comp]
                gateless = gateless_of[comp]
                touched = {device}
                for _, input_id, adv, raw, _ in batch:
                    # Keep the latest exit: an exit-only one may lie past ``now``.
                    if gateless and last_exit.get(input_id, now) <= now:
                        # Gateless component: the item itself exits here.
                        last_exit[input_id] = now
                    taint_rows = rows[adv]
                    if taint_rows is None:
                        taint_rows = self._route_rows(comp, adv)
                    if taint_rows:
                        # key = _mix(raw), written out.
                        z = (raw + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
                        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
                        key = z ^ (z >> 31)
                    for salt, (lo, cdf), fifo, edge, target in taint_rows:
                        # draw_key = _mix(key ^ salt) and _poisson_draw, written out.
                        z = ((key ^ salt) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
                        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
                        draw_key = z ^ (z >> 31)
                        survivors = lo + bisect_right(cdf, (draw_key >> 11) * _UNIT)
                        if survivors == 0:
                            continue
                        if edge is None:
                            if last_exit.get(input_id, now) <= now:
                                last_exit[input_id] = now
                            continue
                        offered += survivors
                        if offered > max_events:
                            raise NonTerminationError(
                                f"simulation offered more than {max_events} arrivals"
                            )
                        if fifo is None:
                            # An exit-only server: a Lindley schedule stands in
                            # for its completion events; only a budget drops
                            # its input.
                            if edge.budget_cap is None:
                                edge.enqueued += survivors
                                admitted = survivors
                            else:
                                admitted = edge.offer(survivors)
                                if not admitted:
                                    continue
                                edge.queued -= admitted
                            server, service = target
                            events += admitted
                            if events > max_events:
                                raise NonTerminationError(
                                    f"simulation exceeded {max_events} events"
                                )
                            processed_of[adv][server] += admitted
                            free = max(now, free_at[server])
                            if admitted == 1:
                                free += service
                            else:
                                for _ in range(admitted):
                                    free += service
                            free_at[server] = free
                            if last_exit.get(input_id, free) <= free:
                                last_exit[input_id] = free
                            continue
                        admitted = edge.offer(survivors)
                        if not admitted:
                            continue
                        for j in range(admitted):
                            fifo.append(
                                (item_seq + j, input_id, adv, draw_key + j, edge))
                        item_seq += admitted
                        outstanding[input_id] += admitted
                        if not busy[target]:
                            touched.add(target)
                    outstanding[input_id] -= 1
                    if outstanding[input_id] == 0:
                        self.completed += 1
                        finish = last_exit.get(input_id, now)
                        latencies[input_id] = finish - arrival_time[input_id]
                if len(touched) > 1:
                    touched = sorted(touched)
            # Every service on the event path starts here: each idle device
            # that the event touched takes its next batch, in device-id order.
            for device in touched:
                comp = sole[device]
                if comp < 0:
                    # Shared device: serve the member whose FIFO head came first.
                    heads = [(fifos[c][0][0], c) for c in self.members[device]
                             if fifos[c]]
                    if not heads:
                        continue
                    comp = min(heads)[1]
                fifo = fifos[comp]
                if not fifo:
                    continue
                one = service_of[comp]
                if one is not None:
                    _, _, adv, _, edge = item = fifo.popleft()
                    edge.queued -= 1
                    processed_of[adv][comp] += 1
                    service = one[adv]
                    batch = [item]
                else:
                    batch = []
                    for _ in range(min(self.batch_limit[comp], len(fifo))):
                        batch.append(fifo.popleft())
                    clean_cost, adv_cost = self.clean_cost[comp], self.adv_cost[comp]
                    gflops = 0.0
                    n_adv = 0
                    for _, _, adv, _, edge in batch:
                        edge.queued -= 1
                        if adv:
                            n_adv += 1
                            gflops += adv_cost
                        else:
                            gflops += clean_cost
                    self.processed_adv[comp] += n_adv
                    self.processed_clean[comp] += len(batch) - n_adv
                    service = self.overhead[comp] + gflops / self.rate[comp]
                busy[device] = True
                heappush(heap, (now + service, seq, device, comp, batch))
                seq += 1
        self.now = now
        return self._collect()

    def _table(self, mean: float) -> tuple[int, list[float]]:
        table = self.tables.get(mean)
        if table is None:
            # A larger mean would offer more arrivals than the bound allows
            # and needs a table of about 24 * sqrt(mean) entries.
            if mean > self.max_events:
                raise NonTerminationError(
                    f"emission mean {mean:g} exceeds the bound of "
                    f"{self.max_events} events"
                )
            table = self.tables[mean] = _poisson_table(mean)
        return table

    def _route_rows(self, comp: int, adv: bool) -> list[tuple]:
        """Emission rows of component ``comp`` for items of one taint.

        A row is ``(label salt, table, fifo, edge, device)`` in label order,
        for labels whose surviving mean (targeting, attenuation and
        confidence survival included) is positive; ``table`` is the Poisson
        table of that mean, and ``fifo``, ``edge`` and ``device`` are
        ``None`` on an exit label. A row into an exit-only server has no
        ``fifo`` and holds ``(component index, service time)`` in place of
        ``device``. Built on the first completion of an item of that taint,
        so a table that is never drawn is never built.
        """
        cid = self.ids[comp]
        profile = self.graph.profiles[cid]
        att = self.config.attenuation
        conf = self.config.confidence
        rows: list[tuple] = []
        for label, target in sorted(self.graph.routes(cid).items()):
            mean = clean_mean = profile.clean_cardinality.get(label, 0.0)
            if adv:
                mean = expected_emission(profile, label, self.targeting.get(cid))
                if att is not None:
                    floor = att.residual_floor * clean_mean
                    mean = min(mean, max(att.factor * mean, floor))
            if conf is not None:
                mean *= conf.survival(label, adv)
            if mean <= 0:
                continue
            if target == EXIT:
                fifo = edge = device = None
            else:
                t = self.index[target]
                edge = self.edge_queues[(cid, label)]
                if self.exit_only[t]:
                    fifo, device = None, (t, self.service[t][adv])
                else:
                    fifo, device = self.fifo[t], self.device_of[t]
            rows.append((_text_key(label), self._table(mean), fifo, edge, device))
        self.rows[comp][adv] = rows
        return rows

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
        # Events pop in time order; exit-only finishes may come later.
        wall = max(self.now, *self.free)
        throughput = self.completed / wall if wall > 0 else 0.0
        workload = {
            cid: self.processed_clean[i] + self.processed_adv[i]
            for i, cid in enumerate(self.ids)
        }
        edge_stats = {}
        total_dropped = 0
        for (from_id, label), eq in sorted(self.edge_queues.items()):
            edge_stats[eq.key] = EdgeStats(
                enqueued=eq.enqueued,
                # Every admitted item is dequeued or still queued.
                dequeued=eq.enqueued - eq.dropped - eq.queued,
                dropped=eq.dropped,
                residual=eq.queued,
            )
            total_dropped += eq.dropped
        total_gflops = 0.0
        for i in range(len(self.ids)):
            total_gflops += self.processed_clean[i] * self.clean_cost[i]
            total_gflops += self.processed_adv[i] * self.adv_cost[i]
        return _finite(SimMetrics(
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
        ))


def _finite(metrics: SimMetrics) -> SimMetrics:
    """``metrics``, checked: a non-finite float field is ``BadValueError``."""
    for f in fields(SimMetrics):
        value = getattr(metrics, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise BadValueError(
                f"simulated {f.name} is not finite ({value}): a cost or "
                "service time overflowed"
            )
    return metrics


def simulate(
    graph: PipelineGraph,
    scenario: TrafficScenario,
    config: DeploymentConfig,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> SimMetrics:
    """Run one deterministic simulation and collect its metric suite.

    ``max_events`` bounds the events processed and, separately, the arrivals
    offered to edges; a run past either bound raises ``NonTerminationError``.
    So does a scenario with more inputs than the bound, before anything is
    sized by them, and an emission mean above it, before the items are built.
    """
    return _Run(graph, scenario, config, max_events).execute()


def _mean_std_rows(rows: list[SimMetrics]) -> tuple[SimMetrics, SimMetrics]:
    """Aggregate per-seed rows; population std (ddof=0) per reported field."""

    def agg(values: list[float]) -> tuple[float, float]:
        mean = sum(values) / len(values)
        try:
            var = sum((v - mean) ** 2 for v in values) / len(values)
        except OverflowError:  # float ** raises where * would give inf
            var = math.inf
        return mean, math.sqrt(var)

    scalars = {
        f.name: agg([float(getattr(r, f.name)) for r in rows])
        for f in fields(SimMetrics)
        if f.name not in ("workload", "edge_stats")
    }
    workload = {
        cid: agg([float(r.workload[cid]) for r in rows])
        for cid in sorted(rows[0].workload)
    }
    return tuple(
        _finite(SimMetrics(
            **{name: pair[i] for name, pair in scalars.items()},
            workload={cid: pair[i] for cid, pair in workload.items()},
            edge_stats={},
        ))
        for i in (0, 1)
    )


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
