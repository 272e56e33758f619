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
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53
# A table spans mean +/- (12 sd + 12): the Poisson mass outside is below 1e-26.
_TABLE_SDS = 12.0


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
    return lo + bisect_right(cdf, _uniform(key))


# Domain salts keep the subset, filter and lineage draws apart.
_SUBSET_SALT = _text_key("adversarial-subset")
_FILTER_SALT = _text_key("input-filter")


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


class _Item:
    __slots__ = ("input_id", "adv", "key", "seq", "edge")

    def __init__(
        self, input_id: int, adv: bool, key: int, seq: int, edge: _EdgeQueue
    ):
        self.input_id = input_id
        self.adv = adv
        self.key = key
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
        self.fifo: dict[str, deque[_Item]] = {cid: deque() for cid in graph.components}
        self.source_queue = _EdgeQueue("@source", None, None)
        self.devices = self._build_devices()

        # Events are (time, seq, device, comp, batch) for a completion and
        # (time, seq, None, input id, adversarial) for an arrival.
        self.heap: list[tuple] = []
        self.seq = 0
        self.item_seq = 0
        self.offered = 0
        self.now = 0.0
        self.last_event_time = 0.0
        self.batch_limit = {
            cid: config.batch_size(cid) if spec.batchable else 1
            for cid, spec in graph.components.items()
        }
        self.route_rows: dict[str, tuple[list[tuple], list[tuple]]] = {}
        self.gateless = {cid for cid in graph.components if not graph.routes(cid)}
        self.tables: dict[float, tuple[int, list[float]]] = {}

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
        base = _mix(self.seed_key ^ _SUBSET_SALT)
        return set(sorted(range(n), key=lambda i: _mix(base + i))[:count])

    # -- event plumbing ----------------------------------------------------

    def execute(self) -> SimMetrics:
        adversarial = self._adversarial_inputs()
        interval = (
            self.scenario.interval_s
            if self.scenario.arrival == FIXED_INTERVAL
            else 0.0
        )
        heap = self.heap
        # Arrivals go in (time, seq) order, so the list is already a heap.
        for i in range(self.scenario.n_inputs):
            self.arrival_time[i] = i * interval
            heap.append((self.arrival_time[i], i, None, i, i in adversarial))
        self.seq = len(heap)

        max_events = self.max_events
        events = 0
        while heap:
            now, _, device, first, second = heapq.heappop(heap)
            self.now = now
            if now > self.last_event_time:
                self.last_event_time = now
            events += 1
            if events > max_events:
                raise NonTerminationError(f"simulation exceeded {max_events} events")
            if device is None:
                self._handle_arrival(first, second)
            else:
                self._handle_completion(device, first, second)
        return self._collect()

    def _handle_arrival(self, input_id: int, adversarial: bool) -> None:
        key = _mix(self.seed_key + input_id)
        flt = self.config.input_filter
        if adversarial and flt is not None and flt.p_detect > 0:
            if _uniform(_mix(key ^ _FILTER_SALT)) < flt.p_detect:
                self.filtered += 1
                if flt.action == DROP_INPUT:
                    self.resolved[input_id] = True
                    self.completed += 1
                    return
                adversarial = False
        item = _Item(input_id, adversarial, key, self.item_seq, self.source_queue)
        self.item_seq += 1
        self.outstanding[input_id] += 1
        self.source_queue.offer(1)
        self.fifo[self.graph.source].append(item)
        self._try_start(self.devices[self.device_of[self.graph.source]])

    def _try_start(self, device: _Device) -> None:
        if device.busy:
            return
        members = device.members
        if len(members) == 1:
            comp = members[0]
            fifo = self.fifo[comp]
            if not fifo:
                return
        else:
            # Shared device: serve the member whose FIFO head came first.
            comp = min(
                (cid for cid in members if self.fifo[cid]),
                key=lambda cid: self.fifo[cid][0].seq,
                default=None,
            )
            if comp is None:
                return
            fifo = self.fifo[comp]
        spec = self.graph.components[comp]
        popleft = fifo.popleft
        batch = [popleft() for _ in range(min(self.batch_limit[comp], len(fifo)))]
        gflops = 0.0
        n_adv = 0
        for item in batch:
            item.edge.queued -= 1
            item.edge.dequeued += 1
            if item.adv:
                n_adv += 1
                gflops += spec.adv_cost
            else:
                gflops += spec.clean_cost
        self.processed_adv[comp] += n_adv
        self.processed_clean[comp] += len(batch) - n_adv
        service = spec.per_call_overhead + gflops / spec.device_rate
        device.busy = True
        heapq.heappush(self.heap, (self.now + service, self.seq, device, comp, batch))
        self.seq += 1

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

    def _route_rows(self, comp: str) -> tuple[list[tuple], list[tuple]]:
        """Emission rows of ``comp`` for clean and for adversarial items.

        A row is ``(label salt, table, fifo, edge, device id)`` in label
        order, for labels whose surviving mean (targeting, attenuation and
        confidence survival included) is positive; ``table`` is the Poisson
        table of that mean, and ``fifo``, ``edge`` and ``device id``
        are ``None`` on an exit label. Built on the component's first
        completion.
        """
        profile = self.graph.profiles[comp]
        targeted = self.targeting.get(comp)
        att = self.config.attenuation
        conf = self.config.confidence
        clean_rows: list[tuple] = []
        adv_rows: list[tuple] = []
        for label, target in sorted(self.graph.routes(comp).items()):
            salt = _text_key(label)
            clean_mean = profile.clean_cardinality.get(label, 0.0)
            adv_mean = expected_emission(profile, label, targeted)
            if att is not None:
                adv_mean = min(
                    adv_mean, max(att.factor * adv_mean, att.residual_floor * clean_mean)
                )
            if target == EXIT:
                fifo = edge = device_id = None
            else:
                fifo = self.fifo[target]
                edge = self.edge_queues[(comp, label)]
                device_id = self.device_of[target]
            for rows, mean, adv in (
                (clean_rows, clean_mean, False), (adv_rows, adv_mean, True)
            ):
                if conf is not None:
                    mean *= conf.survival(label, adv)
                if mean > 0:
                    rows.append((salt, self._table(mean), fifo, edge, device_id))
        rows = (clean_rows, adv_rows)
        self.route_rows[comp] = rows
        return rows

    def _handle_completion(
        self, device: _Device, comp: str, batch: list[_Item]
    ) -> None:
        device.busy = False
        rows = self.route_rows.get(comp) or self._route_rows(comp)
        gateless = comp in self.gateless
        now = self.now
        outstanding = self.outstanding
        last_exit = self.last_exit
        touched = {device.id}
        for item in batch:
            input_id = item.input_id
            if gateless:
                # Gateless component: the item itself exits here.
                last_exit[input_id] = now
            for salt, table, fifo, edge, device_id in rows[item.adv]:
                key = _mix(item.key ^ salt)
                survivors = _poisson_draw(table, key)
                if survivors == 0:
                    continue
                if fifo is None:
                    last_exit[input_id] = max(last_exit.get(input_id, 0.0), now)
                    continue
                self.offered += survivors
                if self.offered > self.max_events:
                    raise NonTerminationError(
                        f"simulation offered more than {self.max_events} arrivals"
                    )
                admitted = edge.offer(survivors)
                if admitted:
                    seq = self.item_seq
                    adv = item.adv
                    fifo.extend([
                        _Item(input_id, adv, _mix(key + j), seq + j, edge)
                        for j in range(admitted)
                    ])
                    self.item_seq = seq + admitted
                    outstanding[input_id] += admitted
                    touched.add(device_id)
            outstanding[input_id] -= 1
            if outstanding[input_id] == 0 and not self.resolved[input_id]:
                self.resolved[input_id] = True
                self.completed += 1
                finish = last_exit.get(input_id, now)
                self.latencies[input_id] = finish - self.arrival_time[input_id]
        if len(touched) == 1:
            self._try_start(device)
        else:
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
        var = sum((v - mean) ** 2 for v in values) / len(values)
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
        SimMetrics(
            **{name: pair[i] for name, pair in scalars.items()},
            workload={cid: pair[i] for cid, pair in workload.items()},
            edge_stats={},
        )
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
