"""Deterministic discrete-event simulator of the deployed pipeline.

This module holds the simulator only: the scenario, config and defense
records that a run takes are defined and read in :mod:`pipevuln.model`.

Each component is a server with one FIFO of the items waiting for it, from
all its inbound edges in admission order; an edge keeps only counters, and
its ``queued`` count drives its capacity check. A service call takes
``min(batch, queued)`` items from the front of the FIFO (greedy flush, no
timeout) and runs for ``per_call_overhead + sum(item GFLOPs) / device_rate``
seconds. Admissions are numbered in rising order over the run; a shared
device next serves the member whose FIFO head was admitted first.
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

An exit-feeding server is alone on its device, has batch limit 1 and routes
every label to EXIT or to an exit-only server (below). When the restart
block starts one and the event touched no other device, the server runs
through its FIFO: it completes its head items in place while each
completion time is strictly earlier than both the heap's top entry and the
next arrival, and the first service that is not goes on the heap. Each such
completion is the event the heap would pop next, and its emissions reach
only exit-only servers, which push no event and restart no device. So the
event order, the order of the heap's entries, the event and offer counts
with their bound checks, the draws and the finish times are those of the
heap.

An exit-only server (no gate, alone on its device, batch limit 1, no
buffer or path budget on an inbound edge) feeds nothing and drops nothing,
so ``k`` items offered to it at ``now`` are all admitted, scheduled then by
the Lindley recursion ``free = max(now, free) + service`` and count as
``k`` events, with no heap entry. An input finishes at the latest
completion of any of its items, exit-only finishes included; the wall time
is the later of the last event and the last exit-only finish.

Core. A run indexes components in sorted-id order and devices in sorted
device-id order; the shared device sorts where ``"@shared"`` would among
the component ids, under a key that no component id equals, so a
component named ``@shared`` keeps a device of its own. It keeps
per-component lists: FIFO, batch limit, costs, overhead, rate, processed
counts and emission rows, each taint's rows built on its first use (an
exit-only server's items are never built). A FIFO entry is a run of
siblings: the children admitted from one draw share input, taint and edge
and have consecutive raw keys, so they wait as one list ``[seq, count,
input id, adversarial, raw key of the first, edge]``, and a source input
is a run of one. Queue memory therefore
grows with admissions, not with the items a fan-out admits. ``seq`` numbers
the admission; no item of another run lies between a run's items in
admission order, so comparing runs by ``seq`` orders their head items. A
service takes items from the head run and splits it when the batch ends
inside it: the batch gets a portion of the same shape, and the run left
queued keeps its ``seq`` and advances its raw key. An item's key is its
raw key, so item ``j`` of a portion is ``raw + j`` and no item is hashed
before it draws; a sink's items draw nothing. The completion loop admits
to an exit-only server without ``offer``: its edges have no limit to
check. An input's finish is written once per portion. Every event-path
service starts in the batch loop of the restart block, batch limit 1
included, which sums a batch's GFLOPs one item at a time in batch order.

Run-level draws. A portion's rows into exit-only servers, and in the
run-through all rows, are drawn as a run: ``_draws`` gives one label's
draws of items ``raw`` to ``raw + count - 1``, and the run's counts,
``enqueued`` and ``processed`` are added once. A portion's rows into FIFOs
are then drawn item by item, one ``_mix`` per draw. Every item of a
portion completes at ``now``, so drawing its exit rows first moves no clock
and changes no draw. Each exit-only server's Lindley clock still adds one
service per admitted item, item by item, at the item's completion time;
rows into one server add an item's draws together, the same clock, since
the first of them leaves ``free`` past that time. The run-through takes an
exit-feeding server's FIFO one slice at a time: ``_completions`` gives the
completion times of the head run's next items, each a step added to the
one before, cut where the next would not be earlier than the heap's top
entry or the next arrival. An empty slice ends the run-through; otherwise
``_exit_run`` draws the slice, and a sink's slice, with no rows, only
counts its events. The head run is then split past the slice or taken off
the FIFO. A run is drawn in slices of at most ``_SLICE`` items, so its
lists do not grow with its length. The bounds are checked once per slice.
The event and arrival bounds raise one error, so the order of the checks
within a slice, or between a portion's exit and FIFO rows, does not show;
the first item's event check comes before its rows are built, so a mean
past the bound is reported only after it.
``_draws`` hashes a slice in the 16-byte lanes of one int: lane ``i`` holds
``key + i``, as ``ones * key + ramp``, and ``ones`` repeats salt, gamma and
mask in each lane. Masking to 64 bits after each add or multiply and before
each multiply keeps each product below 2**128, so no lane carries into the
next, and lane ``i``'s low word is ``_mix((key + i) ^ salt)`` bit for bit.
Byte 7 of a lane is its guide cell; only a lane in a split cell bisects,
at the ``_uniform`` of its low word. A draw is ``lo + bisect_right(cdf,
u)``, as the bisection reference in ``tests/refsim.py`` gives it. The
run-through step and the exit-only schedule read a list of one-item service
times, equal bit for bit to the batch loop's for one item.

Determinism. Every random draw is keyed by the scenario seed plus the item's
lineage, never by event order. Each item carries an integer key: input
``i``'s is ``mix(seed) + i``, the draw for (item, label) is ``k = mix(item
key ^ label salt)``, and child ``j`` of that draw gets the key ``k + j``,
where ``mix`` is the SplitMix64 output function taken modulo 2**64 (a
counter-based generator: one keyed hash per draw, no generator state). The
uniform ``u = (k >> 11) * 2**-53`` is mapped through the inverse-CDF table
of the Poisson mean. The table's guide has 256 cells, indexed by ``k >>
56``; since ``u`` keeps the top 53 bits of ``k``, it lies in ``[c/256,
(c+1)/256)`` for ``c = k >> 56``. Cell ``c`` holds ``lo + bisect_right(cdf,
c/256)``, which is the draw of every ``u`` in it unless a CDF entry lies
strictly inside the cell; such a cell holds -1 and the draw bisects. So
guided draws equal the bisection's bit for bit (the indexed search of Chen
& Asau, 1974). Tables come from a process-wide memo of the last
``_TABLE_MEMO`` (32) means, so runs share them; a table spans about 24 sd,
and at the default bound of 10**7 events the largest mean, 10**7, takes
75,921 entries, about 2.5 MB, so the memo holds at most about 79 MB. The
bound on a mean is checked before the memo is asked, since the memo is
shared by runs with other bounds. Confidence thinning is one draw
at ``mean * survival`` with the same uniform: a thinned Poisson is Poisson,
and for a fixed uniform the inverse CDF does not decrease as the mean grows,
so relief is monotone item by item. The adversarial subset and the input
filter draw from their own domain salts: the filter's draw for input
``i`` is ``mix(key ^ filter salt)``. Identical (graph, scenario, config)
inputs therefore produce bit-identical metrics, the emission tree is
invariant to batch sizes and scheduling, and coupled comparisons (same seed,
one knob changed) are meaningful. Total FLOPs are tallied from
per-component processed counts in sorted component order, so equal item
trees give exactly equal totals.

A run is single-threaded, and `run_matrix` runs its cells one after
another in declaration order.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import deque
from functools import lru_cache
from itertools import accumulate, compress, repeat, takewhile
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BadValueError,
    EmptyInputError,
    NonTerminationError,
    PipelineError,
)
from .model import (
    DROP_INPUT,
    EXIT,
    NEURAL,
    SHARED_SINGLE_DEVICE,
    DeploymentConfig,
    PipelineGraph,
    TrafficScenario,
)
from .propagation import _Table, _total, expected_emission
from .ranking import resolve_path

DEFAULT_MAX_EVENTS = 10_000_000

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53
# A table spans mean +/- (12 sd + 12): the Poisson mass outside is below 1e-26.
_TABLE_SDS = 12.0
# Poisson tables kept by the process-wide memo (module docstring).
_TABLE_MEMO = 32
# Items drawn at once by a run-level draw: its lists never grow past this.
_SLICE = 1024
# The 16-byte lanes of ``_draws``, holding 1 and the lane number.
_ONES = (1).to_bytes(16, "little") * _SLICE
_RAMP = b"".join(i.to_bytes(16, "little") for i in range(_SLICE))
_TOO_MANY = "simulation exceeded the bound of {} events or arrivals"


class EdgeStats(NamedTuple):
    """Arrival accounting for one edge: enqueued = dequeued + dropped + residual."""

    enqueued: int
    dequeued: int
    dropped: int
    residual: int


class SimMetrics(NamedTuple):
    """Metric suite of one simulation run.

    Latency of a system input runs from its arrival to the latest
    completion of any of its items; dropped items do not extend it, and an
    input the filter drops has none. Every admitted item is served, so
    ``completed`` is ``n_inputs``. Workload counts are items processed per
    component; ``drops`` sums every edge's tail and budget drops;
    ``filtered`` counts inputs flagged by the input filter.
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


@lru_cache(maxsize=_TABLE_MEMO)
def _poisson_table(mean: float) -> tuple[int, list[float], list[int]]:
    """Inverse-CDF table ``(lo, cdf, guide)`` of Poisson(``mean``), ``mean > 0``.

    ``lo + bisect_right(cdf, u)`` is the draw for a uniform ``u`` in [0, 1).
    The pmf is taken in log space: ``exp(-mean)`` underflows to 0.0 for a
    mean past about 745, so a recurrence from ``k = 0`` would fail there.
    The sums are normalised so that the last entry is 1.0 and every
    ``u < 1`` lands inside the table.

    ``guide`` has one cell per interval ``[c/256, (c+1)/256)``: the draw of
    every ``u`` in it when no ``cdf`` entry lies strictly inside, else -1.
    The uniform of a key ``z`` lies in cell ``z >> 56`` (module docstring).
    The memo hands every caller the same lists, which nothing changes.
    """
    spread = _TABLE_SDS * math.sqrt(mean) + _TABLE_SDS
    lo = max(0, math.floor(mean - spread))
    hi = math.ceil(mean + spread)
    log_mean = math.log(mean)
    sums = list(accumulate(math.exp(k * log_mean - mean - math.lgamma(k + 1))
                           for k in range(lo, hi + 1)))
    cdf = [total / sums[-1] for total in sums]
    # Cell c holds lo plus the count of entries at or below c/256, or -1
    # when an entry lies strictly inside it, that is, when fewer entries lie
    # at or below c/256 than below (c+1)/256.
    guide = []
    for c in range(256):
        at_or_below = bisect_right(cdf, c / 256)
        split = at_or_below < bisect_left(cdf, (c + 1) / 256)
        guide.append(-1 if split else lo + at_or_below)
    return lo, cdf, guide


def _draws(salt: int, lo: int, cdf: list[float], guide: list[int], key: int,
           count: int) -> list[int]:
    """The draws ``lo + bisect_right(cdf, _uniform(_mix(k ^ salt)))`` for
    the keys ``k`` from ``key`` to ``key + count - 1``: the hash is
    ``_mix``'s, packed in lanes (module docstring), and a lane in a split
    cell bisects; ``tests/refsim.py`` has the bisection reference."""
    size = 16 * count
    ones = int.from_bytes(_ONES[:size], "little")
    mask = ones * _MASK64
    z = ((ones * key + int.from_bytes(_RAMP[:size], "little") ^ ones * salt)
         + ones * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ z >> 27) & mask) * 0x94D049BB133111EB & mask
    lanes = (z ^ z >> 31).to_bytes(size, "little")
    counts = list(map(guide.__getitem__, lanes[7::16]))
    i = 0
    for _ in range(counts.count(-1)):
        i = counts.index(-1, i)
        word = int.from_bytes(lanes[16 * i:16 * i + 8], "little")
        counts[i] = lo + bisect_right(cdf, _uniform(word))
    return counts


def _completions(now: float, step: float, count: int, bound: float) -> list[float]:
    """Completion times of up to ``count`` items served back to back from
    ``now``, each ``step`` added to the one before, while they are earlier
    than ``bound``: at most ``_SLICE`` of them, and at least one when ``now
    + step < bound``."""
    return list(takewhile(bound.__gt__, accumulate(
        repeat(step, min(count, _SLICE) - 1), initial=now + step)))


# Domain salts keep the subset, filter and lineage draws apart.
_SUBSET_SALT = _text_key("adversarial-subset")
_FILTER_SALT = _text_key("input-filter")


class _EdgeQueue:
    """Counters of one edge; its queued items wait in the target's FIFO,
    in runs (module docstring), and ``queued`` counts items, not runs."""

    __slots__ = ("key", "capacity", "budget_cap", "queued", "enqueued", "dropped")

    def __init__(self, key: str, capacity: int | None, budget_cap: int | None):
        self.key = key
        self.capacity = capacity
        self.budget_cap = budget_cap
        self.queued = 0
        self.enqueued = 0
        self.dropped = 0

    def offer(self, count: int) -> int:
        """Count ``count`` arrivals; admit as many as budget and capacity allow.

        Nothing dequeues between the arrivals of one emission, so the first
        ``admitted`` of them enter and the rest are dropped. Every admission
        on a buffered or budgeted edge comes through here (an edge into an
        exit-only server has neither), so ``enqueued - dropped`` counts its
        admissions so far. Admission keeps ``queued <= capacity`` and
        ``enqueued - dropped <= budget_cap``, so ``admitted`` is never
        negative.
        """
        admitted = count
        if self.budget_cap is not None:
            admitted = min(admitted, self.budget_cap - self.enqueued + self.dropped)
        # A comparison, not min(): this runs on every FIFO draw.
        if self.capacity is not None and self.capacity - self.queued < admitted:
            admitted = self.capacity - self.queued
        self.enqueued += count
        self.dropped += count - admitted
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
        # Each FIFO holds runs of siblings, [seq, count, input id,
        # adversarial, raw key of the first, edge], in admission order.
        self.fifo: list[deque[list]] = [deque() for _ in ids]
        self.batch_limit = [
            config.batch_size(cid) if spec.batchable else 1
            for cid, spec in zip(ids, specs)
        ]
        self.clean_cost = table.clean
        self.adv_cost = table.adv
        self.overhead = [spec.per_call_overhead for spec in specs]
        self.rate = [spec.device_rate for spec in specs]
        # One-item service times [clean, adversarial], as the batch loop
        # of the restart block computes them.
        self.service = [
            [spec.per_call_overhead + (0.0 + cost) / spec.device_rate
             for cost in (spec.clean_cost, spec.adv_cost)]
            for spec in specs
        ]
        # Emission rows per component, [clean, adversarial], each built on
        # use (``_route_rows``).
        self.rows: list[list[tuple | None]] = [[None, None] for _ in ids]
        self.processed_clean = [0] * len(ids)
        self.processed_adv = [0] * len(ids)

        shared = config.device_model == SHARED_SINGLE_DEVICE
        # A device key no component id can equal; "@shared" keeps its
        # place among the ids in sorted order.
        device_ids = [
            ("@shared", 0) if shared and spec.kind == NEURAL else (cid, 1)
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
        limited = {graph.edges[key].to_id for key, queue in self.edge_queues.items()
                   if queue.capacity or queue.budget_cap is not None}
        self.exit_only = [
            not graph.routes(cid) and cid not in limited
            and self.batch_limit[c] == 1 and self.sole[self.device_of[c]] == c
            for c, cid in enumerate(ids)
        ]
        self.free = [0.0] * len(ids)
        # Exit-feeding servers run through their FIFOs (module docstring).
        self.exit_feeding = [
            self.sole[self.device_of[c]] == c and self.batch_limit[c] == 1
            and all(target == EXIT or self.exit_only[self.index[target]]
                    for target in graph.routes(cid).values())
            for c, cid in enumerate(ids)
        ]

        # Completions are (time, seq, device, comp, batch), the batch a
        # sequence of run-shaped portions; arrivals are not in the heap but
        # come from a counter beside it.
        self.heap: list[tuple] = []

        n = scenario.n_inputs
        self.arrival_time = [i * scenario.interval_s for i in range(n)]
        self.finish: dict[int, float] = {}
        self.filtered = 0

    # -- setup ------------------------------------------------------------

    def _build_edge_queues(self) -> dict[tuple[str, str], _EdgeQueue]:
        budget_caps: dict[tuple[str, str], int] = {}
        for pid, budget in sorted(self.config.path_budgets.items()):
            path = resolve_path(self.graph, pid)
            cap = budget * self.scenario.n_inputs + 1e-9
            if not math.isfinite(cap):
                raise BadValueError(
                    f"path budget for {pid!r} times n_inputs "
                    f"{self.scenario.n_inputs} overflows"
                )
            cap = int(math.floor(cap))
            # An exit step keys a cap that no edge looks up.
            for key in path.steps:
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
        exit_feeding = self.exit_feeding
        processed_of = (self.processed_clean, self.processed_adv)
        rows_of = self.rows
        finish = self.finish
        max_events = self.max_events
        too_many = _TOO_MANY.format(max_events)
        input_filter = self.config.input_filter
        source = self.index[self.graph.source]
        source_device = self.device_of[source]
        now = 0.0
        events = arrived = offered = seq = seq_in = 0
        while heap or arrived < n:
            events += 1
            if events > max_events:
                raise NonTerminationError(too_many)
            # An arrival precedes a completion at the same instant.
            if arrived < n and (not heap or arrival_time[arrived] <= heap[0][0]):
                input_id = arrived
                arrived += 1
                now = arrival_time[input_id]
                raw = self.seed_key + input_id
                adv = input_id in adversarial
                if adv and input_filter is not None and input_filter.p_detect > 0:
                    if _uniform(_mix(raw ^ _FILTER_SALT)) < input_filter.p_detect:
                        self.filtered += 1
                        if input_filter.action == DROP_INPUT:
                            continue
                        adv = False
                self.source_queue.offer(1)
                fifos[source].append([seq_in, 1, input_id, adv, raw, self.source_queue])
                seq_in += 1
                touched = () if busy[source_device] else (source_device,)
            else:
                # A completion: emit the children of each item of each portion.
                now, _, device, comp, batch = heappop(heap)
                busy[device] = False
                rows = rows_of[comp]
                touched = {device}
                for _, count, input_id, adv, raw, _ in batch:
                    # The input's latest finish so far, written once below:
                    # an exit-only one may lie past ``now``.
                    last = finish.get(input_id, now)
                    if last < now:
                        last = now
                    exits, plan, fifo_rows = rows[adv] or self._route_rows(comp, adv)
                    if exits:
                        # The rows into exit-only servers draw the portion
                        # as a run, every item completing now.
                        for key in range(raw, raw + count, _SLICE):
                            size = min(_SLICE, raw + count - key)
                            events, offered, last = self._exit_run(
                                exits, plan, adv, key, [now] * size, 0,
                                events, offered, last)
                    finish[input_id] = last
                    if not fifo_rows:
                        continue
                    # The rows into FIFOs draw item by item.
                    for key in range(raw, raw + count):
                        for salt, lo, cdf, guide, edge, fifo, target in fifo_rows:
                            # The guided inverse-CDF draw.
                            draw_key = _mix(key ^ salt)
                            survivors = guide[draw_key >> 56]
                            if survivors < 0:
                                survivors = lo + bisect_right(cdf, _uniform(draw_key))
                            if survivors == 0:
                                continue
                            offered += survivors
                            if offered > max_events:
                                raise NonTerminationError(too_many)
                            admitted = edge.offer(survivors)
                            if not admitted:
                                continue
                            # The admitted children wait as one run.
                            fifo.append(
                                [seq_in, admitted, input_id, adv, draw_key, edge])
                            seq_in += 1
                            if not busy[target]:
                                touched.add(target)
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
                if exit_feeding[comp] and len(touched) == 1:
                    # Run through (module docstring): complete the head items
                    # here, a slice of a FIFO run at a time, while each would
                    # pop before the heap's top entry and the next arrival.
                    bound = heap[0][0] if heap else math.inf
                    if arrived < n and arrival_time[arrived] < bound:
                        bound = arrival_time[arrived]
                    steps = service_of[comp]
                    rows = rows_of[comp]
                    while fifo:
                        head = fifo[0]
                        _, count, input_id, adv, raw, _ = head
                        times = _completions(now, steps[adv], count, bound)
                        if not times:
                            break
                        taint = rows[adv]
                        if taint is None:
                            # The first item's event check comes before its
                            # rows are built.
                            if events >= max_events:
                                raise NonTerminationError(too_many)
                            taint = self._route_rows(comp, adv)
                        # A sink's rows are empty: its items only count.
                        events, offered, last = self._exit_run(
                            taint[0], taint[1], adv, raw, times, 1,
                            events, offered, finish.get(input_id, now))
                        done = len(times)
                        now = times[-1]
                        processed_of[adv][comp] += done
                        head[5].queued -= done
                        finish[input_id] = last if now < last else now
                        if done < count:
                            head[1] -= done
                            head[4] += done
                        else:
                            fifo.popleft()
                    if not fifo:
                        continue
                batch = []
                room = self.batch_limit[comp]
                costs = (self.clean_cost[comp], self.adv_cost[comp])
                gflops = 0.0
                while room and fifo:
                    head = fifo[0]
                    take = head[1]
                    if take <= room:
                        fifo.popleft()
                    else:
                        # Split the run: the batch takes its first items.
                        take = room
                        part = head[:]
                        part[1] = take
                        head[1] -= take
                        head[4] += take
                        head = part
                    room -= take
                    batch.append(head)
                    adv = head[3]
                    head[5].queued -= take
                    processed_of[adv][comp] += take
                    # One addition per item, in batch order.
                    cost = costs[adv]
                    for _ in range(take):
                        gflops += cost
                service = self.overhead[comp] + gflops / self.rate[comp]
                busy[device] = True
                heappush(heap, (now + service, seq, device, comp, batch))
                seq += 1
        self.now = now
        return self._collect()

    def _exit_run(self, rows, plan, adv, key, times, per_item,
                  events, offered, last):
        """Draw and admit the children of a run's items keyed ``key``,
        ``key + 1``, ..., item ``i`` completing at ``times[i]``, on the
        ``rows`` into exit-only servers and their ``plan`` (``_route_rows``).

        Counts, ``enqueued`` and ``processed`` are added once for the run,
        and each item adds ``per_item`` events of its own; a run past
        either bound raises. Each server's Lindley clock adds one service
        per admitted item, in item order; rows into one server add their
        draws of an item together. Returns ``events``, ``offered`` and
        ``last``, the input's latest finish.
        """
        size = len(times)
        draws = []
        added = 0
        for salt, lo, cdf, guide, edge in rows:
            counts = _draws(salt, lo, cdf, guide, key, size)
            draws.append(counts)
            total = sum(counts)
            edge.enqueued += total
            added += total
        events += per_item * size + added
        offered += added
        # A run that crosses a bound raises, so its counts need no undoing.
        if events > self.max_events or offered > self.max_events:
            raise NonTerminationError(_TOO_MANY.format(self.max_events))
        for server, service, first, others in plan:
            counts = draws[first]
            if others:
                # Rows into one server: an item's draws are added together.
                counts = [sum(column) for column in
                          zip(counts, *(draws[p] for p in others))]
            total = sum(counts)
            if not total:
                continue
            (self.processed_adv if adv else self.processed_clean)[server] += total
            free = self.free[server]
            for t, survivors in compress(zip(times, counts), counts):
                if free < t:
                    free = t
                for _ in range(survivors):
                    free += service
            self.free[server] = free
            if last < free:
                last = free
        return events, offered, last

    def _table(self, mean: float) -> tuple[int, list[float], list[int]]:
        # A larger mean would offer more arrivals than the bound allows and
        # needs a table of about 24 * sqrt(mean) entries. The memo is shared
        # by runs with other bounds, so the check comes first.
        if mean > self.max_events:
            raise NonTerminationError(
                f"emission mean {mean:g} exceeds the bound of "
                f"{self.max_events} events"
            )
        return _poisson_table(mean)

    def _route_rows(self, comp: int, adv: bool) -> tuple[list, list, list]:
        """Emission rows of component ``comp`` for items of one taint:
        ``(exit rows, their plan, FIFO rows)``.

        There is a row per label routed to a component whose surviving mean
        (targeting, attenuation and confidence survival included) is
        positive, in label order; a label routed to EXIT builds no items, so
        it has no row. A row into an exit-only server is ``(label salt, lo,
        cdf, guide, edge)``, where ``lo, cdf, guide`` is the Poisson table
        of that mean; a row into any other server adds its ``fifo`` and
        ``device``. The plan lists ``(server, service time, first row, other
        rows)`` per exit-only server, exit rows given by position. Built on
        the first completion of an item of that taint, so a table that is
        never drawn is never built.
        """
        cid = self.ids[comp]
        profile = self.graph.profiles[cid]
        att = self.config.attenuation
        conf = self.config.confidence
        exits: list[tuple] = []
        servers: dict[tuple[int, float], list[int]] = {}
        fifo_rows: list[tuple] = []
        for label, target in sorted(self.graph.routes(cid).items()):
            if target == EXIT:
                continue
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
            t = self.index[target]
            row = (_text_key(label), *self._table(mean), self.edge_queues[(cid, label)])
            if self.exit_only[t]:
                servers.setdefault((t, self.service[t][adv]), []).append(len(exits))
                exits.append(row)
            else:
                fifo_rows.append((*row, self.fifo[t], self.device_of[t]))
        plan = [(*server, first, others) for server, (first, *others) in servers.items()]
        entry = self.rows[comp][adv] = (exits, plan, fifo_rows)
        return entry

    # -- metrics -----------------------------------------------------------

    def _collect(self) -> SimMetrics:
        # Every input but those the filter dropped.
        samples = [self.finish[i] - self.arrival_time[i]
                   for i in sorted(self.finish)]
        if samples:
            avg = _total(samples) / len(samples)
            p50 = percentile(samples, 50)
            p95 = percentile(samples, 95)
            p99 = percentile(samples, 99)
        else:
            avg = p50 = p95 = p99 = 0.0
        # Events pop in time order; exit-only finishes may come later.
        wall = max(self.now, *self.free)
        # Every admitted item is served, so every input completes.
        completed = self.scenario.n_inputs
        throughput = completed / wall if wall > 0 else 0.0
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
            completed=completed,
            workload=workload,
            edge_stats=edge_stats,
            drops=total_dropped,
            filtered=self.filtered,
            total_tflops=total_gflops / 1000.0,
        ))


def _finite(metrics: SimMetrics) -> SimMetrics:
    """``metrics``, checked: a non-finite float field is ``BadValueError``."""
    for name, value in zip(SimMetrics._fields, metrics):
        if isinstance(value, float) and not math.isfinite(value):
            raise BadValueError(
                f"simulated {name} is not finite ({value}): a cost or "
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

    ``max_events`` bounds the events processed and, counted apart, the
    arrivals offered to edges; a run past either bound raises
    ``NonTerminationError``, with one message for both.
    So does a scenario with more inputs than the bound, before anything is
    sized by them, and an emission mean above it, before the items are built.
    """
    return _Run(graph, scenario, config, max_events).execute()


def _mean_std_rows(rows: list[SimMetrics]) -> tuple[SimMetrics, SimMetrics]:
    """Aggregate per-seed rows; population std (ddof=0) per reported field."""

    def agg(values: list[float]) -> tuple[float, float]:
        mean = _total(values) / len(values)
        try:
            var = _total((v - mean) ** 2 for v in values) / len(values)
        except OverflowError:  # float ** raises where * would give inf
            var = math.inf
        return mean, math.sqrt(var)

    scalars = {
        name: agg([float(getattr(r, name)) for r in rows])
        for name in SimMetrics._fields
        if name not in ("workload", "edge_stats")
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

    ``seeds``, when given, replace each scenario's own seed; they must be
    distinct, and an empty list is a bad value. With more than one seed,
    each pair expands to per-seed rows followed by mean and std rows
    (aggregate rows carry float-valued counts). Output order is
    scenario-major in declaration order; any cell failure aborts the whole
    matrix with the failing label in the message.
    """
    if seeds is not None and not seeds:
        raise BadValueError("matrix: the seed list is empty")
    if seeds is not None and len(set(seeds)) < len(seeds):
        raise BadValueError(f"matrix: seeds must be distinct, got {list(seeds)}")
    results: list[tuple[str, SimMetrics]] = []
    for sname, scenario in scenarios.items():
        runs = [scenario._replace(seed=seed) for seed in seeds or ()] or [scenario]
        for cname, config in configs.items():
            label = f"{sname}/{cname}"
            try:
                rows = [simulate(graph, run, config, max_events) for run in runs]
                if len(rows) == 1:
                    results.append((label, rows[0]))
                else:
                    for run, metrics in zip(runs, rows):
                        results.append((f"{label}/seed={run.seed}", metrics))
                    mean_row, std_row = _mean_std_rows(rows)
                    results.append((f"{label}/mean", mean_row))
                    results.append((f"{label}/std", std_row))
            except PipelineError as exc:
                raise type(exc)(f"matrix cell {label}: {exc.message}") from exc
    return results
