"""Per-item reference simulator: the exactness oracle of ``simulate``.

Written from the rules of the ``pipevuln.simulate`` module docstring, as
plainly as they read, with none of the simulator's shortcuts:

- every service of every server is one heap event, exit-only servers
  included, so there is no Lindley schedule and no run-through;
- a FIFO holds single items, so there are no runs to split;
- arrivals, restarts and tie-breaks follow "Event order", and every draw
  follows "Determinism": input ``i``'s key is ``mix(seed) + i``, the draw
  of an item with key ``k`` on label ``L`` is ``d = mix(k ^ salt_L)``, and
  its children get the keys ``d + j``.

It reuses only ``_mix``, ``_text_key``, ``_poisson_table`` and the record
types, and draws by bisection in ``_poisson_draw``, the reference that the
simulator's guided and packed draws equal. So a fault in code that the
simulator's fast paths share with its heap path shows as a difference here.
``reference_simulate`` takes the arguments of ``simulate`` and returns an
equal ``SimMetrics``, or raises the same error line;
``reference_run`` also returns each device's busy seconds, the sum of the
service times of the calls it starts, added in start order from 0.0.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from functools import reduce
from operator import add

from pipevuln.errors import BadValueError, NonTerminationError
from pipevuln.model import DROP_INPUT, EXIT, NEURAL, SHARED_SINGLE_DEVICE
from pipevuln.simulate import (
    DEFAULT_MAX_EVENTS,
    EdgeStats,
    SimMetrics,
    _mix,
    _poisson_table,
    _text_key,
)

_MASK64 = (1 << 64) - 1


def _poisson_draw(table: tuple[int, list[float], list[int]], key: int) -> int:
    """Inverse-CDF draw from a ``_poisson_table`` at the uniform of ``key``
    (its top 53 bits), by bisection: ``lo + bisect_right(cdf, u)``."""
    lo, cdf, _ = table
    return lo + bisect_right(cdf, (key >> 11) * 2.0 ** -53)


def _path_steps(graph, path_id: str) -> list[tuple[str, str]]:
    """The (component, label) steps of ``path_id``, walked from the source."""
    steps = []
    node = graph.source
    for text in path_id.split("->"):
        assert text.startswith(node + ":"), (path_id, node)
        label = text[len(node) + 1:]
        steps.append((node, label))
        target = graph.routes(node).get(label, EXIT)
        node = None if target == EXIT else target
    assert node is None, path_id
    return steps


def _adversarial_inputs(scenario, seed_key: int) -> set[int]:
    n = scenario.n_inputs
    count = int(round(scenario.mix * n))
    if count == 0:
        return set()
    if count >= n:
        return set(range(n))
    base = _mix(seed_key ^ _text_key("adversarial-subset"))
    return set(sorted(range(n), key=lambda i: _mix(base + i))[:count])


class _Edge:
    def __init__(self, key: str, capacity, budget):
        self.key, self.capacity, self.budget = key, capacity, budget
        self.queued = self.enqueued = self.dropped = self.admitted = 0

    def offer(self, count: int) -> int:
        admitted = count
        if self.budget is not None:
            admitted = min(admitted, self.budget - self.admitted)
        if self.capacity is not None:
            admitted = min(admitted, self.capacity - self.queued)
        self.enqueued += count
        self.dropped += count - admitted
        self.admitted += admitted
        self.queued += admitted
        return admitted


def reference_simulate(graph, scenario, config,
                       max_events: int = DEFAULT_MAX_EVENTS) -> SimMetrics:
    """The ``SimMetrics`` of one run; a run that ``simulate`` rejects for a
    bound raises the same error line here."""
    return reference_run(graph, scenario, config, max_events)[0]


def reference_run(graph, scenario, config, max_events: int = DEFAULT_MAX_EVENTS
                  ) -> tuple[SimMetrics, dict[tuple[str, int], float]]:
    """The ``SimMetrics`` of one run and the busy seconds of each device,
    keyed ``(component id, 1)`` or, for the shared device, ``("@shared", 0)``."""
    n = scenario.n_inputs
    if n > max_events:
        raise NonTerminationError(
            f"scenario n_inputs {n} exceeds the bound of {max_events} events")
    ids = sorted(graph.components)
    specs = graph.components
    seed_key = _mix(scenario.seed & _MASK64)
    targeting = {}
    if scenario.target_path is not None:
        targeting = {cid: label for cid, label in
                     _path_steps(graph, scenario.target_path) if label != EXIT}

    budgets: dict[tuple[str, str], int] = {}
    for pid, budget in config.path_budgets.items():
        cap = budget * n + 1e-9
        if not math.isfinite(cap):
            raise BadValueError("path budget overflows")
        cap = int(math.floor(cap))
        for step in _path_steps(graph, pid):
            budgets[step] = min(budgets.get(step, cap), cap)
    edges = {
        pair: _Edge(edge.key, config.buffer_capacity(edge.key, edge.capacity),
                    budgets.get(pair))
        for pair, edge in graph.edges.items()
    }

    shared = config.device_model == SHARED_SINGLE_DEVICE
    device = {cid: ("@shared", 0) if shared and specs[cid].kind == NEURAL
              else (cid, 1) for cid in ids}
    members: dict[tuple, list[str]] = {}
    for cid in ids:
        members.setdefault(device[cid], []).append(cid)
    busy = dict.fromkeys(members, False)
    busy_s = dict.fromkeys(members, 0.0)
    limit = {cid: config.batch_size(cid) if specs[cid].batchable else 1
             for cid in ids}
    # A FIFO item is (admission number, input id, adversarial, key, edge).
    fifo = {cid: deque() for cid in ids}
    processed = {cid: [0, 0] for cid in ids}

    tables: dict[float, tuple] = {}
    rows: dict[tuple[str, bool], list] = {}

    def emission_rows(cid: str, adv: bool) -> list:
        """(salt, table, target, edge) per label routed on with a positive mean."""
        if (cid, adv) in rows:
            return rows[(cid, adv)]
        found = []
        profile = graph.profiles[cid]
        for label, target in sorted(graph.routes(cid).items()):
            if target == EXIT:
                continue
            clean = profile.clean_cardinality.get(label, 0.0)
            mean = clean
            if adv:
                steer = targeting.get(cid)
                table = profile.adv_cardinality.get(steer, profile.clean_cardinality)
                mean = table.get(label, 0.0)
                att = config.attenuation
                if att is not None:
                    mean = min(mean, max(att.factor * mean, att.residual_floor * clean))
            if config.confidence is not None:
                mean *= config.confidence.survival(label, adv)
            if mean <= 0:
                continue
            if mean not in tables:
                if mean > max_events:
                    raise NonTerminationError(f"emission mean {mean:g} exceeds "
                                              f"the bound of {max_events} events")
                tables[mean] = _poisson_table(mean)
            found.append((_text_key(label), tables[mean], target, edges[(cid, label)]))
        rows[(cid, adv)] = found
        return found

    adversarial = _adversarial_inputs(scenario, seed_key)
    filter_salt = _text_key("input-filter")
    flt = config.input_filter
    arrival = [i * scenario.interval_s for i in range(n)]
    heap: list[tuple] = []
    finish: dict[int, float] = {}
    now = 0.0
    too_many = f"simulation exceeded the bound of {max_events} events or arrivals"
    events = offered = filtered = arrived = admissions = starts = 0
    while heap or arrived < n:
        events += 1
        if events > max_events:
            raise NonTerminationError(too_many)
        if arrived < n and (not heap or arrival[arrived] <= heap[0][0]):
            i = arrived
            arrived += 1
            now = arrival[i]
            key = seed_key + i
            adv = i in adversarial
            if adv and flt is not None and \
                    (_mix(key ^ filter_salt) >> 11) * 2.0**-53 < flt.p_detect:
                filtered += 1
                if flt.action == DROP_INPUT:
                    continue
                adv = False
            fifo[graph.source].append((admissions, i, adv, key, None))
            admissions += 1
            restart = {device[graph.source]}
        else:
            now, _, dev, cid, batch = heapq.heappop(heap)
            busy[dev] = False
            restart = {dev}
            for _, i, adv, key, _ in batch:
                finish[i] = max(finish.get(i, now), now)
                for salt, table, target, edge in emission_rows(cid, adv):
                    draw = _mix(key ^ salt)
                    count = _poisson_draw(table, draw)
                    if count == 0:
                        continue
                    offered += count
                    if offered > max_events:
                        raise NonTerminationError(too_many)
                    admitted = edge.offer(count)
                    for j in range(admitted):
                        fifo[target].append((admissions, i, adv, draw + j, edge))
                        admissions += 1
                    if admitted:
                        restart.add(device[target])
        # Each idle device the event touched serves its next batch, in
        # device-id order; a shared one serves the earliest FIFO head.
        for dev in sorted(restart):
            waiting = [(fifo[cid][0][0], cid) for cid in members[dev] if fifo[cid]]
            if busy[dev] or not waiting:
                continue
            cid = min(waiting)[1]
            spec = specs[cid]
            batch = []
            gflops = 0.0
            while fifo[cid] and len(batch) < limit[cid]:
                item = fifo[cid].popleft()
                batch.append(item)
                adv = item[2]
                if item[4] is not None:
                    item[4].queued -= 1
                processed[cid][adv] += 1
                gflops += spec.adv_cost if adv else spec.clean_cost
            busy[dev] = True
            service = spec.per_call_overhead + gflops / spec.device_rate
            busy_s[dev] += service
            heapq.heappush(heap, (now + service, starts, dev, cid, batch))
            starts += 1

    samples = [finish[i] - arrival[i] for i in sorted(finish)]
    ranked = sorted(samples)

    def nearest_rank(q: float) -> float:
        return ranked[math.ceil(q / 100.0 * len(ranked)) - 1] if ranked else 0.0

    total_gflops = 0.0
    for cid in ids:
        total_gflops += processed[cid][0] * specs[cid].clean_cost
        total_gflops += processed[cid][1] * specs[cid].adv_cost
    metrics = SimMetrics(
        wall_time_s=now,
        throughput_ips=n / now if now > 0 else 0.0,
        avg_e2e_s=reduce(add, samples, 0.0) / len(samples) if samples else 0.0,
        p50_s=nearest_rank(50),
        p95_s=nearest_rank(95),
        p99_s=nearest_rank(99),
        completed=n,
        workload={cid: sum(processed[cid]) for cid in ids},
        edge_stats={
            edge.key: EdgeStats(enqueued=edge.enqueued,
                                dequeued=edge.admitted - edge.queued,
                                dropped=edge.dropped, residual=edge.queued)
            for edge in edges.values()
        },
        drops=sum(edge.dropped for edge in edges.values()),
        filtered=filtered,
        total_tflops=total_gflops / 1000.0,
    )
    return metrics, busy_s
