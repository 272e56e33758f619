"""Analytic expected-workload and cost propagation through the pipeline DAG.

Cardinalities are propagated as means, deterministically, in topological
order: the expected number of invocations of a component per system input is
the sum over its inbound edges of the upstream invocation count times the
emission cardinality on that edge's label. Stochastic per-input counts live
only in the deployment simulator. All functions here are pure.

Workloads are lists indexed by sorted component id, and each pass builds its
own index table (:class:`_Table`) rather than storing one on the frozen
graph. The table is the one home of the emission rule: its step for a
component and the label its input is steered toward holds the mean emitted
on each routed label, with the labels, and the simulator draws from the
same steps. No label is special; a gateless component, whose path step is
labelled ``EXIT``, has no rows. A cost is one product sum,
``_total(map(mul, workload, costs))``, added left to right in sorted-id
order: float addition is not associative, and the fixed order keeps a total
bit-identical however it was reached.

The private walk (``_walk``) propagates many paths in one pass. The workload
after a path's first ``i`` steps depends only on those steps, so the walk
keeps it on a stack for the following paths that share them; on id-sorted
paths the work scales with the nodes of the path trie. Each path still gets
the same float additions in the same order as propagating it alone, which
:func:`propagate` does with a walk of one path. Ranking and
:func:`amplification_matrix` cost each path as the walk reaches it, through
the same helpers as the dict-based :func:`propagate` and :func:`cost`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from .errors import BadValueError, ScenarioMismatchError
from .model import EXIT, BehaviorProfile, PipelineGraph, topological_order

if TYPE_CHECKING:
    from .ranking import ExecutionPath

CLEAN = "clean"


def _total(values: Iterable[float]) -> float:
    """Every float total's one summation rule: left to right from 0.0, which
    ``sum()`` also gives on CPython 3.10 and 3.11 but not from 3.12 on."""
    return reduce(add, values, 0.0)


def expected_emission(
    profile: BehaviorProfile, label: str, targeting: str | None
) -> float:
    """Mean items emitted on ``label`` per invocation.

    ``targeting`` names the label the input stream is adversarially steered
    toward at this component, or ``None`` for clean inputs. Steering toward
    a label the profile does not declare leaves the component on its clean
    behavior; a declared one reads its full adversarial emission table, in
    which a label left out emits nothing.
    """
    table = profile.adv_cardinality.get(targeting, profile.clean_cardinality)
    return table.get(label, 0.0)


class WorkloadVector(NamedTuple):
    """Expected invocations per system input, for every component.

    ``scenario`` is ``"clean"`` or ``"adversarial(<path id>)"``.
    """

    entries: dict[str, float]
    scenario: str
    target_path_id: str | None = None

    @property
    def adversarial(self) -> bool:
        return self.target_path_id is not None


class CostBreakdown(NamedTuple):
    """Per-component and total giga-FLOPs for one workload vector.

    ``amplification`` is total cost divided by the clean reference total
    (1.0 when the breakdown is its own reference).
    """

    per_component: dict[str, float]
    total_gflops: float
    scenario: str
    amplification: float = 1.0


class _Table(dict):
    """Sorted ``ids``, their ``index``, ``clean`` and ``adv`` unit-cost vectors,
    and per step (a component and the label its input is steered toward, or
    None for clean inputs) the step ``(index, rows, labels)``: ``rows`` are
    ``(target index, mean)`` in sorted label order, without EXIT routes or
    zero means, and ``labels`` their labels, built on first use. A gateless
    component's step, its path's ``EXIT`` step included, has no rows."""

    def __init__(self, graph: PipelineGraph) -> None:
        super().__init__()
        self.graph = graph
        self.ids = sorted(graph.components)
        self.index = {cid: i for i, cid in enumerate(self.ids)}
        self.clean = [graph.components[cid].clean_cost for cid in self.ids]
        self.adv = [graph.components[cid].adv_cost for cid in self.ids]

    def __missing__(self, key: tuple[str, str | None]):
        cid, label = key
        profile = self.graph.profiles[cid]
        rows, labels = [], []
        for emitted, target in sorted(self.graph.routes(cid).items()):
            if target != EXIT:
                mean = expected_emission(profile, emitted, label)
                if mean:
                    rows.append((self.index[target], mean))
                    labels.append(emitted)
        self[key] = step = (self.index[cid], tuple(rows), tuple(labels))
        return step


def _advance(vec: list[float], steps: Iterable) -> None:
    """Take each ``_Table`` step in order, adding its emissions downstream."""
    for i, rows, _ in steps:
        count = vec[i]
        if count:
            for target, mean in rows:
                vec[target] += count * mean


def _walk(table: _Table, walks: Iterable[Sequence]) -> Iterator[list[float]]:
    """The workload vector of each walk's steps, in order; ``()`` is clean.
    Only the workloads of the current walk's prefixes are held."""
    order = topological_order(table.graph)
    position = {cid: p for p, cid in enumerate(order)}
    clean_steps = [table[cid, None] for cid in order]
    source = [0.0] * len(order)
    source[table.index[table.graph.source]] = 1.0
    # stack[i]: the workload after the first i steps of the previous walk,
    # and the position in the order of the next component to step.
    stack = [(source, 0)]
    previous: Sequence = ()
    for steps in walks:
        shared = 0
        for key, prior in zip(steps, previous):
            if key != prior:
                break
            shared += 1
        del stack[shared + 1:]
        vec, pos = stack[-1]
        for key in steps[shared:]:
            vec = vec[:]
            at = position[key[0]]
            _advance(vec, clean_steps[pos:at])
            _advance(vec, (table[key],))
            pos = at + 1
            stack.append((vec, pos))
        vec = vec[:]
        _advance(vec, clean_steps[pos:])
        previous = steps
        yield vec


def _reference_total(graph: PipelineGraph, reference: CostBreakdown) -> float:
    if reference.per_component.keys() != graph.components.keys():
        raise ScenarioMismatchError(
            "reference breakdown components do not match the graph")
    return reference.total_gflops


def _cost(
    table: _Table, products: list[float], scenario: str, reference: float | None,
) -> tuple[float, float]:
    """Σ ``products`` (workload × unit cost), added in sorted-id order, and its
    ratio to the ``reference`` total (1.0 without one); see :func:`cost`."""
    total = _total(products)
    if not math.isfinite(total):
        pairs = zip(table.ids, products)
        culprit = next((c for c, v in pairs if not math.isfinite(v)), None)
        where = "sum overflowed" if culprit is None else f"component {culprit!r}"
        raise BadValueError(f"{scenario}: total GFLOPs is not finite ({where})")
    if reference is None or (reference <= 0 and total == 0):
        return total, 1.0
    amplification = total / reference if reference > 0 else math.inf
    if not math.isfinite(amplification):
        raise BadValueError(
            f"{scenario}: FLOPs amplification is unbounded "
            f"({total:g} GFLOPs over a clean total of {reference:g})"
        )
    return total, amplification


def _costed_paths(table: _Table, paths: list, reference: CostBreakdown) -> Iterator:
    """``(path, workload × adv costs, total, amplification)`` per path, as reached."""
    reference_total = _reference_total(table.graph, reference)
    for path, vec in zip(paths, _walk(table, [p.steps for p in paths])):
        products = list(map(mul, vec, table.adv))
        scenario = f"adversarial({path.id})"
        yield path, products, *_cost(table, products, scenario, reference_total)


def propagate(
    graph: PipelineGraph, scenario: "str | ExecutionPath" = CLEAN
) -> WorkloadVector:
    """Expected per-component workload for one system input.

    ``scenario`` is :data:`CLEAN` or an :class:`ExecutionPath` to target
    (:func:`~pipevuln.ranking.resolve_path` turns a path id into one). The
    source always counts exactly one invocation.
    """
    table = _Table(graph)
    if scenario == CLEAN:
        return WorkloadVector(dict(zip(table.ids, next(_walk(table, [()])))), CLEAN)
    vec = next(_walk(table, [scenario.steps]))
    return WorkloadVector(
        dict(zip(table.ids, vec)), f"adversarial({scenario.id})", scenario.id
    )


def cost(
    graph: PipelineGraph,
    workload: WorkloadVector,
    reference: CostBreakdown | None = None,
) -> CostBreakdown:
    """Giga-FLOPs incurred per system input under ``workload``.

    Per-component contribution is expected invocations times the unit cost
    the scenario implies (adversarial scenarios process adversarial items
    everywhere they reach). ``reference`` supplies the clean total for the
    amplification ratio; omitted, the breakdown is its own reference.

    Raises:
        BadValueError: the total or the amplification is not finite; the
            message names the scenario and the first non-finite component,
            or says that the sum overflowed. A positive total over a zero
            clean reference is unbounded amplification.
    """
    if workload.entries.keys() != graph.components.keys():
        raise ScenarioMismatchError("workload vector components do not match the graph")
    table = _Table(graph)
    vec = [workload.entries[cid] for cid in table.ids]
    costs = table.adv if workload.adversarial else table.clean
    reference_total = None if reference is None else _reference_total(graph, reference)
    products = list(map(mul, vec, costs))
    total, amplification = _cost(table, products, workload.scenario, reference_total)
    return CostBreakdown(dict(zip(table.ids, products)), total, workload.scenario,
                         amplification)


def clean_cost(graph: PipelineGraph) -> CostBreakdown:
    """Convenience: cost of the clean scenario (its own reference)."""
    return cost(graph, propagate(graph, CLEAN))


def amplification_matrix(
    graph: PipelineGraph,
    cap: int | None = None,
    reference: CostBreakdown | None = None,
) -> dict[str, CostBreakdown]:
    """Analytic cost breakdown of targeting each path, vs clean.

    Keys are path ids in ascending order; each value's ``amplification`` is
    the adversarial total cost divided by ``reference``'s total (the clean
    cost, computed when omitted). The argmax of that ratio is the analytic
    cross-check for the ranking stage's selected path.
    """
    from .ranking import enumerate_paths

    if reference is None:
        reference = clean_cost(graph)
    paths = enumerate_paths(graph, cap=cap)
    table = _Table(graph)
    return {
        path.id: CostBreakdown(dict(zip(table.ids, products)), total,
                               f"adversarial({path.id})", amplification)
        for path, products, total, amplification in _costed_paths(table, paths, reference)
    }
