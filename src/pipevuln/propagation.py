"""Analytic expected-workload and cost propagation through the pipeline DAG.

Cardinalities are propagated as means, deterministically, in topological
order: the expected number of invocations of a component per system input is
the sum over its inbound edges of the upstream invocation count times the
emission cardinality on that edge's label. Stochastic per-input counts live
only in the deployment simulator.

One stepping helper does all the work: a component's step adds its count
times each of its emission means to the target's count. The means come from
a per-call emission table that maps (component, targeting label or
``None``) to ``(target, mean)`` rows in sorted label order, with EXIT routes
and zero means left out; each entry is built on first use. A clean run
steps every component clean.

:func:`propagate_paths` propagates many paths in one pass. The workload
after a path's first ``i`` steps (with every off-path component before them
stepped clean) depends only on those steps. So the walk computes it once,
keeps it on a stack, and reuses it for every following path that shares
those steps; on id-sorted paths the work scales with the nodes of the path
trie rather than with paths times components. Each path still gets the same
float additions in the same component and label order as propagating it
alone, so every workload, and every cost and score read from it, is
bit-identical to the one-path result.

All functions here are pure; concurrent evaluation of different scenarios is
safe and unordered.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BadValueError, ScenarioMismatchError
from .model import EXIT, BehaviorProfile, PipelineGraph, topological_order

if TYPE_CHECKING:
    from .ranking import ExecutionPath

CLEAN = "clean"


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


@dataclass(frozen=True)
class WorkloadVector:
    """Expected invocations per system input, for every component.

    ``scenario`` is ``"clean"`` or ``"adversarial(<path id>)"``.
    """

    entries: dict[str, float]
    scenario: str
    target_path_id: str | None = None

    @property
    def adversarial(self) -> bool:
        return self.target_path_id is not None


@dataclass(frozen=True)
class CostBreakdown:
    """Per-component and total giga-FLOPs for one workload vector.

    ``amplification`` is total cost divided by the clean reference total
    (1.0 when the breakdown is its own reference).
    """

    per_component: dict[str, float]
    total_gflops: float
    scenario: str
    amplification: float = 1.0


#: A step: a component and the label its inputs are steered toward, or None.
_Key = tuple[str, str | None]


class _EmissionTable(dict):
    """(component, targeting label or None) -> ((target, mean), ...) rows.

    Rows follow sorted label order and leave out EXIT routes and zero means;
    each key's rows are built from :func:`expected_emission` on first use.
    """

    def __init__(self, graph: PipelineGraph) -> None:
        super().__init__()
        self.graph = graph

    def __missing__(self, key: _Key) -> tuple[tuple[str, float], ...]:
        cid, targeting = key
        profile = self.graph.profiles[cid]
        rows = []
        for label, target in sorted(self.graph.routes(cid).items()):
            if target != EXIT:
                mean = expected_emission(profile, label, targeting)
                if mean:
                    rows.append((target, mean))
        self[key] = rows = tuple(rows)
        return rows


def _initial(graph: PipelineGraph) -> dict[str, float]:
    entries = dict.fromkeys(graph.components, 0.0)
    entries[graph.source] = 1.0
    return entries


def _advance(
    entries: dict[str, float], keys: Iterable[_Key], table: _EmissionTable
) -> None:
    """Step each keyed component in order, adding its emissions downstream."""
    for key in keys:
        count = entries[key[0]]
        if count:
            for target, mean in table[key]:
                entries[target] += count * mean


def propagate_paths(
    graph: PipelineGraph, paths: Iterable["ExecutionPath"]
) -> Iterator[WorkloadVector]:
    """Each path's targeted workload, in the order of ``paths``, one at a time.

    Consecutive paths that share their first steps share the work of those
    steps, so pass paths sorted by id (as :func:`enumerate_paths` lists
    them). Only the workloads of the current path's prefixes are held.
    """
    order = topological_order(graph)
    position = {cid: i for i, cid in enumerate(order)}
    clean_keys = [(cid, None) for cid in order]
    table = _EmissionTable(graph)
    # stack[i]: the workload after the first i steps of the previous path,
    # and the position in ``order`` of the next component to step.
    stack = [(_initial(graph), 0)]
    previous: tuple[_Key, ...] = ()
    for path in paths:
        keys = tuple(
            (cid, None if label == EXIT else label) for cid, label in path.steps
        )
        shared = 0
        for key, prior in zip(keys, previous):
            if key != prior:
                break
            shared += 1
        del stack[shared + 1:]
        entries, pos = stack[-1]
        for key in keys[shared:]:
            entries = dict(entries)
            at = position[key[0]]
            _advance(entries, clean_keys[pos:at], table)
            _advance(entries, (key,), table)
            pos = at + 1
            stack.append((entries, pos))
        entries = dict(entries)
        _advance(entries, clean_keys[pos:], table)
        previous = keys
        yield WorkloadVector(
            entries=entries, scenario=f"adversarial({path.id})", target_path_id=path.id
        )


def propagate(
    graph: PipelineGraph, scenario: "str | ExecutionPath" = CLEAN
) -> WorkloadVector:
    """Expected per-component workload for one system input.

    ``scenario`` is :data:`CLEAN` or an :class:`ExecutionPath` to target
    (:func:`~pipevuln.ranking.resolve_path` turns a path id into one). The
    source always counts exactly one invocation.
    """
    if scenario == CLEAN:
        entries = _initial(graph)
        keys = [(cid, None) for cid in topological_order(graph)]
        _advance(entries, keys, _EmissionTable(graph))
        return WorkloadVector(entries=entries, scenario=CLEAN)
    return next(propagate_paths(graph, [scenario]))


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
        raise ScenarioMismatchError(
            "workload vector components do not match the graph"
        )
    adversarial = workload.adversarial
    entries, specs = workload.entries, graph.components
    per = {
        cid: entries[cid]
        * (specs[cid].adv_cost if adversarial else specs[cid].clean_cost)
        for cid in sorted(specs)
    }
    total = sum(per.values())  # filled in sorted id order: a fixed sum order
    if not math.isfinite(total):
        culprit = next((c for c, v in per.items() if not math.isfinite(v)), None)
        where = "sum overflowed" if culprit is None else f"component {culprit!r}"
        raise BadValueError(
            f"{workload.scenario}: total GFLOPs is not finite ({where})"
        )
    if reference is None:
        amplification = 1.0
    else:
        if reference.per_component.keys() != graph.components.keys():
            raise ScenarioMismatchError(
                "reference breakdown components do not match the graph"
            )
        if reference.total_gflops > 0:
            amplification = total / reference.total_gflops
        else:
            amplification = 1.0 if total == 0 else math.inf
        if not math.isfinite(amplification):
            raise BadValueError(
                f"{workload.scenario}: FLOPs amplification is unbounded "
                f"({total:g} GFLOPs over a clean total of "
                f"{reference.total_gflops:g})"
            )
    return CostBreakdown(
        per_component=per,
        total_gflops=total,
        scenario=workload.scenario,
        amplification=amplification,
    )


def clean_cost(graph: PipelineGraph) -> CostBreakdown:
    """Convenience: cost of the clean scenario (its own reference)."""
    return cost(graph, propagate(graph, CLEAN))


def amplification_matrix(
    graph: PipelineGraph, cap: int | None = None
) -> dict[str, CostBreakdown]:
    """Analytic cost breakdown of targeting each path, vs clean.

    Keys are path ids in ascending order; each value's ``amplification`` is
    the adversarial total cost divided by the clean total. The argmax of
    that ratio is the analytic cross-check for the ranking stage's selected
    path.
    """
    from .ranking import enumerate_paths

    reference = clean_cost(graph)
    paths = enumerate_paths(graph, cap=cap)
    return {
        path.id: cost(graph, workload, reference)
        for path, workload in zip(paths, propagate_paths(graph, paths))
    }
