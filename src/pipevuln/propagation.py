"""Analytic expected-workload and cost propagation through the pipeline DAG.

Cardinalities are propagated as means, deterministically, in topological
order: the expected number of invocations of a component per system input is
the sum over its inbound edges of the upstream invocation count times the
emission cardinality on that edge's label. Stochastic per-input counts live
only in the deployment simulator.

All functions here are pure; concurrent evaluation of different scenarios is
safe and unordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

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
    behavior. A flat adversarial entry suppresses every non-target label to
    zero; a mapping entry declares the full emission profile under that
    targeting (residual leakage included).
    """
    if targeting is None:
        return profile.clean_cardinality.get(label, 0.0)
    entry = profile.adv_cardinality.get(targeting)
    if entry is None:
        return profile.clean_cardinality.get(label, 0.0)
    if isinstance(entry, Mapping):
        return entry.get(label, 0.0)
    return float(entry) if label == targeting else 0.0


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


def _targeting_by_component(path: "ExecutionPath") -> dict[str, str]:
    return {cid: label for cid, label in path.steps if label != EXIT}


def propagate(graph: PipelineGraph, scenario: object = CLEAN) -> WorkloadVector:
    """Expected per-component workload for one system input.

    ``scenario`` is ``"clean"``, an :class:`ExecutionPath` to target, or a
    path id string. The source always counts exactly one invocation.
    """
    from .ranking import ExecutionPath, resolve_path

    if scenario == CLEAN or scenario is None:
        targeting: dict[str, str] = {}
        tag, target_id = CLEAN, None
    else:
        if isinstance(scenario, str):
            path = resolve_path(graph, scenario)
        elif isinstance(scenario, ExecutionPath):
            path = scenario
        else:
            raise BadValueError(f"unsupported scenario {scenario!r}")
        targeting = _targeting_by_component(path)
        tag, target_id = f"adversarial({path.id})", path.id

    entries = {cid: 0.0 for cid in graph.components}
    entries[graph.source] = 1.0
    for cid in topological_order(graph):
        count = entries[cid]
        if count == 0.0:
            continue
        profile = graph.profiles[cid]
        for label, target in sorted(graph.routes(cid).items()):
            if target == EXIT:
                continue
            mean = expected_emission(profile, label, targeting.get(cid))
            if mean:
                entries[target] += count * mean
    return WorkloadVector(entries=entries, scenario=tag, target_path_id=target_id)


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
    """
    if workload.entries.keys() != graph.components.keys():
        raise ScenarioMismatchError(
            "workload vector components do not match the graph"
        )
    adversarial = workload.adversarial
    per: dict[str, float] = {}
    for cid in sorted(graph.components):
        spec = graph.components[cid]
        unit = spec.adv_cost if adversarial else spec.clean_cost
        per[cid] = workload.entries[cid] * unit
    total = sum(per.values())  # filled in sorted id order: a fixed sum order
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
            amplification = 1.0 if total == 0 else float("inf")
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
    return {
        path.id: cost(graph, propagate(graph, path), reference)
        for path in enumerate_paths(graph, cap=cap)
    }
