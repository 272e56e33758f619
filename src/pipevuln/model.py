"""Cost-annotated pipeline DAG: components, behavior profiles, gates, edges.

The graph built here is the shared input of every analysis stage: analytic
workload propagation, path ranking, and the deployment simulator all consume
the same validated structure. ``build_graph`` performs full validation; a
built ``PipelineGraph`` is immutable by convention and safe to share across
concurrent readers.

Gate semantics: each component may own one gate mapping emitted labels to a
downstream component or to the reserved sink ``EXIT``. A label routed to
``EXIT`` terminates that item at zero further cost. A component without a
gate (or with an empty route table) terminates every item it processes.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from .errors import (
    BadValueError,
    CycleError,
    DanglingReferenceError,
    DuplicateIdError,
    NoSourceError,
    SchemaError,
)

#: Reserved gate target that terminates an item instead of forwarding it.
EXIT = "EXIT"

NEURAL = "neural"
NON_NEURAL = "non-neural"
_KINDS = (NEURAL, NON_NEURAL)

#: Sentinel capacity meaning "no limit" in spec documents.
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class ComponentSpec:
    """One pipeline stage and its declared cost model.

    Costs are giga-FLOPs per processed item; ``device_rate`` is the
    giga-FLOPs per second of the device executing this component and
    ``per_call_overhead`` the fixed dispatch cost of one service call.
    Non-neural components must declare zero compute cost (they may still
    carry per-call overhead, e.g. an external service round trip).
    """

    id: str
    kind: str
    clean_cost: float = 0.0
    adv_cost: float = 0.0
    device_rate: float = 1.0
    per_call_overhead: float = 0.0
    batchable: bool = True


@dataclass(frozen=True)
class BehaviorProfile:
    """Per-component emission cardinalities.

    ``clean_cardinality`` maps emitted label -> mean items per invocation
    under clean input. ``adv_cardinality`` maps a *target* label to the
    emission behavior when inputs are adversarially steered toward that
    label: either a single number (mean emission of the target label itself,
    with every other label suppressed to zero) or a full label -> mean
    mapping for targetings that leak residual emissions on other labels.
    A target label absent from ``adv_cardinality`` means the component is
    not steerable toward it and behaves per its clean profile.
    """

    component: str
    clean_cardinality: Mapping[str, float] = field(default_factory=dict)
    adv_cardinality: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class GateSpec:
    """Routing table of one component: emitted label -> component id or EXIT."""

    component: str
    routes: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class EdgeSpec:
    """A labeled queue between two components.

    ``capacity`` is a positive item count or ``None`` for unbounded. The
    pair (from_id, label) is unique across the graph and identifies the
    edge in reports and deployment configurations as ``"from:label"``.
    """

    from_id: str
    to_id: str
    label: str
    capacity: int | None = None

    @property
    def key(self) -> str:
        return f"{self.from_id}:{self.label}"


@dataclass(frozen=True)
class PipelineGraph:
    """Validated pipeline DAG. Construct through :func:`build_graph`."""

    components: dict[str, ComponentSpec]
    profiles: dict[str, BehaviorProfile]
    gates: dict[str, GateSpec]
    edges: dict[tuple[str, str], EdgeSpec]
    source: str
    #: Component ids with every edge pointing forward, ties broken by id.
    order: tuple[str, ...]

    def routes(self, component: str) -> Mapping[str, str]:
        gate = self.gates.get(component)
        return gate.routes if gate is not None else {}


# ---------------------------------------------------------------------------
# Record coercion (raw mappings -> typed records)
# ---------------------------------------------------------------------------

_COMPONENT_KEYS = {
    "id",
    "kind",
    "clean_cost_gflops",
    "adv_cost_gflops",
    "device_rate_gflops_s",
    "per_call_overhead_s",
    "batchable",
}
_PROFILE_KEYS = {"component", "clean_cardinality", "adv_cardinality"}
_GATE_KEYS = {"component", "routes"}
_EDGE_KEYS = {"from", "to", "label", "capacity"}
_PIPELINE_KEYS = {"components", "profiles", "gates", "edges", "source"}
# Sections owned by other layers; tolerated so a whole document can be passed.
_EXTRA_KEYS = {"scenarios", "configs", "calibration"}


def _need_mapping(obj: Any, what: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{what} must be a mapping, got {type(obj).__name__}")
    return obj


def _section(doc: Mapping, key: str) -> list:
    section = doc.get(key, [])
    if not isinstance(section, list):
        raise SchemaError(f"{key} must be a list, got {type(section).__name__}")
    return section


def _need_str(rec: Mapping, key: str, what: str) -> str:
    if key not in rec:
        raise SchemaError(f"{what} is missing required key {key!r}")
    value = rec[key]
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{what}.{key} must be a non-empty string")
    return value


def _opt_number(rec: Mapping, key: str, what: str, default: float) -> float:
    if key not in rec:
        return default
    value = rec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what}.{key} must be a number")
    return float(value)


def _opt_bool(rec: Mapping, key: str, what: str, default: bool) -> bool:
    if key not in rec:
        return default
    value = rec[key]
    if not isinstance(value, bool):
        raise SchemaError(f"{what}.{key} must be a boolean")
    return value


def _check_keys(rec: Mapping, allowed: set[str], what: str) -> None:
    unknown = set(rec) - allowed
    if unknown:
        raise SchemaError(f"{what} has unknown key(s): {', '.join(sorted(unknown))}")


def _card_map(obj: Any, what: str) -> dict[str, float]:
    mapping = _need_mapping(obj, what)
    out: dict[str, float] = {}
    for label, value in mapping.items():
        if not isinstance(label, str):
            raise SchemaError(f"{what} labels must be strings")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{what}[{label!r}] must be a number")
        out[label] = float(value)
    return out


def _coerce_component(rec: Mapping) -> ComponentSpec:
    cid = _need_str(rec, "id", "component")
    what = f"component {cid!r}"
    _check_keys(rec, _COMPONENT_KEYS, what)
    kind = _need_str(rec, "kind", what)
    clean = _opt_number(rec, "clean_cost_gflops", what, 0.0)
    return ComponentSpec(
        id=cid,
        kind=kind,
        clean_cost=clean,
        adv_cost=_opt_number(rec, "adv_cost_gflops", what, clean),
        device_rate=_opt_number(rec, "device_rate_gflops_s", what, 1.0),
        per_call_overhead=_opt_number(rec, "per_call_overhead_s", what, 0.0),
        batchable=_opt_bool(rec, "batchable", what, True),
    )


def _coerce_profile(rec: Mapping) -> BehaviorProfile:
    comp = _need_str(rec, "component", "profile")
    what = f"profile for {comp!r}"
    _check_keys(rec, _PROFILE_KEYS, what)
    clean = _card_map(rec.get("clean_cardinality", {}), f"{what}.clean_cardinality")
    adv_raw = _need_mapping(rec.get("adv_cardinality", {}), f"{what}.adv_cardinality")
    adv: dict[str, Any] = {}
    for label, value in adv_raw.items():
        if not isinstance(label, str):
            raise SchemaError(f"{what}.adv_cardinality labels must be strings")
        if isinstance(value, Mapping):
            adv[label] = _card_map(value, f"{what}.adv_cardinality[{label!r}]")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(
                f"{what}.adv_cardinality[{label!r}] must be a number or mapping"
            )
        else:
            adv[label] = float(value)
    return BehaviorProfile(component=comp, clean_cardinality=clean, adv_cardinality=adv)


def _coerce_gate(rec: Mapping) -> GateSpec:
    comp = _need_str(rec, "component", "gate")
    what = f"gate for {comp!r}"
    _check_keys(rec, _GATE_KEYS, what)
    routes_raw = _need_mapping(rec.get("routes", {}), f"{what}.routes")
    routes: dict[str, str] = {}
    for label, target in routes_raw.items():
        if not isinstance(label, str) or not isinstance(target, str):
            raise SchemaError(f"{what}.routes entries must map string to string")
        routes[label] = target
    return GateSpec(component=comp, routes=routes)


def _coerce_edge(rec: Mapping) -> EdgeSpec:
    what = "edge"
    _check_keys(rec, _EDGE_KEYS, what)
    from_id = _need_str(rec, "from", what)
    to_id = _need_str(rec, "to", what)
    label = _need_str(rec, "label", what)
    what = f"edge {from_id}:{label}"
    capacity_raw = rec.get("capacity", UNBOUNDED)
    capacity: int | None
    if capacity_raw is None or capacity_raw == UNBOUNDED:
        capacity = None
    elif isinstance(capacity_raw, bool) or not isinstance(capacity_raw, int):
        raise SchemaError(f"{what}.capacity must be an integer or 'unbounded'")
    else:
        capacity = capacity_raw
    return EdgeSpec(from_id=from_id, to_id=to_id, label=label, capacity=capacity)


# ---------------------------------------------------------------------------
# Graph construction and validation
# ---------------------------------------------------------------------------


def _check_finite_nonneg(value: float, what: str) -> None:
    if not math.isfinite(value) or value < 0:
        raise BadValueError(f"{what} must be finite and >= 0, got {value}")


def _check_no_separator(value: str, what: str) -> None:
    # Path ids join steps with "->" and component and label with ":", as do
    # "from:label" edge keys; barring both keeps every id readable one way.
    if ":" in value or "->" in value:
        raise BadValueError(f"{what} {value!r} must not contain ':' or '->'")


def _validate_component(spec: ComponentSpec) -> None:
    if spec.kind not in _KINDS:
        raise BadValueError(
            f"component {spec.id!r}: kind must be one of {_KINDS}, got {spec.kind!r}"
        )
    _check_finite_nonneg(spec.clean_cost, f"component {spec.id!r} clean cost")
    _check_finite_nonneg(spec.adv_cost, f"component {spec.id!r} adversarial cost")
    _check_finite_nonneg(spec.per_call_overhead, f"component {spec.id!r} overhead")
    if not math.isfinite(spec.device_rate) or spec.device_rate <= 0:
        raise BadValueError(
            f"component {spec.id!r}: device rate must be > 0, got {spec.device_rate}"
        )
    if spec.kind == NON_NEURAL and (spec.clean_cost != 0 or spec.adv_cost != 0):
        raise BadValueError(
            f"component {spec.id!r}: non-neural components must have zero cost"
        )
    if spec.clean_cost == 0 and spec.adv_cost > 0:
        # Unbounded multiplicative amplification is rejected as a modeling error.
        raise BadValueError(
            f"component {spec.id!r}: adversarial cost > 0 with zero clean cost"
        )
    if spec.id == EXIT:
        raise BadValueError(f"{EXIT!r} is reserved and cannot be a component id")
    _check_no_separator(spec.id, "component id")


def _validate_profile(profile: BehaviorProfile, routes: Mapping[str, str]) -> None:
    comp = profile.component
    for label, mean in profile.clean_cardinality.items():
        _check_finite_nonneg(mean, f"profile {comp!r} clean cardinality [{label!r}]")
        if label not in routes:
            raise DanglingReferenceError(
                f"profile {comp!r} references label {label!r} absent from its gate"
            )
    for target_label, entry in profile.adv_cardinality.items():
        if target_label not in routes:
            raise DanglingReferenceError(
                f"profile {comp!r} targets label {target_label!r} absent from its gate"
            )
        entries = entry.items() if isinstance(entry, Mapping) else [(target_label, entry)]
        for label, mean in entries:
            _check_finite_nonneg(
                mean, f"profile {comp!r} adversarial cardinality [{label!r}]"
            )
            if label not in routes:
                raise DanglingReferenceError(
                    f"profile {comp!r} references label {label!r} absent from its gate"
                )


def _kahn_order(
    components: Mapping[str, ComponentSpec], edges: dict[tuple[str, str], EdgeSpec]
) -> tuple[str, ...]:
    """One iterative pass of Kahn's algorithm, ties broken by id.

    Raises:
        CycleError: some components never become ready; one cycle among
            them is named.
    """
    indegree = dict.fromkeys(components, 0)
    successors: dict[str, list[str]] = {cid: [] for cid in components}
    for edge in edges.values():
        indegree[edge.to_id] += 1
        successors[edge.from_id].append(edge.to_id)
    ready = [cid for cid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        cid = heapq.heappop(ready)
        order.append(cid)
        for succ in successors[cid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) == len(components):
        return tuple(order)
    # Every left-over component has a left-over predecessor, so walking
    # predecessors from any of them must revisit one: that closes a cycle.
    predecessor: dict[str, str] = {}
    for edge in edges.values():
        if indegree[edge.from_id] and indegree[edge.to_id]:
            predecessor.setdefault(edge.to_id, edge.from_id)
    walk: list[str] = []
    seen: dict[str, int] = {}
    node = min(cid for cid, deg in indegree.items() if deg)
    while node not in seen:
        seen[node] = len(walk)
        walk.append(node)
        node = predecessor[node]
    cycle = [node] + walk[seen[node] + 1:][::-1] + [node]
    raise CycleError("cycle detected: " + " -> ".join(cycle))


def build_graph(raw: Mapping) -> PipelineGraph:
    """Build and fully validate a :class:`PipelineGraph` from a parsed document.

    ``raw`` is the structured spec document (the mapping produced by the
    scenario-io parser, or an equivalent literal in tests). Scenario and
    config sections are tolerated and ignored here.

    Raises:
        SchemaError: malformed record shapes.
        DuplicateIdError / DanglingReferenceError / BadValueError /
        NoSourceError / CycleError: violated graph invariants.
    """
    doc = _need_mapping(raw, "pipeline document")
    unknown = set(doc) - _PIPELINE_KEYS - _EXTRA_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")

    components: dict[str, ComponentSpec] = {}
    for rec in _section(doc, "components"):
        spec = _coerce_component(_need_mapping(rec, "component record"))
        _validate_component(spec)
        if spec.id in components:
            raise DuplicateIdError(f"duplicate component id {spec.id!r}")
        components[spec.id] = spec
    if not components:
        raise NoSourceError("pipeline declares no components")

    gates: dict[str, GateSpec] = {}
    for rec in _section(doc, "gates"):
        gate = _coerce_gate(_need_mapping(rec, "gate record"))
        if gate.component not in components:
            raise DanglingReferenceError(
                f"gate declared for unknown component {gate.component!r}"
            )
        if gate.component in gates:
            raise DuplicateIdError(f"duplicate gate for component {gate.component!r}")
        for label, target in gate.routes.items():
            _check_no_separator(label, f"gate {gate.component!r} label")
            if target != EXIT and target not in components:
                raise DanglingReferenceError(
                    f"gate {gate.component!r} routes {label!r} to unknown id {target!r}"
                )
        gates[gate.component] = gate

    edges: dict[tuple[str, str], EdgeSpec] = {}
    for rec in _section(doc, "edges"):
        edge = _coerce_edge(_need_mapping(rec, "edge record"))
        for endpoint in (edge.from_id, edge.to_id):
            if endpoint not in components:
                raise DanglingReferenceError(
                    f"edge {edge.key} references unknown component {endpoint!r}"
                )
        if (edge.from_id, edge.label) in edges:
            raise DuplicateIdError(f"duplicate edge {edge.key}")
        if edge.capacity is not None and edge.capacity < 1:
            raise BadValueError(f"edge {edge.key}: capacity must be positive")
        edges[(edge.from_id, edge.label)] = edge

    # Gate routes and edges must agree in both directions so that path
    # enumeration, propagation, and the simulator all see the same topology.
    for gate in gates.values():
        for label, target in gate.routes.items():
            if target == EXIT:
                continue
            edge = edges.get((gate.component, label))
            if edge is None:
                raise DanglingReferenceError(
                    f"gate {gate.component!r} routes {label!r} to {target!r} "
                    f"but no edge {gate.component}:{label} exists"
                )
            if edge.to_id != target:
                raise DanglingReferenceError(
                    f"edge {edge.key} targets {edge.to_id!r} but the gate routes "
                    f"{label!r} to {target!r}"
                )
    for edge in edges.values():
        routed = gates.get(edge.from_id)
        if routed is None or routed.routes.get(edge.label) != edge.to_id:
            raise DanglingReferenceError(
                f"edge {edge.key} has no matching gate route on {edge.from_id!r}"
            )

    profiles: dict[str, BehaviorProfile] = {}
    for rec in _section(doc, "profiles"):
        profile = _coerce_profile(_need_mapping(rec, "profile record"))
        if profile.component not in components:
            raise DanglingReferenceError(
                f"profile declared for unknown component {profile.component!r}"
            )
        if profile.component in profiles:
            raise DuplicateIdError(
                f"duplicate profile for component {profile.component!r}"
            )
        profiles[profile.component] = profile
    for cid in components:
        profile = profiles.get(cid)
        if profile is None:
            # Exactly one profile per component: omitted profiles are
            # synthesized empty (components that emit nothing).
            profiles[cid] = BehaviorProfile(component=cid)
        else:
            routes = gates[cid].routes if cid in gates else {}
            _validate_profile(profile, routes)

    # Acyclicity first: a cycle through the source would otherwise
    # misreport as an inbound-edge violation.
    order = _kahn_order(components, edges)

    if "source" not in doc:
        raise NoSourceError("pipeline document does not declare a source")
    source = doc["source"]
    if not isinstance(source, str) or source not in components:
        raise NoSourceError(f"source {source!r} is not a declared component")
    inbound = [e.key for e in edges.values() if e.to_id == source]
    if inbound:
        raise NoSourceError(
            f"source {source!r} has inbound edge(s): {', '.join(sorted(inbound))}"
        )

    return PipelineGraph(
        components=dict(sorted(components.items())),
        profiles=dict(sorted(profiles.items())),
        gates=dict(sorted(gates.items())),
        edges=dict(sorted(edges.items())),
        source=source,
        order=order,
    )


def topological_order(graph: PipelineGraph) -> list[str]:
    """Component ids with every edge pointing forward; ties broken by id.

    The order is decided once, by :func:`build_graph`; this reads it.
    """
    return list(graph.order)
