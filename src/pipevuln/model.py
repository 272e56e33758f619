"""Cost-annotated pipeline DAG: components, behavior profiles, gates, edges.

The graph built here is the shared input of every analysis stage: analytic
workload propagation, path ranking, and the deployment simulator all consume
the same validated structure. ``build_graph`` performs full validation; a
built ``PipelineGraph`` is immutable by convention and safe to share across
concurrent readers.

The module also holds the scenario, config and defense records that a
simulation runs under, and the readers of every record.

Gate semantics: each component may own one gate mapping emitted labels to a
downstream component or to the reserved sink ``EXIT``. A label routed to
``EXIT`` terminates that item at zero further cost. A component without a
gate (or with an empty route table) terminates every item it processes.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Container, Mapping
from functools import partial
from typing import Any, NamedTuple

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

#: The default of a mapping field; :func:`_record_class` hands out a new ``{}``.
_FRESH: dict = {}


def _record_class(cls: type) -> type:
    """``cls``, a NamedTuple class, made to give a record built without a
    mapping field its own ``{}`` in place of :data:`_FRESH`, and to run
    ``cls._check``, if it has one, on every record built: by the constructor,
    by ``_make`` and so by ``_replace``."""
    build, check = cls.__new__, getattr(cls, "_check", None)

    def new(klass, *args, **kwargs):
        self = build(klass, *args, **kwargs)
        if any(value is _FRESH for value in self):
            self = tuple.__new__(klass, [{} if v is _FRESH else v for v in self])
        if check is not None:
            check(self)
        return self

    cls.__new__ = new
    cls._make = classmethod(lambda klass, values: new(klass, *values))
    return cls


@_record_class
class ComponentSpec(NamedTuple):
    """One pipeline stage and its declared cost model.

    Costs are giga-FLOPs per processed item; ``device_rate`` is the
    giga-FLOPs per second of the device executing this component and
    ``per_call_overhead`` the fixed dispatch cost of one service call.
    Non-neural components must declare zero compute cost (they may still
    carry per-call overhead, e.g. an external service round trip). A
    component checks its values when built.
    """

    id: str
    kind: str
    clean_cost: float = 0.0
    adv_cost: float = 0.0
    device_rate: float = 1.0
    per_call_overhead: float = 0.0
    batchable: bool = True

    def _check(self) -> None:
        what = f"component {self.id!r}"
        if self.kind not in _KINDS:
            raise BadValueError(
                f"{what}: kind must be one of {_KINDS}, got {self.kind!r}")
        _check_finite_nonneg(self.clean_cost, f"{what} clean cost")
        _check_finite_nonneg(self.adv_cost, f"{what} adversarial cost")
        _check_finite_nonneg(self.per_call_overhead, f"{what} overhead")
        if not math.isfinite(self.device_rate) or self.device_rate <= 0:
            raise BadValueError(
                f"{what}: device rate must be > 0, got {self.device_rate}")
        if self.kind == NON_NEURAL and (self.clean_cost != 0 or self.adv_cost != 0):
            raise BadValueError(f"{what}: non-neural components must have zero cost")
        if self.clean_cost == 0 and self.adv_cost > 0:
            # Unbounded multiplicative amplification is rejected as a modeling error.
            raise BadValueError(f"{what}: adversarial cost > 0 with zero clean cost")
        if self.id == EXIT:
            raise BadValueError(f"{EXIT!r} is reserved and cannot be a component id")
        _check_no_separator(self.id, "component id")


@_record_class
class BehaviorProfile(NamedTuple):
    """Per-component emission cardinalities.

    ``clean_cardinality`` maps emitted label -> mean items per invocation
    under clean input. ``adv_cardinality`` maps a *target* label to the
    full label -> mean emission when inputs are adversarially steered
    toward that label; a label it leaves out emits nothing. A spec may give
    a flat number ``n`` for target ``t``; it is stored as ``{t: n}`` (the
    target label alone, every other label suppressed). A target label
    absent from ``adv_cardinality`` means the component is not steerable
    toward it and behaves per its clean profile.
    """

    component: str
    clean_cardinality: Mapping[str, float] = _FRESH
    adv_cardinality: Mapping[str, Mapping[str, float]] = _FRESH


@_record_class
class GateSpec(NamedTuple):
    """Routing table of one component: emitted label -> component id or EXIT."""

    component: str
    routes: Mapping[str, str] = _FRESH


class EdgeSpec(NamedTuple):
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


class PipelineGraph(NamedTuple):
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


DROP_INPUT = "drop-input"
TREAT_AS_CLEAN = "treat-as-clean"

PER_COMPONENT_SERVER = "per-component-server"
SHARED_SINGLE_DEVICE = "shared-single-device"


@_record_class
class TrafficScenario(NamedTuple):
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

    def _check(self) -> None:
        if self.n_inputs < 1:
            raise BadValueError("scenario: n_inputs must be >= 1")
        if not 0.0 <= self.mix <= 1.0:
            raise BadValueError("scenario: mix must be within [0, 1]")
        if self.mix > 0 and not self.target_path:
            raise BadValueError("scenario: adversarial mix requires a target_path")
        if not (math.isfinite(self.interval_s) and self.interval_s >= 0):
            raise BadValueError("scenario: fixed-interval needs a nonnegative interval")


def _with_default(table: Mapping, key: str, fallback):
    """``table[key]``, else its ``default`` entry, else ``fallback``; a
    configured ``None`` is kept."""
    return table[key] if key in table else table.get("default", fallback)


@_record_class
class ConfidenceFilter(NamedTuple):
    """Survival fractions for emitted detections, by label and taint.

    Lookup falls back to the ``default`` key and then to 1.0 (keep all).
    """

    clean: Mapping[str, float] = _FRESH
    adversarial: Mapping[str, float] = _FRESH

    def survival(self, label: str, adversarial: bool) -> float:
        return _with_default(self.adversarial if adversarial else self.clean,
                             label, 1.0)

    def _check(self) -> None:
        for table in (self.clean, self.adversarial):
            for label, fraction in table.items():
                if not 0.0 <= fraction <= 1.0:
                    raise BadValueError(
                        f"confidence survival for {label!r} must be within [0, 1]"
                    )


@_record_class
class Attenuation(NamedTuple):
    """Input-preprocessing model: damps adversarial emission means.

    The effective mean is ``min(adv, max(factor * adv, floor * clean))`` —
    the perturbation's gain is scaled down by ``factor`` but a residual of
    ``residual_floor`` times the clean cardinality survives preprocessing.
    """

    factor: float = 1.0
    residual_floor: float = 0.0

    def _check(self) -> None:
        if not 0.0 <= self.factor <= 1.0:
            raise BadValueError("attenuation factor must be within [0, 1]")
        if not (math.isfinite(self.residual_floor) and self.residual_floor >= 0):
            raise BadValueError("attenuation residual floor must be finite and >= 0")


@_record_class
class InputFilter(NamedTuple):
    """Probabilistic adversarial-input detector at the pipeline entrance.

    Detection is a per-input Bernoulli with ``p_detect``; clean inputs
    always pass. Detected inputs are either dropped outright or admitted
    with clean behavior, and count toward the filtered total either way.
    """

    p_detect: float = 0.0
    action: str = DROP_INPUT

    def _check(self) -> None:
        if not 0.0 <= self.p_detect <= 1.0:
            raise BadValueError("input filter p_detect must be within [0, 1]")
        if self.action not in (DROP_INPUT, TREAT_AS_CLEAN):
            raise BadValueError(f"unknown input filter action {self.action!r}")


@_record_class
class DeploymentConfig(NamedTuple):
    """Deployment knobs: batching, buffering, and defense parameters.

    ``batch`` and ``buffers`` accept a ``default`` key plus per-component /
    per-edge (``"from:label"``) overrides; configured buffer capacities
    override the graph's edge capacities. ``path_budgets`` caps the
    cumulative items forwarded on every edge of a path at ``budget *
    n_inputs`` (routing-layer defense); budget-rejected arrivals count as
    drops on that edge. A config checks its own values when built; its
    defense records checked theirs when they were built.
    """

    batch: Mapping[str, int] = _FRESH
    buffers: Mapping[str, int | None] = _FRESH
    confidence: ConfidenceFilter | None = None
    attenuation: Attenuation | None = None
    input_filter: InputFilter | None = None
    path_budgets: Mapping[str, float] = _FRESH
    device_model: str = PER_COMPONENT_SERVER

    def _check(self) -> None:
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
        return _with_default(self.batch, component, 1)

    def buffer_capacity(self, edge_key: str, graph_capacity: int | None) -> int | None:
        return _with_default(self.buffers, edge_key, graph_capacity)


# ---------------------------------------------------------------------------
# Record coercion (raw mappings -> typed records)
# ---------------------------------------------------------------------------

_PIPELINE_KEYS = {"components", "profiles", "gates", "edges", "source"}
# Sections read elsewhere; tolerated so a whole document can be passed.
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


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number")
    return float(value)


def _integer(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer")
    return value


def _capacity(value: Any, what: str) -> int | None:
    """An item count, or ``None`` (no limit) for null or ``unbounded``."""
    if value is None or value == UNBOUNDED:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer or 'unbounded'")
    return value


def _boolean(value: Any, what: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{what} must be a boolean")
    return value


def _string(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string")
    return value


def _given(rec: Mapping, what: str, readers: Mapping) -> dict[str, Any]:
    """``readers`` (spec key -> ``(field, reader)``) applied to the keys that
    ``rec`` gives; a key left out is not passed, so its record default holds."""
    return {name: read(rec[key], f"{what}.{key}")
            for key, (name, read) in readers.items() if key in rec}


def _check_keys(rec: Mapping, allowed: Container[str], what: str) -> None:
    unknown = {key for key in rec if key not in allowed}
    if unknown:
        names = ", ".join(sorted(map(str, unknown)))
        raise SchemaError(f"{what} has unknown key(s): {names}")


def _card_map(obj: Any, what: str, read: Callable[[Any, str], Any] = _number) -> dict:
    """``obj`` as a mapping of string keys to values read by ``read``."""
    mapping = _need_mapping(obj, what)
    out = {}
    for key, value in mapping.items():
        if not isinstance(key, str):
            raise SchemaError(f"{what} keys must be strings")
        out[key] = read(value, f"{what}[{key!r}]")
    return out


#: Optional component keys: spec key -> (ComponentSpec field, reader).
_COMPONENT_FIELDS = {
    "clean_cost_gflops": ("clean_cost", _number),
    "adv_cost_gflops": ("adv_cost", _number),
    "device_rate_gflops_s": ("device_rate", _number),
    "per_call_overhead_s": ("per_call_overhead", _number),
    "batchable": ("batchable", _boolean),
}
_COMPONENT_KEYS = {"id", "kind", *_COMPONENT_FIELDS}


def _coerce_component(rec: Mapping) -> ComponentSpec:
    cid = _need_str(rec, "id", "component")
    what = f"component {cid!r}"
    _check_keys(rec, _COMPONENT_KEYS, what)
    kind = _need_str(rec, "kind", what)
    fields = _given(rec, what, _COMPONENT_FIELDS)
    # A missing adversarial cost equals the clean cost.
    fields.setdefault("adv_cost", fields.get("clean_cost", 0.0))
    return ComponentSpec(cid, kind, **fields)


def _adv_cardinality(obj: Any, what: str) -> dict[str, dict[str, float]]:
    """Target label -> emission table; a flat number ``n`` for target ``t``
    reads as ``{t: n}`` (``BehaviorProfile``)."""
    adv = {}
    for label, value in _need_mapping(obj, what).items():
        if not isinstance(label, str):
            raise SchemaError(f"{what} labels must be strings")
        if not isinstance(value, Mapping):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"{what}[{label!r}] must be a number or mapping")
            value = {label: value}
        adv[label] = _card_map(value, f"{what}[{label!r}]")
    return adv


def _routes(obj: Any, what: str) -> dict[str, str]:
    routes = {}
    for label, target in _need_mapping(obj, what).items():
        if not isinstance(label, str) or not isinstance(target, str):
            raise SchemaError(f"{what} entries must map string to string")
        routes[label] = target
    return routes


#: Optional profile, gate and edge keys: spec key -> (record field, reader).
_PROFILE_FIELDS = {
    "clean_cardinality": ("clean_cardinality", _card_map),
    "adv_cardinality": ("adv_cardinality", _adv_cardinality),
}
_PROFILE_KEYS = {"component", *_PROFILE_FIELDS}
_GATE_FIELDS = {"routes": ("routes", _routes)}
_GATE_KEYS = {"component", *_GATE_FIELDS}
_EDGE_FIELDS = {"capacity": ("capacity", _capacity)}
_EDGE_KEYS = {"from", "to", "label", *_EDGE_FIELDS}


def _coerce_profile(rec: Mapping) -> BehaviorProfile:
    comp = _need_str(rec, "component", "profile")
    what = f"profile for {comp!r}"
    _check_keys(rec, _PROFILE_KEYS, what)
    return BehaviorProfile(comp, **_given(rec, what, _PROFILE_FIELDS))


def _coerce_gate(rec: Mapping) -> GateSpec:
    comp = _need_str(rec, "component", "gate")
    what = f"gate for {comp!r}"
    _check_keys(rec, _GATE_KEYS, what)
    return GateSpec(comp, **_given(rec, what, _GATE_FIELDS))


def _coerce_edge(rec: Mapping) -> EdgeSpec:
    what = "edge"
    _check_keys(rec, _EDGE_KEYS, what)
    from_id = _need_str(rec, "from", what)
    to_id = _need_str(rec, "to", what)
    label = _need_str(rec, "label", what)
    what = f"edge {from_id}:{label}"
    return EdgeSpec(from_id, to_id, label, **_given(rec, what, _EDGE_FIELDS))


def _interval(arrival: Any, what: str) -> float:
    """The seconds between arrivals that an ``arrival`` string names."""
    if not isinstance(arrival, str):
        raise SchemaError(f"{what} is malformed")
    if arrival == "back-to-back":
        return 0.0
    if not arrival.startswith("fixed-interval:"):
        raise SchemaError(f"{what} must be 'back-to-back' or "
                          f"'fixed-interval:<seconds>'")
    try:
        return float(arrival.split(":", 1)[1])
    except ValueError as exc:
        raise SchemaError(f"{what} has a bad interval") from exc


def _path_id(value: Any, what: str) -> str | None:
    return None if value is None else _string(value, what)


def _record(cls: type, readers: Mapping, value: Any, what: str) -> Any:
    """``value`` read as a ``cls`` record, or ``None`` when it is null."""
    if value is None:
        return None
    _check_keys(_need_mapping(value, what), readers, what)
    return cls(**_given(value, what, readers))


# Reader tables, spec key -> (record field, reader), in reading order. The
# two arrival spellings end in ``_interval``: the record keeps the interval.
_SCENARIO = {
    "arrival": ("interval_s", _interval),
    "n_inputs": ("n_inputs", _integer),
    "mix": ("mix", _number),
    "target_path": ("target_path", _path_id),
    "seed": ("seed", _integer),
}
_confidence = partial(_record, ConfidenceFilter, {
    "clean": ("clean", _card_map),
    "adversarial": ("adversarial", _card_map),
})
_attenuation = partial(_record, Attenuation, {
    "factor": ("factor", _number),
    "residual_floor": ("residual_floor", _number),
})
_input_filter = partial(_record, InputFilter, {
    "p_detect": ("p_detect", _number),
    "action": ("action", _string),
})
_CONFIG = {
    "confidence": ("confidence", _confidence),
    "attenuation": ("attenuation", _attenuation),
    "input_filter": ("input_filter", _input_filter),
    "batch": ("batch", partial(_card_map, read=_integer)),
    "buffers": ("buffers", partial(_card_map, read=_capacity)),
    "path_budgets": ("path_budgets", _card_map),
    "device_model": ("device_model", _string),
}


def _coerce_scenario(name: str, rec: Any) -> TrafficScenario:
    what = f"scenario {name!r}"
    _check_keys(_need_mapping(rec, what), _SCENARIO, what)
    if "n_inputs" not in rec:
        raise SchemaError(f"{what} is missing n_inputs")
    return TrafficScenario(**_given(rec, what, _SCENARIO))


def _coerce_config(name: str, rec: Any) -> DeploymentConfig:
    what = f"config {name!r}"
    # Unlike a defense sub-record, a config itself may not be null.
    return _record(DeploymentConfig, _CONFIG, _need_mapping(rec, what), what)


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
        for label, mean in entry.items():
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
    _check_keys(doc, _PIPELINE_KEYS | _EXTRA_KEYS, "pipeline document")

    components: dict[str, ComponentSpec] = {}
    for rec in _section(doc, "components"):
        spec = _coerce_component(_need_mapping(rec, "component record"))
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
