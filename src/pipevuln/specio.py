"""Spec-document parsing and report emission.

Two input formats are accepted:

* a YAML document with top-level sections ``components``, ``profiles``,
  ``gates``, ``edges``, ``source`` and optional ``scenarios``, ``configs``,
  ``calibration``;
* line-delimited JSON where each line is one record tagged with a ``type``
  key (``component``, ``profile``, ``gate``, ``edge``, ``source``,
  ``scenario``, ``config``, ``calibration``).

Both formats parse to the same graph, scenarios and configs. Reports embed
a SHA-256 digest of the input bytes so published tables are traceable to
exact inputs; re-running the same command on the same spec yields
byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import yaml

from . import __version__
from .errors import (
    BadValueError,
    NoSuchPathError,
    SchemaError,
    SyntaxParseError,
    UnresolvedReferenceError,
)
from .model import PipelineGraph, build_graph
from .ranking import resolve_path
from .simulate import (
    Attenuation,
    ConfidenceFilter,
    DeploymentConfig,
    InputFilter,
    TrafficScenario,
    BACK_TO_BACK,
    FIXED_INTERVAL,
)

_SCENARIO_KEYS = {"n_inputs", "mix", "target_path", "arrival", "seed"}
_CONFIG_KEYS = {
    "batch", "buffers", "confidence", "attenuation",
    "input_filter", "path_budgets", "device_model",
}
_RECORD_TYPES = {
    "component", "profile", "gate", "edge",
    "source", "scenario", "config", "calibration",
}


@dataclass(frozen=True)
class SpecDocument:
    """A fully resolved spec: validated graph plus named scenarios/configs."""

    graph: PipelineGraph
    scenarios: dict[str, TrafficScenario]
    configs: dict[str, DeploymentConfig]
    calibration: str
    digest: str


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _looks_like_jsonl(text: str) -> bool:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not all(line.startswith("{") for line in lines):
        return False
    # Flow-style YAML is brace-shaped too; only typed JSON records take the
    # line-delimited path, so their diagnostics carry line numbers.
    try:
        first = json.loads(lines[0])
    except json.JSONDecodeError:
        return False
    return isinstance(first, dict) and "type" in first


# libyaml's loader where PyYAML was built with it: same documents, 5-10x faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(text: str) -> dict:
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise SyntaxParseError(f"invalid YAML: {exc}") from exc
    if doc is None:
        raise SyntaxParseError("empty spec document")
    if not isinstance(doc, Mapping):
        raise SyntaxParseError("spec document must be a mapping at top level")
    return dict(doc)


def _load_jsonl(text: str) -> dict:
    doc: dict[str, Any] = {
        "components": [], "profiles": [], "gates": [], "edges": [],
        "scenarios": {}, "configs": {},
    }
    saw_source = False
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SyntaxParseError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise SyntaxParseError(f"line {lineno}: record must be an object")
        rtype = record.pop("type", None)
        if rtype not in _RECORD_TYPES:
            raise SchemaError(f"line {lineno}: unknown record type {rtype!r}")
        if rtype == "component":
            doc["components"].append(record)
        elif rtype == "profile":
            doc["profiles"].append(record)
        elif rtype == "gate":
            doc["gates"].append(record)
        elif rtype == "edge":
            doc["edges"].append(record)
        elif rtype == "source":
            doc["source"] = record.get("id")
            saw_source = True
        elif rtype == "calibration":
            doc["calibration"] = record.get("text", "")
        else:  # scenario / config
            name = record.pop("name", None)
            if not isinstance(name, str) or not name:
                raise SchemaError(f"line {lineno}: {rtype} record needs a name")
            section = doc["scenarios"] if rtype == "scenario" else doc["configs"]
            if name in section:
                raise SchemaError(f"line {lineno}: duplicate {rtype} name {name!r}")
            section[name] = record
    if not saw_source and "source" not in doc:
        doc.pop("source", None)
    return doc


def _num(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number")
    return float(value)


def _coerce_scenario(name: str, rec: Mapping) -> TrafficScenario:
    what = f"scenario {name!r}"
    if not isinstance(rec, Mapping):
        raise SchemaError(f"{what} must be a mapping")
    unknown = set(rec) - _SCENARIO_KEYS
    if unknown:
        raise SchemaError(f"{what} has unknown key(s): {', '.join(sorted(unknown))}")
    if "n_inputs" not in rec:
        raise SchemaError(f"{what} is missing n_inputs")
    n_inputs = rec["n_inputs"]
    if isinstance(n_inputs, bool) or not isinstance(n_inputs, int):
        raise SchemaError(f"{what}.n_inputs must be an integer")
    arrival = rec.get("arrival", BACK_TO_BACK)
    interval = 0.0
    if not isinstance(arrival, str):
        raise SchemaError(f"{what}.arrival is malformed")
    if arrival.startswith(FIXED_INTERVAL + ":"):
        try:
            interval = float(arrival.split(":", 1)[1])
        except ValueError as exc:
            raise SchemaError(f"{what}.arrival has a bad interval") from exc
        arrival = FIXED_INTERVAL
    elif arrival != BACK_TO_BACK:
        raise SchemaError(f"{what}.arrival must be 'back-to-back' or "
                          f"'fixed-interval:<seconds>'")
    target = rec.get("target_path")
    if target is not None and not isinstance(target, str):
        raise SchemaError(f"{what}.target_path must be a string or null")
    seed = rec.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaError(f"{what}.seed must be an integer")
    scenario = TrafficScenario(
        n_inputs=n_inputs,
        mix=_num(rec.get("mix", 0.0), f"{what}.mix"),
        target_path=target,
        arrival=arrival,
        interval_s=interval,
        seed=seed,
    )
    scenario.validate()
    return scenario


def _coerce_int_map(raw: Any, what: str, allow_unbounded: bool) -> dict:
    if not isinstance(raw, Mapping):
        raise SchemaError(f"{what} must be a mapping")
    out: dict[str, int | None] = {}
    for key, value in raw.items():
        if not isinstance(key, str):
            raise SchemaError(f"{what} keys must be strings")
        if allow_unbounded and (value is None or value == "unbounded"):
            out[key] = None
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{what}[{key!r}] must be an integer")
        out[key] = value
    return out


def _coerce_config(name: str, rec: Mapping) -> DeploymentConfig:
    what = f"config {name!r}"
    if not isinstance(rec, Mapping):
        raise SchemaError(f"{what} must be a mapping")
    unknown = set(rec) - _CONFIG_KEYS
    if unknown:
        raise SchemaError(f"{what} has unknown key(s): {', '.join(sorted(unknown))}")
    confidence = None
    if rec.get("confidence") is not None:
        block = rec["confidence"]
        if not isinstance(block, Mapping) or set(block) - {"clean", "adversarial"}:
            raise SchemaError(f"{what}.confidence must map clean/adversarial tables")
        def table(key: str) -> dict[str, float]:
            sub = block.get(key, {})
            if not isinstance(sub, Mapping):
                raise SchemaError(f"{what}.confidence.{key} must be a mapping")
            return {k: _num(v, f"{what}.confidence.{key}[{k!r}]")
                    for k, v in sub.items()}
        confidence = ConfidenceFilter(clean=table("clean"),
                                      adversarial=table("adversarial"))
    attenuation = None
    if rec.get("attenuation") is not None:
        block = rec["attenuation"]
        if not isinstance(block, Mapping) or set(block) - {"factor", "residual_floor"}:
            raise SchemaError(f"{what}.attenuation must declare factor/residual_floor")
        attenuation = Attenuation(
            factor=_num(block.get("factor", 1.0), f"{what}.attenuation.factor"),
            residual_floor=_num(
                block.get("residual_floor", 0.0), f"{what}.attenuation.residual_floor"
            ),
        )
    input_filter = None
    if rec.get("input_filter") is not None:
        block = rec["input_filter"]
        if not isinstance(block, Mapping) or set(block) - {"p_detect", "action"}:
            raise SchemaError(f"{what}.input_filter must declare p_detect/action")
        action = block.get("action", "drop-input")
        if not isinstance(action, str):
            raise SchemaError(f"{what}.input_filter.action must be a string")
        input_filter = InputFilter(
            p_detect=_num(block.get("p_detect", 0.0), f"{what}.input_filter.p_detect"),
            action=action,
        )
    budgets_raw = rec.get("path_budgets", {})
    if not isinstance(budgets_raw, Mapping):
        raise SchemaError(f"{what}.path_budgets must be a mapping")
    budgets = {k: _num(v, f"{what}.path_budgets[{k!r}]")
               for k, v in budgets_raw.items()}
    device_model = rec.get("device_model", "per-component-server")
    if not isinstance(device_model, str):
        raise SchemaError(f"{what}.device_model must be a string")
    config = DeploymentConfig(
        batch=_coerce_int_map(rec.get("batch", {}), f"{what}.batch", False),
        buffers=_coerce_int_map(rec.get("buffers", {}), f"{what}.buffers", True),
        confidence=confidence,
        attenuation=attenuation,
        input_filter=input_filter,
        path_budgets=budgets,
        device_model=device_model,
    )
    config.validate()
    return config


def _is_path(graph: PipelineGraph, path_id: str) -> bool:
    try:
        resolve_path(graph, path_id)
    except NoSuchPathError:
        return False
    return True


def _check_references(
    graph: PipelineGraph,
    scenarios: Mapping[str, TrafficScenario],
    configs: Mapping[str, DeploymentConfig],
) -> None:
    edge_keys = {e.key for e in graph.edges.values()}
    for name, scenario in scenarios.items():
        target = scenario.target_path
        if target is not None and not _is_path(graph, target):
            raise UnresolvedReferenceError(
                f"scenario {name!r} targets unknown path {target!r}"
            )
    for name, config in configs.items():
        for key in config.batch:
            if key != "default" and key not in graph.components:
                raise UnresolvedReferenceError(
                    f"config {name!r} batches unknown component {key!r}"
                )
        for key in config.buffers:
            if key != "default" and key not in edge_keys:
                raise UnresolvedReferenceError(
                    f"config {name!r} buffers unknown edge {key!r}"
                )
        for pid in config.path_budgets:
            if not _is_path(graph, pid):
                raise UnresolvedReferenceError(
                    f"config {name!r} budgets unknown path {pid!r}"
                )


def parse_spec(data: bytes | str) -> SpecDocument:
    """Parse, build, and fully resolve a spec document.

    Raises E_SYNTAX for unreadable input, E_SCHEMA for malformed records,
    E_REF for names that do not resolve against the built graph, and the
    graph-validation errors of :func:`pipevuln.model.build_graph`.
    """
    if isinstance(data, bytes):
        raw_bytes = data
        text = data.decode("utf-8", errors="replace")
    else:
        raw_bytes = data.encode("utf-8")
        text = data
    if not text.strip():
        raise SyntaxParseError("empty spec document")
    doc = _load_jsonl(text) if _looks_like_jsonl(text) else _load_yaml(text)

    graph = build_graph(doc)

    scenarios_raw = doc.get("scenarios", {}) or {}
    configs_raw = doc.get("configs", {}) or {}
    if not isinstance(scenarios_raw, Mapping):
        raise SchemaError("scenarios section must be a mapping of names to records")
    if not isinstance(configs_raw, Mapping):
        raise SchemaError("configs section must be a mapping of names to records")
    scenarios = {
        name: _coerce_scenario(name, rec) for name, rec in scenarios_raw.items()
    }
    configs = {name: _coerce_config(name, rec) for name, rec in configs_raw.items()}
    _check_references(graph, scenarios, configs)

    calibration = doc.get("calibration", "") or ""
    if not isinstance(calibration, str):
        raise SchemaError("calibration section must be free text")

    return SpecDocument(
        graph=graph,
        scenarios=scenarios,
        configs=configs,
        calibration=calibration,
        digest=_digest(raw_bytes),
    )


def parse_spec_file(path: str) -> SpecDocument:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SyntaxParseError(f"cannot read spec file {path!r}: {exc}") from exc
    return parse_spec(data)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def build_report(
    spec: SpecDocument,
    command: str,
    params: Mapping[str, Any],
    results: Mapping[str, Any],
) -> dict:
    """Assemble a traceable report document.

    The report carries the tool version, the input digest, the invoked
    command and parameters, the result tables, and the spec's calibration
    provenance block verbatim.
    """
    return {
        "tool": "pipevuln",
        "version": __version__,
        "spec_digest": spec.digest,
        "command": command,
        "params": dict(sorted(params.items())),
        "results": results,
        "calibration": spec.calibration,
    }


def report_to_json(report: Mapping) -> str:
    """The report as JSON; a non-finite number in it is ``BadValueError``
    (RFC 8259 has no NaN or Infinity)."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise BadValueError(f"report is not valid JSON: {exc}") from None
