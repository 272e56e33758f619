"""Spec-document formats, reference checks and report emission.

Two input formats are accepted:

* a YAML document with top-level sections ``components``, ``profiles``,
  ``gates``, ``edges``, ``source`` and optional ``scenarios``, ``configs``,
  ``calibration``;
* line-delimited JSON where each line is one record tagged with a ``type``
  key (``component``, ``profile``, ``gate``, ``edge``, ``source``,
  ``scenario``, ``config``, ``calibration``).

Both formats parse to the same graph, scenarios and configs; their records
and readers are in :mod:`pipevuln.model`. Reports embed a SHA-256 digest of
the input bytes so published tables are traceable to exact inputs;
re-running the same command on the same spec yields byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Mapping
from typing import Any, NamedTuple

import yaml

from . import __version__
from .errors import (
    BadValueError,
    NoSuchPathError,
    SchemaError,
    SyntaxParseError,
    UnresolvedReferenceError,
)
from .model import (
    DeploymentConfig,
    PipelineGraph,
    TrafficScenario,
    _coerce_config,
    _coerce_scenario,
    build_graph,
)
from .ranking import resolve_path

_RECORD_TYPES = {
    "component", "profile", "gate", "edge",
    "source", "scenario", "config", "calibration",
}


class SpecDocument(NamedTuple):
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
    except RecursionError:
        return True  # too deep to decode: the JSON-lines reader reports it
    except json.JSONDecodeError:
        return False
    return isinstance(first, dict) and "type" in first


class _YAML_LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader (libyaml's where PyYAML has it: same documents, 5-10x
    faster) that rejects a mapping declaring a key twice. A node's own keys
    are checked once, before flattening merges its ``<<`` keys into it in
    place, so a merged key still yields to one declared beside it."""

    STR, MERGE = "tag:yaml.org,2002:str", "tag:yaml.org,2002:merge"

    def __init__(self, stream) -> None:
        super().__init__(stream)
        self._checked: set = set()

    def flatten_mapping(self, node) -> None:
        if node not in self._checked:
            self._checked.add(node)
            seen = set()
            for knode, _ in node.value:  # only scalars make hashable keys
                if isinstance(knode, yaml.ScalarNode) and knode.tag != self.MERGE:
                    key = knode.value  # a str key is its text
                    if knode.tag != self.STR:
                        key = self.construct_object(knode)
                    if key in seen:
                        line = knode.start_mark.line + 1
                        raise SchemaError(f"duplicate key {key!r} at line {line}")
                    seen.add(key)
        super().flatten_mapping(node)


#: The deepest YAML nesting read, in collections. libyaml's loader
#: recurses once per level and overflows the C stack near 30,000 levels.
_MAX_YAML_DEPTH = 1000
_OPENS = (yaml.MappingStartEvent, yaml.SequenceStartEvent)
_CLOSES = (yaml.MappingEndEvent, yaml.SequenceEndEvent)


def _check_depth(text: str) -> None:
    """Reject nesting past ``_MAX_YAML_DEPTH`` before libyaml loads it.

    A flow collection opens with a bracket or is a single pair inside one,
    and down a chain of block collections every second one starts at least
    a column further right. So twice the bracket count plus the longest
    line, plus one, bounds the depth, and only a text past the limit by
    that count has its events scanned, up to the first level too deep.
    """
    longest = max(map(len, text.splitlines()), default=0)
    if 2 * (text.count("[") + text.count("{") + longest) + 1 <= _MAX_YAML_DEPTH:
        return
    depth = 0
    for event in yaml.parse(text, Loader=_YAML_LOADER):
        if isinstance(event, _OPENS):
            depth += 1
            if depth > _MAX_YAML_DEPTH:
                raise SyntaxParseError(
                    f"invalid YAML: nested deeper than {_MAX_YAML_DEPTH} levels "
                    f"at line {event.start_mark.line + 1}"
                )
        elif isinstance(event, _CLOSES):
            depth -= 1


def _load_yaml(text: str) -> dict:
    try:
        _check_depth(text)
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, RecursionError) as exc:
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
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SyntaxParseError(f"line {lineno}: invalid JSON: {exc}") from exc
        rtype = record.pop("type", None)
        if rtype not in _RECORD_TYPES:
            raise SchemaError(f"line {lineno}: unknown record type {rtype!r}")
        if rtype in ("component", "profile", "gate", "edge"):
            doc[rtype + "s"].append(record)
        elif rtype == "source":
            doc["source"] = record.get("id")
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
    return doc


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
    labels = {"default"}.union(*(gate.routes for gate in graph.gates.values()))
    for name, scenario in scenarios.items():
        target = scenario.target_path
        if target is not None and not _is_path(graph, target):
            raise UnresolvedReferenceError(
                f"scenario {name!r} targets unknown path {target!r}"
            )
    for name, config in configs.items():
        for key, size in config.batch.items():
            if key != "default" and key not in graph.components:
                raise UnresolvedReferenceError(
                    f"config {name!r} batches unknown component {key!r}"
                )
            if key != "default" and size > 1 and not graph.components[key].batchable:
                raise BadValueError(
                    f"config {name!r} batches non-batchable component {key!r}"
                )
        for key in config.buffers:
            if key != "default" and key not in edge_keys:
                raise UnresolvedReferenceError(
                    f"config {name!r} buffers unknown edge {key!r}"
                )
        conf = config.confidence
        for key in [*conf.clean, *conf.adversarial] if conf else ():
            if key not in labels:
                raise UnresolvedReferenceError(
                    f"config {name!r} filters unknown label {key!r}"
                )
        for pid in config.path_budgets:
            if not _is_path(graph, pid):
                raise UnresolvedReferenceError(
                    f"config {name!r} budgets unknown path {pid!r}"
                )


def _named(doc: Mapping, section: str, what: str, coerce: Callable) -> dict:
    """The ``section`` mapping of names to records, each read by ``coerce``."""
    raw = doc.get(section, {}) or {}
    if not isinstance(raw, Mapping):
        raise SchemaError(f"{section} section must be a mapping of names to records")
    out = {}
    for name, rec in raw.items():
        if not isinstance(name, str):
            raise SchemaError(f"{what} name {name!r} must be a string")
        out[name] = coerce(name, rec)
    return out


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

    scenarios = _named(doc, "scenarios", "scenario", _coerce_scenario)
    configs = _named(doc, "configs", "config", _coerce_config)
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
