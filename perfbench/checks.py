"""Output checks: each command's output is parsed and checked against the spec.

The checks hold for any correct program, including one whose random stream
is re-baselined: they test conservation laws, exact cost identities and
ranking order, and compare simulated counts with the analytic expectation
only within ``SIGMAS`` standard deviations.

``check(kind, text, ...)`` returns a :class:`Checked` with the errors found
plus the counts the metrics need (items created, paths ranked).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

#: Allowed distance, in standard deviations, between a simulated
#: per-component count and ``n_inputs`` times its analytic expectation.
SIGMAS = 5.0

_REL = 1e-9
_LOSSY_KEYS = ("buffers", "confidence", "attenuation", "input_filter", "path_budgets")


@dataclass
class Checked:
    errors: list[str] = field(default_factory=list)
    items: int = 0  # simulated items created (admitted inputs + edge arrivals)
    paths: int = 0  # paths ranked


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Analytic expectation, computed from the spec document alone
# ---------------------------------------------------------------------------


def _emission(profile: dict, label: str, targeting: str | None) -> float:
    """Mean items emitted on ``label``; mirrors the documented profile rules."""
    clean = profile.get("clean_cardinality", {})
    if targeting is None:
        return clean.get(label, 0.0)
    entry = profile.get("adv_cardinality", {}).get(targeting)
    if entry is None:
        return clean.get(label, 0.0)
    if isinstance(entry, dict):
        return entry.get(label, 0.0)
    return float(entry) if label == targeting else 0.0


def _topo(doc: dict) -> list[str]:
    ids = sorted(c["id"] for c in doc["components"])
    indegree = {cid: 0 for cid in ids}
    for edge in doc["edges"]:
        indegree[edge["to"]] += 1
    order, ready = [], [cid for cid in ids if indegree[cid] == 0]
    while ready:
        cid = ready.pop()
        order.append(cid)
        for edge in doc["edges"]:
            if edge["from"] == cid:
                indegree[edge["to"]] -= 1
                if indegree[edge["to"]] == 0:
                    ready.append(edge["to"])
    return order


def expected_counts(doc: dict, target_path: str | None) -> dict[str, tuple[float, float]]:
    """Per-input (mean, standard deviation) of items processed per component.

    Every item emits a Poisson number of children per label, independently,
    so a label's child count ``Y`` from ``X`` parent items has
    ``E[Y] = m E[X]`` and ``Var[Y] = m E[X] + m^2 Var[X]``. Contributions of
    several inbound edges are combined by adding standard deviations, an
    upper bound that needs no covariance terms.
    """
    targeting = {}
    if target_path:
        for step in target_path.split("->"):
            cid, label = step.rsplit(":", 1)
            if label != "EXIT":
                targeting[cid] = label
    profiles = {p["component"]: p for p in doc.get("profiles", [])}
    routes = {g["component"]: g["routes"] for g in doc.get("gates", [])}
    mean = {c["id"]: 0.0 for c in doc["components"]}
    sd = dict(mean)
    mean[doc["source"]] = 1.0
    for cid in _topo(doc):
        for label, to in sorted(routes.get(cid, {}).items()):
            if to == "EXIT":
                continue
            m = _emission(profiles.get(cid, {}), label, targeting.get(cid))
            mean[to] += m * mean[cid]
            sd[to] += math.sqrt(m * mean[cid] + m * m * sd[cid] ** 2)
    return {cid: (mean[cid], sd[cid]) for cid in mean}


def _check_counts(errors, label, doc, scenario, workload: dict) -> None:
    """Simulated counts within SIGMAS of n_inputs x the analytic expectation."""
    n = scenario["n_inputs"]
    target = scenario["target_path"] if scenario["mix"] == 1.0 else None
    for cid, (mean, sd) in expected_counts(doc, target).items():
        expect, width = n * mean, SIGMAS * math.sqrt(n) * sd
        got = workload.get(cid, 0)
        if abs(got - expect) > width + 1e-9:
            errors.append(
                f"{label}: {cid} processed {got}, expected {expect:.1f} "
                f"+/- {width:.1f} ({SIGMAS:g} sigma)")


def _check_tflops(errors, label, doc, adversarial: bool, workload, total) -> None:
    key = "adv_cost_gflops" if adversarial else "clean_cost_gflops"
    unit = {c["id"]: c[key] for c in doc["components"]}
    gflops = sum(workload.get(cid, 0) * unit[cid] for cid in sorted(unit))
    if not _close(gflops / 1000.0, total):
        errors.append(f"{label}: total_tflops {total!r} != sum(workload x "
                      f"{key}) {gflops / 1000.0!r}")


def _sim_row_checks(errors, label, doc, scenario_name, config_name, workload,
                    total_tflops) -> None:
    scenario = doc["scenarios"][scenario_name]
    config = doc["configs"][config_name]
    if scenario["mix"] in (0.0, 1.0):
        _check_tflops(errors, label, doc, scenario["mix"] == 1.0, workload,
                      total_tflops)
        if not any(config.get(key) for key in _LOSSY_KEYS):
            _check_counts(errors, label, doc, scenario, workload)


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------


def _check_ranking(errors, records: list[dict], expected_paths: int) -> None:
    if len(records) != expected_paths:
        errors.append(f"rank: {len(records)} paths, generator made {expected_paths}")
    if not records:
        return
    keys = [(-r["path_score"], r["path_id"]) for r in records]
    if keys != sorted(keys):
        errors.append("rank: scores do not descend (ties by ascending id)")
    selected = [r for r in records if r["selected"]]
    if len(selected) != 1:
        errors.append(f"rank: {len(selected)} selected paths")
        return
    if selected[0]["path_score"] != max(r["path_score"] for r in records):
        errors.append("rank: selected path is not the argmax")
    weights = selected[0]["weights"] or {}
    if not _close(sum(weights.values()), 1.0) or min(weights.values(), default=0) < 0:
        errors.append(f"rank: weights {weights} do not form a distribution")


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _check_validate(out: Checked, text, expected_paths, **_) -> None:
    found = re.match(r"ok: \d+ components, \d+ edges, (\d+) paths", text)
    if not found or int(found.group(1)) != expected_paths:
        out.errors.append(f"validate: expected {expected_paths} paths in {text[:120]!r}")


def _check_rank(out: Checked, text, expected_paths, **_) -> None:
    records = _records(text)
    _check_ranking(out.errors, records, expected_paths)
    out.paths = len(records)


def _check_amplify(out: Checked, text, expected_paths, **_) -> None:
    records = _records(text)
    if not records or records[0]["scenario"] != "clean":
        out.errors.append("amplify: first row is not the clean reference")
        return
    if len(records) != expected_paths + 1:
        out.errors.append(f"amplify: {len(records) - 1} path rows, "
                          f"generator made {expected_paths}")
    clean_total = records[0]["total_gflops"]
    for record in records:
        if not _close(record["flops_x"], record["total_gflops"] / clean_total):
            out.errors.append(f"amplify: {record['scenario']} flops_x "
                              f"{record['flops_x']!r} != total / clean total")
            break


def _check_report(out: Checked, text, expected_paths, **_) -> None:
    results = json.loads(text)["results"]
    _check_ranking(out.errors, results["ranking"], expected_paths)
    if len(results["paths"]) != expected_paths or len(results["amplification"]) != expected_paths:
        out.errors.append("report: path list or amplification size differs "
                          "from the generator's count")


def _check_simulate(out: Checked, text, doc, **_) -> None:
    records = _records(text)
    if len(records) != 1:
        out.errors.append(f"simulate: {len(records)} records, expected 1")
        return
    record = records[0]
    label = record["label"]
    for key, st in record["edges"].items():
        if st["enqueued"] != st["dequeued"] + st["dropped"] + st["residual"]:
            out.errors.append(f"{label}: edge {key} enqueued != dequeued + "
                              "dropped + residual")
    scenario_name, config_name = label.split("/")
    if record["completed"] != doc["scenarios"][scenario_name]["n_inputs"]:
        out.errors.append(f"{label}: {record['completed']} inputs completed")
    _sim_row_checks(out.errors, label, doc, scenario_name, config_name,
                    record["workload"], record["total_tflops"])
    out.items = record["workload"][doc["source"]] + sum(
        st["enqueued"] for st in record["edges"].values())


def _check_matrix(out: Checked, text, doc, **_) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    labels = [f"{s}/{c}" for s in doc["scenarios"] for c in doc["configs"]]
    if [row["label"] for row in rows] != labels:
        out.errors.append(f"matrix: {len(rows)} rows, expected the {len(labels)} "
                          "scenario x config cells in declaration order")
        return
    for row in rows:
        workload = {key[len("workload_"):]: int(value)
                    for key, value in row.items() if key.startswith("workload_")}
        scenario_name, config_name = row["label"].split("/")
        _sim_row_checks(out.errors, row["label"], doc, scenario_name, config_name,
                        workload, float(row["total_tflops"]))
        # The simulator drains every queue, so processed + dropped is every
        # item created (the CSV carries no per-edge residuals).
        out.items += sum(workload.values()) + int(row["drops"])


_CHECKS = {
    "validate": _check_validate,
    "rank": _check_rank,
    "amplify": _check_amplify,
    "report": _check_report,
    "simulate": _check_simulate,
    "matrix": _check_matrix,
}


def check(kind: str, text: str, doc: dict, expected_paths: int) -> Checked:
    """Check one command's output; malformed output is an error, not a crash."""
    out = Checked()
    try:
        _CHECKS[kind](out, text, doc=doc, expected_paths=expected_paths)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        out.errors.append(f"{kind}: unreadable output ({type(exc).__name__}: {exc})")
    return out
