"""In-process tracer: spans around every public function of each pipevuln layer.

A layer is a module of ``src/pipevuln``. :meth:`Tracer.patched` replaces
each public function at every module attribute that binds it (``propagate``
is bound in ``propagation``, ``ranking`` and ``cli``; ``enumerate_paths`` in
``ranking``, ``specio`` and ``simulate``) with one wrapper that records a
span: function, start, end and the span open when it was called. Spans stay
in memory; :meth:`Tracer.layer_metrics` reduces them after the pass.

Modules are fetched with ``importlib.import_module``: the attribute
``pipevuln.simulate`` is the function re-exported by the package, not the
module.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("specio", "model", "ranking", "propagation", "simulate", "cli")

#: Public functions left unwrapped, with the reason.
UNWRAPPED = {
    "propagation.expected_emission":
        "called once per component and label inside propagate and once per "
        "adversarial item label in the simulator (millions of calls on "
        "wide_graph); a span each would cost more time and memory than the "
        "work it measures. Its time counts as self time of its caller.",
}

#: Functions that must fire at least once on a workload, so that a refactor
#: that moves a call cannot silently zero a layer metric.
_COMMON_FIRES = {
    "cli.main", "specio.parse_spec_file", "specio.parse_spec", "model.build_graph",
    "model.topological_order", "ranking.enumerate_paths", "ranking.rank_and_select",
    "propagation.propagate", "propagation.cost", "propagation.amplification_matrix",
    "simulate.simulate",
}
MUST_FIRE = {
    "attack_sim": _COMMON_FIRES,
    "defense_matrix": _COMMON_FIRES | {"simulate.run_matrix"},
    "wide_graph": _COMMON_FIRES | {"specio.build_report"},
}

#: Count metrics: they must repeat exactly across passes of one program.
COUNT_METRICS = (
    "model.topological_order.calls", "ranking.enumerate_paths.calls", "ranking.paths",
    "propagation.propagate.calls", "propagation.cost.calls", "simulate.runs",
    "simulate.items_created", "simulate.items_processed", "simulate.items_dropped",
    "simulate.sim_s",
)


def _ranked(result) -> dict:
    return {"ranking.paths": len(result.entries)}


def _simulated(metrics) -> dict:
    processed = sum(metrics.workload.values())
    residual = sum(st.residual for st in metrics.edge_stats.values())
    return {
        "simulate.items_created": processed + metrics.drops + residual,
        "simulate.items_processed": processed,
        "simulate.items_dropped": metrics.drops,
        "simulate.sim_s": metrics.wall_time_s,
    }


#: Result probes: counts read from a function's return value.
_PROBES = {
    "ranking.rank_and_select": _ranked,
    "simulate.simulate": _simulated,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # function index -> "layer.function"
        self.spans: list[list] = []  # [function index, start, end, parent span]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        probe = _PROBES.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([fid, clock(), 0.0, open_spans[-1] if open_spans else -1])
            open_spans.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = clock()
            if probe is not None:
                self.counts.update(probe(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap every public layer function at every binding; restore on exit."""
        namespaces = [importlib.import_module("pipevuln")] + [
            importlib.import_module(f"pipevuln.{layer}") for layer in LAYERS
        ]
        wrappers: dict = {}
        restore: list[tuple] = []
        try:
            for namespace in namespaces:
                for attr, obj in list(vars(namespace).items()):
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    module, _, layer = obj.__module__.rpartition(".")
                    name = f"{layer}.{obj.__name__}"
                    if module != "pipevuln" or layer not in LAYERS or name in UNWRAPPED:
                        continue
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(name, obj)
                    restore.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])
            yield
        finally:
            for namespace, attr, obj in reversed(restore):
                setattr(namespace, attr, obj)

    def fired(self) -> Counter:
        return Counter(self.names[span[0]] for span in self.spans)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, per-function totals and counts of one pass.

        A span's self time is its duration minus the durations of its direct
        children (a run is single-threaded, so children never overlap).
        """
        duration = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for index, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[index]
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            name = self.names[span[0]]
            calls[name] += 1
            total[name] += duration[index]
            own[name] += duration[index] - child[index]
            layer_self[name.partition(".")[0]] += duration[index] - child[index]
        paths = self.counts["ranking.paths"]
        created = self.counts["simulate.items_created"]
        return {
            "cli.self_s": layer_self["cli"],
            "specio.self_s": layer_self["specio"],
            "model.build_graph_s": total["model.build_graph"],
            "model.topological_order.calls": calls["model.topological_order"],
            "model.topological_order_s": total["model.topological_order"],
            "ranking.enumerate_paths.calls": calls["ranking.enumerate_paths"],
            "ranking.enumerate_paths_s": total["ranking.enumerate_paths"],
            "ranking.paths": paths,
            "ranking.rank_self_s": layer_self["ranking"],
            "ranking.us_per_path":
                1e6 * total["ranking.rank_and_select"] / paths if paths else 0.0,
            "propagation.propagate.calls": calls["propagation.propagate"],
            "propagation.propagate_self_s": own["propagation.propagate"],
            "propagation.cost.calls": calls["propagation.cost"],
            "propagation.amplify_self_s":
                layer_self["propagation"] - own["propagation.propagate"],
            "simulate.runs": calls["simulate.simulate"],
            "simulate.self_s": layer_self["simulate"],
            "simulate.host_us_per_item":
                1e6 * total["simulate.simulate"] / created if created else 0.0,
            "simulate.items_created": created,
            "simulate.items_processed": self.counts["simulate.items_processed"],
            "simulate.items_dropped": self.counts["simulate.items_dropped"],
            "simulate.useful_ratio":
                self.counts["simulate.items_processed"] / created if created else 0.0,
            "simulate.sim_s": self.counts["simulate.sim_s"],
        }
