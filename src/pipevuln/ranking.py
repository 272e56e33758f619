"""Execution-path enumeration, vulnerability scoring, and target selection.

The adversary's objective, maximizing end-to-end pipeline cost over bounded
input perturbations, decomposes into two coordinated decisions: an outer
choice of which execution path to steer inputs into, and an inner
path-conditioned crafting of the inputs themselves. This module solves the
outer decision from profiling data alone; the inner one is out of scope
here and enters only through the declared adversarial cost and cardinality
profiles.

A path's vulnerability score aggregates its components' scores by summation
rather than maximum: an inflated emission at one component propagates work
to every downstream component on the path simultaneously, and a maximum
would miss exactly that multi-stage cascade.

Scoring model. The clean pipeline incurs a reference cost per system input,
``K = sum_v clean_cost(v) * clean_workload(v)``. Steering inputs toward a
path changes the cost incurred at component ``v`` to
``adv_cost(v) * targeted_workload(v)``. The component's vulnerability score
is its share of system-cost amplification:

    score(v | path) = (adv_incurred(v) - clean_incurred(v)) / K

so a component whose incurred cost is invariant scores exactly zero, and
the path score (the sum along the path) equals the path's cost-amplification
excess over the clean reference. The path's total adversarial cost over
``K`` is kept as its FLOPs amplification.

All paths are scored from one walk over the id-sorted paths, which computes
each shared prefix's workload once (see :mod:`~pipevuln.propagation`). Each
path's workload list is costed, its components scored and then dropped; the
sums are those of propagating and costing the path alone, so scores are
bit-identical to the one-path result.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .errors import BadValueError, MissingScoreError, NoSuchPathError, PathExplosionError
from .model import EXIT, PipelineGraph
from .propagation import _costed_paths, _Table, _total, clean_cost

#: Default ceiling on enumerated paths; graphs beyond it are out of scope.
DEFAULT_PATH_CAP = 10_000


class ExecutionPath(NamedTuple):
    """A label-consistent source-to-exit walk through the pipeline.

    ``steps`` pairs each visited component with the outgoing label taken
    there; the sentinel label ``EXIT`` marks termination at a component
    without a gate. The id concatenates the steps and is the stable handle
    used in scenarios, budgets, and reports.
    """

    id: str
    steps: tuple[tuple[str, str], ...]
    #: The visited component ids, in path order.
    components: tuple[str, ...]

    @staticmethod
    def make(steps: Sequence[tuple[str, str]]) -> "ExecutionPath":
        pid = "->".join(f"{cid}:{label}" for cid, label in steps)
        return ExecutionPath(
            id=pid, steps=tuple(steps), components=tuple(cid for cid, _ in steps)
        )


class RankedPath(NamedTuple):
    """One scored path; ``flops_x`` is its analytic FLOPs amplification.

    ``component_scores`` maps each component on the path, in path order, to
    its vulnerability score; ``score`` is their sum.
    """

    path: ExecutionPath
    score: float
    component_scores: dict[str, float]
    flops_x: float


class PathRanking(NamedTuple):
    """Ranked paths (descending score, ties by ascending id) plus selection.

    ``weights`` are the adaptive loss weights over the selected path's
    components; ``degenerate_weights`` flags the uniform fallback used when
    the selected path's score carries no positive mass.
    """

    entries: tuple[RankedPath, ...]
    selected: RankedPath
    weights: dict[str, float]
    degenerate_weights: bool


def enumerate_paths(
    graph: PipelineGraph, cap: int | None = None
) -> list[ExecutionPath]:
    """All label-consistent source-to-exit walks, ordered by path id.

    Raises:
        BadValueError: a ``cap`` below 1, which every graph would exceed.
        PathExplosionError: more than ``cap`` paths (default
            :data:`DEFAULT_PATH_CAP`) — the graph is outside the intended
            scale of exhaustive enumeration.
    """
    limit = DEFAULT_PATH_CAP if cap is None else cap
    if limit < 1:
        raise BadValueError(f"path cap must be >= 1, got {limit}")
    paths: list[ExecutionPath] = []
    stack: list[tuple[str, tuple[tuple[str, str], ...]]] = [(graph.source, ())]
    while stack:
        cid, prefix = stack.pop()
        routes = graph.routes(cid)
        if not routes:
            paths.append(ExecutionPath.make(prefix + ((cid, EXIT),)))
        else:
            # Reverse-sorted push so label-ascending continuations pop first.
            for label in sorted(routes, reverse=True):
                target = routes[label]
                step = prefix + ((cid, label),)
                if target == EXIT:
                    paths.append(ExecutionPath.make(step))
                else:
                    stack.append((target, step))
        if len(paths) > limit:
            raise PathExplosionError(
                f"path count exceeds cap of {limit}; the graph is outside "
                "the intended enumeration scale"
            )
    return sorted(paths, key=lambda p: p.id)


def resolve_path(graph: PipelineGraph, path_id: str) -> ExecutionPath:
    """The execution path whose id is ``path_id``.

    Walks the id's steps from the source through the gates, in O(path
    length): no enumeration, so no path cap applies. Component ids and gate
    labels contain neither ``:`` nor ``->``, so an id splits one way only.

    Raises:
        NoSuchPathError: the id is not a source-to-exit walk that
            :func:`enumerate_paths` would list.
    """
    steps: list[tuple[str, str]] = []
    node: str | None = graph.source
    for step in path_id.split("->"):
        cid, sep, label = step.partition(":")
        # A component without a gate ends every walk with the EXIT sentinel.
        routes = graph.routes(cid) or {EXIT: EXIT}
        if cid != node or not sep or label not in routes:
            raise NoSuchPathError(f"no execution path with id {path_id!r}")
        node = None if routes[label] == EXIT else routes[label]
        steps.append((cid, label))
    if node is not None:
        raise NoSuchPathError(f"no execution path with id {path_id!r}")
    return ExecutionPath.make(steps)


def compute_loss_weights(
    path: ExecutionPath, scores: Mapping[str, float]
) -> tuple[dict[str, float], bool]:
    """Adaptive loss weights: each component's share of the path score.

    Negative component scores (adversarial cost below clean) carry no
    useful loss mass and are clamped to zero before normalizing. When no
    positive mass remains the weights fall back to uniform and the
    degeneracy flag is set. Weights are nonnegative and sum to one.
    """
    mass: dict[str, float] = {}
    for cid in path.components:
        if cid not in scores:
            raise MissingScoreError(f"no score for component {cid!r} on {path.id}")
        mass[cid] = max(scores[cid], 0.0)
    total = _total(mass.values())
    if total <= 0:
        uniform = 1.0 / len(path.components)
        return {cid: uniform for cid in path.components}, True
    return {cid: value / total for cid, value in mass.items()}, False


def _score_paths(graph: PipelineGraph, cap: int | None) -> list[RankedPath]:
    """Every enumerated path, propagated (in one shared walk), costed and scored;
    a zero clean reference (an all-zero-cost pipeline) scores zero."""
    clean = clean_cost(graph)
    reference = clean.total_gflops
    paths = enumerate_paths(graph, cap=cap)
    table = _Table(graph)
    index = table.index
    clean_incurred = [clean.per_component[cid] for cid in table.ids]
    entries = []
    for path, products, _, flops_x in _costed_paths(table, paths, clean):
        scores = {
            cid: (products[i] - clean_incurred[i]) / reference
            if reference > 0 else 0.0
            for cid, i in zip(path.components, map(index.get, path.components))
        }
        entries.append(RankedPath(path, _total(scores.values()), scores, flops_x))
    return entries


def _ranking_order(entry: RankedPath) -> tuple[float, str]:
    return -entry.score, entry.path.id


def _assemble(entries: list[RankedPath], selected: RankedPath) -> PathRanking:
    ordered = sorted(entries, key=_ranking_order)
    weights, degenerate = compute_loss_weights(
        selected.path, selected.component_scores
    )
    return PathRanking(
        entries=tuple(ordered),
        selected=selected,
        weights=weights,
        degenerate_weights=degenerate,
    )


def rank_and_select(graph: PipelineGraph, cap: int | None = None) -> PathRanking:
    """Rank every execution path and select the top-scoring one.

    Ties break toward the lexicographically smallest path id. Loss weights
    are computed for the selected path.
    """
    entries = _score_paths(graph, cap)
    return _assemble(entries, min(entries, key=_ranking_order))


def wrong_path_report(
    graph: PipelineGraph, forced_label: str, cap: int | None = None
) -> PathRanking:
    """Ranking with selection forced onto a label's path.

    ``forced_label`` must appear among some path's step labels; of the
    matching paths the highest-scoring one is selected (scores are computed
    normally), enabling selected-vs-forced comparisons.
    """
    entries = _score_paths(graph, cap)
    matching = [
        r for r in entries
        if any(label == forced_label for _, label in r.path.steps)
    ]
    if not matching:
        raise NoSuchPathError(f"no execution path takes label {forced_label!r}")
    return _assemble(entries, min(matching, key=_ranking_order))

