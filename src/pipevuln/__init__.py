"""Pipeline-efficiency vulnerability toolkit.

Models dynamic inference pipelines as cost-annotated DAGs, ranks execution
paths by their adversarial cost-amplification potential, propagates expected
workloads analytically, and simulates production deployments under
adversarial traffic with batching, bounded buffering, and input defenses.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: E402
    BadValueError,
    CycleError,
    DanglingReferenceError,
    DuplicateIdError,
    EmptyInputError,
    MissingScoreError,
    NonTerminationError,
    NoSourceError,
    NoSuchPathError,
    PathExplosionError,
    PipelineError,
    ScenarioMismatchError,
    SchemaError,
    SyntaxParseError,
    UnresolvedReferenceError,
)
from .model import (  # noqa: E402
    EXIT,
    BehaviorProfile,
    ComponentSpec,
    EdgeSpec,
    GateSpec,
    PipelineGraph,
    build_graph,
    topological_order,
)
from .propagation import (  # noqa: E402
    CostBreakdown,
    WorkloadVector,
    amplification_matrix,
    clean_cost,
    cost,
    expected_emission,
    propagate,
)
from .ranking import (  # noqa: E402
    ExecutionPath,
    PathRanking,
    RankedPath,
    component_score,
    compute_loss_weights,
    enumerate_paths,
    rank_and_select,
    resolve_path,
    wrong_path_report,
)
from .simulate import (  # noqa: E402
    Attenuation,
    ConfidenceFilter,
    DeploymentConfig,
    EdgeStats,
    InputFilter,
    SimMetrics,
    TrafficScenario,
    percentile,
    run_matrix,
    simulate,
)
from .specio import (  # noqa: E402
    SpecDocument,
    build_report,
    document_to_jsonl,
    document_to_yaml,
    graph_to_document,
    parse_spec,
    parse_spec_file,
)

__all__ = [
    "__version__",
    # errors
    "PipelineError", "CycleError", "DanglingReferenceError", "DuplicateIdError",
    "NoSourceError", "BadValueError", "PathExplosionError", "MissingScoreError",
    "NoSuchPathError", "NonTerminationError", "EmptyInputError",
    "SyntaxParseError", "SchemaError", "UnresolvedReferenceError",
    "ScenarioMismatchError",
    # model
    "EXIT", "ComponentSpec", "BehaviorProfile", "GateSpec", "EdgeSpec",
    "PipelineGraph", "build_graph", "topological_order",
    # propagation
    "WorkloadVector", "CostBreakdown", "propagate", "cost", "clean_cost",
    "amplification_matrix", "expected_emission",
    # ranking
    "ExecutionPath", "RankedPath", "PathRanking", "enumerate_paths",
    "component_score", "compute_loss_weights", "rank_and_select", "resolve_path",
    "wrong_path_report",
    # simulation
    "TrafficScenario", "DeploymentConfig", "ConfidenceFilter", "Attenuation",
    "InputFilter", "SimMetrics", "EdgeStats", "percentile", "simulate",
    "run_matrix",
    # io
    "SpecDocument", "parse_spec", "parse_spec_file", "graph_to_document",
    "document_to_yaml", "document_to_jsonl", "build_report",
]
