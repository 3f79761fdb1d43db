"""The paper's primary contribution: compositional DFT analysis via I/O-IMC.

* :mod:`repro.core.semantics` — elementary I/O-IMC behaviour of every element,
* :mod:`repro.core.conversion` — DFT to I/O-IMC community (signal wiring,
  activation contexts, auxiliaries),
* :mod:`repro.core.aggregation` — the compositional aggregation engine,
* :mod:`repro.core.measures` — declarative measure specs and queries,
* :mod:`repro.core.study` — the query engine (:class:`Study`, :func:`evaluate`,
  :class:`BatchStudy`): every measure is evaluated on the final model's
  skeleton through one compiled model, with vectorised multi-time sweeps,
* :mod:`repro.core.results` — structured, JSON-serialisable results,
* :mod:`repro.core.nondeterminism` — detection of inherent non-determinism.
"""

from . import signals
from .aggregation import (
    CompositionStatistics,
    CompositionStep,
    CompositionalAggregationOptions,
    CompositionalAggregator,
    compositional_aggregate,
)
from .conversion import (
    Community,
    CommunityMember,
    ConversionOptions,
    DftToIoimcConverter,
    convert,
)
from .measures import (
    MTTF,
    ImportanceRanking,
    Measure,
    Query,
    Unavailability,
    Unreliability,
    UnreliabilityBounds,
    objective_measure,
)
from .nondeterminism import NondeterminismReport, detect_nondeterminism
from .optimize import (
    DesignProblem,
    RepairChoice,
    SpareCountChoice,
    apply_design,
    monotonicity_warnings,
    optimize,
)
from .planning import AggregationPlan, PlanNode, SharedActionIndex, build_plan
from .results import (
    BatchResult,
    BatchRow,
    MeasureResult,
    ModelInfo,
    ModuleTableInfo,
    OptimizeChoice,
    OptimizeResult,
    SchedulerChoice,
    StudyResult,
    SweepResult,
    SweepRow,
    read_batch_jsonl,
    write_batch_jsonl,
)
from .study import BatchStudy, Study, StudyOptions, evaluate, evaluate_query_on_model
from .sweep import (
    RateSweep,
    SweepStudy,
    substitute_parameters,
    with_rate_parameters,
)
from .sweep import sweep as run_sweep
# Rebind the package attribute to the submodule: exporting the convenience
# function must not shadow `repro.core.sweep` (the module) for attribute
# access like `repro.core.sweep.SweepStudy`.
from . import sweep


__all__ = [
    "AggregationPlan",
    "BatchResult",
    "BatchRow",
    "BatchStudy",
    "Community",
    "CommunityMember",
    "CompositionStatistics",
    "CompositionStep",
    "CompositionalAggregationOptions",
    "CompositionalAggregator",
    "ConversionOptions",
    "DesignProblem",
    "DftToIoimcConverter",
    "ImportanceRanking",
    "MTTF",
    "Measure",
    "MeasureResult",
    "ModelInfo",
    "ModuleTableInfo",
    "NondeterminismReport",
    "OptimizeChoice",
    "OptimizeResult",
    "PlanNode",
    "Query",
    "RepairChoice",
    "SchedulerChoice",
    "SharedActionIndex",
    "SpareCountChoice",
    "Study",
    "StudyOptions",
    "StudyResult",
    "Unavailability",
    "Unreliability",
    "UnreliabilityBounds",
    "apply_design",
    "build_plan",
    "compositional_aggregate",
    "convert",
    "detect_nondeterminism",
    "evaluate",
    "evaluate_query_on_model",
    "monotonicity_warnings",
    "objective_measure",
    "optimize",
    "with_rate_parameters",
    "run_sweep",
    "sweep",
    "substitute_parameters",
    "write_batch_jsonl",
    "read_batch_jsonl",
    "SweepRow",
    "SweepResult",
    "SweepStudy",
    "RateSweep",
    "signals",
]
