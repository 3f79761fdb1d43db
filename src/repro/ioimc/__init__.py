"""Input/output interactive Markov chains (I/O-IMC).

This package provides the process-algebraic substrate of the reproduction:
models (:class:`IOIMC`), action signatures, declarative element behaviours,
parallel composition, hiding, maximal progress and bisimulation-based
aggregation.  It knows nothing about fault trees; the DFT semantics lives in
:mod:`repro.core`.
"""

from .actions import (
    ACTIONS,
    ActionInterner,
    ActionSignature,
    ActionType,
    action_name,
    format_action,
    intern_action,
    signature,
)
from .behavior import ElementBehavior, ExplicitBehavior, build_ioimc
from .bisimulation import (
    ALGORITHMS,
    minimize_strong,
    minimize_weak,
    quotient_strong,
    quotient_weak,
    strong_bisimulation_partition,
    weak_bisimulation_partition,
)
from .composition import parallel
from .maximal_progress import apply_maximal_progress, count_pruned_transitions
from .model import IOIMC, InteractiveTransition, MarkovianTransition
from .rates import ParametricRate, evaluate_rate, rate_parameters
from .partition import RATE_DIGITS, canonical_rate
from .reduction import (
    AggregationOptions,
    AggregationStatistics,
    aggregate,
    compress_deterministic_tau,
    remove_internal_self_loops,
)

__all__ = [
    "ACTIONS",
    "ALGORITHMS",
    "RATE_DIGITS",
    "canonical_rate",
    "ParametricRate",
    "evaluate_rate",
    "rate_parameters",
    "ActionInterner",
    "ActionSignature",
    "ActionType",
    "action_name",
    "intern_action",
    "AggregationOptions",
    "AggregationStatistics",
    "ElementBehavior",
    "ExplicitBehavior",
    "IOIMC",
    "InteractiveTransition",
    "MarkovianTransition",
    "aggregate",
    "apply_maximal_progress",
    "build_ioimc",
    "compress_deterministic_tau",
    "count_pruned_transitions",
    "format_action",
    "minimize_strong",
    "minimize_weak",
    "parallel",
    "quotient_strong",
    "quotient_weak",
    "remove_internal_self_loops",
    "signature",
    "strong_bisimulation_partition",
    "weak_bisimulation_partition",
]
