"""repro — compositional Dynamic Fault Tree analysis via I/O-IMC.

A from-scratch reproduction of

    H. Boudali, P. Crouzen, M. Stoelinga.
    "Dynamic Fault Tree analysis using Input/Output Interactive Markov Chains."
    DSN 2007.

The package is organised in layers:

* :mod:`repro.ioimc`     — the I/O-IMC process calculus (composition, hiding,
  maximal progress, bisimulation aggregation);
* :mod:`repro.ctmc`      — CTMC / CTMDP numerical analysis;
* :mod:`repro.dft`       — the DFT object model and the Galileo format;
* :mod:`repro.core`      — the paper's contribution: DFT semantics in terms of
  I/O-IMC, compositional aggregation, reliability analysis;
* :mod:`repro.baselines` — the DIFTree-style monolithic/modular baseline;
* :mod:`repro.systems`   — the paper's case studies and parametric generators.

Quick start::

    from repro import MTTF, Unreliability, evaluate
    from repro.dft import FaultTreeBuilder

    builder = FaultTreeBuilder("two-pumps")
    builder.basic_event("PA", failure_rate=1.0)
    builder.basic_event("PB", failure_rate=1.0)
    builder.basic_event("PS", failure_rate=1.0, dormancy=0.0)
    builder.spare_gate("PumpA", primary="PA", spares=["PS"])
    builder.spare_gate("PumpB", primary="PB", spares=["PS"])
    builder.and_gate("System", ["PumpA", "PumpB"])
    tree = builder.build(top="System")

    result = evaluate(tree, Unreliability([0.5, 1.0]) + MTTF())
    print(result["unreliability"].values, result["mttf"].value)
"""

from . import ctmc, dft, errors, ioimc
from .core import (
    MTTF,
    ImportanceRanking,
    BatchResult,
    BatchStudy,
    DesignProblem,
    MeasureResult,
    OptimizeResult,
    Query,
    RepairChoice,
    SpareCountChoice,
    Study,
    StudyOptions,
    StudyResult,
    SweepResult,
    RateSweep,
    SweepStudy,
    Unavailability,
    Unreliability,
    UnreliabilityBounds,
    apply_design,
    detect_nondeterminism,
    evaluate,
    optimize,
    run_sweep,
    substitute_parameters,
    with_rate_parameters,
)
from .core.sweep import sweep
from .dft import DynamicFaultTree, FaultTreeBuilder

__version__ = "1.0.0"

__all__ = [
    "BatchResult",
    "BatchStudy",
    "DesignProblem",
    "DynamicFaultTree",
    "FaultTreeBuilder",
    "ImportanceRanking",
    "MTTF",
    "MeasureResult",
    "OptimizeResult",
    "Query",
    "RepairChoice",
    "SpareCountChoice",
    "Study",
    "StudyOptions",
    "StudyResult",
    "SweepResult",
    "RateSweep",
    "SweepStudy",
    "Unavailability",
    "Unreliability",
    "UnreliabilityBounds",
    "__version__",
    "apply_design",
    "ctmc",
    "detect_nondeterminism",
    "dft",
    "errors",
    "evaluate",
    "ioimc",
    "optimize",
    "substitute_parameters",
    "run_sweep",
    "sweep",
    "with_rate_parameters",
]
