"""Numerical analysis of continuous-time Markov chains and decision processes.

This package hosts the solver layer used once a DFT has been reduced to a
single closed model: transient analysis via uniformisation (unreliability),
steady-state analysis (unavailability of repairable systems), expected hitting
times (mean time to failure) and CTMDP time-bounded reachability bounds for
non-deterministic models.

Every uniformisation series runs in :mod:`repro.ctmc.kernel`: the forward
series of :class:`TransientKernel` behind every CTMC curve, distribution and
reachability probability, and the backward series of :class:`CtmdpKernel`
behind every CTMDP bound, gradient and scheduler.  A CTMC skeleton is the
choice-free CTMDP skeleton, so the backward kernel differentiates CTMCs too.
Studies and sweeps load rate samples into kernels built from a skeleton; a
concrete :class:`CTMC` or :class:`CTMDP`, which share one base, keeps one
kernel of its own edges.
"""

from .builders import (
    CtmcSkeleton,
    CtmdpSkeleton,
    ctmc_from_ioimc,
    ctmc_skeleton_from_ioimc,
    ctmdp_from_ioimc,
    ctmdp_skeleton_from_ioimc,
    markov_model_from_ioimc,
)
from .ctmc import CTMC
from .ctmdp import CTMDP, VanishingResolver
from .kernel import CsrBuffer, CtmdpKernel, TransientKernel
from .steady_state import (
    bottom_strongly_connected_components,
    steady_state_distribution,
)
from .transient import (
    PoissonTermCache,
    poisson_terms,
    probability_of_label_curve,
    probability_reach_label,
    transient_distribution,
    transient_distributions,
)

__all__ = [
    "CTMC",
    "CTMDP",
    "CsrBuffer",
    "CtmcSkeleton",
    "CtmdpKernel",
    "CtmdpSkeleton",
    "PoissonTermCache",
    "TransientKernel",
    "VanishingResolver",
    "bottom_strongly_connected_components",
    "ctmc_from_ioimc",
    "ctmc_skeleton_from_ioimc",
    "ctmdp_from_ioimc",
    "ctmdp_skeleton_from_ioimc",
    "markov_model_from_ioimc",
    "poisson_terms",
    "probability_of_label_curve",
    "probability_reach_label",
    "steady_state_distribution",
    "transient_distribution",
    "transient_distributions",
]
