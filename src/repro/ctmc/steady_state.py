"""Steady-state analysis of CTMCs.

Repairable DFTs (Section 7.2 of the paper) are analysed for *unavailability*,
the long-run fraction of time the system spends in failed states.  For an
irreducible CTMC this is the unique stationary distribution; for chains with a
single terminal (bottom) strongly-connected component reachable with
probability one we return the stationary distribution of that component.
Chains with several terminal components (e.g. an absorbing failure state next
to a recurrent repairable part) have no unique long-run distribution and an
:class:`~repro.errors.AnalysisError` is raised.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..graph import bottom_components
from .ctmc import CTMC


def bottom_strongly_connected_components(ctmc: CTMC) -> List[List[int]]:
    """Terminal SCCs (no transition leaving the component), members sorted."""
    return bottom_components(
        [[target for target, _rate in ctmc.rates_from(state)] for state in ctmc.states()]
    )


def steady_state_distribution(ctmc: CTMC) -> np.ndarray:
    """Long-run state distribution of ``ctmc``, solved by its kernel."""
    return ctmc.steady_state_distribution()
