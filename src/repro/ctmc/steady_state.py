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

from ..errors import AnalysisError
from ..graph import strongly_connected_components
from .ctmc import CTMC


def bottom_strongly_connected_components(ctmc: CTMC) -> List[List[int]]:
    """Terminal SCCs (no transition leaving the component)."""
    successors = [
        [target for target, _rate in ctmc.rates_from(state)] for state in ctmc.states()
    ]
    bottoms = []
    for component in strongly_connected_components(successors):
        members = set(component)
        if all(target in members for state in component for target in successors[state]):
            bottoms.append(sorted(component))
    return bottoms


def steady_state_distribution(ctmc: CTMC) -> np.ndarray:
    """Long-run state distribution of ``ctmc``.

    The chain must have exactly one bottom strongly-connected component
    reachable from the initial state; the stationary distribution of that
    component (zero elsewhere) is returned.
    """
    reachable = ctmc._forward_reachable(ctmc.initial)
    bottoms = [
        component
        for component in bottom_strongly_connected_components(ctmc)
        if any(state in reachable for state in component)
    ]
    if not bottoms:
        raise AnalysisError("the chain has no reachable bottom component")
    if len(bottoms) > 1:
        raise AnalysisError(
            "the chain has several reachable terminal components; the long-run "
            "distribution depends on which one is entered"
        )
    component = bottoms[0]
    distribution = np.zeros(ctmc.num_states)
    if len(component) == 1:
        distribution[component[0]] = 1.0
        return distribution

    index = {state: i for i, state in enumerate(component)}
    n = len(component)
    generator = np.zeros((n, n))
    for state in component:
        i = index[state]
        for target, rate in ctmc.rates_from(state):
            j = index[target]
            generator[i, j] += rate
            generator[i, i] -= rate
    # Solve pi Q = 0 with sum(pi) = 1: replace one column by the normalisation.
    system = generator.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError("failed to solve the stationary equations") from exc
    if np.any(pi < -1e-9):
        raise AnalysisError("stationary distribution has negative entries")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    for state, i in index.items():
        distribution[state] = pi[i]
    return distribution
