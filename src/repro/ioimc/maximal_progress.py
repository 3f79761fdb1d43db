"""Maximal progress (urgency) pruning for I/O-IMC.

Output and internal actions of an I/O-IMC are *immediate*: a state with an
enabled locally-controlled transition never lets time pass, hence its Markovian
transitions can never fire.  Removing those Markovian transitions ("maximal
progress" in the Interactive Markov Chain literature) is the first step of
every aggregation pipeline: it is measure-preserving and it enables further
reductions such as the elimination of vanishing states.
"""

from __future__ import annotations

from typing import Optional

from .model import IOIMC


def apply_maximal_progress(
    model: IOIMC, urgent_outputs: bool = True, name: Optional[str] = None
) -> IOIMC:
    """Return a copy of ``model`` without Markovian transitions in urgent states.

    Parameters
    ----------
    urgent_outputs:
        If ``True`` (the I/O-IMC semantics used by the paper) output actions
        are urgent as well; if ``False`` only internal actions make a state
        urgent (the classical open-IMC rule).
    """
    pruned = model._skeleton(name)
    for state in model.states():
        pruned._set_interactive_raw(state, list(model.interactive_pairs(state)))
        urgent = model.is_urgent(state) if urgent_outputs else not model.is_stable(state)
        if not urgent:
            pruned._set_markovian_raw(state, dict(model.markovian_dict(state)))
    return pruned


def _prune_urgent_rates(model: IOIMC, urgent_outputs: bool = True) -> IOIMC:
    """:func:`apply_maximal_progress`, but ``model`` itself (no copy) when no
    urgent state has a Markovian transition — for pipelines that own it."""
    mask = model.signature.urgent_mask if urgent_outputs else model.signature.internal_mask
    mtrans = model._mtrans
    enabled_mask = model.enabled_mask
    if any(mtrans[state] and enabled_mask(state) & mask for state in model.states()):
        return apply_maximal_progress(model, urgent_outputs)
    return model


def count_pruned_transitions(model: IOIMC, urgent_outputs: bool = True) -> int:
    """Number of Markovian transitions that maximal progress would remove."""
    removed = 0
    for state in model.states():
        urgent = model.is_urgent(state) if urgent_outputs else not model.is_stable(state)
        if urgent:
            removed += len(model.markovian_dict(state))
    return removed
