"""Maximal progress (urgency) pruning for I/O-IMC.

Output and internal actions of an I/O-IMC are *immediate*: a state with an
enabled locally-controlled transition never lets time pass, hence its Markovian
transitions can never fire.  Removing those Markovian transitions ("maximal
progress" in the Interactive Markov Chain literature) is the first step of
every aggregation pipeline: it is measure-preserving and it enables further
reductions such as the elimination of vanishing states.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Tuple

from .actions import ActionSignature
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
    urgent = _urgent_ids(model.signature, urgent_outputs)
    return model._with_moves(
        [list(pairs) for pairs in model._itrans],
        [
            {} if _has_move_in(pairs, urgent) else dict(rates)
            for pairs, rates in zip(model._itrans, model._mtrans)
        ],
        name,
    )


def _prune_urgent_rates(model: IOIMC, urgent_outputs: bool = True) -> IOIMC:
    """:func:`apply_maximal_progress`, but ``model`` itself (no copy) when no
    urgent state has a Markovian transition — for pipelines that own it."""
    urgent = _urgent_ids(model.signature, urgent_outputs)
    if any(
        rates and _has_move_in(pairs, urgent)
        for pairs, rates in zip(model._itrans, model._mtrans)
    ):
        return apply_maximal_progress(model, urgent_outputs)
    return model


def _urgent_ids(signature: ActionSignature, urgent_outputs: bool) -> FrozenSet[int]:
    """The ids of the actions that make a state urgent: outputs and internal
    actions, or internal actions only under the open-IMC rule."""
    return signature.urgent_ids if urgent_outputs else signature.internal_ids


def _has_move_in(pairs: Sequence[Tuple[int, int]], ids: FrozenSet[int]) -> bool:
    """Whether one of the ``(action_id, target)`` pairs has an action in ``ids``."""
    for aid, _target in pairs:
        if aid in ids:
            return True
    return False


def count_pruned_transitions(model: IOIMC, urgent_outputs: bool = True) -> int:
    """Number of Markovian transitions that maximal progress would remove."""
    removed = 0
    for state in model.states():
        urgent = model.is_urgent(state) if urgent_outputs else not model.is_stable(state)
        if urgent:
            removed += len(model.markovian_dict(state))
    return removed
