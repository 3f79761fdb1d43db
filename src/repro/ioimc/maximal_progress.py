"""Maximal progress (urgency) pruning for I/O-IMC.

Output and internal actions of an I/O-IMC are *immediate*: a state with an
enabled locally-controlled transition never lets time pass, hence its Markovian
transitions can never fire.  Removing those Markovian transitions ("maximal
progress" in the Interactive Markov Chain literature) is the first step of
every aggregation pipeline: it is measure-preserving and it enables further
reductions such as the elimination of vanishing states.  The urgent actions
are the signature's ``urgent_ids``: outputs and internal actions, as the
paper's I/O-IMC semantics fixes them.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Tuple

from .model import IOIMC


def apply_maximal_progress(model: IOIMC) -> IOIMC:
    """Return a copy of ``model`` without Markovian transitions in urgent states."""
    urgent = model.signature.urgent_ids
    # Dropping rates can cut states off, so the copy is not marked as
    # all-reachable.
    return model._with_moves(
        [list(pairs) for pairs in model._itrans],
        [
            {} if _has_move_in(pairs, urgent) else dict(rates)
            for pairs, rates in zip(model._itrans, model._mtrans)
        ],
        keeps_paths=False,
    )


def _prune_urgent_rates(model: IOIMC) -> IOIMC:
    """:func:`apply_maximal_progress`, but ``model`` itself (no copy) when no
    urgent state has a Markovian transition — for pipelines that own it."""
    urgent = model.signature.urgent_ids
    if any(
        rates and _has_move_in(pairs, urgent)
        for pairs, rates in zip(model._itrans, model._mtrans)
    ):
        return apply_maximal_progress(model)
    return model


def _has_move_in(pairs: Sequence[Tuple[int, int]], ids: FrozenSet[int]) -> bool:
    """Whether one of the ``(action_id, target)`` pairs has an action in ``ids``."""
    for aid, _target in pairs:
        if aid in ids:
            return True
    return False


def count_pruned_transitions(model: IOIMC) -> int:
    """Number of Markovian transitions that maximal progress would remove."""
    return sum(
        len(model.markovian_dict(state))
        for state in model.states()
        if model.is_urgent(state)
    )
