"""The round-loop aggregation pipeline, kept as the reference for
:func:`repro.ioimc.reduction.aggregate`, and a canonical model form.

Before the weak minimiser honoured the input own-block rule,
``aggregate()`` repeated its reduction sequence until the model stopped
changing.  The loop below is that pipeline, built from the public
reductions only: each round runs maximal progress, internal self-loop
removal, deterministic-tau compression, reachability, the minimiser, maximal
progress and reachability again.  The one-pass ``aggregate()`` must land on
the same fixpoint, which :func:`canonical_form` compares up to state
numbering.
"""

from typing import Dict, List, Optional, Tuple

from repro.ioimc import (
    IOIMC,
    AggregationOptions,
    apply_maximal_progress,
    compress_deterministic_tau,
    minimize_strong,
    minimize_weak,
    remove_internal_self_loops,
)
from repro.ioimc.actions import action_name
from repro.ioimc.partition import canonical_rate

#: Rounds after which the reference gives up (the old pipeline's cap).
MAX_ROUNDS = 10


def aggregate_to_fixpoint(
    model: IOIMC, options: Optional[AggregationOptions] = None
) -> Tuple[IOIMC, int]:
    """The reduced model and the number of minimiser rounds it took."""
    options = options or AggregationOptions()
    reduced = model.restrict_to_reachable()
    if options.method == "none":
        return reduced, 0
    for rounds in range(1, MAX_ROUNDS + 1):
        size_before = (reduced.num_states, reduced.num_transitions)
        reduced = apply_maximal_progress(reduced)
        reduced = remove_internal_self_loops(reduced)
        reduced = compress_deterministic_tau(reduced)
        reduced = reduced.restrict_to_reachable()
        minimiser = {"weak": minimize_weak, "strong": minimize_strong}.get(options.method)
        if minimiser is not None:
            reduced = minimiser(reduced, algorithm=options.minimiser)
        reduced = apply_maximal_progress(reduced)
        reduced = reduced.restrict_to_reachable()
        if (reduced.num_states, reduced.num_transitions) == size_before:
            return reduced, rounds
    raise AssertionError(f"no fixpoint after {MAX_ROUNDS} rounds for {model.name!r}")


def canonical_form(model: IOIMC) -> tuple:
    """A rendering of ``model`` that does not depend on its state numbering.

    States get colours by iterated refinement over labels, interactive
    moves (action names) and Markovian rates (compared as the minimisers
    compare them), with colour ids ranked by their sorted signatures, so equal
    models get equal colours.  The form lists every state's colour, labels
    and moves by target colour, plus the initial colour.  When all colours
    differ — always so for a bisimulation quotient — equal forms mean
    isomorphic models; otherwise they mean models that colour refinement
    cannot tell apart.
    """
    states = list(model.states())

    def moves(state: int, colour: List[int]) -> tuple:
        interactive = sorted(
            {(action_name(aid), colour[target]) for aid, target in model.interactive_pairs(state)}
        )
        rates: Dict[int, float] = {}
        for target, rate in model.markovian_dict(state).items():
            rates[colour[target]] = rates.get(colour[target], 0.0) + rate
        markovian = sorted((key, _rate_token(rate)) for key, rate in rates.items())
        return tuple(interactive), tuple(markovian)

    def ranked(signatures: List[tuple]) -> List[int]:
        rank = {signature: index for index, signature in enumerate(sorted(set(signatures)))}
        return [rank[signature] for signature in signatures]

    colour = ranked([tuple(sorted(model.labels(state))) for state in states])
    while True:
        refined = ranked([(colour[state], moves(state, colour)) for state in states])
        if len(set(refined)) == len(set(colour)):
            break
        colour = refined
    rows = sorted(
        (colour[state], tuple(sorted(model.labels(state))), moves(state, colour))
        for state in states
    )
    return colour[model.initial], tuple(rows)


def _rate_token(rate) -> tuple:
    """:func:`canonical_rate` tagged by kind, so that plain and parametric
    rates of one model stay comparable when states are ranked."""
    token = canonical_rate(rate)
    return token if isinstance(token, tuple) else ("float", token)
