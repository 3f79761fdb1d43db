"""The aggregation pipeline used after every composition step.

The paper's compositional aggregation interleaves parallel composition with
state-space reduction.  This module wires the individual reductions into a
single :func:`aggregate` entry point, one pass over the model:

1. restriction to reachable states,
2. maximal progress (urgency) pruning,
3. removal of internal self-loops,
4. compression of deterministic internal transitions (vanishing states whose
   only behaviour is a single internal step), and reachability again, a
   search only if step 2 removed a move (steps 3 and 4 keep every state
   reachable),
5. bisimulation minimisation (weak by default, strong as a cross-check),
6. maximal progress and compression once more, then reachability if the
   prune removed a move: the quotient can leave an urgent state with rates
   or a vanishing state,
7. a second minimisation, only if step 6 removed a state (its removal can
   expose a plain lumping).

Weak minimisation is idempotent (the partition honours the input own-block
and divergence rules of
:func:`~repro.ioimc.bisimulation.weak_bisimulation_partition`), so this one
pass lands on the fixpoint that repeating the sequence would reach.  Steps
with nothing to do hand their input on instead of copying it.

Every step preserves the reliability measures computed by the analysis layer;
the pipeline records before/after statistics so benchmarks can report the
"largest intermediate model" figures from Section 5 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ModelError
from .bisimulation import ALGORITHMS, minimize_strong, minimize_weak
from .maximal_progress import _prune_urgent_rates
from .model import IOIMC


@dataclass
class AggregationOptions:
    """Configuration of the aggregation pipeline: the relation and the engine.

    The paper's semantics fixes everything else: output and internal actions are
    urgent under maximal progress, differently labelled states never share
    a block, and aggregate rates are compared
    :data:`~repro.ioimc.partition.RATE_DIGITS` digits past their leading one.

    Attributes
    ----------
    method:
        ``"weak"`` (paper default), ``"strong"``, ``"tau"`` (only steps 1-4) or
        ``"none"`` (reachability restriction only).
    minimiser:
        Bisimulation refinement engine: ``"closure"`` (default, the
        incremental signature refinement of
        :mod:`repro.ioimc.bisimulation`, after a pre-pass that collapses tau
        chains and tau-SCCs) or ``"signature"`` (the seed
        signature-refinement reference).  Both compute identical quotients.
    """

    method: str = "weak"
    minimiser: str = "closure"

    def __post_init__(self) -> None:
        if self.method not in {"weak", "strong", "tau", "none"}:
            raise ModelError(f"unknown aggregation method {self.method!r}")
        if self.minimiser not in ALGORITHMS:
            raise ModelError(
                f"unknown minimiser {self.minimiser!r}; choose one of {ALGORITHMS}"
            )


@dataclass
class AggregationStatistics:
    """Size of a model before and after one aggregation call."""

    states_before: int = 0
    transitions_before: int = 0
    states_after: int = 0
    transitions_after: int = 0

    @property
    def state_reduction(self) -> float:
        """Fraction of states removed (0.0 if the model was already minimal)."""
        if self.states_before == 0:
            return 0.0
        return 1.0 - self.states_after / self.states_before


def remove_internal_self_loops(model: IOIMC) -> IOIMC:
    """Drop internal transitions from a state to itself.

    Weak bisimulation (and every measure we compute) is insensitive to internal
    self-loops; removing them keeps later reductions simple and avoids
    spurious "unstable" states.
    """
    internal = model.signature.internal_ids
    return model._with_moves(
        [
            [
                (aid, target)
                for aid, target in pairs
                if target != state or aid not in internal
            ]
            for state, pairs in enumerate(model._itrans)
        ],
        [dict(rates) for rates in model._mtrans],
    )


def compress_deterministic_tau(model: IOIMC) -> IOIMC:
    """Eliminate states whose only behaviour is a single internal transition.

    Such states are vanishing (no time is spent in them) and deterministic, so
    redirecting their incoming transitions to their unique successor is weak
    bisimulation preserving.  Chains of such states collapse in one pass.
    """
    internal = model.signature.internal_ids
    itrans = model._itrans
    mtrans = model._mtrans
    forward: Dict[int, int] = {}
    for state, pairs in enumerate(itrans):
        if len(pairs) != 1:
            continue
        aid, target = pairs[0]
        if aid not in internal:
            continue
        if target == state:
            continue
        if mtrans[state]:
            continue
        forward[state] = target

    if not forward:
        return model

    # A cycle of deterministic internal transitions (a divergence) cannot be
    # compressed away entirely: keep one representative per cycle so that every
    # forwarding chain terminates in a kept state.
    for start in list(forward):
        if start not in forward:
            continue
        path = []
        on_path = {}
        state = start
        while state in forward and state not in on_path:
            on_path[state] = len(path)
            path.append(state)
            state = forward[state]
        if state in on_path:  # found a cycle: keep its smallest member
            representative = min(path[on_path[state]:])
            del forward[representative]

    def resolve(state: int) -> int:
        while state in forward:
            state = forward[state]
        return state

    keep = [state for state in range(model.num_states) if state not in forward]
    remap = [-1] * model.num_states
    for new, old in enumerate(keep):
        remap[old] = new
    # Where every state's moves now lead, in the compressed numbering.
    moved = [remap[resolve(state)] for state in range(model.num_states)]
    compressed_itrans: List[List[Tuple[int, int]]] = []
    compressed_mtrans: List[Dict[int, float]] = []
    for old in keep:
        compressed_itrans.append(
            list(dict.fromkeys((aid, moved[target]) for aid, target in itrans[old]))
        )
        rates: Dict[int, float] = {}
        for target, rate in mtrans[old].items():
            resolved_target = moved[target]
            rates[resolved_target] = rates.get(resolved_target, 0.0) + rate
        compressed_mtrans.append(rates)
    names = model._shown_names()
    # Every path through a vanishing state now goes where that state led,
    # so a model with every state reachable keeps that.
    return IOIMC._from_lists(
        model.name,
        model.signature,
        compressed_itrans,
        compressed_mtrans,
        [model._labels[old] for old in keep],
        [names[old] for old in keep],
        moved[model.initial],
        model._all_reachable,
    )


def _drop_internal_self_loops(model: IOIMC) -> IOIMC:
    """:func:`remove_internal_self_loops`, but ``model`` itself (no copy)
    when it has none."""
    internal = model.signature.internal_ids
    if any(
        target == state and aid in internal
        for state, pairs in enumerate(model._itrans)
        for aid, target in pairs
    ):
        return remove_internal_self_loops(model)
    return model


def aggregate(
    model: IOIMC,
    options: Optional[AggregationOptions] = None,
) -> tuple[IOIMC, AggregationStatistics]:
    """Run the full aggregation pipeline on ``model``.

    Returns the reduced model (never ``model`` itself), restricted to the
    states reachable from its initial one, together with before/after
    statistics.  Step 1 searches only when ``model`` is not marked as having
    every state reachable (see :meth:`~repro.ioimc.model.IOIMC._reachable_part`);
    the products of :func:`~repro.ioimc.composition.parallel` and the
    models of :func:`~repro.ioimc.behavior.build_ioimc` are marked, so the
    aggregation loop never searches before a maximal-progress prune.
    """
    options = options or AggregationOptions()
    stats = AggregationStatistics(
        states_before=model.num_states,
        transitions_before=model.num_transitions,
    )

    # The steps around the minimiser hand their input on when they have
    # nothing to do, so an already-reduced model is not copied over and over.
    reduced = model._reachable_part()
    if options.method != "none":
        reduced = _minimise(_settle(reduced), options)
        # The quotient can leave an urgent state with rates, or a vanishing
        # state whose removal exposes a plain lumping: settle both, and
        # minimise once more only in the second case.
        settled = _settle(reduced)
        if settled.num_states < reduced.num_states:
            settled = _settle(_minimise(settled, options))
        reduced = settled

    if reduced is model:
        reduced = model.copy()
    reduced.name = model.name
    stats.states_after = reduced.num_states
    stats.transitions_after = reduced.num_transitions
    return reduced, stats


def _minimise(model: IOIMC, options: AggregationOptions) -> IOIMC:
    """Quotient of ``model`` modulo the relation of ``options.method``
    (the model itself for ``"tau"``)."""
    if options.method == "weak":
        minimiser = minimize_weak
    elif options.method == "strong":
        minimiser = minimize_strong
    else:
        return model
    return minimiser(model, algorithm=options.minimiser)


def _settle(model: IOIMC) -> IOIMC:
    """Maximal progress, internal self-loop removal and deterministic-tau
    compression, then reachability (steps 2-4, and step 6: a strong
    quotient or a compressed tau-cycle can carry internal self-loops).

    ``model`` is marked as having every state reachable, and only the
    maximal-progress prune can cut a state off: dropping self-loops keeps
    every path, and compression reroutes each path through a vanishing
    state to where that state leads, so both keep the mark.  So the
    reachability search runs only after a prune, which leaves its copy
    unmarked.
    """
    pruned = _prune_urgent_rates(model)
    return compress_deterministic_tau(_drop_internal_self_loops(pruned))._reachable_part()
