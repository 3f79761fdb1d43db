"""The aggregation pipeline used after every composition step.

The paper's compositional aggregation interleaves parallel composition with
state-space reduction.  This module wires the individual reductions into a
single :func:`aggregate` entry point, one pass over the model:

1. restriction to reachable states,
2. maximal progress (urgency) pruning,
3. removal of internal self-loops,
4. compression of deterministic internal transitions (vanishing states whose
   only behaviour is a single internal step), and reachability again,
5. bisimulation minimisation (weak by default, strong as a cross-check),
6. maximal progress and compression once more, then reachability: the
   quotient can leave an urgent state with rates or a vanishing state,
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
from .partition import DEFAULT_RATE_DIGITS


@dataclass
class AggregationOptions:
    """Configuration of the aggregation pipeline.

    Attributes
    ----------
    method:
        ``"weak"`` (paper default), ``"strong"``, ``"tau"`` (only steps 1-4) or
        ``"none"`` (reachability restriction only).
    urgent_outputs:
        Whether output actions make a state urgent for maximal progress
        (I/O-IMC semantics; ``True`` in the paper).
    respect_labels:
        Keep differently labelled states apart during minimisation.
    minimiser:
        Bisimulation refinement engine: ``"closure"`` (default, saturation-free
        closure-then-strong refinement with batched frontiers),
        ``"splitter"`` (per-splitter partition refinement on the tau-SCC
        condensation) or ``"signature"`` (the seed signature-refinement
        reference).  All three compute identical quotients.
    rate_digits:
        Significant digits compared when two aggregate Markovian rates are
        tested for equality during refinement (default
        :data:`~repro.ioimc.partition.DEFAULT_RATE_DIGITS`); all engines
        honour the same precision.
    """

    method: str = "weak"
    urgent_outputs: bool = True
    respect_labels: bool = True
    minimiser: str = "closure"
    rate_digits: int = DEFAULT_RATE_DIGITS

    def __post_init__(self) -> None:
        if self.method not in {"weak", "strong", "tau", "none"}:
            raise ModelError(f"unknown aggregation method {self.method!r}")
        if self.minimiser not in ALGORITHMS:
            raise ModelError(
                f"unknown minimiser {self.minimiser!r}; choose one of {ALGORITHMS}"
            )
        if not isinstance(self.rate_digits, int) or self.rate_digits < 1:
            raise ModelError(
                f"rate_digits must be a positive integer, got {self.rate_digits!r}"
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
    cleaned = model._skeleton()
    for state in model.states():
        cleaned._set_interactive_raw(
            state,
            [
                (aid, target)
                for aid, target in model.interactive_pairs(state)
                if target != state or aid not in internal
            ],
        )
        cleaned._set_markovian_raw(state, dict(model.markovian_dict(state)))
    return cleaned


def compress_deterministic_tau(model: IOIMC) -> IOIMC:
    """Eliminate states whose only behaviour is a single internal transition.

    Such states are vanishing (no time is spent in them) and deterministic, so
    redirecting their incoming transitions to their unique successor is weak
    bisimulation preserving.  Chains of such states collapse in one pass.
    """
    internal = model.signature.internal_ids
    forward: Dict[int, int] = {}
    for state in model.states():
        pairs = model.interactive_pairs(state)
        if len(pairs) != 1:
            continue
        aid, target = pairs[0]
        if aid not in internal:
            continue
        if target == state:
            continue
        if model.markovian_dict(state):
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

    resolved = {state: resolve(state) for state in model.states()}
    keep = sorted(state for state in model.states() if state not in forward)
    remap = {old: new for new, old in enumerate(keep)}

    compressed = IOIMC(model.name, model.signature)
    for old in keep:
        compressed.add_state(labels=model.labels(old), name=model.state_name(old))
    for old in keep:
        new = remap[old]
        pairs: List[Tuple[int, int]] = []
        for aid, target in model.interactive_pairs(old):
            pair = (aid, remap[resolved[target]])
            if pair not in pairs:
                pairs.append(pair)
        compressed._set_interactive_raw(new, pairs)
        rates: Dict[int, float] = {}
        for target, rate in model.markovian_dict(old).items():
            resolved_target = remap[resolved[target]]
            rates[resolved_target] = rates.get(resolved_target, 0.0) + rate
        compressed._set_markovian_raw(new, rates)
    compressed.set_initial(remap[resolved[model.initial]])
    return compressed


def _drop_internal_self_loops(model: IOIMC) -> IOIMC:
    """:func:`remove_internal_self_loops`, but ``model`` itself (no copy)
    when it has none."""
    internal = model.signature.internal_ids
    if any(
        target == state and aid in internal
        for state in model.states()
        for aid, target in model.interactive_pairs(state)
    ):
        return remove_internal_self_loops(model)
    return model


def aggregate(
    model: IOIMC,
    options: Optional[AggregationOptions] = None,
) -> tuple[IOIMC, AggregationStatistics]:
    """Run the full aggregation pipeline on ``model``.

    Returns the reduced model (never ``model`` itself) together with
    before/after statistics.
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
        reduced = _minimise(_settle(reduced, options), options)
        # The quotient can leave an urgent state with rates, or a vanishing
        # state whose removal exposes a plain lumping: settle both, and
        # minimise once more only in the second case.
        settled = _settle(reduced, options)
        if settled.num_states < reduced.num_states:
            settled = _settle(_minimise(settled, options), options)
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
    return minimiser(
        model,
        respect_labels=options.respect_labels,
        algorithm=options.minimiser,
        rate_digits=options.rate_digits,
    )


def _settle(model: IOIMC, options: AggregationOptions) -> IOIMC:
    """Maximal progress, internal self-loop removal and deterministic-tau
    compression, then reachability (steps 2-4, and step 6: a strong
    quotient or a compressed tau-cycle can carry internal self-loops)."""
    settled = _prune_urgent_rates(model, options.urgent_outputs)
    settled = _drop_internal_self_loops(settled)
    return compress_deterministic_tau(settled)._reachable_part()
