"""The compositional aggregation engine (Steps 2-5 of the paper's algorithm).

Given the community of I/O-IMC produced by :mod:`repro.core.conversion` (the
elementary models as built), the engine repeatedly

1. picks two I/O-IMC (according to a configurable ordering strategy),
2. parallel composes them (with maximal progress fused into the exploration
   by default, see :func:`repro.ioimc.composition.parallel`),
3. hides every output signal that no remaining community member listens to,
4. aggregates the result (weak bisimulation by default; the closure engine
   of :mod:`repro.ioimc.bisimulation` unless ``AggregationOptions.minimiser``
   selects another),

until a single I/O-IMC is left.  An elementary model is thus reduced, under
the run's own aggregation options, in the first step that composes it.  The
engine records the size of every intermediate model; the *peak* sizes are
the numbers the paper reports when comparing against the monolithic DIFTree
state spaces (Section 5.2: 156 states / 490 transitions for the cascaded
PAND system versus 4113 / 24608).

Each distinct hidden product is aggregated once per run.  ``aggregate()``
reads action names only through their order within each role (the tau
representative of a weak quotient is the smallest internal name), so a
product that equals an earlier one once every action is replaced by its role
and the rank of its name within that role gets the earlier quotient, renamed
(:class:`_QuotientMemo`).  Rates must match exactly, so repeated modules
with equal rates, such as the cascaded PAND's identical cascades, are
minimised once.  The memo lives for one :meth:`CompositionalAggregator.run`.

Ordering strategies
-------------------

``modular`` (default, :data:`DEFAULT_ORDERING`)
    Follow a precomputed :class:`~repro.core.planning.AggregationPlan`: the
    independent modules of the fault tree are collapsed innermost-first, each
    group ordered by the shared-action index; the cross-module residue is
    composed last.  Requires the :class:`~repro.core.conversion.Community`
    (for the tree and member provenance); without it, or in a tree without
    independent modules, the strategy is ``linked``.
``linked``
    Compose the smallest pair of models that actually communicate (share an
    action).  Because children and parents share their firing signals, this
    effectively walks the fault tree bottom-up and keeps intermediate products
    small.  Candidate pairs come from the incrementally maintained
    :class:`~repro.core.planning.SharedActionIndex`, not from an ``O(k^2)``
    rescan of all pairs.
``smallest``
    Compose the pair with the smallest state-count product, whether or not the
    two models communicate.
``sequential``
    Fold the community in the order the converter emitted it (a deliberately
    naive baseline for the ordering ablation benchmark).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import CompositionError
from ..ioimc.actions import intern_action
from ..ioimc.composition import parallel
from ..ioimc.model import IOIMC
from ..ioimc.reduction import AggregationOptions, aggregate
from .planning import AggregationPlan, PlanNode, SharedActionIndex, build_plan

ORDERING_STRATEGIES = ("linked", "smallest", "sequential", "modular")
#: The ordering of every Study, engine and CLI run that does not name one.
DEFAULT_ORDERING = "modular"


@dataclass
class CompositionStep:
    """Record of one compose/hide/aggregate iteration."""

    left: str
    right: str
    product_states: int
    product_transitions: int
    hidden_actions: Tuple[str, ...]
    reduced_states: int
    reduced_transitions: int

    def to_dict(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "product_states": self.product_states,
            "product_transitions": self.product_transitions,
            "hidden_actions": list(self.hidden_actions),
            "reduced_states": self.reduced_states,
            "reduced_transitions": self.reduced_transitions,
        }


@dataclass
class CompositionStatistics:
    """Aggregate statistics of a full compositional aggregation run."""

    steps: List[CompositionStep] = field(default_factory=list)
    final_states: int = 0
    final_transitions: int = 0

    @property
    def peak_product_states(self) -> int:
        """Largest intermediate model *before* aggregation."""
        return max((step.product_states for step in self.steps), default=self.final_states)

    @property
    def peak_product_transitions(self) -> int:
        return max(
            (step.product_transitions for step in self.steps), default=self.final_transitions
        )

    @property
    def peak_reduced_states(self) -> int:
        """Largest intermediate model *after* aggregation."""
        return max((step.reduced_states for step in self.steps), default=self.final_states)

    @property
    def peak_reduced_transitions(self) -> int:
        return max(
            (step.reduced_transitions for step in self.steps), default=self.final_transitions
        )

    def to_dict(self, include_steps: bool = True) -> dict:
        payload = {
            "num_steps": len(self.steps),
            "peak_product_states": self.peak_product_states,
            "peak_product_transitions": self.peak_product_transitions,
            "peak_reduced_states": self.peak_reduced_states,
            "peak_reduced_transitions": self.peak_reduced_transitions,
            "final_states": self.final_states,
            "final_transitions": self.final_transitions,
        }
        if include_steps:
            payload["steps"] = [step.to_dict() for step in self.steps]
        return payload

    def summary(self) -> str:
        return (
            f"{len(self.steps)} composition steps, "
            f"peak product {self.peak_product_states} states / "
            f"{self.peak_product_transitions} transitions, "
            f"peak aggregated {self.peak_reduced_states} states / "
            f"{self.peak_reduced_transitions} transitions, "
            f"final {self.final_states} states / {self.final_transitions} transitions"
        )


@dataclass
class CompositionalAggregationOptions:
    """Options of the engine."""

    ordering: str = DEFAULT_ORDERING
    aggregation: AggregationOptions = field(default_factory=AggregationOptions)
    #: Output actions that must never be hidden (observable to the end).
    keep_visible: Tuple[str, ...] = ()
    #: Fuse maximal progress + internal self-loop elimination into the
    #: composition exploration (lowers peak product sizes; disable to measure
    #: the compose-then-reduce baseline).
    fuse: bool = True

    def __post_init__(self) -> None:
        if self.ordering not in ORDERING_STRATEGIES:
            raise CompositionError(
                f"unknown ordering strategy {self.ordering!r}; "
                f"choose one of {ORDERING_STRATEGIES}"
            )


def _renaming_key(model: IOIMC) -> Tuple[Tuple[str, ...], tuple]:
    """``(names, key)``: the model's action names by role (inputs, outputs,
    internals), each role sorted, and a key in which every action is its
    position in ``names``.

    Two models with equal keys are equal up to a renaming that keeps the
    name order within each role: the role sizes are part of the key.  The
    rates are kept as they are — exact floats, and parametric forms with
    their parameter names, which no action renaming touches.  States and
    moves are packed into one byte string, so a run's memo stays small next
    to the products it describes.
    """
    sig = model.signature
    roles = (sorted(sig.inputs), sorted(sig.outputs), sorted(sig.internals))
    names = tuple(name for role in roles for name in role)
    rank = {intern_action(name): position for position, name in enumerate(names)}
    label_sets: Dict[FrozenSet[str], int] = {}
    ints = [len(role) for role in roles]
    ints += (model.num_states, model.initial)
    rates: List[object] = []
    for state in model.states():
        moves = sorted((rank[aid], target) for aid, target in model.interactive_pairs(state))
        markovian = sorted(model.markovian_dict(state).items())
        ints += (label_sets.setdefault(model.labels(state), len(label_sets)), len(moves))
        ints += chain.from_iterable(moves)
        ints.append(len(markovian))
        for target, rate in markovian:
            ints.append(target)
            rates.append(rate)
    key = (tuple(label_sets), array("q", ints).tobytes(), tuple(rates))
    return names, key


class _QuotientMemo:
    """``aggregate()`` under fixed options, each distinct product once.

    ``aggregate()`` depends on action names only through their order within
    each role, so a product whose :func:`_renaming_key` equals an earlier
    product's gets that product's quotient with its actions renamed, rank for
    rank.  A hit returns a fresh copy (:meth:`IOIMC.rename_actions`), never
    the kept quotient; the models a run composes are never modified, so the
    quotient a miss returns may stay in the memo.
    """

    def __init__(self, options: AggregationOptions) -> None:
        self.options = options
        self._quotients: Dict[tuple, Tuple[IOIMC, Tuple[str, ...]]] = {}

    def aggregate(self, model: IOIMC) -> IOIMC:
        names, key = _renaming_key(model)
        known = self._quotients.get(key)
        if known is not None:
            quotient, known_names = known
            mapping = {old: new for old, new in zip(known_names, names) if old != new}
            return quotient.rename_actions(mapping, name=model.name)
        quotient, _stats = aggregate(model, self.options)
        self._quotients[key] = (quotient, names)
        return quotient


class _Workspace:
    """The live models of a run, keyed, with the shared-action index and the
    run's quotient memo."""

    def __init__(self, aggregation: AggregationOptions) -> None:
        self.models: Dict[int, IOIMC] = {}
        self.order: List[int] = []  # insertion order (sequential/smallest picks)
        self.index = SharedActionIndex()
        self.quotients = _QuotientMemo(aggregation)
        self._next_key = 0

    def add(self, model: IOIMC) -> int:
        key = self._next_key
        self._next_key += 1
        self.models[key] = model
        self.order.append(key)
        self.index.add(key, model)
        return key

    def pop(self, key: int) -> IOIMC:
        model = self.models.pop(key)
        self.order.remove(key)
        self.index.remove(key)
        return model

    def external_inputs(self) -> set:
        """Union of the input actions of all live models."""
        inputs: set = set()
        for model in self.models.values():
            inputs |= model.signature.inputs
        return inputs


class CompositionalAggregator:
    """Reduces a community of I/O-IMC to a single aggregated I/O-IMC.

    ``community`` (optional) supplies the fault tree and member provenance
    needed by the ``modular`` ordering; the models must then be exactly
    ``community.models()``.
    """

    def __init__(
        self,
        models: Sequence[IOIMC],
        options: Optional[CompositionalAggregationOptions] = None,
        community=None,
    ):
        if not models:
            raise CompositionError("the community is empty")
        self._models: List[IOIMC] = list(models)
        self._community = community
        self.options = options or CompositionalAggregationOptions()

    # ------------------------------------------------------------ public API
    def run(self) -> Tuple[IOIMC, CompositionStatistics]:
        """Execute the full compose/hide/aggregate loop."""
        statistics = CompositionStatistics()

        if len(self._models) == 1:
            only, _stats = aggregate(
                self._hide(self._models[0], external_inputs=set()),
                self.options.aggregation,
            )
            statistics.final_states = only.num_states
            statistics.final_transitions = only.num_transitions
            return only, statistics

        workspace = _Workspace(self.options.aggregation)
        keys = [workspace.add(model) for model in self._models]

        plan = self._plan(keys)
        if plan is not None:
            final_key = self._collapse(plan.root, workspace, statistics, keys)
        else:
            final_key = self._collapse_group(keys, workspace, statistics)

        final = workspace.models[final_key]
        statistics.final_states = final.num_states
        statistics.final_transitions = final.num_transitions
        return final, statistics

    # ------------------------------------------------------------- plan mode
    def _plan(self, keys: Sequence[int]) -> Optional[AggregationPlan]:
        """The aggregation plan, or ``None`` when running a flat strategy."""
        if self.options.ordering != "modular":
            return None
        community = self._community
        if community is None or len(community.members) != len(keys):
            return None  # no provenance: degrade gracefully to "linked"
        return build_plan(community)

    def _collapse(
        self,
        node: PlanNode,
        workspace: _Workspace,
        statistics: CompositionStatistics,
        keys: Sequence[int],
    ) -> int:
        """Collapse a plan node (children first) to a single model key."""
        group = [self._collapse(child, workspace, statistics, keys) for child in node.children]
        group.extend(keys[index] for index in node.member_indices)
        return self._collapse_group(group, workspace, statistics)

    # ------------------------------------------------------------- flat mode
    def _collapse_group(
        self,
        group: List[int],
        workspace: _Workspace,
        statistics: CompositionStatistics,
    ) -> int:
        """Compose/hide/aggregate the given keys down to a single key."""
        group = list(group)
        while len(group) > 1:
            key_a, key_b = self._pick_pair(group, workspace)
            group.remove(key_a)
            group.remove(key_b)
            group.append(self._step(key_a, key_b, workspace, statistics))
        return group[0]

    def _step(
        self,
        key_a: int,
        key_b: int,
        workspace: _Workspace,
        statistics: CompositionStatistics,
    ) -> int:
        """One compose/hide/aggregate iteration on the workspace."""
        left = workspace.pop(key_a)
        right = workspace.pop(key_b)

        composite = parallel(
            left,
            right,
            fuse=self.options.fuse and self.options.aggregation.method != "none",
            urgent_outputs=self.options.aggregation.urgent_outputs,
        )
        product_states = composite.num_states
        product_transitions = composite.num_transitions

        hidden_before = composite.signature.outputs
        composite = self._hide(composite, workspace.external_inputs())
        hidden_actions = tuple(sorted(hidden_before - composite.signature.outputs))

        composite = workspace.quotients.aggregate(composite)

        statistics.steps.append(
            CompositionStep(
                left=left.name,
                right=right.name,
                product_states=product_states,
                product_transitions=product_transitions,
                hidden_actions=hidden_actions,
                reduced_states=composite.num_states,
                reduced_transitions=composite.num_transitions,
            )
        )
        return workspace.add(composite)

    # ---------------------------------------------------------------- helpers
    def _hide(self, model: IOIMC, external_inputs: Iterable[str]) -> IOIMC:
        """Hide outputs of ``model`` that no remaining member listens to."""
        keep = set(self.options.keep_visible) | set(external_inputs)
        hideable = model.signature.outputs - keep
        if not hideable:
            return model
        return model.hide(hideable, name=model.name)

    def _pick_pair(self, group: Sequence[int], workspace: _Workspace) -> Tuple[int, int]:
        strategy = self.options.ordering
        if strategy == "sequential":
            group_set = set(group)
            ordered = [key for key in workspace.order if key in group_set]
            return ordered[0], ordered[1]
        if strategy == "smallest":
            return self._pick_smallest(group, workspace)
        # "linked" and "modular" groups: smallest communicating pair from the
        # shared-action index; fall back to the smallest product overall when
        # nothing communicates.
        models = workspace.models
        index = workspace.index
        best: Optional[Tuple[int, int]] = None
        best_key: Optional[Tuple[int, int, int, int]] = None
        for key_a, key_b in index.communicating_pairs(frozenset(group)):
            product = models[key_a].num_states * models[key_b].num_states
            shared = index.shared_count(key_a, key_b)
            candidate = (product, -shared, key_a, key_b)
            if best_key is None or candidate < best_key:
                best_key = candidate
                best = (key_a, key_b)
        if best is not None:
            return best
        return self._pick_smallest(group, workspace)

    @staticmethod
    def _pick_smallest(group: Sequence[int], workspace: _Workspace) -> Tuple[int, int]:
        models = workspace.models
        group_set = set(group)
        ordered = [key for key in workspace.order if key in group_set]
        best: Optional[Tuple[int, int]] = None
        best_product: Optional[int] = None
        for i, key_a in enumerate(ordered):
            states_a = models[key_a].num_states
            for key_b in ordered[i + 1 :]:
                product = states_a * models[key_b].num_states
                if best_product is None or product < best_product:
                    best_product = product
                    best = (key_a, key_b)
        assert best is not None
        return best


def compositional_aggregate(
    models: Sequence[IOIMC],
    ordering: str = DEFAULT_ORDERING,
    aggregation: Optional[AggregationOptions] = None,
    keep_visible: Iterable[str] = (),
    community=None,
    fuse: bool = True,
) -> Tuple[IOIMC, CompositionStatistics]:
    """Convenience wrapper around :class:`CompositionalAggregator`."""
    options = CompositionalAggregationOptions(
        ordering=ordering,
        aggregation=aggregation or AggregationOptions(),
        keep_visible=tuple(keep_visible),
        fuse=fuse,
    )
    return CompositionalAggregator(models, options, community=community).run()
