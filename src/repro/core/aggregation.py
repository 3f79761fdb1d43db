"""The compositional aggregation engine (Steps 2-5 of the paper's algorithm).

Given the community of I/O-IMC produced by :mod:`repro.core.conversion` (the
elementary models as built), the engine repeatedly

1. picks two I/O-IMC (according to a configurable ordering strategy),
2. parallel composes them (with maximal progress fused into the exploration
   by default, see :func:`repro.ioimc.composition.parallel`),
3. hides every output signal that no remaining community member listens to,
4. aggregates the result (weak bisimulation by default; the default engine
   of :mod:`repro.ioimc.bisimulation` unless ``AggregationOptions.minimiser``
   selects the signature reference),

until a single I/O-IMC is left.  An elementary model is thus reduced, under
the run's own aggregation options, in the first step that composes it.  The
engine records the size of every intermediate model; the *peak* sizes are
the numbers the paper reports when comparing against the monolithic DIFTree
state spaces (Section 5.2: 156 states / 490 transitions for the cascaded
PAND system versus 4113 / 24608).

Each distinct hidden product is aggregated once per memo.  ``aggregate()``
reads action names only through their order within each role (the tau
representative of a weak quotient is the smallest internal name), and rate
parameters only through structural equality, their sorted order and
positivity checks.  So a product that equals an earlier one once every
action is replaced by its role and the rank of its name within that role,
and every rate parameter by the rank of its name among the product's
parameters, gets the earlier quotient, renamed (:class:`QuotientMemo`); its
renamed rates take the asking product's nominal values.  Repeated modules
such as the cascaded PAND's identical cascades, or the channels of a
parametric race bank whose per-event parameters differ only in name, are
minimised once; concrete rates must still match exactly, so modules with
staggered numeric rates are not.  The key also carries the aggregation
options.  A product builds its key only when an earlier product of the
memo had its pre-key (state count, initial state, role sizes and options):
most products share it with none, and they miss without a key or a
pickle.  A cache-less run keeps its own memo for one
:meth:`CompositionalAggregator.run`; a
:class:`~repro.service.store.SkeletonStore` owns one memo that every entry
it builds shares.  A memo keeps at most :data:`QUOTIENT_MEMO_CAPACITY`
quotients, least recently used out first.  The last product of a run, the
whole tree, is aggregated without the memo: it is usually the largest, and
only an equal tree could ask for it again.

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
    rescan of all pairs.  When no two models communicate, the pair with the
    smallest state-count product goes first.
``sequential``
    Fold the community in the order the converter emitted it (a deliberately
    naive baseline for the ordering ablation benchmark).
"""

from __future__ import annotations

import pickle
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from itertools import chain, count
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import CompositionError
from ..ioimc.actions import intern_action
from ..ioimc.composition import parallel
from ..ioimc.model import IOIMC
from ..ioimc.rates import ParametricRate
from ..ioimc.reduction import AggregationOptions, aggregate
from .planning import AggregationPlan, PlanNode, SharedActionIndex, build_plan
from .wire import Derived, Key, Layout, Record

ORDERING_STRATEGIES = ("linked", "sequential", "modular")
#: The ordering of every Study, engine and CLI run that does not name one.
DEFAULT_ORDERING = "modular"


def check_ordering(ordering: str) -> None:
    """Reject an ordering strategy the engine does not know."""
    if ordering not in ORDERING_STRATEGIES:
        raise CompositionError(
            f"unknown ordering strategy {ordering!r}; choose one of {ORDERING_STRATEGIES}"
        )


@dataclass
class CompositionStep(Record):
    """Record of one compose/hide/aggregate iteration."""

    left: str
    right: str
    product_states: int
    product_transitions: int
    hidden_actions: Tuple[str, ...]
    reduced_states: int
    reduced_transitions: int

    WIRE = Layout("composition step")


@dataclass(frozen=True)
class StatisticsSummary(Record):
    """Peaks and final sizes of an aggregation run: the fields of
    :meth:`CompositionStatistics.to_dict` without the per-step records, which
    batch rows, skeleton store entries and brief payloads keep."""

    num_steps: int
    peak_product_states: int
    peak_product_transitions: int
    peak_reduced_states: int
    peak_reduced_transitions: int
    final_states: int
    final_transitions: int

    WIRE = Layout("statistics")

    def summary(self) -> str:
        return (
            f"{self.num_steps} composition steps, "
            f"peak product {self.peak_product_states} states / "
            f"{self.peak_product_transitions} transitions, "
            f"peak aggregated {self.peak_reduced_states} states / "
            f"{self.peak_reduced_transitions} transitions, "
            f"final {self.final_states} states / {self.final_transitions} transitions"
        )


@dataclass
class CompositionStatistics(Record):
    """Aggregate statistics of a full compositional aggregation run."""

    steps: List[CompositionStep] = field(default_factory=list)
    final_states: int = 0
    final_transitions: int = 0

    WIRE = Layout(
        "statistics",
        *(Derived(f.name) for f in fields(StatisticsSummary)[:5]),
        "final_states",
        "final_transitions",
        Key("steps", detail=True),
    )

    @property
    def num_steps(self) -> int:
        return len(self.steps)

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

    def summary_record(self) -> StatisticsSummary:
        return StatisticsSummary(*(getattr(self, f.name) for f in fields(StatisticsSummary)))

    def summary(self) -> str:
        return self.summary_record().summary()


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
        check_ordering(self.ordering)


#: Quotients a :class:`QuotientMemo` keeps; beyond this many the least
#: recently used goes.  A service's stream of cold trees keeps most of its
#: reuse well below it, and the bound keeps a long-lived store's memo small.
QUOTIENT_MEMO_CAPACITY = 256
#: Products a :class:`QuotientMemo` keeps unkeyed, as live models; beyond
#: this many the oldest is keyed and pickled like any repeated one.  A
#: cache-less run of a benchmark-ladder tree misses at most 24 times, so it
#: keys none of its own; on a store's stream of parametric products a live
#: product and its quotient take about 38 KB, several times the pickle.
UNKEYED_MEMO_CAPACITY = 32


class _Key(NamedTuple):
    """A product's memo key and what a hit needs to rename a quotient."""

    #: Action names by role (inputs, outputs, internals), each role sorted.
    names: Tuple[str, ...]
    #: Rate parameter names, sorted.
    parameters: Tuple[str, ...]
    #: Nominal value of every parameter of the product.
    nominals: Dict[str, float]
    key: bytes


def _renaming_key(model: IOIMC, options: AggregationOptions) -> _Key:
    """The memo key of ``model`` under ``options``.

    Every action is its role and the rank of its name within the role, and
    every parameter of a parametric rate the rank of its name among the
    model's parameters: two models with equal keys are equal up to a
    renaming that keeps the name order within each role and among the
    parameters.  Plain rates, constants and coefficients are exact doubles;
    nominal values are left out (a hit takes the asking model's).  States,
    moves, rates, labels and the aggregation options are packed into one
    byte string, so a memo stays small next to the products it describes.
    """
    sig = model.signature
    roles = (sorted(sig.inputs), sorted(sig.outputs), sorted(sig.internals))
    names = tuple(name for role in roles for name in role)
    rank = {intern_action(name): position for position, name in enumerate(names)}
    label_sets: Dict[FrozenSet[str], int] = {}
    ints = [len(role) for role in roles]
    ints += (model.num_states, model.initial)
    # One double per Markovian move: the rate, or a parametric rate's
    # constant (``slots`` marks those, ``forms`` holds their rates).
    floats: List[float] = []
    slots: List[int] = []
    forms: List[ParametricRate] = []
    for pairs, markovian, labels in zip(model._itrans, model._mtrans, model._labels):
        ints += (label_sets.setdefault(labels, len(label_sets)), len(pairs))
        if pairs:
            ints += chain.from_iterable(sorted([(rank[aid], target) for aid, target in pairs]))
        ints.append(len(markovian))
        if not markovian:
            continue
        targets = sorted(markovian)
        ints += targets
        for target in targets:
            rate = markovian[target]
            if type(rate) is ParametricRate:
                slots.append(len(floats))
                forms.append(rate)
                floats.append(rate.const)
            else:
                floats.append(rate)
    nominals: Dict[str, float] = {}
    for rate in forms:
        nominals.update(rate.nominals)
    parameters = tuple(sorted(nominals))
    ints.append(len(parameters))
    ints += slots
    if forms:
        position = {name: index for index, name in enumerate(parameters)}
        for rate in forms:
            coeffs = rate.coeffs
            ints.append(len(coeffs))
            for name in sorted(coeffs) if len(coeffs) > 1 else coeffs:
                ints.append(position[name])
                floats.append(coeffs[name])
    text = repr(
        (
            [sorted(labels) for labels in label_sets],
            options.method,
            options.minimiser,
        )
    )
    key = b"".join(
        (
            array("q", (len(ints), len(floats), len(slots))).tobytes(),
            array("q", ints).tobytes(),
            array("d", floats).tobytes(),
            text.encode(),
        )
    )
    return _Key(names, parameters, nominals, key)


def _pre_key(model: IOIMC, options: AggregationOptions) -> Tuple[object, ...]:
    """What :func:`_renaming_key` starts from: state count, initial state,
    the sizes of the three roles and the options.  Equal keys imply equal
    pre-keys, so only a product whose pre-key an earlier one had can hit."""
    sig = model.signature
    return (
        model.num_states,
        model.initial,
        len(sig.inputs),
        len(sig.outputs),
        len(sig.internals),
        options.method,
        options.minimiser,
    )


class _Quotient(NamedTuple):
    """A keyed entry of :class:`QuotientMemo`."""

    #: The pickled quotient.
    blob: bytes
    #: Its product's action and parameter names (:class:`_Key`).
    names: Tuple[str, ...]
    parameters: Tuple[str, ...]
    pre_key: Tuple[object, ...]
    #: When it was last asked for (the memo's clock).
    used: int


class _Pending(NamedTuple):
    """A product whose pre-key no other kept product has, and its
    quotient, kept as they are until a product with that pre-key asks."""

    product: IOIMC
    quotient: IOIMC
    options: AggregationOptions
    used: int


class QuotientMemo:
    """``aggregate()``, each distinct product once, with a bounded memory.

    ``aggregate()`` reads action names only through their order within each
    role, and rate parameters only through structural equality, their sorted
    order (:meth:`~repro.ioimc.rates.ParametricRate.canonical_key`) and
    positivity checks.  So a product whose :func:`_renaming_key` equals an
    earlier product's gets that product's quotient renamed, action for
    action and parameter for parameter, every renamed rate taking the asking
    model's nominal values.

    The full key is built only where a hit is possible.  Its cheap
    projection, the pre-key (:func:`_pre_key`: state count, initial state,
    role sizes and options), must repeat first.  A product whose pre-key no
    kept product has is a miss: its product and quotient are kept as they
    are, unkeyed, and nothing is pickled.  The first product that repeats
    the pre-key builds both keys, its own and the kept product's, and moves
    the kept quotient into the keyed table; from then on every product with
    that pre-key is keyed on arrival.  Most products of a run never share
    a pre-key, so most never pay for a key.

    A keyed quotient is kept pickled: a kept model's parametric rates and
    lazy per-state caches would cost several times its pickle, and a hit
    unpickles a fresh copy, so no caller can hold what the table keeps.  An
    unkeyed entry holds the product and the quotient the miss returned by
    reference: the aggregation loop hands over a product it drops and only
    reads the quotient, and a caller that modifies either while the memo
    holds it voids later hits on that pre-key.

    The memo keeps the :data:`QUOTIENT_MEMO_CAPACITY` most recently used
    entries of both kinds, at most :data:`UNKEYED_MEMO_CAPACITY` of them
    unkeyed (an older unkeyed entry is keyed, not dropped, so no hit is
    lost), counts its hits and misses (an unkeyed miss is one), and may be
    shared by the runs of several threads (a lock guards the tables;
    ``aggregate()`` and key building run outside it).  A
    cache-less run makes its own; a
    :class:`~repro.service.store.SkeletonStore` owns one for all its builds.
    """

    def __init__(self) -> None:
        self.capacity = QUOTIENT_MEMO_CAPACITY
        self.hits = 0
        self.misses = 0
        #: key -> pickled quotient, least recently used first
        self._quotients: "OrderedDict[bytes, _Quotient]" = OrderedDict()
        #: pre-key -> unkeyed product and quotient, oldest first
        self._pending: "OrderedDict[Tuple[object, ...], _Pending]" = OrderedDict()
        #: Pre-keys whose products are keyed on arrival -> their keyed entries.
        self._keyed: Dict[Tuple[object, ...], int] = {}
        self._clock = count()
        self._lock = threading.Lock()

    def aggregate(self, model: IOIMC, options: AggregationOptions) -> IOIMC:
        """The quotient of ``model`` under ``options``."""
        pre_key = _pre_key(model, options)
        with self._lock:
            keyed = pre_key in self._keyed
            kept = None if keyed else self._claim(pre_key)
            first = not keyed and kept is None
            if first:
                self.misses += 1
        if first:
            quotient, _stats = aggregate(model, options)
            oldest = None
            with self._lock:
                keyed = pre_key in self._keyed
                kept = None if keyed else self._claim(pre_key)
                if not keyed and kept is None:
                    self._pending[pre_key] = _Pending(model, quotient, options, next(self._clock))
                    if len(self._pending) > UNKEYED_MEMO_CAPACITY:
                        oldest = self._claim(next(iter(self._pending)))
                    self._evict()
            if keyed or kept is not None:
                # A product with this pre-key came in meanwhile: key both.
                if kept is not None:
                    self._keep_pending(kept)
                self._keep(_renaming_key(model, options), pre_key, quotient)
            elif oldest is not None:
                self._keep_pending(oldest)
            return quotient
        if kept is not None:
            self._keep_pending(kept)
        asked = _renaming_key(model, options)
        with self._lock:
            known = self._quotients.get(asked.key)
            if known is None:
                self.misses += 1
            else:
                self._quotients[asked.key] = known._replace(used=next(self._clock))
                self._quotients.move_to_end(asked.key)
                self.hits += 1
        if known is not None:
            quotient = pickle.loads(known.blob)
            mapping = {old: new for old, new in zip(known.names, asked.names) if old != new}
            if mapping:
                quotient = quotient.rename_actions(mapping)
            if known.parameters:
                quotient = quotient.rename_parameters(
                    dict(zip(known.parameters, asked.parameters)), asked.nominals
                )
            quotient.name = model.name
            return quotient
        quotient, _stats = aggregate(model, options)
        self._keep(asked, pre_key, quotient)
        return quotient

    def _claim(self, pre_key: Tuple[object, ...]) -> Optional[_Pending]:
        """The unkeyed entry of ``pre_key``, taken out of the table, if there
        is one; then products with that pre-key are keyed on arrival.  The
        lock is held."""
        kept = self._pending.pop(pre_key, None)
        if kept is not None:
            self._keyed.setdefault(pre_key, 0)
        return kept

    def _keep_pending(self, kept: _Pending) -> None:
        """Key a claimed unkeyed entry and keep its quotient pickled."""
        self._keep(
            _renaming_key(kept.product, kept.options),
            _pre_key(kept.product, kept.options),
            kept.quotient,
        )

    def _keep(self, key: _Key, pre_key: Tuple[object, ...], quotient: IOIMC) -> None:
        """Keep ``quotient`` pickled under ``key``."""
        blob = pickle.dumps(quotient, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            if key.key not in self._quotients:
                self._keyed[pre_key] = self._keyed.get(pre_key, 0) + 1
            self._quotients[key.key] = _Quotient(
                blob, key.names, key.parameters, pre_key, next(self._clock)
            )
            self._quotients.move_to_end(key.key)
            self._evict()

    def _evict(self) -> None:
        """Drop least recently used entries down to the capacity.  The lock
        is held."""
        while len(self._quotients) + len(self._pending) > self.capacity:
            pending = next(iter(self._pending.values()), None)
            keyed = next(iter(self._quotients.values()), None)
            if keyed is None or (pending is not None and pending.used < keyed.used):
                self._pending.popitem(last=False)
                continue
            _key, entry = self._quotients.popitem(last=False)
            left = self._keyed[entry.pre_key] - 1
            if left:
                self._keyed[entry.pre_key] = left
            else:
                del self._keyed[entry.pre_key]

    def stats(self) -> Dict[str, int]:
        """``entries``, ``capacity``, ``hits`` and ``misses``, JSON-safe."""
        with self._lock:
            return {
                "entries": len(self._quotients) + len(self._pending),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }


class _Workspace:
    """The live models of a run, keyed, with the shared-action index and the
    run's quotient memo."""

    def __init__(self, quotients: QuotientMemo) -> None:
        self.models: Dict[int, IOIMC] = {}
        self.order: List[int] = []  # insertion order (sequential picks, smallest-product fallback)
        self.index = SharedActionIndex()
        self.quotients = quotients
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
    ``community.models()``.  ``memo`` (optional) is a :class:`QuotientMemo`
    shared with other runs; without one each :meth:`run` makes its own.
    """

    def __init__(
        self,
        models: Sequence[IOIMC],
        options: Optional[CompositionalAggregationOptions] = None,
        community=None,
        memo: Optional[QuotientMemo] = None,
    ):
        if not models:
            raise CompositionError("the community is empty")
        self._models: List[IOIMC] = list(models)
        self._community = community
        self._memo = memo
        self.options = options or CompositionalAggregationOptions()

    # ------------------------------------------------------------ public API
    def run(self) -> Tuple[IOIMC, CompositionStatistics]:
        """Execute the full compose/hide/aggregate loop."""
        statistics = CompositionStatistics()

        if len(self._models) == 1:
            only = self._models[0]
            hideable = self._hideable(only, external_inputs=())
            if hideable:
                only = only.hide(hideable, name=only.name)
            only, _stats = aggregate(only, self.options.aggregation)
            statistics.final_states = only.num_states
            statistics.final_transitions = only.num_transitions
            return only, statistics

        workspace = _Workspace(self._memo if self._memo is not None else QuotientMemo())
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
            left, right, fuse=self.options.fuse and self.options.aggregation.method != "none"
        )
        product_states = composite.num_states
        product_transitions = composite.num_transitions

        # The product is this step's own, so it is hidden in place.
        hideable = self._hideable(composite, workspace.external_inputs())
        if hideable:
            composite.signature = composite.signature.hide(hideable)
        hidden_actions = tuple(sorted(hideable))

        if workspace.models:
            composite = workspace.quotients.aggregate(composite, self.options.aggregation)
        else:
            # The whole tree's product: no later step asks for it, and a later
            # equal tree is answered from its skeleton entry, so it is not kept.
            composite, _stats = aggregate(composite, self.options.aggregation)

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
    def _hideable(self, model: IOIMC, external_inputs: Iterable[str]) -> FrozenSet[str]:
        """Outputs of ``model`` that no remaining member listens to."""
        keep = set(self.options.keep_visible) | set(external_inputs)
        return model.signature.outputs - keep

    def _pick_pair(self, group: Sequence[int], workspace: _Workspace) -> Tuple[int, int]:
        strategy = self.options.ordering
        if strategy == "sequential":
            group_set = set(group)
            ordered = [key for key in workspace.order if key in group_set]
            return ordered[0], ordered[1]
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
