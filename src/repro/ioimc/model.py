"""The input/output interactive Markov chain (I/O-IMC) model.

An I/O-IMC is a continuous-time Markov chain extended with interactive
transitions labelled by input, output or internal actions (Section 3 of the
paper).  This module provides an explicit-state representation together with
the basic structural operations used throughout the library:

* building models state by state (:meth:`IOIMC.add_state`,
  :meth:`IOIMC.add_interactive`, :meth:`IOIMC.add_markovian`), or whole
  from per-state lists (the internal bulk constructor),
* querying transitions and stability of states,
* hiding and renaming actions, renaming rate parameters,
* restriction to reachable states,
* export to Graphviz ``dot`` for inspection.

Representation
--------------

Transitions are stored in array-backed adjacency form: per state a flat list
of ``(action_id, target)`` pairs for interactive transitions (action ids come
from the process-wide :data:`~repro.ioimc.actions.ACTIONS` interner) and a
``target -> rate`` mapping for Markovian transitions, next to per-state
label and name lists.  Derived per-state data — the enabled-action id set,
its bitmask, the action -> targets view and the stable/urgent flags — is
computed lazily and cached; the per-state builder keeps those caches up to
date as it adds moves.

Two ways build a model.  The checked per-state API (``add_state``,
``add_interactive``, ``add_markovian``) serves the converter's elementary
models, the Galileo systems and tests.  Everything the aggregation loop
makes — products, copies, hidden and renamed models, the reachable part,
the settle steps and the quotients — is written whole: its builder fills
the per-state lists in one pass and hands them to the bulk constructor
(``IOIMC._from_lists``), which sets the counters and empty caches once and
checks nothing.  These paths read their inputs through the same raw lists,
not through the per-state queries, and work on interned ids, never on
action names.

Conventions
-----------

* States are integers ``0 .. num_states - 1``.
* **Input-enabledness**: an input action of the signature without an explicit
  transition from a state is an implicit self-loop, exactly as the paper omits
  such transitions "for clarity".  Only state-changing (or deliberately
  recorded) input transitions are stored.
* **Urgency**: output and internal actions are immediate.  The model class
  itself does not enforce maximal progress; the reduction pipeline
  (:mod:`repro.ioimc.maximal_progress`) prunes Markovian transitions of
  unstable states.
* States may carry a frozenset of string *labels* (atomic propositions, e.g.
  ``"failed"``) used by the analysis layer and respected by bisimulation
  minimisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ModelError, SignatureError
from .actions import ACTIONS, ActionSignature, ActionType, format_action, intern_action
from .rates import ParametricRate


@dataclass(frozen=True, slots=True)
class InteractiveTransition:
    """An interactive transition ``source --action--> target``."""

    source: int
    action: str
    target: int


@dataclass(frozen=True, slots=True)
class MarkovianTransition:
    """A Markovian transition ``source --rate--> target`` (rate > 0)."""

    source: int
    rate: float
    target: int


class IOIMC:
    """Explicit-state input/output interactive Markov chain.

    Parameters
    ----------
    name:
        Human readable name, used in diagnostics and composition bookkeeping.
    signature:
        The :class:`~repro.ioimc.actions.ActionSignature` of the model.
    """

    __slots__ = (
        "name",
        "signature",
        "_itrans",
        "_mtrans",
        "_labels",
        "_state_names",
        "_initial",
        "_num_itrans",
        "_on_cache",
        "_enabled_cache",
    )

    def __init__(self, name: str, signature: ActionSignature):
        self._adopt(name, signature, [], [], [], [], None)

    @classmethod
    def _from_lists(
        cls,
        name: str,
        signature: ActionSignature,
        itrans: List[List[Tuple[int, int]]],
        mtrans: List[Dict[int, float]],
        labels: List[FrozenSet[str]],
        names: List[Optional[str]],
        initial: Optional[int],
    ) -> "IOIMC":
        """A model made of the given per-state lists, taken as they are.

        The bulk constructor of composition, the transformations and the
        quotients.  The lists become the model's own, so the caller hands
        over fresh ones.  Nothing is checked: each state's pairs are
        distinct, every target is a state, every rate is positive and every
        action id is in ``signature``.
        """
        model = cls.__new__(cls)
        model._adopt(name, signature, itrans, mtrans, labels, names, initial)
        return model

    def _adopt(
        self,
        name: str,
        signature: ActionSignature,
        itrans: List[List[Tuple[int, int]]],
        mtrans: List[Dict[int, float]],
        labels: List[FrozenSet[str]],
        names: List[Optional[str]],
        initial: Optional[int],
    ) -> None:
        self.name = name
        self.signature = signature
        #: Per state: flat adjacency list of ``(action_id, target)`` pairs.
        self._itrans = itrans
        #: Per state: ``target -> accumulated rate``.
        self._mtrans = mtrans
        self._labels = labels
        self._state_names = names
        self._initial = initial
        self._num_itrans = sum(map(len, itrans))
        # Lazily built per-state caches (the per-state builder updates them).
        num = len(itrans)
        self._on_cache: List[Optional[Dict[int, Tuple[int, ...]]]] = [None] * num
        self._enabled_cache: List[Optional[FrozenSet[int]]] = [None] * num

    def _with_moves(
        self,
        itrans: List[List[Tuple[int, int]]],
        mtrans: List[Dict[int, float]],
        name: Optional[str] = None,
        signature: Optional[ActionSignature] = None,
    ) -> "IOIMC":
        """A model over this model's states (labels, names, initial state)
        with the given fresh moves, built by :meth:`_from_lists`."""
        return IOIMC._from_lists(
            name if name is not None else self.name,
            signature if signature is not None else self.signature,
            itrans,
            mtrans,
            list(self._labels),
            list(self._state_names),
            self._initial,
        )

    # ------------------------------------------------------------------ build
    def add_state(
        self,
        labels: Iterable[str] = (),
        name: Optional[str] = None,
        initial: bool = False,
    ) -> int:
        """Add a state and return its index."""
        index = len(self._itrans)
        self._itrans.append([])
        self._mtrans.append({})
        self._labels.append(frozenset(labels))
        self._state_names.append(name)
        self._on_cache.append(None)
        self._enabled_cache.append(None)
        if initial:
            self._initial = index
        return index

    def add_interactive(self, source: int, action: str, target: int) -> None:
        """Add an interactive transition; the action must be in the signature."""
        aid = intern_action(action)
        if aid not in self.signature.all_ids:
            raise SignatureError(
                f"action {action!r} is not in the signature of {self.name!r}"
            )
        self.add_interactive_id(source, aid, target)

    def add_interactive_id(self, source: int, aid: int, target: int) -> None:
        """Add an interactive transition by interned action id.

        The id is assumed to belong to the signature (``validate`` checks it
        again).
        Deduplication goes through the per-action target buckets (O(bucket)
        instead of a scan over the state's whole adjacency), and the per-state
        caches are updated in place rather than invalidated.
        """
        self._check_state(source)
        self._check_state(target)
        buckets = self._on_cache[source]
        if buckets is None:
            buckets = self._build_on_cache(source)
        bucket = buckets.get(aid)
        if bucket is not None and target in bucket:
            return
        buckets[aid] = bucket + (target,) if bucket else (target,)
        self._itrans[source].append((aid, target))
        self._num_itrans += 1
        enabled = self._enabled_cache[source]
        if enabled is not None and aid not in enabled:
            self._enabled_cache[source] = enabled | {aid}

    def add_markovian(self, source: int, rate: float, target: int) -> None:
        """Add a Markovian transition; parallel transitions accumulate rates."""
        self._check_state(source)
        self._check_state(target)
        if not rate > 0.0:
            raise ModelError(f"Markovian rates must be positive, got {rate}")
        per_state = self._mtrans[source]
        per_state[target] = per_state.get(target, 0.0) + rate

    def set_initial(self, state: int) -> None:
        self._check_state(state)
        self._initial = state

    def set_labels(self, state: int, labels: Iterable[str]) -> None:
        self._check_state(state)
        self._labels[state] = frozenset(labels)

    def set_state_name(self, state: int, name: str) -> None:
        self._check_state(state)
        self._state_names[state] = name

    # ---------------------------------------------------------------- queries
    @property
    def num_states(self) -> int:
        return len(self._itrans)

    @property
    def num_transitions(self) -> int:
        markovian = sum(len(per_state) for per_state in self._mtrans)
        return self._num_itrans + markovian

    @property
    def initial(self) -> int:
        if self._initial is None:
            raise ModelError(f"I/O-IMC {self.name!r} has no initial state")
        return self._initial

    def states(self) -> range:
        return range(self.num_states)

    def labels(self, state: int) -> FrozenSet[str]:
        self._check_state(state)
        return self._labels[state]

    def state_name(self, state: int) -> str:
        self._check_state(state)
        name = self._state_names[state]
        return name if name is not None else str(state)

    def _shown_names(self) -> List[str]:
        """:meth:`state_name` of every state."""
        return [
            name if name is not None else str(state)
            for state, name in enumerate(self._state_names)
        ]

    def interactive_out(self, state: int) -> Iterator[Tuple[str, int]]:
        """Iterate over explicit interactive transitions ``(action, target)``."""
        self._check_state(state)
        names = ACTIONS.name
        for aid, target in self._itrans[state]:
            yield names(aid), target

    def interactive_pairs(self, state: int) -> Sequence[Tuple[int, int]]:
        """The raw ``(action_id, target)`` adjacency of ``state`` (read-only)."""
        return self._itrans[state]

    def interactive_on(self, state: int, action: str) -> Tuple[int, ...]:
        """Explicit targets of ``action`` from ``state`` (no implicit loops)."""
        aid = ACTIONS.lookup(action)
        if aid < 0:
            self._check_state(state)
            return ()
        return self.interactive_on_id(state, aid)

    def interactive_on_id(self, state: int, aid: int) -> Tuple[int, ...]:
        """Explicit targets of the interned action ``aid`` from ``state``."""
        self._check_state(state)
        cache = self._on_cache[state]
        if cache is None:
            cache = self._build_on_cache(state)
        return cache.get(aid, ())

    def _build_on_cache(self, state: int) -> Dict[int, Tuple[int, ...]]:
        cache: Dict[int, Tuple[int, ...]] = {}
        for pair_aid, target in self._itrans[state]:
            existing = cache.get(pair_aid)
            cache[pair_aid] = existing + (target,) if existing else (target,)
        self._on_cache[state] = cache
        return cache

    def markovian_out(self, state: int) -> Iterator[Tuple[float, int]]:
        """Iterate over Markovian transitions ``(rate, target)``."""
        self._check_state(state)
        for target, rate in self._mtrans[state].items():
            yield rate, target

    def markovian_dict(self, state: int) -> Mapping[int, float]:
        """The raw ``target -> rate`` mapping of ``state`` (read-only)."""
        return self._mtrans[state]

    def exit_rate(self, state: int) -> float:
        """Total Markovian exit rate of ``state``."""
        self._check_state(state)
        return sum(self._mtrans[state].values())

    def actions_enabled(self, state: int) -> FrozenSet[str]:
        """Actions with an explicit interactive transition from ``state``."""
        names = ACTIONS.name
        return frozenset(names(aid) for aid in self.enabled_ids(state))

    def enabled_ids(self, state: int) -> FrozenSet[int]:
        """Interned ids of the actions enabled in ``state`` (cached)."""
        self._check_state(state)
        enabled = self._enabled_cache[state]
        if enabled is None:
            enabled = frozenset(aid for aid, _target in self._itrans[state])
            self._enabled_cache[state] = enabled
        return enabled

    def internal_successors(self, state: int) -> Tuple[int, ...]:
        """Targets of internal transitions from ``state``."""
        internal = self.signature.internal_ids
        return tuple(
            target for aid, target in self._itrans[state] if aid in internal
        )

    def is_stable(self, state: int) -> bool:
        """A state is stable if it has no internal transition enabled."""
        return self.enabled_ids(state).isdisjoint(self.signature.internal_ids)

    def is_urgent(self, state: int) -> bool:
        """A state is urgent if an output or internal transition is enabled.

        In an urgent state no time may pass (maximal progress), hence its
        Markovian transitions can never fire.
        """
        return not self.enabled_ids(state).isdisjoint(self.signature.urgent_ids)

    def transitions(self) -> Iterator[object]:
        """Iterate over all transitions as dataclass records."""
        for state in self.states():
            for action, target in self.interactive_out(state):
                yield InteractiveTransition(state, action, target)
            for rate, target in self.markovian_out(state):
                yield MarkovianTransition(state, rate, target)

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Check structural well-formedness; raise :class:`ModelError` if bad."""
        if self._initial is None:
            raise ModelError(f"I/O-IMC {self.name!r} has no initial state")
        known = self.signature.all_ids
        num_states = self.num_states
        for state in self.states():
            for aid, target in self._itrans[state]:
                if aid not in known:
                    raise SignatureError(
                        f"state {state} of {self.name!r} uses unknown action "
                        f"{ACTIONS.name(aid)!r}"
                    )
                if not 0 <= target < num_states:
                    raise ModelError(
                        f"interactive transition from {state} targets missing state {target}"
                    )
            for target, rate in self._mtrans[state].items():
                if not rate > 0.0:
                    raise ModelError(f"non-positive Markovian rate at state {state}")
                if not 0 <= target < num_states:
                    raise ModelError(
                        f"Markovian transition from {state} targets missing state {target}"
                    )

    # ---------------------------------------------------------------- pickling
    # Interned action ids are only meaningful inside the process that created
    # them (see :class:`~repro.ioimc.actions.ActionInterner`), so a model
    # crosses process boundaries *by name*: the state carries an
    # ``old id -> action name`` table for every id the adjacency uses, and
    # unpickling re-interns the names and remaps the transitions.  Under a
    # forked worker the two tables usually coincide and the remap is a no-op.

    def __getstate__(self) -> dict:
        used = {aid for pairs in self._itrans for aid, _target in pairs}
        names = ACTIONS.name
        return {
            "name": self.name,
            "signature": self.signature,
            "itrans": self._itrans,
            "mtrans": self._mtrans,
            "labels": self._labels,
            "state_names": self._state_names,
            "initial": self._initial,
            "actions": {aid: names(aid) for aid in used},
        }

    def __setstate__(self, state: dict) -> None:
        remap = {
            old: intern_action(name) for old, name in state["actions"].items()
        }
        itrans = state["itrans"]
        if any(old != new for old, new in remap.items()):
            itrans = [
                [(remap[aid], target) for aid, target in pairs] for pairs in itrans
            ]
        self._adopt(
            state["name"],
            state["signature"],
            itrans,
            state["mtrans"],
            state["labels"],
            state["state_names"],
            state["initial"],
        )

    # -------------------------------------------------------- transformations
    def copy(self, name: Optional[str] = None) -> "IOIMC":
        """Deep copy of the model (optionally renamed)."""
        return self._with_moves(
            [list(pairs) for pairs in self._itrans],
            [dict(rates) for rates in self._mtrans],
            name,
        )

    def hide(self, actions: Iterable[str], name: Optional[str] = None) -> "IOIMC":
        """Return a copy in which the given output actions are internal.

        Hiding only reclassifies actions — the interned ids (and hence the
        whole transition structure) are unchanged, so this is a cheap copy.
        """
        return self._with_moves(
            [list(pairs) for pairs in self._itrans],
            [dict(rates) for rates in self._mtrans],
            name if name is not None else f"hide({self.name})",
            self.signature.hide(actions),
        )

    def rename_actions(
        self, mapping: Mapping[str, str], name: Optional[str] = None
    ) -> "IOIMC":
        """Return a copy with actions renamed according to ``mapping``."""
        id_map = {
            intern_action(old): intern_action(new) for old, new in mapping.items()
        }
        get = id_map.get
        return self._with_moves(
            [
                [(get(aid, aid), target) for aid, target in pairs]
                for pairs in self._itrans
            ],
            [dict(rates) for rates in self._mtrans],
            name,
            self.signature.rename(mapping),
        )

    def rename_parameters(
        self, mapping: Mapping[str, str], nominals: Mapping[str, float]
    ) -> "IOIMC":
        """Return a copy whose parametric rates are renamed by ``mapping``
        (:meth:`~repro.ioimc.rates.ParametricRate.renamed`), every renamed
        form taking its parameters' nominal values from ``nominals``; plain
        float rates are kept."""
        return self._with_moves(
            [list(pairs) for pairs in self._itrans],
            [
                {
                    target: (
                        rate.renamed(mapping, nominals)
                        if isinstance(rate, ParametricRate)
                        else rate
                    )
                    for target, rate in rates.items()
                }
                for rates in self._mtrans
            ],
        )

    def reachable_states(self) -> FrozenSet[int]:
        """States reachable from the initial state via any transition."""
        frontier = [self.initial]
        seen = {self.initial}
        while frontier:
            state = frontier.pop()
            for _aid, target in self._itrans[state]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
            for target in self._mtrans[state]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return frozenset(seen)

    def restrict_to_reachable(self, name: Optional[str] = None) -> "IOIMC":
        """Return a copy containing only states reachable from the initial state."""
        restricted = self._reachable_part(name)
        return self.copy(name) if restricted is self else restricted

    def _reachable_part(self, name: Optional[str] = None) -> "IOIMC":
        """:meth:`restrict_to_reachable` without the copy when every state is
        reachable: then the model itself comes back, ``name`` ignored.  For
        pipelines that own the model they restrict."""
        reachable = sorted(self.reachable_states())
        if len(reachable) == self.num_states:
            return self
        # Every move of a reachable state ends in a reachable state.
        remap = [-1] * self.num_states
        for new, old in enumerate(reachable):
            remap[old] = new
        itrans = self._itrans
        mtrans = self._mtrans
        return IOIMC._from_lists(
            name if name is not None else self.name,
            self.signature,
            [[(aid, remap[target]) for aid, target in itrans[old]] for old in reachable],
            [
                {remap[target]: rate for target, rate in mtrans[old].items()}
                for old in reachable
            ],
            [self._labels[old] for old in reachable],
            [self._state_names[old] for old in reachable],
            remap[self.initial],
        )

    def relabel_states(self, labelling: Mapping[int, Iterable[str]]) -> "IOIMC":
        """Return a copy with the labels of the given states replaced."""
        clone = self.copy()
        for state, labels in labelling.items():
            clone.set_labels(state, labels)
        return clone

    # ----------------------------------------------------------------- export
    def to_dot(self) -> str:
        """Render the model as a Graphviz ``dot`` digraph (for documentation)."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for state in self.states():
            shape = "doublecircle" if "failed" in self._labels[state] else "circle"
            label = self.state_name(state)
            if self._labels[state]:
                label += "\\n" + ",".join(sorted(self._labels[state]))
            lines.append(f'  s{state} [shape={shape}, label="{label}"];')
        if self._initial is not None:
            lines.append("  init [shape=point];")
            lines.append(f"  init -> s{self.initial};")
        for state in self.states():
            for action, target in self.interactive_out(state):
                kind = self.signature.classify(action)
                lines.append(
                    f'  s{state} -> s{target} [label="{format_action(action, kind)}"];'
                )
            for rate, target in self.markovian_out(state):
                lines.append(
                    f'  s{state} -> s{target} [label="{rate:g}", style=dashed];'
                )
        lines.append("}")
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line summary used by the aggregation statistics and benches."""
        return (
            f"{self.name}: {self.num_states} states, "
            f"{self.num_transitions} transitions, signature {self.signature}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"IOIMC({self.name!r}, states={self.num_states}, transitions={self.num_transitions})"

    # ---------------------------------------------------------------- private
    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.num_states:
            raise ModelError(
                f"state {state} does not exist in {self.name!r} "
                f"(has {self.num_states} states)"
            )
