"""Actions and action signatures of input/output interactive Markov chains.

An I/O-IMC communicates with its environment through *actions*.  Following the
paper (Section 3) an action is either

* an **input** action (written ``a?``): the model reacts to it and must always
  be able to do so (input-enabledness), it may not delay or refuse it;
* an **output** action (written ``a!``): the model decides when to perform it;
  output actions are *immediate* (urgent) — no time passes in a state with an
  enabled output transition;
* an **internal** action (written ``a;``): invisible computation steps, also
  immediate.  Internal actions arise primarily from *hiding* output actions
  after composition.

The :class:`ActionSignature` groups the three (disjoint) action sets of a
model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..errors import SignatureError


class ActionInterner:
    """Process-wide interning table mapping action names to small integers.

    Action names are compared on every transition of every composition step;
    interning them once lets the whole engine work on integer sets instead of
    strings.  Ids are append-only and globally consistent, so two models
    agree on the id of a shared action by construction — no per-composition
    translation tables are needed.

    Trade-off of the process-global table: ids baked into a model's
    transitions are only meaningful in the process that created them —
    models must cross process boundaries by name (e.g. Galileo/dot
    round-trips), never as pickled id-based structures into a worker with a
    different interner.
    """

    __slots__ = ("_ids", "_names")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []

    def intern(self, name: str) -> int:
        """Return the id of ``name``, allocating a fresh one if unseen."""
        aid = self._ids.get(name)
        if aid is None:
            aid = len(self._names)
            self._ids[name] = aid
            self._names.append(name)
        return aid

    def lookup(self, name: str) -> int:
        """Id of ``name`` or ``-1`` when the name was never interned."""
        return self._ids.get(name, -1)

    def name(self, aid: int) -> str:
        """The name behind ``aid``."""
        return self._names[aid]

    def __len__(self) -> int:
        return len(self._names)


#: The global interning table shared by every model in the process.
ACTIONS = ActionInterner()


def intern_action(name: str) -> int:
    """Intern ``name`` in the global table and return its id."""
    return ACTIONS.intern(name)


def action_name(aid: int) -> str:
    """The action name behind a global id."""
    return ACTIONS.name(aid)


def _intern_all(names: Iterable[str]) -> FrozenSet[int]:
    # Name order: first-seen ids must not depend on string hashing.
    return frozenset(ACTIONS.intern(name) for name in sorted(names))


def _cached_ids(signature: "ActionSignature", view: str) -> Optional[FrozenSet[int]]:
    """``signature``'s id view ``view`` if it was computed already, else ``None``."""
    return signature.__dict__.get(view)


class ActionType(enum.Enum):
    """Kind of an action within a particular action signature."""

    INPUT = "input"
    OUTPUT = "output"
    INTERNAL = "internal"

    @property
    def decoration(self) -> str:
        """Suffix used in the paper's notation (``?``, ``!`` or ``;``)."""
        if self is ActionType.INPUT:
            return "?"
        if self is ActionType.OUTPUT:
            return "!"
        return ";"


def format_action(action: str, kind: ActionType) -> str:
    """Render ``action`` with the paper's decoration, e.g. ``fA!``."""
    return f"{action}{kind.decoration}"


@dataclass(frozen=True)
class ActionSignature:
    """The (disjoint) input/output/internal action sets of an I/O-IMC.

    Instances are immutable; the transformation helpers (:meth:`hide`,
    :meth:`rename`, :meth:`merge`) return new signatures.
    """

    inputs: frozenset = field(default_factory=frozenset)
    outputs: frozenset = field(default_factory=frozenset)
    internals: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        inputs = frozenset(self.inputs)
        outputs = frozenset(self.outputs)
        internals = frozenset(self.internals)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "internals", internals)
        overlap = (inputs & outputs) | (inputs & internals) | (outputs & internals)
        if overlap:
            raise SignatureError(
                "action signature sets must be disjoint; offending actions: "
                + ", ".join(sorted(overlap))
            )

    # ------------------------------------------------------------------ views
    @property
    def visible(self) -> frozenset:
        """Actions observable by the environment (inputs and outputs)."""
        return self.inputs | self.outputs

    @property
    def all_actions(self) -> frozenset:
        """Every action mentioned in the signature."""
        return self.inputs | self.outputs | self.internals

    @property
    def locally_controlled(self) -> frozenset:
        """Actions whose occurrence the model itself decides (urgent)."""
        return self.outputs | self.internals

    # ------------------------------------------------------------- id views
    # The id-based views below are cached per signature instance (signatures
    # are immutable).  They are what the hot paths — composition, bisimulation
    # refinement, maximal progress — operate on.

    @cached_property
    def input_ids(self) -> FrozenSet[int]:
        """Interned ids of the input actions."""
        return _intern_all(self.inputs)

    @cached_property
    def output_ids(self) -> FrozenSet[int]:
        """Interned ids of the output actions."""
        return _intern_all(self.outputs)

    @cached_property
    def internal_ids(self) -> FrozenSet[int]:
        """Interned ids of the internal actions."""
        return _intern_all(self.internals)

    @cached_property
    def visible_ids(self) -> FrozenSet[int]:
        """Interned ids of the visible (input or output) actions."""
        return self.input_ids | self.output_ids

    @cached_property
    def all_ids(self) -> FrozenSet[int]:
        """Interned ids of every action of the signature."""
        return self.input_ids | self.output_ids | self.internal_ids

    @cached_property
    def urgent_ids(self) -> FrozenSet[int]:
        """Interned ids of the locally controlled (output/internal) actions."""
        return self.output_ids | self.internal_ids

    def _derive_ids(self, **views: Optional[FrozenSet[int]]) -> "ActionSignature":
        """Store the id ``views`` that are not ``None`` as already computed.

        :meth:`merge` and :meth:`hide` derive their result's views from the
        operands' cached ones by set algebra; every name behind them is
        interned already, so each equals what :func:`_intern_all` would give.
        """
        for view, ids in views.items():
            if ids is not None:
                self.__dict__[view] = ids
        return self

    # ---------------------------------------------------------------- pickling
    # Only the name sets travel: the cached id views live in ``__dict__``
    # (``functools.cached_property``) and are meaningless under the receiving
    # process's interner, so they are dropped and lazily recomputed there.

    def __getstate__(self) -> Tuple[frozenset, frozenset, frozenset]:
        return (self.inputs, self.outputs, self.internals)

    def __setstate__(self, state: Tuple[frozenset, frozenset, frozenset]) -> None:
        inputs, outputs, internals = state
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "internals", internals)

    def classify(self, action: str) -> ActionType:
        """Return the :class:`ActionType` of ``action``.

        Raises :class:`~repro.errors.SignatureError` if the action is unknown.
        """
        if action in self.inputs:
            return ActionType.INPUT
        if action in self.outputs:
            return ActionType.OUTPUT
        if action in self.internals:
            return ActionType.INTERNAL
        raise SignatureError(f"action {action!r} is not part of the signature")

    def __contains__(self, action: object) -> bool:
        return action in self.all_actions

    # --------------------------------------------------------- transformations
    def hide(self, actions: Iterable[str]) -> "ActionSignature":
        """Turn the given *output* actions into internal actions.

        Hiding an action that is not an output of this signature is an error;
        inputs cannot be hidden because the environment still needs to drive
        them.
        """
        to_hide = frozenset(actions)
        unknown = to_hide - self.outputs
        if unknown:
            raise SignatureError(
                "only output actions can be hidden; not outputs: "
                + ", ".join(sorted(unknown))
            )
        hidden = ActionSignature(
            inputs=self.inputs,
            outputs=self.outputs - to_hide,
            internals=self.internals | to_hide,
        )
        outputs, internals = _cached_ids(self, "output_ids"), _cached_ids(self, "internal_ids")
        if outputs is None:
            return hidden._derive_ids(input_ids=_cached_ids(self, "input_ids"))
        hidden_ids = frozenset(ACTIONS.lookup(action) for action in to_hide)
        return hidden._derive_ids(
            input_ids=_cached_ids(self, "input_ids"),
            output_ids=outputs - hidden_ids,
            internal_ids=None if internals is None else internals | hidden_ids,
        )

    def rename(self, mapping: Mapping[str, str]) -> "ActionSignature":
        """Rename actions according to ``mapping`` (unmentioned actions kept).

        The rename must not merge two previously distinct actions into one.
        """
        def apply(actions: frozenset) -> frozenset:
            return frozenset(mapping.get(a, a) for a in actions)

        renamed = ActionSignature(
            inputs=apply(self.inputs),
            outputs=apply(self.outputs),
            internals=apply(self.internals),
        )
        if len(renamed.all_actions) != len(self.all_actions):
            raise SignatureError("renaming must not merge distinct actions")
        return renamed

    def merge(self, other: "ActionSignature") -> "ActionSignature":
        """Signature of the parallel composition with ``other``.

        Outputs of either component stay outputs; an input that is an output of
        the other component is *connected* and becomes an output of the
        composite (the composite still emits it so further components can
        listen); remaining inputs stay inputs; internal actions are unioned.
        """
        if self.outputs & other.outputs:
            raise SignatureError(
                "components share output actions: "
                + ", ".join(sorted(self.outputs & other.outputs))
            )
        outputs = self.outputs | other.outputs
        inputs = (self.inputs | other.inputs) - outputs
        internals = self.internals | other.internals
        if internals & (inputs | outputs):
            raise SignatureError(
                "internal actions of one component clash with visible actions "
                "of the other: "
                + ", ".join(sorted(internals & (inputs | outputs)))
            )
        merged = ActionSignature(inputs=inputs, outputs=outputs, internals=internals)

        def union(view: str) -> Optional[FrozenSet[int]]:
            mine, theirs = _cached_ids(self, view), _cached_ids(other, view)
            return None if mine is None or theirs is None else mine | theirs

        output_ids, input_ids = union("output_ids"), union("input_ids")
        return merged._derive_ids(
            input_ids=None if input_ids is None or output_ids is None else input_ids - output_ids,
            output_ids=output_ids,
            internal_ids=union("internal_ids"),
        )

    # ------------------------------------------------------------------ dunder
    def __str__(self) -> str:
        parts = []
        for action in sorted(self.inputs):
            parts.append(format_action(action, ActionType.INPUT))
        for action in sorted(self.outputs):
            parts.append(format_action(action, ActionType.OUTPUT))
        for action in sorted(self.internals):
            parts.append(format_action(action, ActionType.INTERNAL))
        return "{" + ", ".join(parts) + "}"


def signature(
    inputs: Iterable[str] = (),
    outputs: Iterable[str] = (),
    internals: Iterable[str] = (),
) -> ActionSignature:
    """Convenience constructor for :class:`ActionSignature`."""
    return ActionSignature(
        inputs=frozenset(inputs),
        outputs=frozenset(outputs),
        internals=frozenset(internals),
    )
