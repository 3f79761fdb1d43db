"""Declarative element behaviours and their exploration into I/O-IMC.

The paper stresses (Section 7) that extending the DFT language amounts to
adding or modifying *elementary* I/O-IMC models, without touching composition,
aggregation or analysis.  To make this extensibility concrete the library does
not hand-code every elementary I/O-IMC as an explicit state graph.  Instead,
each DFT element is described by an :class:`ElementBehavior`:

* an abstract (hashable) initial state,
* the reaction to every input action (:meth:`ElementBehavior.on_input`),
* the urgent output/internal transitions enabled in a state
  (:meth:`ElementBehavior.urgent`),
* the Markovian transitions enabled in a state
  (:meth:`ElementBehavior.markovian`).

:func:`build_ioimc` performs a reachability exploration over abstract states
and produces the explicit :class:`~repro.ioimc.model.IOIMC`.  Input-enabledness
is guaranteed by construction: every input action is applied in every state; a
reaction that does not change the state simply yields the implicit self-loop.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, Iterable, List, Tuple

from ..errors import ModelError
from .actions import ActionSignature
from .model import IOIMC


class ElementBehavior(abc.ABC):
    """Abstract description of a single DFT element's I/O-IMC."""

    #: Human readable name of the element (used for the generated model).
    name: str = "element"

    @abc.abstractmethod
    def signature(self) -> ActionSignature:
        """Action signature of the element."""

    @abc.abstractmethod
    def initial_state(self) -> Hashable:
        """The abstract initial state."""

    @abc.abstractmethod
    def on_input(self, state: Hashable, action: str) -> Hashable:
        """State reached when the input ``action`` is received in ``state``.

        Returning ``state`` itself encodes the implicit self-loop of
        input-enabled models.
        """

    @abc.abstractmethod
    def urgent(self, state: Hashable) -> Iterable[Tuple[str, Hashable]]:
        """Enabled output/internal transitions ``(action, next_state)``."""

    @abc.abstractmethod
    def markovian(self, state: Hashable) -> Iterable[Tuple[float, Hashable]]:
        """Enabled Markovian transitions ``(rate, next_state)``."""

    # ------------------------------------------------------------------ hooks
    def labels(self, state: Hashable) -> Iterable[str]:
        """Atomic propositions attached to ``state`` (default: none)."""
        return ()

    def state_name(self, state: Hashable) -> str:
        """Debug name of ``state`` (default: ``repr``)."""
        return repr(state)

    # ------------------------------------------------------------- conversion
    def to_ioimc(self, max_states: int = 100_000) -> IOIMC:
        """Explore the behaviour into an explicit I/O-IMC."""
        return build_ioimc(self, max_states=max_states)


def build_ioimc(behavior: ElementBehavior, max_states: int = 100_000) -> IOIMC:
    """Explore an :class:`ElementBehavior` into an explicit :class:`IOIMC`.

    The exploration is a plain breadth-first reachability over abstract
    states.  Every input action of the signature is applied in every state so
    the result is input-enabled by construction; self-loop reactions are left
    implicit (not stored).  Inputs are applied in name order, so the state
    numbering (and the order in which action names are first interned) does
    not depend on string hashing.
    """
    sig = behavior.signature()
    model = IOIMC(behavior.name, sig)

    index: Dict[Hashable, int] = {}
    worklist: List[Hashable] = []

    def intern(state: Hashable) -> int:
        if state not in index:
            if len(index) >= max_states:
                raise ModelError(
                    f"behaviour {behavior.name!r} exceeded {max_states} states "
                    "during exploration"
                )
            index[state] = model.add_state(
                labels=behavior.labels(state), name=behavior.state_name(state)
            )
            worklist.append(state)
        return index[state]

    initial = behavior.initial_state()
    model.set_initial(intern(initial))

    while worklist:
        state = worklist.pop()
        source = index[state]
        for action in sorted(sig.inputs):
            successor = behavior.on_input(state, action)
            if successor != state:
                model.add_interactive(source, action, intern(successor))
        for action, successor in behavior.urgent(state):
            model.add_interactive(source, action, intern(successor))
        for rate, successor in behavior.markovian(state):
            model.add_markovian(source, rate, intern(successor))

    model.validate()
    model._all_reachable = True  # explored from the initial state
    return model


class ExplicitBehavior(ElementBehavior):
    """A behaviour defined by explicit transition tables.

    Useful in tests and for the small hand-drawn models of the paper
    (e.g. the I/O-IMC ``A`` and ``B`` of Figure 2).
    """

    def __init__(
        self,
        name: str,
        signature: ActionSignature,
        initial: Hashable,
        inputs: Dict[Tuple[Hashable, str], Hashable],
        urgent: Dict[Hashable, List[Tuple[str, Hashable]]],
        markovian: Dict[Hashable, List[Tuple[float, Hashable]]],
        labels: Dict[Hashable, Tuple[str, ...]] | None = None,
    ):
        self.name = name
        self._signature = signature
        self._initial = initial
        self._inputs = dict(inputs)
        self._urgent = {k: list(v) for k, v in urgent.items()}
        self._markovian = {k: list(v) for k, v in markovian.items()}
        self._labels = dict(labels or {})

    def signature(self) -> ActionSignature:
        return self._signature

    def initial_state(self) -> Hashable:
        return self._initial

    def on_input(self, state: Hashable, action: str) -> Hashable:
        return self._inputs.get((state, action), state)

    def urgent(self, state: Hashable) -> Iterable[Tuple[str, Hashable]]:
        return tuple(self._urgent.get(state, ()))

    def markovian(self, state: Hashable) -> Iterable[Tuple[float, Hashable]]:
        return tuple(self._markovian.get(state, ()))

    def labels(self, state: Hashable) -> Iterable[str]:
        return self._labels.get(state, ())
