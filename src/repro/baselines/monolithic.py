"""Monolithic Markov-chain generation for DFTs (the DIFTree approach).

Section 4 of the paper describes how DIFTree converts a dynamic fault tree to
a Markov chain: starting from the state in which every basic event is
operational, each operational basic event is failed one at a time (at its
current failure rate); the DFT is re-evaluated after every failure to decide
whether the resulting state is an operational or a failed system state, and
operational states are expanded further.  Every state records the status of
*all* basic events (plus bookkeeping such as spare allocation), which is why
"the state-space grows exponentially with the number of basic events" — the
comparison point for the compositional approach (Section 5.2).

The generator below reproduces that algorithm faithfully for the element types
supported by the library.  It also serves as an *independent* implementation
of the DFT semantics used by the test-suite to cross-validate the
compositional pipeline.

Deterministic resolution of simultaneity
----------------------------------------

When an FDEP trigger fails several elements at the same instant, the DFT
semantics is inherently non-deterministic (Section 4.4).  Like the classical
tools (and like the formalisation in Coppit et al. that the paper cites), this
baseline resolves such races deterministically: simultaneous failures are
interpreted as happening in left-to-right order (so a PAND whose inputs fail
together counts as "in order", and the left-most competing spare gate grabs a
shared spare first).  The compositional pipeline instead reports CTMDP bounds;
the deterministic value always lies inside those bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..ctmc import CTMC
from ..dft.elements import (
    AndGate,
    BasicEvent,
    FdepGate,
    InhibitionConstraint,
    OrGate,
    PandGate,
    SeqGate,
    SpareGate,
    VotingGate,
)
from ..dft.tree import DynamicFaultTree
from ..errors import AnalysisError


@dataclass(frozen=True)
class MonolithicState:
    """One tangible state of the monolithic Markov chain.

    ``failed`` contains every element (basic event or gate) currently counted
    as failed; ``active`` the elements switched to active mode; ``using`` maps
    each spare gate to the unit it currently operates on (``None`` once
    exhausted); ``taken`` the spares claimed by some gate; ``pand_progress``
    the length of the correctly-ordered failed prefix per PAND gate (``-1``
    once the gate is disabled); ``inhibited`` the elements that can no longer
    fail because an inhibitor beat them to it.
    """

    failed: FrozenSet[str]
    active: FrozenSet[str]
    using: Tuple[Tuple[str, Optional[str]], ...]
    taken: FrozenSet[str]
    pand_progress: Tuple[Tuple[str, int], ...]
    inhibited: FrozenSet[str]

    def uses(self) -> Dict[str, Optional[str]]:
        return dict(self.using)

    def progress(self) -> Dict[str, int]:
        return dict(self.pand_progress)


@dataclass
class MonolithicResult:
    """The generated chain together with its size statistics."""

    ctmc: CTMC
    num_states: int
    num_transitions: int
    num_failed_states: int

    def summary(self) -> str:
        return (
            f"monolithic chain: {self.num_states} states, "
            f"{self.num_transitions} transitions "
            f"({self.num_failed_states} system-failure states)"
        )


class MonolithicMarkovGenerator:
    """Generates the whole-tree Markov chain exactly like DIFTree."""

    def __init__(self, tree: DynamicFaultTree, top: Optional[str] = None):
        self.tree = tree
        self.top = top if top is not None else tree.top
        if tree.is_repairable:
            raise AnalysisError(
                "the monolithic DIFTree baseline does not support repairable trees"
            )
        self._members = self._relevant_elements()
        self._order = [name for name in tree.topological_order() if name in self._members]
        events = {event.name for event in tree.basic_events()}
        self._basic_events = [name for name in self._order if name in events]
        self._seq_successor_of: Dict[str, str] = {}
        for gate in tree.seq_gates():
            if gate.name not in self._members:
                continue
            for previous, current in zip(gate.inputs, gate.inputs[1:]):
                self._seq_successor_of[current] = previous

    # ----------------------------------------------------------- state space
    def initial_state(self) -> MonolithicState:
        active = frozenset(self._initially_active())
        using = tuple(
            sorted(
                (gate.name, gate.primary)
                for gate in self.tree.spare_gates()
                if gate.name in self._members
            )
        )
        progress = tuple(
            sorted(
                (gate.name, 0)
                for gate in self.tree.gates()
                if isinstance(gate, PandGate) and gate.name in self._members
            )
        )
        state = MonolithicState(
            failed=frozenset(),
            active=active,
            using=using,
            taken=frozenset(),
            pand_progress=progress,
            inhibited=frozenset(),
        )
        return self._propagate(state)

    def enabled_failures(self, state: MonolithicState) -> List[Tuple[str, float]]:
        """Basic events that may fail in ``state`` and their current rates."""
        failures = []
        for name in self._basic_events:
            if name in state.failed or name in state.inhibited:
                continue
            event: BasicEvent = self.tree.element(name)  # type: ignore[assignment]
            predecessor = self._seq_successor_of.get(name)
            if predecessor is not None and predecessor not in state.failed:
                continue  # a SEQ gate keeps this event cold until its turn
            rate = event.failure_rate if name in state.active else event.dormant_rate
            if rate > 0.0:
                failures.append((name, rate))
        return failures

    def fail(self, state: MonolithicState, basic_event: str) -> MonolithicState:
        """Successor state after ``basic_event`` fails (with full propagation)."""
        if basic_event in state.failed:
            raise AnalysisError(f"basic event {basic_event!r} already failed")
        updated = MonolithicState(
            failed=state.failed | {basic_event},
            active=state.active,
            using=state.using,
            taken=state.taken,
            pand_progress=state.pand_progress,
            inhibited=state.inhibited,
        )
        return self._propagate(updated)

    def is_system_failed(self, state: MonolithicState) -> bool:
        return self.top in state.failed

    # -------------------------------------------------------------- building
    def build(self, expand_failed_states: bool = False) -> MonolithicResult:
        """Explore the full chain.

        ``expand_failed_states=False`` reproduces DIFTree's behaviour of
        treating system-failure states as absorbing.
        """
        initial = self.initial_state()
        index: Dict[MonolithicState, int] = {initial: 0}
        worklist: List[MonolithicState] = [initial]
        transitions: List[Tuple[int, int, float]] = []

        while worklist:
            state = worklist.pop()
            source = index[state]
            if self.is_system_failed(state) and not expand_failed_states:
                continue
            for basic_event, rate in self.enabled_failures(state):
                successor = self.fail(state, basic_event)
                if successor not in index:
                    index[successor] = len(index)
                    worklist.append(successor)
                transitions.append((source, index[successor], rate))

        ctmc = CTMC(len(index), initial=0)
        failed_states = 0
        for state, state_index in index.items():
            if self.is_system_failed(state):
                ctmc.set_labels(state_index, ("failed",))
                failed_states += 1
        for source, target, rate in transitions:
            if source != target:
                ctmc.add_rate(source, target, rate)
        return MonolithicResult(
            ctmc=ctmc,
            num_states=len(index),
            num_transitions=len(transitions),
            num_failed_states=failed_states,
        )

    def unreliability(self, time: float, expand_failed_states: bool = False) -> float:
        """Probability that the top event has occurred by ``time``."""
        result = self.build(expand_failed_states=expand_failed_states)
        from ..ctmc.transient import probability_reach_label

        return probability_reach_label(result.ctmc, "failed", time)

    # ---------------------------------------------------------------- helpers
    def _relevant_elements(self) -> FrozenSet[str]:
        relevant: Set[str] = set(self.tree.descendants(self.top))
        changed = True
        while changed:
            changed = False
            for constraint in list(self.tree.fdep_gates()) + list(self.tree.inhibitions()):
                if constraint.name in relevant:
                    continue
                if any(child in relevant for child in constraint.inputs):
                    relevant.add(constraint.name)
                    for child in constraint.inputs:
                        members = self.tree.descendants(child)
                        if not members <= relevant:
                            relevant |= members
                            changed = True
                    changed = True
        return frozenset(relevant)

    def _initially_active(self) -> Set[str]:
        """Elements active at time zero (everything outside spare modules)."""
        active: Set[str] = set()

        def activate(name: str) -> None:
            if name in active or name not in self._members:
                return
            active.add(name)
            element = self.tree.element(name)
            if isinstance(element, (AndGate, OrGate, VotingGate, PandGate)):
                for child in element.inputs:
                    activate(child)
            elif isinstance(element, SeqGate):
                if element.inputs:
                    activate(element.inputs[0])
            elif isinstance(element, SpareGate):
                activate(element.primary)
            # Basic events have no children; FDEP/inhibition have no model.

        activate(self.top)
        # Elements only referenced as FDEP triggers (or not referenced at all)
        # are in active service as well.
        for name in self._members:
            element = self.tree.element(name)
            if isinstance(element, (FdepGate, InhibitionConstraint)):
                continue
            parents = [
                parent
                for parent in self.tree.parents(name)
                if parent in self._members
                and not isinstance(
                    self.tree.element(parent), (FdepGate, InhibitionConstraint)
                )
            ]
            if not parents and name != self.top:
                activate(name)
        return active

    def _activate_subtree(self, name: str, active: Set[str], uses: Dict[str, Optional[str]]) -> None:
        """Activate ``name`` and the part of its subtree that is in service."""
        if name in active or name not in self._members:
            return
        active.add(name)
        element = self.tree.element(name)
        if isinstance(element, (AndGate, OrGate, VotingGate, PandGate)):
            for child in element.inputs:
                self._activate_subtree(child, active, uses)
        elif isinstance(element, SeqGate):
            if element.inputs:
                self._activate_subtree(element.inputs[0], active, uses)
        elif isinstance(element, SpareGate):
            self._activate_subtree(element.primary, active, uses)
            current = uses.get(name)
            if current is not None and current != element.primary:
                self._activate_subtree(current, active, uses)

    def _propagate(self, state: MonolithicState) -> MonolithicState:
        """Propagate gate failures, FDEP triggers, spare claims and activation."""
        failed = set(state.failed)
        active = set(state.active)
        uses = state.uses()
        taken = set(state.taken)
        progress = state.progress()
        inhibited = set(state.inhibited)

        while True:
            snapshot = (
                frozenset(failed),
                frozenset(active),
                tuple(sorted(uses.items(), key=lambda item: item[0])),
                frozenset(taken),
                tuple(sorted(progress.items())),
                frozenset(inhibited),
            )

            # Inhibitions: an already-failed inhibitor freezes its target.
            for constraint in self.tree.inhibitions():
                if constraint.name not in self._members:
                    continue
                if (
                    constraint.inhibitor in failed
                    and constraint.target not in failed
                    and constraint.target not in inhibited
                ):
                    inhibited.add(constraint.target)

            # Functional dependencies: a failed trigger fails its dependents.
            for constraint in self.tree.fdep_gates():
                if constraint.name not in self._members:
                    continue
                if constraint.trigger in failed:
                    for dependent in constraint.dependents:
                        if dependent not in failed and dependent not in inhibited:
                            failed.add(dependent)

            # Gate evaluation, children before parents.
            for name in self._order:
                element = self.tree.element(name)
                if isinstance(element, (BasicEvent, FdepGate, InhibitionConstraint)):
                    continue
                if name in failed or name in inhibited:
                    continue
                if isinstance(element, (AndGate, SeqGate)):
                    is_failed = all(child in failed for child in element.inputs)
                elif isinstance(element, OrGate):
                    is_failed = any(child in failed for child in element.inputs)
                elif isinstance(element, VotingGate):
                    is_failed = (
                        sum(1 for child in element.inputs if child in failed)
                        >= element.threshold
                    )
                elif isinstance(element, PandGate):
                    is_failed = self._update_pand(element, failed, progress)
                elif isinstance(element, SpareGate):
                    is_failed = self._update_spare(element, failed, active, uses, taken)
                else:  # pragma: no cover - defensive
                    raise AnalysisError(f"unsupported element {name!r} in the baseline")
                if is_failed:
                    failed.add(name)

            new_snapshot = (
                frozenset(failed),
                frozenset(active),
                tuple(sorted(uses.items(), key=lambda item: item[0])),
                frozenset(taken),
                tuple(sorted(progress.items())),
                frozenset(inhibited),
            )
            if new_snapshot == snapshot:
                break

        return MonolithicState(
            failed=frozenset(failed),
            active=frozenset(active),
            using=tuple(sorted(uses.items(), key=lambda item: item[0])),
            taken=frozenset(taken),
            pand_progress=tuple(sorted(progress.items())),
            inhibited=frozenset(inhibited),
        )

    def _update_pand(
        self, gate: PandGate, failed: Set[str], progress: Dict[str, int]
    ) -> bool:
        """Advance a PAND gate's ordered prefix; return True once it fails."""
        current = progress.get(gate.name, 0)
        if current == -1:
            return False
        # Simultaneous failures resolve left-to-right: first extend the prefix
        # as far as possible, then look for out-of-order failures.
        while current < len(gate.inputs) and gate.inputs[current] in failed:
            current += 1
        if current == len(gate.inputs):
            progress[gate.name] = current
            return True
        if any(gate.inputs[i] in failed for i in range(current + 1, len(gate.inputs))):
            # Some input beyond the prefix failed although its predecessor has
            # not: wrong order, the gate is disabled forever.
            progress[gate.name] = -1
            return False
        progress[gate.name] = current
        return False

    def _update_spare(
        self,
        gate: SpareGate,
        failed: Set[str],
        active: Set[str],
        uses: Dict[str, Optional[str]],
        taken: Set[str],
    ) -> bool:
        """Re-allocate a spare gate's unit; return True once it is exhausted."""
        current = uses.get(gate.name, gate.primary)
        if current is not None and current not in failed:
            return False
        # The current unit has failed: look for a replacement in declared order.
        if gate.name in active:
            for spare in gate.spares:
                if spare in failed or spare in taken:
                    continue
                uses[gate.name] = spare
                taken.add(spare)
                self._activate_subtree(spare, active, uses)
                return False
        else:
            # A dormant gate does not claim spares; it only fails when nothing
            # could ever become available to it.
            if any(
                spare not in failed and spare not in taken for spare in gate.spares
            ):
                uses[gate.name] = None
                return False
        uses[gate.name] = None
        return True


def monolithic_unreliability(tree: DynamicFaultTree, time: float) -> float:
    """Convenience wrapper: whole-tree Markov chain unreliability."""
    return MonolithicMarkovGenerator(tree).unreliability(time)
