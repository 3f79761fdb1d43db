"""Conversion of a dynamic fault tree into a community of I/O-IMC.

This module implements Step 1 of the paper's analysis algorithm (Section 5):
"Map each DFT element to its corresponding (aggregated) I/O-IMC and match all
inputs and outputs."  The models enter the community as built: the
aggregation engine (:mod:`repro.core.aggregation`) reduces each one, under
the analysis's own aggregation options, in the first composition step that
takes it.  Weak bisimulation is a congruence for parallel composition and
hiding, so the final quotient is the one pre-aggregated elements would give.
The mapping is one-to-one except for the auxiliary models:

* a **firing auxiliary** per functionally dependent element (Section 4.3),
* an **inhibition auxiliary** per inhibited element (Section 7.1),
* an **activation auxiliary** per element with several activation sources
  (Section 4 / 6.1),
* a single **monitor** that labels system-failure states for the analysis.

The non-obvious part is the *activation wiring* of Section 6.1 (complex
spares).  For every element the converter determines whether it is always
active or which signals activate it:

* elements not used inside any spare module are active from the start;
* the primary of a spare gate shares the gate's own activation;
* a spare is activated by the claim signal of whichever sharing gate takes it
  (all claim signals are merged by the spare's activation auxiliary);
* children of static/PAND/SEQ gates inherit the activation of their parent —
  the same action name is simply wired through, no extra model is needed;
* the inputs of a SEQ gate are activated by the failure of their left
  neighbour, which realises the paper's observation that SEQ is a cold-spare
  in disguise (footnote 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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
from ..errors import ConversionError
from ..ioimc.behavior import ElementBehavior
from ..ioimc.model import IOIMC
from . import signals
from .semantics import (
    ActivationAuxiliaryBehavior,
    BasicEventBehavior,
    FiringAuxiliaryBehavior,
    InhibitionAuxiliaryBehavior,
    MonitorBehavior,
    PandGateBehavior,
    RepairableStaticGateBehavior,
    SpareGateBehavior,
    StaticGateBehavior,
)

#: Marker meaning "the element is active from time zero".
ALWAYS_ACTIVE = "ALWAYS_ACTIVE"


@dataclass
class CommunityMember:
    """One I/O-IMC of the community, with provenance information."""

    name: str
    kind: str
    model: IOIMC
    element: Optional[str] = None

    @property
    def num_states(self) -> int:
        return self.model.num_states


@dataclass
class Community:
    """The set of I/O-IMC a DFT was converted into."""

    tree: DynamicFaultTree
    members: List[CommunityMember] = field(default_factory=list)
    top_fire_action: str = ""
    monitored_label: str = signals.FAILED_LABEL

    def models(self) -> List[IOIMC]:
        return [member.model for member in self.members]

    def member(self, name: str) -> CommunityMember:
        for member in self.members:
            if member.name == name:
                return member
        raise ConversionError(f"no community member named {name!r}")

    def member_for_element(self, element: str) -> CommunityMember:
        for member in self.members:
            if member.element == element and member.kind in {"basic_event", "gate"}:
                return member
        raise ConversionError(f"no community member models element {element!r}")

    @property
    def total_states(self) -> int:
        return sum(member.num_states for member in self.members)

    @property
    def total_transitions(self) -> int:
        return sum(member.model.num_transitions for member in self.members)

    def summary(self) -> str:
        return (
            f"community of {len(self.members)} I/O-IMC, "
            f"{self.total_states} states, {self.total_transitions} transitions in total"
        )


class DftToIoimcConverter:
    """Converts a validated :class:`DynamicFaultTree` into a :class:`Community`."""

    def __init__(self, tree: DynamicFaultTree):
        self.tree = tree
        tree.validate()
        self._relevant = self._relevant_elements()
        self._repairable = self._repairable_elements()
        self._needs_firing_aux, self._needs_inhibition_aux = self._auxiliary_targets()
        self._activation_spec_cache: Dict[str, object] = {}
        self._resolved_activation_cache: Dict[str, Optional[str]] = {}
        self._activation_auxiliaries: Dict[str, Tuple[str, ...]] = {}

    # ------------------------------------------------------------ public API
    def convert(self) -> Community:
        """Build the full community for the tree."""
        self._check_supported()
        behaviors = self._element_behaviors()
        behaviors.extend(self._auxiliary_behaviors())
        # The monitor on the top event is what makes "failed" observable.
        behaviors.append(self._monitor_behavior())

        community = Community(
            tree=self.tree,
            top_fire_action=signals.fire(self.tree.top),
        )
        for kind, element, behavior in behaviors:
            community.members.append(
                CommunityMember(
                    name=behavior.name, kind=kind, model=behavior.to_ioimc(), element=element
                )
            )
        self._check_community(community)
        return community

    # ------------------------------------------------------- relevant elements
    def _relevant_elements(self) -> FrozenSet[str]:
        """Elements that need a model: the top's cone plus attached constraints."""
        relevant: Set[str] = set(self.tree.descendants(self.tree.top))
        changed = True
        while changed:
            changed = False
            for constraint in list(self.tree.fdep_gates()) + list(self.tree.inhibitions()):
                if constraint.name in relevant:
                    continue
                if any(child in relevant for child in constraint.inputs):
                    relevant.add(constraint.name)
                    for child in constraint.inputs:
                        new_members = self.tree.descendants(child)
                        if not new_members <= relevant:
                            relevant |= new_members
                            changed = True
                    changed = True
        return frozenset(relevant)

    def _logic_elements(self) -> List[str]:
        """Relevant elements that get their own behaviour (no constraint gates)."""
        names = []
        for name in self.tree.topological_order():
            if name not in self._relevant:
                continue
            element = self.tree.element(name)
            if isinstance(element, (FdepGate, InhibitionConstraint)):
                continue
            names.append(name)
        return names

    def _repairable_elements(self) -> FrozenSet[str]:
        """Elements whose failure can be undone (bottom-up closure)."""
        repairable: Set[str] = set()
        for name in self.tree.topological_order():
            element = self.tree.element(name)
            if isinstance(element, BasicEvent):
                if element.is_repairable:
                    repairable.add(name)
            elif isinstance(element, (AndGate, OrGate, VotingGate, SeqGate)):
                if any(child in repairable for child in element.inputs):
                    repairable.add(name)
            elif isinstance(element, (PandGate, SpareGate)):
                if any(child in repairable for child in element.inputs):
                    repairable.add(name)
        return frozenset(repairable)

    # -------------------------------------------------------------- supported?
    def _check_supported(self) -> None:
        if not self._repairable:
            return
        for name in self._logic_elements():
            element = self.tree.element(name)
            if name in self._repairable and isinstance(element, (PandGate, SpareGate, SeqGate)):
                raise ConversionError(
                    f"element {name!r} mixes repairable inputs with a dynamic gate; "
                    "the repairable extension covers basic events and static gates "
                    "(as in Section 7.2 of the paper)"
                )
        for name in self._needs_firing_aux:
            if name in self._repairable:
                raise ConversionError(
                    f"element {name!r} is both repairable and functionally dependent; "
                    "this combination is not supported"
                )
        for name in self._needs_inhibition_aux:
            if name in self._repairable:
                raise ConversionError(
                    f"element {name!r} is both repairable and inhibited; "
                    "this combination is not supported"
                )

    # ---------------------------------------------------------- firing wiring
    def _auxiliary_targets(self) -> Tuple[Dict[str, Tuple[str, ...]], Dict[str, Tuple[str, ...]]]:
        """Elements needing a firing auxiliary (FDEP) or inhibition auxiliary."""
        firing: Dict[str, Tuple[str, ...]] = {}
        inhibition: Dict[str, Tuple[str, ...]] = {}
        for gate in self.tree.fdep_gates():
            if gate.name not in self._relevant:
                continue
            for dependent in gate.dependents:
                triggers = firing.get(dependent, ())
                firing[dependent] = triggers + (gate.trigger,)
        for constraint in self.tree.inhibitions():
            if constraint.name not in self._relevant:
                continue
            inhibitors = inhibition.get(constraint.target, ())
            inhibition[constraint.target] = inhibitors + (constraint.inhibitor,)
        overlap = set(firing) & set(inhibition)
        if overlap:
            raise ConversionError(
                "elements cannot be both functionally dependent and inhibited: "
                + ", ".join(sorted(overlap))
            )
        return firing, inhibition

    def _own_fire_action(self, name: str) -> str:
        """The action the element's own model emits when it fails."""
        if name in self._needs_firing_aux or name in self._needs_inhibition_aux:
            return signals.fire_isolated(name)
        return signals.fire(name)

    # ------------------------------------------------------ activation wiring
    def _activation_spec(self, name: str) -> object:
        """``ALWAYS_ACTIVE`` or the sorted tuple of activation source actions."""
        if name in self._activation_spec_cache:
            return self._activation_spec_cache[name]
        # Breaking potential (invalid) cycles defensively: mark as in-progress.
        self._activation_spec_cache[name] = ALWAYS_ACTIVE

        sources: Set[str] = set()
        always = False
        contributing_parents = 0

        if name == self.tree.top:
            always = True
            contributing_parents += 1

        for parent_name in self.tree.parents(name):
            if parent_name not in self._relevant:
                continue
            parent = self.tree.element(parent_name)
            if isinstance(parent, SpareGate):
                contributing_parents += 1
                if name == parent.primary:
                    inherited = self._resolved_activation(parent_name)
                    if inherited is None:
                        always = True
                    else:
                        sources.add(inherited)
                else:  # name is one of the spares
                    sources.add(signals.claim(name, parent_name))
            elif isinstance(parent, SeqGate):
                contributing_parents += 1
                position = parent.inputs.index(name)
                if position == 0:
                    inherited = self._resolved_activation(parent_name)
                    if inherited is None:
                        always = True
                    else:
                        sources.add(inherited)
                else:
                    sources.add(signals.fire(parent.inputs[position - 1]))
            elif isinstance(parent, (AndGate, OrGate, VotingGate, PandGate)):
                contributing_parents += 1
                inherited = self._resolved_activation(parent_name)
                if inherited is None:
                    always = True
                else:
                    sources.add(inherited)
            # FDEP gates and inhibitions do not influence activation.

        if contributing_parents == 0:
            always = True

        spec: object
        if always:
            spec = ALWAYS_ACTIVE
        else:
            spec = tuple(sorted(sources))
        self._activation_spec_cache[name] = spec
        return spec

    def _resolved_activation(self, name: str) -> Optional[str]:
        """The single action activating ``name`` (``None`` = always active).

        Registers an activation auxiliary when several sources must be merged.
        """
        if name in self._resolved_activation_cache:
            return self._resolved_activation_cache[name]
        spec = self._activation_spec(name)
        if spec == ALWAYS_ACTIVE:
            resolved: Optional[str] = None
        else:
            sources: Tuple[str, ...] = spec  # type: ignore[assignment]
            if len(sources) == 1:
                resolved = sources[0]
            else:
                resolved = signals.activate(name)
                self._activation_auxiliaries[name] = sources
        self._resolved_activation_cache[name] = resolved
        return resolved

    # ------------------------------------------------------------- behaviours
    def _element_behaviors(self) -> List[Tuple[str, Optional[str], ElementBehavior]]:
        behaviors: List[Tuple[str, Optional[str], ElementBehavior]] = []
        for name in self._logic_elements():
            element = self.tree.element(name)
            if isinstance(element, BasicEvent):
                behaviors.append(("basic_event", name, self._basic_event_behavior(element)))
            elif isinstance(element, (AndGate, OrGate, VotingGate)):
                behaviors.append(("gate", name, self._static_gate_behavior(element)))
            elif isinstance(element, SeqGate):
                behaviors.append(("gate", name, self._seq_gate_behavior(element)))
            elif isinstance(element, PandGate):
                behaviors.append(("gate", name, self._pand_gate_behavior(element)))
            elif isinstance(element, SpareGate):
                behaviors.append(("gate", name, self._spare_gate_behavior(element)))
            else:  # pragma: no cover - defensive
                raise ConversionError(f"no behaviour defined for element {name!r}")
        return behaviors

    def _basic_event_behavior(self, event: BasicEvent) -> ElementBehavior:
        activation = self._resolved_activation(event.name)
        effective_event = event
        if self._is_seq_follower(event.name):
            # SEQ gates emulate a cold spare (paper, footnote 4): an input may
            # not fail at all before its left neighbour has failed, whatever
            # its declared dormancy factor says.
            effective_event = BasicEvent(
                name=event.name,
                failure_rate=event.failure_rate,
                dormancy=0.0,
                repair_rate=event.repair_rate,
                failure_rate_param=event.failure_rate_param,
                repair_rate_param=event.repair_rate_param,
            )
        return BasicEventBehavior(
            effective_event,
            fire_action=self._own_fire_action(event.name),
            activation_action=activation,
            repair_action=signals.repair(event.name) if event.is_repairable else None,
        )

    def _is_seq_follower(self, name: str) -> bool:
        """True iff ``name`` is a non-first input of some SEQ gate."""
        for gate in self.tree.seq_gates():
            if gate.name in self._relevant and name in gate.inputs[1:]:
                return True
        return False

    def _threshold(self, element) -> int:
        if isinstance(element, AndGate):
            return len(element.inputs)
        if isinstance(element, OrGate):
            return 1
        if isinstance(element, VotingGate):
            return element.threshold
        if isinstance(element, SeqGate):
            return len(element.inputs)
        raise ConversionError(f"element {element.name!r} has no failure threshold")

    def _static_gate_behavior(self, element) -> ElementBehavior:
        input_fires = [signals.fire(child) for child in element.inputs]
        threshold = self._threshold(element)
        if element.name in self._repairable:
            repair_to_fire = {
                signals.repair(child): signals.fire(child)
                for child in element.inputs
                if child in self._repairable
            }
            return RepairableStaticGateBehavior(
                element.name,
                input_fire_actions=input_fires,
                repair_to_fire=repair_to_fire,
                threshold=threshold,
                fire_action=self._own_fire_action(element.name),
                repair_action=signals.repair(element.name),
            )
        return StaticGateBehavior(
            element.name,
            input_fire_actions=input_fires,
            threshold=threshold,
            fire_action=self._own_fire_action(element.name),
        )

    def _seq_gate_behavior(self, element: SeqGate) -> ElementBehavior:
        for child in element.inputs[1:]:
            if not isinstance(self.tree.element(child), BasicEvent):
                raise ConversionError(
                    f"SEQ gate {element.name!r}: input {child!r} is a gate; the "
                    "cold-spare emulation of SEQ supports basic events only"
                )
        return self._static_gate_behavior(element)

    def _pand_gate_behavior(self, element: PandGate) -> ElementBehavior:
        return PandGateBehavior(
            element.name,
            input_fire_actions=[signals.fire(child) for child in element.inputs],
            fire_action=self._own_fire_action(element.name),
        )

    def _spare_gate_behavior(self, element: SpareGate) -> ElementBehavior:
        competitor_claims: Dict[int, Sequence[str]] = {}
        for index, spare in enumerate(element.spares):
            competitors = [
                gate.name
                for gate in self.tree.spare_gates_using(spare)
                if gate.name != element.name and gate.name in self._relevant
            ]
            if competitors:
                competitor_claims[index] = [
                    signals.claim(spare, competitor) for competitor in competitors
                ]
        return SpareGateBehavior(
            element.name,
            primary_fire_action=signals.fire(element.primary),
            spare_fire_actions=[signals.fire(spare) for spare in element.spares],
            claim_actions=[signals.claim(spare, element.name) for spare in element.spares],
            competitor_claim_actions=competitor_claims,
            fire_action=self._own_fire_action(element.name),
            activation_action=self._resolved_activation(element.name),
        )

    def _auxiliary_behaviors(self) -> List[Tuple[str, Optional[str], ElementBehavior]]:
        behaviors: List[Tuple[str, Optional[str], ElementBehavior]] = []
        for dependent, triggers in sorted(self._needs_firing_aux.items()):
            if dependent not in self._relevant:
                continue
            behaviors.append(
                (
                    "firing_auxiliary",
                    dependent,
                    FiringAuxiliaryBehavior(
                        dependent,
                        isolated_fire_action=signals.fire_isolated(dependent),
                        trigger_fire_actions=[signals.fire(t) for t in dict.fromkeys(triggers)],
                        fire_action=signals.fire(dependent),
                    ),
                )
            )
        for target, inhibitors in sorted(self._needs_inhibition_aux.items()):
            if target not in self._relevant:
                continue
            behaviors.append(
                (
                    "inhibition_auxiliary",
                    target,
                    InhibitionAuxiliaryBehavior(
                        target,
                        isolated_fire_action=signals.fire_isolated(target),
                        inhibitor_fire_actions=[signals.fire(i) for i in dict.fromkeys(inhibitors)],
                        fire_action=signals.fire(target),
                    ),
                )
            )
        # Activation auxiliaries are registered lazily while resolving
        # activations; make sure every logic element has been resolved.
        for name in self._logic_elements():
            self._resolved_activation(name)
        for element, sources in sorted(self._activation_auxiliaries.items()):
            behaviors.append(
                (
                    "activation_auxiliary",
                    element,
                    ActivationAuxiliaryBehavior(
                        element,
                        source_actions=sources,
                        activation_action=signals.activate(element),
                    ),
                )
            )
        return behaviors

    def _monitor_behavior(self) -> Tuple[str, Optional[str], ElementBehavior]:
        top = self.tree.top
        repair_action = signals.repair(top) if top in self._repairable else None
        return (
            "monitor",
            top,
            MonitorBehavior(top, fire_action=signals.fire(top), repair_action=repair_action),
        )

    # ----------------------------------------------------------------- checks
    def _check_community(self, community: Community) -> None:
        """Every input action must be produced by exactly one member."""
        produced: Dict[str, str] = {}
        for member in community.members:
            for action in member.model.signature.outputs:
                if action in produced:
                    raise ConversionError(
                        f"action {action!r} is produced by both {produced[action]!r} "
                        f"and {member.name!r}"
                    )
                produced[action] = member.name
        for member in community.members:
            for action in member.model.signature.inputs:
                if action not in produced:
                    raise ConversionError(
                        f"member {member.name!r} listens to {action!r} but no member "
                        "produces it"
                    )


def convert(tree: DynamicFaultTree) -> Community:
    """Convenience wrapper: convert ``tree`` into its I/O-IMC community."""
    return DftToIoimcConverter(tree).convert()
