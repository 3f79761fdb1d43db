"""The dynamic fault tree container.

A :class:`DynamicFaultTree` is a directed acyclic graph of the elements defined
in :mod:`repro.dft.elements`, identified by name, with a designated *top event*
(the system failure).  The class offers structural queries (children, parents,
descendants, topological order), validation, and the spare/FDEP-specific
look-ups needed by the conversion to I/O-IMC and by the DIFTree baseline.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import FaultTreeError
from .elements import (
    AndGate,
    BasicEvent,
    CONSTRAINT_GATES,
    Element,
    FdepGate,
    InhibitionConstraint,
    LOGIC_GATES,
    OrGate,
    PandGate,
    SeqGate,
    SpareGate,
    VotingGate,
    is_basic_event,
    is_dynamic,
    is_gate,
    is_static,
)


class DynamicFaultTree:
    """A named collection of DFT elements with a top event."""

    def __init__(self, name: str = "dft", top: Optional[str] = None):
        self.name = name
        self._elements: Dict[str, Element] = {}
        self._top: Optional[str] = top
        #: Declared rate parameters: name -> nominal value.
        self._parameters: Dict[str, float] = {}

    # ------------------------------------------------------------------ build
    def add(self, element: Element) -> Element:
        """Add an element; names must be unique."""
        if element.name in self._elements:
            raise FaultTreeError(f"an element named {element.name!r} already exists")
        self._elements[element.name] = element
        return element

    def declare_parameter(self, name: str, nominal: float) -> str:
        """Declare a named rate parameter with its nominal (default) value.

        Basic events bind their rates to declared parameters via
        ``failure_rate_param`` / ``repair_rate_param``; the rate-sweep engine
        (:mod:`repro.core.sweep`) varies the declared parameters without
        re-running the expensive aggregation.
        """
        if not (isinstance(name, str) and name.isidentifier()):
            raise FaultTreeError(f"parameter names must be identifiers, got {name!r}")
        if name in self._parameters:
            raise FaultTreeError(f"rate parameter {name!r} is declared twice")
        nominal = float(nominal)
        if not (nominal > 0.0 and math.isfinite(nominal)):
            raise FaultTreeError(
                f"rate parameter {name!r} needs a positive finite nominal value, "
                f"got {nominal}"
            )
        self._parameters[name] = nominal
        return name

    def add_all(self, elements: Iterable[Element]) -> None:
        for element in elements:
            self.add(element)

    def set_top(self, name: str) -> None:
        if name not in self._elements:
            raise FaultTreeError(f"cannot set unknown element {name!r} as top event")
        self._top = name

    # ---------------------------------------------------------------- queries
    @property
    def top(self) -> str:
        if self._top is None:
            raise FaultTreeError(f"fault tree {self.name!r} has no top event")
        return self._top

    @property
    def has_top(self) -> bool:
        return self._top is not None

    def __contains__(self, name: object) -> bool:
        return name in self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self._elements)

    def element(self, name: str) -> Element:
        try:
            return self._elements[name]
        except KeyError:
            raise FaultTreeError(f"unknown element {name!r}") from None

    def elements(self) -> Tuple[Element, ...]:
        return tuple(self._elements.values())

    def names(self) -> Tuple[str, ...]:
        return tuple(self._elements)

    def basic_events(self) -> Tuple[BasicEvent, ...]:
        return tuple(e for e in self._elements.values() if isinstance(e, BasicEvent))

    # ------------------------------------------------------------- parameters
    @property
    def parameters(self) -> Dict[str, float]:
        """Declared rate parameters (name -> nominal value), a copy."""
        return dict(self._parameters)

    @property
    def is_parametric(self) -> bool:
        """True iff at least one rate parameter is declared."""
        return bool(self._parameters)

    def parameter(self, name: str) -> float:
        """Nominal value of a declared parameter."""
        try:
            return self._parameters[name]
        except KeyError:
            raise FaultTreeError(f"unknown rate parameter {name!r}") from None

    def gates(self) -> Tuple[Element, ...]:
        return tuple(e for e in self._elements.values() if is_gate(e))

    def spare_gates(self) -> Tuple[SpareGate, ...]:
        return tuple(e for e in self._elements.values() if isinstance(e, SpareGate))

    def fdep_gates(self) -> Tuple[FdepGate, ...]:
        return tuple(e for e in self._elements.values() if isinstance(e, FdepGate))

    def seq_gates(self) -> Tuple[SeqGate, ...]:
        return tuple(e for e in self._elements.values() if isinstance(e, SeqGate))

    def inhibitions(self) -> Tuple[InhibitionConstraint, ...]:
        return tuple(
            e for e in self._elements.values() if isinstance(e, InhibitionConstraint)
        )

    # ----------------------------------------------------------- tree shape
    def children(self, name: str) -> Tuple[str, ...]:
        """All inputs of ``name`` (including constraint inputs)."""
        return self.element(name).inputs

    def parents(self, name: str) -> Tuple[str, ...]:
        """All elements that list ``name`` among their inputs."""
        self.element(name)
        return tuple(
            parent.name for parent in self._elements.values() if name in parent.inputs
        )

    def logic_parents(self, name: str) -> Tuple[str, ...]:
        """Parents whose *failure logic* consumes the firing signal of ``name``.

        FDEP gates and inhibition constraints are excluded: their output is a
        dummy and they do not listen to the failure of their dependents in the
        usual sense (the wiring of auxiliaries is handled by the conversion).
        """
        self.element(name)
        return tuple(
            parent.name
            for parent in self._elements.values()
            if isinstance(parent, LOGIC_GATES) and name in parent.inputs
        )

    def descendants(self, name: str, include_self: bool = True) -> FrozenSet[str]:
        """The closure of ``name`` under the input relation."""
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.children(current))
        if not include_self:
            seen.discard(name)
        return frozenset(seen)

    def basic_events_below(self, name: str) -> Tuple[str, ...]:
        """Names of the basic events in the subtree rooted at ``name``."""
        return tuple(
            sorted(
                member
                for member in self.descendants(name)
                if isinstance(self.element(member), BasicEvent)
            )
        )

    def topological_order(self) -> Tuple[str, ...]:
        """Elements ordered so that every element appears after its inputs."""
        order: List[str] = []
        mark: Dict[str, int] = {}

        def visit(node: str, stack: Tuple[str, ...]) -> None:
            state = mark.get(node, 0)
            if state == 2:
                return
            if state == 1:
                cycle = " -> ".join(stack + (node,))
                raise FaultTreeError(f"the fault tree contains a cycle: {cycle}")
            mark[node] = 1
            for child in self.children(node):
                if child not in self._elements:
                    raise FaultTreeError(
                        f"element {node!r} references unknown input {child!r}"
                    )
                visit(child, stack + (node,))
            mark[node] = 2
            order.append(node)

        for name in self._elements:
            visit(name, ())
        return tuple(order)

    # ------------------------------------------------------- spare structure
    def spare_gates_using(self, name: str) -> Tuple[SpareGate, ...]:
        """Spare gates that list ``name`` among their spares."""
        return tuple(g for g in self.spare_gates() if name in g.spares)

    def spare_gates_with_primary(self, name: str) -> Tuple[SpareGate, ...]:
        """Spare gates whose primary is ``name``."""
        return tuple(g for g in self.spare_gates() if g.primary == name)

    def is_spare_of_some_gate(self, name: str) -> bool:
        return bool(self.spare_gates_using(name))

    def fdep_triggers_of(self, name: str) -> Tuple[str, ...]:
        """Triggers of all FDEP gates that list ``name`` as a dependent."""
        return tuple(g.trigger for g in self.fdep_gates() if name in g.dependents)

    def inhibitors_of(self, name: str) -> Tuple[str, ...]:
        """Elements whose failure inhibits the failure of ``name``."""
        return tuple(c.inhibitor for c in self.inhibitions() if c.target == name)

    # -------------------------------------------------------------- character
    @property
    def is_static(self) -> bool:
        """True iff the tree uses only basic events and static gates."""
        return all(is_static(e) for e in self._elements.values())

    @property
    def is_repairable(self) -> bool:
        """True iff at least one basic event has a repair rate."""
        return any(be.is_repairable for be in self.basic_events())

    def dynamic_elements(self) -> Tuple[Element, ...]:
        return tuple(e for e in self._elements.values() if is_dynamic(e))

    # -------------------------------------------------------------- validation
    def validate(self) -> List[str]:
        """Check structural well-formedness.

        Hard errors raise :class:`~repro.errors.FaultTreeError`; questionable
        but analysable constructs are returned as a list of warning strings.
        """
        warnings: List[str] = []
        if self._top is None:
            raise FaultTreeError(f"fault tree {self.name!r} has no top event")
        if self._top not in self._elements:
            raise FaultTreeError(f"top event {self._top!r} is not an element of the tree")

        # Unknown references and cycles (topological_order raises on both).
        self.topological_order()

        # Parameter bindings must refer to declared parameters, and the
        # resolved nominal rate on the event must agree with the declaration
        # (the builder and the Galileo reader resolve from the declaration, so
        # a mismatch signals a hand-constructed inconsistency).
        for event in self.basic_events():
            for param, rate in (
                (event.failure_rate_param, event.failure_rate),
                (event.repair_rate_param, event.repair_rate),
            ):
                if param is None:
                    continue
                if param not in self._parameters:
                    raise FaultTreeError(
                        f"basic event {event.name!r} references undefined rate "
                        f"parameter {param!r}"
                    )
                if rate != self._parameters[param]:
                    raise FaultTreeError(
                        f"basic event {event.name!r}: nominal rate {rate} disagrees "
                        f"with parameter {param!r} = {self._parameters[param]}"
                    )

        top_element = self.element(self.top)
        if isinstance(top_element, CONSTRAINT_GATES):
            raise FaultTreeError(
                f"the top event {self.top!r} is a constraint gate with a dummy output"
            )

        # Constraint gates must not feed failure logic.
        for gate in self.gates():
            if isinstance(gate, LOGIC_GATES):
                for child in gate.inputs:
                    if isinstance(self.element(child), CONSTRAINT_GATES):
                        raise FaultTreeError(
                            f"gate {gate.name!r} uses the dummy output of {child!r} "
                            "as an input"
                        )

        # Unreachable elements are allowed but reported.
        reachable = set(self.descendants(self.top))
        for constraint in self.fdep_gates() + self.inhibitions():
            if any(child in reachable for child in constraint.inputs):
                reachable.add(constraint.name)
                reachable.update(self.descendants(constraint.name))
        for name in self._elements:
            if name not in reachable:
                warnings.append(f"element {name!r} is not connected to the top event")

        # Spare-module independence (Section 6.1): the elements strictly below
        # a spare-gate input must not be shared with the outside world.
        for gate in self.spare_gates():
            for module_root in gate.inputs:
                internal = self.descendants(module_root, include_self=False)
                for member in internal:
                    outside_parents = [
                        parent
                        for parent in self.logic_parents(member)
                        if parent not in internal and parent != module_root
                    ]
                    if outside_parents:
                        warnings.append(
                            f"spare module {module_root!r} of gate {gate.name!r} is not "
                            f"independent: {member!r} is also used by "
                            + ", ".join(repr(p) for p in outside_parents)
                        )

        # An element should not be a primary of one gate and a spare of another.
        for gate in self.spare_gates():
            for other in self.spare_gates():
                if gate.name == other.name:
                    continue
                if gate.primary in other.spares:
                    warnings.append(
                        f"{gate.primary!r} is the primary of {gate.name!r} but a spare "
                        f"of {other.name!r}; activation becomes ambiguous"
                    )

        # Repairable trees: dynamic gates other than FDEP are not supported by
        # the repairable semantics implemented here (the paper only sketches
        # BE/AND; we implement all static gates).
        if self.is_repairable:
            for element in self.dynamic_elements():
                if not isinstance(element, FdepGate):
                    warnings.append(
                        f"repairable tree uses dynamic element {element.name!r}; "
                        "repair of dynamic gates follows the cold-restart semantics "
                        "documented in repro.core.semantics"
                    )
        return warnings

    # ------------------------------------------------------------------ misc
    def summary(self) -> str:
        kinds: Dict[str, int] = {}
        for element in self._elements.values():
            kinds[type(element).__name__] = kinds.get(type(element).__name__, 0) + 1
        breakdown = ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
        return f"{self.name}: {len(self)} elements ({breakdown}), top={self._top!r}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DynamicFaultTree({self.name!r}, elements={len(self)}, top={self._top!r})"
