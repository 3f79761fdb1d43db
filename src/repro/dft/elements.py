"""Dynamic fault tree elements.

A DFT is a directed acyclic graph built from *basic events* (leaves) and
*gates*.  This module defines one small immutable dataclass per element type.
Elements reference their inputs by name; the containing
:class:`~repro.dft.tree.DynamicFaultTree` resolves and validates the
references.

Element families (Section 2 of the paper):

* static gates: :class:`AndGate`, :class:`OrGate`, :class:`VotingGate`;
* dynamic gates: :class:`PandGate`, :class:`SpareGate`, :class:`FdepGate`,
  :class:`SeqGate` (the sequence-enforcing gate, emulated via cold-spare
  semantics as noted in the paper's footnote 4);
* the extension elements of Section 7: :class:`InhibitionConstraint`
  (mutual exclusivity is two symmetric inhibitions) and repairable basic
  events (a :class:`BasicEvent` with a ``repair_rate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from ..errors import FaultTreeError


def _check_name(name: str) -> None:
    if not name or not isinstance(name, str):
        raise FaultTreeError("element names must be non-empty strings")


# ---------------------------------------------------------------------------
# basic events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasicEvent:
    """A leaf of the fault tree: a physical component that can fail.

    Parameters
    ----------
    failure_rate:
        Rate ``lambda`` of the exponential failure distribution while the
        component is *active*.
    dormancy:
        The dormancy factor ``alpha``; the failure rate while dormant is
        ``alpha * lambda``.  ``alpha = 0`` is a *cold* basic event, ``alpha = 1``
        a *hot* one and values in between are *warm* (Section 2).
    repair_rate:
        Optional rate ``mu`` of an exponential repair (Section 7.2).  ``None``
        means the component is not repairable.
    failure_rate_param:
        Optional name of a declared rate parameter this event's failure rate
        is bound to.  ``failure_rate`` then holds the parameter's *nominal*
        value; the rate-sweep engine (:mod:`repro.core.sweep`) re-instantiates
        the aggregated model for other values of the parameter without
        re-running conversion or aggregation.
    repair_rate_param:
        Same, for the repair rate.
    """

    name: str
    failure_rate: float
    dormancy: float = 1.0
    repair_rate: Optional[float] = None
    failure_rate_param: Optional[str] = None
    repair_rate_param: Optional[str] = None

    def __post_init__(self) -> None:
        _check_name(self.name)
        for param in (self.failure_rate_param, self.repair_rate_param):
            if param is not None and not (isinstance(param, str) and param.isidentifier()):
                raise FaultTreeError(
                    f"basic event {self.name!r}: rate parameter names must be "
                    f"identifiers, got {param!r}"
                )
        if self.repair_rate_param is not None and self.repair_rate is None:
            raise FaultTreeError(
                f"basic event {self.name!r} binds a repair parameter but has no "
                "repair rate"
            )
        if not (self.failure_rate > 0.0 and math.isfinite(self.failure_rate)):
            raise FaultTreeError(
                f"basic event {self.name!r}: failure rate must be positive and finite, "
                f"got {self.failure_rate}"
            )
        if not 0.0 <= self.dormancy <= 1.0:
            raise FaultTreeError(
                f"basic event {self.name!r}: dormancy factor must lie in [0, 1], "
                f"got {self.dormancy}"
            )
        if self.repair_rate is not None and not (
            self.repair_rate > 0.0 and math.isfinite(self.repair_rate)
        ):
            raise FaultTreeError(
                f"basic event {self.name!r}: repair rate must be positive and finite, "
                f"got {self.repair_rate}"
            )

    # ------------------------------------------------------------------ views
    @property
    def inputs(self) -> Tuple[str, ...]:
        return ()

    @property
    def is_cold(self) -> bool:
        return self.dormancy == 0.0

    @property
    def is_hot(self) -> bool:
        return self.dormancy == 1.0

    @property
    def is_warm(self) -> bool:
        return 0.0 < self.dormancy < 1.0

    @property
    def is_repairable(self) -> bool:
        return self.repair_rate is not None

    @property
    def is_parametric(self) -> bool:
        """True iff a rate of this event is bound to a named parameter."""
        return self.failure_rate_param is not None or self.repair_rate_param is not None

    @property
    def rate_parameters(self) -> Tuple[str, ...]:
        """The declared parameter names this event's rates are bound to."""
        return tuple(
            param
            for param in (self.failure_rate_param, self.repair_rate_param)
            if param is not None
        )

    @property
    def dormant_rate(self) -> float:
        """Failure rate while dormant (``alpha * lambda``)."""
        return self.dormancy * self.failure_rate


# ---------------------------------------------------------------------------
# static gates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AndGate:
    """Fails once *all* inputs have failed."""

    name: str
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        _check_name(self.name)
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) < 1:
            raise FaultTreeError(f"AND gate {self.name!r} needs at least one input")
        _check_distinct_inputs(self)


@dataclass(frozen=True)
class OrGate:
    """Fails once *any* input has failed."""

    name: str
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        _check_name(self.name)
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) < 1:
            raise FaultTreeError(f"OR gate {self.name!r} needs at least one input")
        _check_distinct_inputs(self)


@dataclass(frozen=True)
class VotingGate:
    """The K/M gate: fails once at least ``threshold`` of its inputs have failed."""

    name: str
    inputs: Tuple[str, ...]
    threshold: int

    def __post_init__(self) -> None:
        _check_name(self.name)
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) < 1:
            raise FaultTreeError(f"voting gate {self.name!r} needs at least one input")
        if not 1 <= self.threshold <= len(self.inputs):
            raise FaultTreeError(
                f"voting gate {self.name!r}: threshold {self.threshold} must be "
                f"between 1 and the number of inputs ({len(self.inputs)})"
            )
        _check_distinct_inputs(self)


# ---------------------------------------------------------------------------
# dynamic gates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PandGate:
    """Priority-AND: fails if all inputs fail *and* they fail left-to-right.

    If an input fails before its left neighbour the gate moves to an
    operational absorbing state (it can never fail any more).
    """

    name: str
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        _check_name(self.name)
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) < 2:
            raise FaultTreeError(f"PAND gate {self.name!r} needs at least two inputs")
        _check_distinct_inputs(self)


@dataclass(frozen=True)
class SpareGate:
    """Spare gate with one primary and one or more (possibly shared) spares.

    The ``dormancy`` of the spare components is carried by the components
    themselves (cold/warm/hot basic events or whole spare modules); the gate
    only manages allocation and activation.
    """

    name: str
    primary: str
    spares: Tuple[str, ...]

    def __post_init__(self) -> None:
        _check_name(self.name)
        object.__setattr__(self, "spares", tuple(self.spares))
        if not self.spares:
            raise FaultTreeError(f"spare gate {self.name!r} needs at least one spare")
        if self.primary in self.spares:
            raise FaultTreeError(
                f"spare gate {self.name!r}: the primary cannot also be a spare"
            )
        if len(set(self.spares)) != len(self.spares):
            raise FaultTreeError(f"spare gate {self.name!r} lists a spare twice")

    @property
    def inputs(self) -> Tuple[str, ...]:
        return (self.primary,) + self.spares


@dataclass(frozen=True)
class FdepGate:
    """Functional dependency: the trigger's failure fails all dependent events.

    The gate's own output is a *dummy* (never used in the failure logic).  In
    this framework both the trigger and the dependent events may be arbitrary
    elements, not only basic events (Section 6.2).
    """

    name: str
    trigger: str
    dependents: Tuple[str, ...]

    def __post_init__(self) -> None:
        _check_name(self.name)
        object.__setattr__(self, "dependents", tuple(self.dependents))
        if not self.dependents:
            raise FaultTreeError(f"FDEP gate {self.name!r} needs at least one dependent event")
        if self.trigger in self.dependents:
            raise FaultTreeError(
                f"FDEP gate {self.name!r}: the trigger cannot depend on itself"
            )
        if len(set(self.dependents)) != len(self.dependents):
            raise FaultTreeError(f"FDEP gate {self.name!r} lists a dependent twice")

    @property
    def inputs(self) -> Tuple[str, ...]:
        return (self.trigger,) + self.dependents


@dataclass(frozen=True)
class SeqGate:
    """Sequence-enforcing gate: inputs can only fail from left to right.

    The paper's footnote 4 observes that a SEQ gate is behaviourally a cold
    spare gate (the next input only becomes able to fail once the previous one
    has failed); the conversion layer uses exactly that emulation.
    """

    name: str
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        _check_name(self.name)
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) < 2:
            raise FaultTreeError(f"SEQ gate {self.name!r} needs at least two inputs")
        _check_distinct_inputs(self)


# ---------------------------------------------------------------------------
# extension elements (Section 7)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InhibitionConstraint:
    """``inhibitor`` failing first prevents ``target`` from ever failing.

    Mutual exclusivity of two failure modes (Section 7.1, the fail-open /
    fail-closed switch) is modelled by two symmetric inhibition constraints.
    Like the FDEP gate this element has a dummy output.
    """

    name: str
    inhibitor: str
    target: str

    def __post_init__(self) -> None:
        _check_name(self.name)
        if self.inhibitor == self.target:
            raise FaultTreeError(
                f"inhibition {self.name!r}: an element cannot inhibit itself"
            )

    @property
    def inputs(self) -> Tuple[str, ...]:
        return (self.inhibitor, self.target)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

Gate = Union[AndGate, OrGate, VotingGate, PandGate, SpareGate, FdepGate, SeqGate,
             InhibitionConstraint]
Element = Union[BasicEvent, Gate]

#: Gate classes whose output participates in the failure logic of parents.
LOGIC_GATES = (AndGate, OrGate, VotingGate, PandGate, SpareGate, SeqGate)
#: Gate classes with a dummy output (they only constrain other elements).
CONSTRAINT_GATES = (FdepGate, InhibitionConstraint)
STATIC_GATES = (AndGate, OrGate, VotingGate)
DYNAMIC_GATES = (PandGate, SpareGate, FdepGate, SeqGate)


def is_basic_event(element: Element) -> bool:
    return isinstance(element, BasicEvent)


def is_gate(element: Element) -> bool:
    return not isinstance(element, BasicEvent)


def is_static(element: Element) -> bool:
    """Static elements are basic events and static gates."""
    return isinstance(element, (BasicEvent,) + STATIC_GATES)


def is_dynamic(element: Element) -> bool:
    return isinstance(element, DYNAMIC_GATES) or isinstance(element, InhibitionConstraint)


def _check_distinct_inputs(gate) -> None:
    if len(set(gate.inputs)) != len(gate.inputs):
        raise FaultTreeError(f"gate {gate.name!r} lists the same input twice")
