"""Tests for DFT element dataclasses and their validation."""

import math

import pytest

from repro.dft import (
    AndGate,
    BasicEvent,
    FaultTreeBuilder,
    FdepGate,
    InhibitionConstraint,
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
from repro.errors import FaultTreeError


class TestBasicEvent:
    def test_defaults_are_hot(self):
        event = BasicEvent("A", failure_rate=2.0)
        assert event.is_hot and not event.is_cold and not event.is_warm
        assert event.dormant_rate == pytest.approx(2.0)
        assert not event.is_repairable

    def test_cold_and_warm(self):
        cold = BasicEvent("C", 1.0, dormancy=0.0)
        warm = BasicEvent("W", 1.0, dormancy=0.3)
        assert cold.is_cold and cold.dormant_rate == 0.0
        assert warm.is_warm and warm.dormant_rate == pytest.approx(0.3)

    def test_repairable(self):
        event = BasicEvent("R", 1.0, repair_rate=4.0)
        assert event.is_repairable

    def test_invalid_rate(self):
        with pytest.raises(FaultTreeError):
            BasicEvent("A", failure_rate=0.0)
        with pytest.raises(FaultTreeError):
            BasicEvent("A", failure_rate=-1.0)
        with pytest.raises(FaultTreeError):
            BasicEvent("A", failure_rate=float("inf"))

    def test_invalid_dormancy(self):
        with pytest.raises(FaultTreeError):
            BasicEvent("A", 1.0, dormancy=1.5)
        with pytest.raises(FaultTreeError):
            BasicEvent("A", 1.0, dormancy=-0.1)

    def test_invalid_repair_rate(self):
        with pytest.raises(FaultTreeError):
            BasicEvent("A", 1.0, repair_rate=0.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_non_finite_repair_rate_rejected(self, rate):
        with pytest.raises(FaultTreeError, match="repair rate must be positive and finite"):
            BasicEvent("A", 1.0, repair_rate=rate)
        with pytest.raises(FaultTreeError, match="repair rate"):
            FaultTreeBuilder("t").basic_event("A", 1.0, repair_rate=rate)

    def test_empty_name_rejected(self):
        with pytest.raises(FaultTreeError):
            BasicEvent("", 1.0)

    def test_no_inputs(self):
        assert BasicEvent("A", 1.0).inputs == ()


class TestStaticGates:
    def test_and_or_inputs(self):
        assert AndGate("g", ("a", "b")).inputs == ("a", "b")
        assert OrGate("g", ("a",)).inputs == ("a",)

    def test_empty_inputs_rejected(self):
        with pytest.raises(FaultTreeError):
            AndGate("g", ())
        with pytest.raises(FaultTreeError):
            OrGate("g", ())

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(FaultTreeError):
            AndGate("g", ("a", "a"))

    def test_voting_threshold_validation(self):
        gate = VotingGate("v", ("a", "b", "c"), threshold=2)
        assert gate.threshold == 2
        with pytest.raises(FaultTreeError):
            VotingGate("v", ("a", "b"), threshold=3)
        with pytest.raises(FaultTreeError):
            VotingGate("v", ("a", "b"), threshold=0)


class TestDynamicGates:
    def test_pand_needs_two_inputs(self):
        with pytest.raises(FaultTreeError):
            PandGate("p", ("a",))
        assert PandGate("p", ("a", "b", "c")).inputs == ("a", "b", "c")

    def test_seq_needs_two_inputs(self):
        with pytest.raises(FaultTreeError):
            SeqGate("s", ("a",))

    def test_spare_gate_structure(self):
        gate = SpareGate("g", primary="p", spares=("s1", "s2"))
        assert gate.inputs == ("p", "s1", "s2")

    def test_spare_gate_requires_spares(self):
        with pytest.raises(FaultTreeError):
            SpareGate("g", primary="p", spares=())

    def test_spare_gate_primary_not_spare(self):
        with pytest.raises(FaultTreeError):
            SpareGate("g", primary="p", spares=("p",))

    def test_spare_gate_duplicate_spares(self):
        with pytest.raises(FaultTreeError):
            SpareGate("g", primary="p", spares=("s", "s"))

    def test_fdep_structure(self):
        gate = FdepGate("f", trigger="t", dependents=("a", "b"))
        assert gate.inputs == ("t", "a", "b")

    def test_fdep_requires_dependents(self):
        with pytest.raises(FaultTreeError):
            FdepGate("f", trigger="t", dependents=())

    def test_fdep_trigger_not_dependent(self):
        with pytest.raises(FaultTreeError):
            FdepGate("f", trigger="t", dependents=("t",))

    def test_inhibition_structure(self):
        constraint = InhibitionConstraint("i", inhibitor="a", target="b")
        assert constraint.inputs == ("a", "b")
        with pytest.raises(FaultTreeError):
            InhibitionConstraint("i", inhibitor="a", target="a")


class TestClassification:
    def test_predicates(self):
        event = BasicEvent("A", 1.0)
        and_gate = AndGate("g", ("A",))
        pand = PandGate("p", ("A", "B"))
        assert is_basic_event(event) and not is_gate(event)
        assert is_gate(and_gate) and is_static(and_gate) and not is_dynamic(and_gate)
        assert is_dynamic(pand) and not is_static(pand)
        assert is_static(event)

    def test_fdep_is_dynamic(self):
        assert is_dynamic(FdepGate("f", "t", ("a",)))

    def test_spare_is_dynamic(self):
        assert is_dynamic(SpareGate("s", "p", ("q",)))
