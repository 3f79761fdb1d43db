"""Tests for the top-level analysis API against closed-form results."""

import pytest

from repro import (
    MTTF,
    Study,
    StudyOptions,
    Unavailability,
    Unreliability,
    UnreliabilityBounds,
    evaluate,
)
from repro.ctmc import CTMC
from repro.dft import FaultTreeBuilder
from repro.errors import AnalysisError
from tests import analytic


def unreliability(tree, time, options=None):
    return evaluate(tree, Unreliability([time]), options)["unreliability"].value


def mean_time_to_failure(tree):
    return evaluate(tree, MTTF())["mttf"].value


def unavailability(tree, time=None):
    return evaluate(tree, Unavailability(time))["unavailability"].value


class TestStaticGates:
    def test_and(self, and_tree):
        assert unreliability(and_tree, 1.0) == pytest.approx(
            analytic.and_unreliability([1.0, 2.0], 1.0), abs=1e-9
        )

    def test_or(self, or_tree):
        assert unreliability(or_tree, 1.0) == pytest.approx(
            analytic.or_unreliability([1.0, 2.0], 1.0), abs=1e-9
        )

    def test_voting(self):
        builder = FaultTreeBuilder("vote")
        builder.basic_events(["A", "B", "C"], failure_rate=1.5)
        builder.voting_gate("Top", ["A", "B", "C"], threshold=2)
        tree = builder.build("Top")
        assert unreliability(tree, 0.8) == pytest.approx(
            analytic.voting_unreliability([1.5, 1.5, 1.5], 2, 0.8), abs=1e-9
        )

    def test_nested_static_tree(self):
        builder = FaultTreeBuilder("nested")
        builder.basic_events(["A", "B", "C", "D"], failure_rate=1.0)
        builder.or_gate("Left", ["A", "B"])
        builder.or_gate("Right", ["C", "D"])
        builder.and_gate("Top", ["Left", "Right"])
        tree = builder.build("Top")
        expected = analytic.or_unreliability([1.0, 1.0], 1.0) ** 2
        assert unreliability(tree, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_unreliability_at_time_zero(self, and_tree):
        assert unreliability(and_tree, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_unreliability_large_time_tends_to_one(self, or_tree):
        assert unreliability(or_tree, 50.0) == pytest.approx(1.0, abs=1e-6)


class TestDynamicGates:
    def test_pand(self, pand_tree):
        assert unreliability(pand_tree, 1.0) == pytest.approx(
            analytic.pand_two_unreliability(1.0, 2.0, 1.0), abs=1e-9
        )

    def test_cold_spare(self, cold_spare_tree):
        assert unreliability(cold_spare_tree, 1.0) == pytest.approx(
            analytic.cold_spare_unreliability(1.0, 2.0, 1.0), abs=1e-9
        )

    def test_warm_spare(self, warm_spare_tree):
        assert unreliability(warm_spare_tree, 1.0) == pytest.approx(
            analytic.warm_spare_unreliability(1.0, 2.0, 0.5, 1.0), abs=1e-9
        )

    def test_fdep(self, fdep_tree):
        # A fails at min(own, trigger) ~ exp(1.5); B independent exp(1).
        expected = analytic.exp_cdf(1.5, 1.0) * analytic.exp_cdf(1.0, 1.0)
        assert unreliability(fdep_tree, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_shared_spare(self, shared_spare_tree):
        # Hypoexponential stages 2, 2, 1 until all three pumps are gone.
        generator = [
            [-2.0, 2.0, 0.0, 0.0],
            [0.0, -2.0, 2.0, 0.0],
            [0.0, 0.0, -1.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
        expected = analytic.ctmc_transient_probability(generator, 0, [3], 1.0)
        assert unreliability(shared_spare_tree, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_seq_gate_equals_cold_spare_chain(self):
        builder = FaultTreeBuilder("seq")
        builder.basic_event("A", 1.0)
        builder.basic_event("B", 2.0)
        builder.seq_gate("Top", ["A", "B"])
        tree = builder.build("Top")
        assert unreliability(tree, 1.0) == pytest.approx(
            analytic.cold_spare_unreliability(1.0, 2.0, 1.0), abs=1e-9
        )


class TestOtherMeasures:
    def test_mttf_single_component(self):
        builder = FaultTreeBuilder("single")
        builder.basic_event("A", 4.0)
        builder.or_gate("Top", ["A"])
        tree = builder.build("Top")
        assert mean_time_to_failure(tree) == pytest.approx(0.25)

    def test_mttf_cold_spare(self, cold_spare_tree):
        # MTTF = 1/1 + 1/2
        assert mean_time_to_failure(cold_spare_tree) == pytest.approx(1.5)

    def test_unavailability_steady_state(self, repairable_and_tree):
        expected = analytic.repairable_component_unavailability(1.0, 2.0) ** 2
        assert unavailability(repairable_and_tree) == pytest.approx(expected, abs=1e-9)

    def test_unavailability_transient_approaches_steady_state(self, repairable_and_tree):
        limit = unavailability(repairable_and_tree)
        transient = unavailability(repairable_and_tree, time=50.0)
        assert transient == pytest.approx(limit, abs=1e-6)

    def test_unreliability_curve_monotone(self, cold_spare_tree):
        curve = evaluate(cold_spare_tree, Unreliability([0.0, 0.5, 1.0, 2.0]))[
            "unreliability"
        ].values
        assert list(curve) == sorted(curve)

    def test_bounds_collapse_for_deterministic_model(self, and_tree):
        low, high = evaluate(and_tree, UnreliabilityBounds([1.0]))[
            "unreliability_bounds"
        ].bounds
        assert low == pytest.approx(high)

    def test_caching_returns_same_objects(self, and_tree):
        study = Study(and_tree)
        assert study.final_ioimc is study.final_ioimc
        assert study.markov_model is study.markov_model
        assert isinstance(study.markov_model, CTMC)


class TestErrorHandling:
    def test_unreliability_on_nondeterministic_model_raises(self):
        from repro.systems import pand_race_system

        study = Study(pand_race_system())
        with pytest.raises(AnalysisError):
            study.evaluate(Unreliability([1.0]))
        low, high = study.evaluate(UnreliabilityBounds([1.0]))["unreliability_bounds"].bounds
        assert low < high

    def test_mttf_raises_when_failure_not_certain(self, pand_tree):
        # The PAND may be disabled forever, so the MTTF diverges.
        with pytest.raises(AnalysisError):
            mean_time_to_failure(pand_tree)

    def test_options_can_switch_orderings(self, and_tree):
        value_linked = unreliability(and_tree, 1.0, StudyOptions(ordering="linked"))
        value_sequential = unreliability(and_tree, 1.0, StudyOptions(ordering="sequential"))
        assert value_linked == pytest.approx(value_sequential, abs=1e-12)
