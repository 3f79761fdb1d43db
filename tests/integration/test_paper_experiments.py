"""Integration tests reproducing the paper's quantitative claims.

Each test corresponds to an experiment of DESIGN.md / EXPERIMENTS.md; the
benchmarks regenerate the same numbers with timing, these tests pin them down
as correctness assertions.
"""

import pytest

from repro import Study, Unavailability, Unreliability, detect_nondeterminism, evaluate
from repro.baselines import DiftreeAnalyzer, MonolithicMarkovGenerator
from repro.core import compositional_aggregate, convert
from repro.ctmc import ctmc_from_ioimc, markov_model_from_ioimc
from repro.ioimc import minimize_weak, parallel
from repro.systems import (
    CAS_PAPER_UNRELIABILITY,
    CPS_PAPER_UNRELIABILITY,
    PAPER_DIFTREE_STATES,
    PAPER_DIFTREE_TRANSITIONS,
    cardiac_assist_system,
    cascaded_pand_system,
    figure2_models,
    pand_race_system,
    repairable_and_system,
)


def unreliability(study, time):
    return study.evaluate(Unreliability([time]))["unreliability"].value


class TestFigure2:
    """E1: composition, hiding and aggregation of the Figure 2 example."""

    def test_composition_and_aggregation(self):
        model_a, model_b = figure2_models(rate=1.0)
        composed = parallel(model_a, model_b)
        hidden = composed.hide(["a"])
        aggregated = minimize_weak(hidden)
        # The four interleaving states with identical future behaviour collapse:
        # the aggregated model is strictly smaller than the composition.
        assert aggregated.num_states < composed.num_states
        assert aggregated.num_states <= 4
        # The externally visible action b is preserved.
        assert "b" in aggregated.signature.outputs


class TestCardiacAssistSystem:
    """E2: the CAS (Section 5.1) — unreliability 0.6579 at t=1, small modules."""

    @pytest.fixture(scope="class")
    def study(self):
        return Study(cardiac_assist_system())

    def test_compositional_unreliability_matches_paper(self, study):
        assert unreliability(study, 1.0) == pytest.approx(
            CAS_PAPER_UNRELIABILITY, abs=5e-5
        )

    def test_diftree_baseline_agrees(self, study):
        diftree = DiftreeAnalyzer(cardiac_assist_system()).analyze(1.0)
        assert diftree.unreliability == pytest.approx(unreliability(study, 1.0), abs=1e-9)

    def test_galileo_biggest_module_is_the_pump_unit_with_8_states(self):
        result = DiftreeAnalyzer(cardiac_assist_system()).analyze(1.0)
        by_root = {m.root: m for m in result.modules if m.dynamic}
        assert by_root["Pump_unit"].states == 8
        assert result.largest_chain_states <= 10

    def test_unit_models_aggregate_to_a_handful_of_states(self):
        """The paper reports ~6 states per aggregated unit I/O-IMC."""
        cas = cardiac_assist_system()
        for unit in ("Motor_unit", "Pump_unit", "CPU_unit"):
            sub = cas.descendants(unit)
            # Build a tree restricted to the unit and analyse it in isolation.
            from repro.dft import DynamicFaultTree

            subtree = DynamicFaultTree(unit)
            for name in cas.topological_order():
                if name in sub or name in {"CPU_fdep", "Trigger", "CS", "SS"} and unit == "CPU_unit":
                    if name not in subtree:
                        subtree.add(cas.element(name))
            subtree.set_top(unit)
            assert Study(subtree).final_ioimc.num_states <= 8

    def test_compositional_peak_far_below_monolithic(self, study):
        monolithic = MonolithicMarkovGenerator(cardiac_assist_system()).build()
        assert study.statistics.peak_product_states < monolithic.num_states


class TestCascadedPandSystem:
    """E3: the CPS (Section 5.2) — the state-space-explosion comparison."""

    @pytest.fixture(scope="class")
    def study(self):
        return Study(cascaded_pand_system())

    @pytest.fixture(scope="class")
    def monolithic(self):
        return MonolithicMarkovGenerator(cascaded_pand_system()).build()

    def test_unreliability_matches_paper(self, study):
        assert unreliability(study, 1.0) == pytest.approx(
            CPS_PAPER_UNRELIABILITY, abs=5e-5
        )

    def test_monolithic_chain_matches_paper_exactly(self, monolithic):
        assert monolithic.num_states == PAPER_DIFTREE_STATES
        assert monolithic.num_transitions == PAPER_DIFTREE_TRANSITIONS

    def test_monolithic_value_agrees_with_compositional(self, study):
        from repro.ctmc.transient import probability_reach_label

        monolithic = MonolithicMarkovGenerator(cascaded_pand_system()).build()
        value = probability_reach_label(monolithic.ctmc, "failed", 1.0)
        assert value == pytest.approx(unreliability(study, 1.0), abs=1e-9)

    def test_compositional_peak_is_orders_of_magnitude_smaller(self, study, monolithic):
        stats = study.statistics
        assert stats.peak_product_states < 200
        assert stats.peak_product_transitions < 600
        assert stats.peak_product_states * 20 < monolithic.num_states
        assert stats.peak_product_transitions * 40 < monolithic.num_transitions

    def test_module_a_aggregates_to_a_six_state_chain(self):
        """Figure 9: the aggregated module A is a small chain."""
        cps = cascaded_pand_system()
        from repro.dft import DynamicFaultTree

        subtree = DynamicFaultTree("A")
        for name in ("A1", "A2", "A3", "A4", "A"):
            subtree.add(cps.element(name))
        subtree.set_top("A")
        community = convert(subtree)
        models = [m.model for m in community.members if m.kind != "monitor"]
        final, _stats = compositional_aggregate(models, keep_visible=["fail_A"])
        assert final.num_states == 6

    def test_diftree_cannot_modularise_the_cps(self):
        modules = DiftreeAnalyzer(cascaded_pand_system()).modules
        assert len(modules) == 1 and modules[0].dynamic


class TestNondeterminism:
    """E4: FDEP-triggered simultaneity (Section 4.4, Figure 6a)."""

    def test_bounds_reported(self):
        report = detect_nondeterminism(pand_race_system(), time=1.0)
        assert report.nondeterministic
        assert 0.0 < report.bounds[0] < report.bounds[1] < 1.0

    def test_deterministic_baseline_lies_within_bounds(self):
        report = detect_nondeterminism(pand_race_system(), time=1.0)
        from repro.baselines import monolithic_unreliability

        value = monolithic_unreliability(pand_race_system(), 1.0)
        assert report.bounds[0] - 1e-9 <= value <= report.bounds[1] + 1e-9


class TestRepairableSystem:
    """E8: the repairable AND of Figures 13-15 (unavailability)."""

    def test_final_model_is_the_small_birth_death_chain(self):
        ctmc = ctmc_from_ioimc(Study(repairable_and_system()).final_ioimc)
        assert ctmc.num_states <= 5

    def test_steady_state_unavailability_closed_form(self):
        tree = repairable_and_system(failure_rate=1.0, repair_rate=2.0)
        value = evaluate(tree, Unavailability())["unavailability"].value
        assert value == pytest.approx((1.0 / 3.0) ** 2, abs=1e-9)

    def test_transient_unavailability_below_steady_state_bound(self):
        result = evaluate(repairable_and_system(), Unavailability() + Unavailability(0.2))
        limit, transient = (measure.value for measure in result.measures)
        assert transient < limit
