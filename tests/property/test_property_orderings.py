"""Property tests: the modular plan and the linked ordering agree.

The satellite claim of the planner refactor: whatever composition order the
engine follows, the final aggregated I/O-IMC is weakly bisimilar — same
quotient sizes and identical top-event CTMC unreliability.  Checked on the
paper's hand-drawn Figure 2 models, the cardiac assist system (Section 5.1),
the cascaded PAND system (Section 5.2) and a hypothesis sweep over the
cascaded-PAND family.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Study, StudyOptions, Unreliability
from repro.core import compositional_aggregate, convert
from repro.ctmc import ctmc_from_ioimc
from repro.ioimc import minimize_weak
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_family,
    cascaded_pand_system,
    figure2_models,
)

MISSION_TIME = 1.0


def _unreliability(study):
    return study.evaluate(Unreliability([MISSION_TIME]))["unreliability"].value


def _assert_orderings_agree(tree):
    linked = Study(tree, StudyOptions(ordering="linked"))
    modular = Study(tree, StudyOptions(ordering="modular"))
    # Identical top-event CTMC unreliability...
    assert _unreliability(modular) == pytest.approx(_unreliability(linked), abs=1e-9)
    # ... and weak-bisimilar final models: both are already weak-bisimulation
    # quotients, so their sizes coincide and re-minimising does not shrink them.
    final_linked = linked.final_ioimc
    final_modular = modular.final_ioimc
    assert final_modular.num_states == final_linked.num_states
    assert final_modular.num_transitions == final_linked.num_transitions
    assert minimize_weak(final_modular).num_states == final_modular.num_states
    assert minimize_weak(final_linked).num_states == final_linked.num_states


class TestPaperSystems:
    def test_figure2_models_agree_across_orderings(self):
        results = {}
        for ordering in ("linked", "modular"):
            model_a, model_b = figure2_models(rate=1.0)
            final, _stats = compositional_aggregate(
                [model_a, model_b], ordering=ordering, keep_visible=["b"]
            )
            results[ordering] = final
        linked, modular = results["linked"], results["modular"]
        assert modular.num_states == linked.num_states
        assert modular.num_transitions == linked.num_transitions
        assert "b" in modular.signature.outputs

    def test_cas_orderings_agree(self):
        _assert_orderings_agree(cardiac_assist_system())

    def test_cascaded_pand_orderings_agree(self):
        _assert_orderings_agree(cascaded_pand_system())

    def test_cascaded_pand_ctmc_identical(self):
        linked = Study(cascaded_pand_system(), StudyOptions(ordering="linked"))
        modular = Study(cascaded_pand_system(), StudyOptions(ordering="modular"))
        ctmc_linked = ctmc_from_ioimc(linked.final_ioimc)
        ctmc_modular = ctmc_from_ioimc(modular.final_ioimc)
        assert ctmc_modular.num_states == ctmc_linked.num_states


class TestCascadedPandFamily:
    @settings(max_examples=6, deadline=None)
    @given(
        num_modules=st.integers(min_value=2, max_value=3),
        events_per_module=st.integers(min_value=2, max_value=3),
    )
    def test_family_orderings_agree(self, num_modules, events_per_module):
        tree = cascaded_pand_family(num_modules, events_per_module)
        _assert_orderings_agree(tree)

    @settings(max_examples=6, deadline=None)
    @given(
        num_modules=st.integers(min_value=2, max_value=3),
        events_per_module=st.integers(min_value=2, max_value=3),
    )
    def test_family_modular_peak_not_worse(self, num_modules, events_per_module):
        tree = cascaded_pand_family(num_modules, events_per_module)
        linked = Study(tree, StudyOptions(ordering="linked"))
        modular = Study(tree, StudyOptions(ordering="modular"))
        linked.final_ioimc
        modular.final_ioimc
        assert (
            modular.statistics.peak_product_states
            <= linked.statistics.peak_product_states
        )
