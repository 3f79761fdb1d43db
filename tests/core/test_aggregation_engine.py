"""Tests for the compositional aggregation engine."""

import pytest

from repro.core import (
    CompositionalAggregationOptions,
    CompositionalAggregator,
    compositional_aggregate,
    convert,
)
from repro.ctmc import markov_model_from_ioimc
from repro.errors import CompositionError
from repro.ioimc import AggregationOptions


class TestEngineBasics:
    def test_empty_community_rejected(self):
        with pytest.raises(CompositionError):
            CompositionalAggregator([])

    def test_unknown_ordering_rejected(self):
        with pytest.raises(CompositionError):
            CompositionalAggregationOptions(ordering="random")

    def test_single_model_community(self, and_tree):
        community = convert(and_tree)
        only = community.member("BE(A)").model
        final, stats = compositional_aggregate([only])
        assert final.num_states >= 1
        assert stats.steps == []
        assert stats.final_states == final.num_states

    def test_runs_to_single_model(self, and_tree):
        community = convert(and_tree)
        final, stats = compositional_aggregate(community.models())
        assert len(stats.steps) == len(community.members) - 1
        assert stats.final_states == final.num_states
        # Everything has been hidden: the final model is closed.
        assert final.signature.inputs == frozenset()
        assert final.signature.outputs == frozenset()

    def test_statistics_record_peaks(self, shared_spare_tree):
        community = convert(shared_spare_tree)
        _final, stats = compositional_aggregate(community.models())
        assert stats.peak_product_states >= stats.peak_reduced_states
        assert stats.peak_product_states >= stats.final_states
        assert stats.peak_product_transitions >= 1
        assert "peak" in stats.summary()

    def test_hidden_actions_recorded(self, and_tree):
        community = convert(and_tree)
        _final, stats = compositional_aggregate(community.models())
        hidden = {action for step in stats.steps for action in step.hidden_actions}
        assert "fail_A" in hidden
        assert "fail_Top" in hidden

    def test_keep_visible_respected(self, and_tree):
        community = convert(and_tree)
        final, _stats = compositional_aggregate(
            community.models(), keep_visible=["fail_Top"]
        )
        assert "fail_Top" in final.signature.outputs


class TestOrderings:
    @pytest.mark.parametrize("ordering", ["linked", "sequential"])
    def test_all_orderings_produce_equivalent_measures(self, shared_spare_tree, ordering):
        community = convert(shared_spare_tree)
        final, _ = compositional_aggregate(community.models(), ordering=ordering)
        value = markov_model_from_ioimc(final).probability_of_label("failed", 1.0)
        reference_final, _ = compositional_aggregate(community.models(), ordering="linked")
        reference = markov_model_from_ioimc(reference_final).probability_of_label("failed", 1.0)
        assert value == pytest.approx(reference, abs=1e-9)

    def test_linked_ordering_prefers_communicating_pairs(self, fdep_tree):
        community = convert(fdep_tree)
        _final, stats = compositional_aggregate(community.models(), ordering="linked")
        first = stats.steps[0]
        left = community.member(first.left).model
        right = community.member(first.right).model
        assert left.signature.visible & right.signature.visible

    def test_weak_vs_strong_aggregation_equivalent_measure(self, shared_spare_tree):
        community = convert(shared_spare_tree)
        weak_final, weak_stats = compositional_aggregate(
            community.models(), aggregation=AggregationOptions(method="weak")
        )
        strong_final, strong_stats = compositional_aggregate(
            community.models(), aggregation=AggregationOptions(method="strong")
        )
        weak_value = markov_model_from_ioimc(weak_final).probability_of_label("failed", 1.0)
        strong_value = markov_model_from_ioimc(strong_final).probability_of_label("failed", 1.0)
        assert weak_value == pytest.approx(strong_value, abs=1e-9)
        assert weak_stats.peak_reduced_states <= strong_stats.peak_reduced_states
