"""Tests for the aggregation pipeline (reduction module)."""

import pytest

from repro import Study, StudyOptions
from repro.core import aggregation as core_aggregation
from repro.errors import ModelError
from repro.ioimc import reduction
from repro.ioimc import (
    AggregationOptions,
    IOIMC,
    aggregate,
    compress_deterministic_tau,
    minimize_weak,
    remove_internal_self_loops,
    signature,
)
from repro.systems import cardiac_assist_system
from tests.reduction_reference import aggregate_to_fixpoint, canonical_form


def chain_with_taus() -> IOIMC:
    model = IOIMC("chain", signature(outputs=["done"], internals=["tau"]))
    s0 = model.add_state(initial=True)
    s1 = model.add_state()
    s2 = model.add_state()
    s3 = model.add_state(labels=["failed"])
    model.add_markovian(s0, 2.0, s1)
    model.add_interactive(s1, "tau", s2)
    model.add_interactive(s2, "done", s3)
    model.add_interactive(s3, "tau", s3)  # internal self loop
    return model


class TestHelpers:
    def test_remove_internal_self_loops(self):
        cleaned = remove_internal_self_loops(chain_with_taus())
        assert all(
            target != state
            for state in cleaned.states()
            for action, target in cleaned.interactive_out(state)
        )

    def test_compress_deterministic_tau(self):
        compressed = compress_deterministic_tau(chain_with_taus())
        # s1 (single tau to s2) disappears.
        assert compressed.num_states == 3

    def test_compression_redirects_markovian_sources(self):
        compressed = compress_deterministic_tau(chain_with_taus())
        # The Markovian transition from the initial state now goes straight to
        # the state offering "done".
        (rate, target), = list(compressed.markovian_out(compressed.initial))
        assert rate == pytest.approx(2.0)
        assert "done" in compressed.actions_enabled(target)

    def test_compression_moves_initial_state(self):
        model = IOIMC("init", signature(internals=["tau"], outputs=["x"]))
        s0 = model.add_state(initial=True)
        s1 = model.add_state()
        model.add_interactive(s0, "tau", s1)
        model.add_interactive(s1, "x", s1)
        compressed = compress_deterministic_tau(model)
        assert compressed.num_states == 1
        assert "x" in compressed.actions_enabled(compressed.initial)

    def test_compression_keeps_branching_taus(self):
        model = IOIMC("branch", signature(internals=["tau"]))
        s0 = model.add_state(initial=True)
        s1 = model.add_state()
        s2 = model.add_state()
        model.add_interactive(s0, "tau", s1)
        model.add_interactive(s0, "tau", s2)
        compressed = compress_deterministic_tau(model)
        assert compressed.num_states == 3  # non-deterministic choice preserved


class TestAggregate:
    def test_weak_pipeline_reduces(self):
        reduced, stats = aggregate(chain_with_taus())
        assert reduced.num_states <= 3
        assert stats.states_before == 4
        assert stats.states_after == reduced.num_states
        assert 0.0 <= stats.state_reduction <= 1.0

    def test_strong_pipeline(self):
        reduced, _ = aggregate(chain_with_taus(), AggregationOptions(method="strong"))
        assert reduced.num_states <= 3

    def test_tau_only_pipeline(self):
        reduced, _ = aggregate(chain_with_taus(), AggregationOptions(method="tau"))
        assert reduced.num_states <= 4

    def test_none_pipeline_only_restricts_reachability(self):
        model = chain_with_taus()
        model.add_state(name="orphan")
        reduced, stats = aggregate(model, AggregationOptions(method="none"))
        assert reduced.num_states == 4
        assert stats.states_before == 5

    def test_unknown_method_rejected(self):
        with pytest.raises(ModelError):
            AggregationOptions(method="magic")

    @pytest.mark.parametrize("knob", ["urgent_outputs", "respect_labels", "rate_digits"])
    def test_semantic_knobs_are_not_settable(self, knob):
        # Urgency, label splitting and rate precision are fixed by the
        # I/O-IMC semantics, so the options carry only relation and engine.
        with pytest.raises(TypeError):
            AggregationOptions(**{knob: False})

    @pytest.mark.parametrize("method", ["weak", "strong"])
    def test_labels_always_split_blocks(self, method):
        # Two absorbing states that differ only in their label stay apart.
        model = IOIMC("labelled", signature())
        start = model.add_state(initial=True)
        model.add_markovian(start, 1.0, model.add_state(labels=["failed"]))
        model.add_markovian(start, 2.0, model.add_state())
        reduced, _ = aggregate(model, AggregationOptions(method=method))
        assert reduced.num_states == 3
        labelled = [s for s in reduced.states() if "failed" in reduced.labels(s)]
        assert len(labelled) == 1

    def test_aggregation_keeps_name(self):
        model = chain_with_taus()
        reduced, _ = aggregate(model)
        assert reduced.name == model.name

    def test_statistics_reduction_zero_for_empty_model(self):
        stats_model = IOIMC("one", signature())
        stats_model.add_state(initial=True)
        reduced, stats = aggregate(stats_model)
        assert reduced.num_states == 1
        assert stats.state_reduction == 0.0

    @pytest.mark.parametrize("method", ["weak", "strong", "tau", "none"])
    def test_result_is_never_the_input(self, method):
        # Steps with nothing to do hand their input on instead of copying
        # it, but the caller still gets a model of its own.
        model = IOIMC("reduced", signature(outputs=["done"]))
        start = model.add_state(initial=True)
        model.add_markovian(start, 1.0, model.add_state(labels=["failed"]))
        reduced, _ = aggregate(model, AggregationOptions(method=method))
        assert reduced is not model
        assert canonical_form(reduced) == canonical_form(model)
        reduced.add_state()
        assert model.num_states == 2


def _cas_final_product():
    """The input of the last aggregate() call of a cache-less CAS Study in
    the linked order (the modular plan's last product is already minimal
    after one call)."""
    inputs = []

    def capture(model, options=None):
        inputs.append(model)
        return reduction.aggregate(model, options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core_aggregation, "aggregate", capture)
        Study(cardiac_assist_system(), StudyOptions(ordering="linked")).final_ioimc
    return inputs[-1]


class TestSinglePass:
    def test_cas_final_product_minimises_twice(self, monkeypatch):
        # The quotient of the CAS final product leaves one vanishing state;
        # compressing it exposes a plain lumping, and only then does the
        # pass call the minimiser a second time (21 -> 13 states).
        product = _cas_final_product()
        calls = []

        def counting(model, **kwargs):
            quotient = minimize_weak(model, **kwargs)
            calls.append((model.num_states, quotient.num_states))
            return quotient

        monkeypatch.setattr(reduction, "minimize_weak", counting)
        reduced, _ = aggregate(product)
        assert calls == [(42, 22), (21, 13)]
        assert reduced.num_states == 13
        reference, rounds = aggregate_to_fixpoint(product)
        assert rounds > 1
        assert canonical_form(reduced) == canonical_form(reference)
