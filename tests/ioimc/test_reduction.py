"""Tests for the aggregation pipeline (reduction module)."""

import logging

import pytest

from repro.errors import ModelError
from repro.ioimc import reduction
from repro.ioimc import (
    AggregationOptions,
    IOIMC,
    aggregate,
    compress_deterministic_tau,
    remove_internal_self_loops,
    signature,
)


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

    def test_round_cap_warns_when_still_shrinking(self, monkeypatch, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.ioimc.reduction"):
            uncapped, _ = aggregate(chain_with_taus())
        # The fixpoint is reached within the default cap: no warning.
        assert not [r for r in caplog.records if r.name == "repro.ioimc.reduction"]
        monkeypatch.setattr(reduction, "MAX_AGGREGATION_ROUNDS", 1)
        with caplog.at_level(logging.WARNING, logger="repro.ioimc.reduction"):
            capped, stats = aggregate(chain_with_taus())
        # Round 1 shrinks the chain (4 states -> fewer), so the single allowed
        # round ends while the size is still changing.
        assert stats.states_after < stats.states_before
        warnings = [r for r in caplog.records if r.name == "repro.ioimc.reduction"]
        assert len(warnings) == 1
        assert warnings[0].levelno == logging.WARNING
        assert "1-round cap" in warnings[0].getMessage()
        # Here round 1 already reaches the fixpoint: the result is unchanged.
        assert capped.to_dot() == uncapped.to_dot()

