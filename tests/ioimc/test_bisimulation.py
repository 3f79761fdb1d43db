"""Tests for strong and weak bisimulation minimisation."""

import pytest

from repro.errors import ModelError
from repro.ioimc import (
    IOIMC,
    AggregationOptions,
    aggregate,
    minimize_strong,
    minimize_weak,
    parallel,
    quotient_weak,
    signature,
    strong_bisimulation_partition,
    weak_bisimulation_partition,
)
from repro.ioimc.bisimulation import ALGORITHMS
from repro.systems import figure2_models
from tests.partition_reference import strong_partition_splitter, without_labels


def erlang_like_chain() -> IOIMC:
    """Two parallel branches with identical rates that should lump together."""
    model = IOIMC("erlang", signature(outputs=["done"]))
    s0 = model.add_state(initial=True)
    a1 = model.add_state()
    a2 = model.add_state()
    goal = model.add_state(labels=["failed"])
    model.add_markovian(s0, 1.0, a1)
    model.add_markovian(s0, 1.0, a2)
    model.add_markovian(a1, 2.0, goal)
    model.add_markovian(a2, 2.0, goal)
    model.add_interactive(goal, "done", goal)
    return model


class TestStrongBisimulation:
    def test_symmetric_branches_lump(self):
        partition = strong_bisimulation_partition(erlang_like_chain())
        # a1 and a2 are equivalent: 3 blocks in total.
        assert len(partition) == 3

    def test_minimize_strong_counts(self):
        minimized = minimize_strong(erlang_like_chain())
        assert minimized.num_states == 3
        # Aggregate rate from the initial block into the middle block is 2.
        rates = dict()
        for rate, target in minimized.markovian_out(minimized.initial):
            rates[target] = rate
        assert list(rates.values()) == [pytest.approx(2.0)]

    def test_labels_respected(self):
        model = IOIMC("labels", signature())
        s0 = model.add_state(initial=True)
        s1 = model.add_state(labels=["failed"])
        s2 = model.add_state()
        model.add_markovian(s0, 1.0, s1)
        model.add_markovian(s0, 1.0, s2)
        partition = strong_bisimulation_partition(model)
        assert len(partition) == 3  # labelled and unlabelled targets stay apart

    def test_labels_can_be_ignored(self):
        # Without labels nothing distinguishes the three states observably:
        # ordinary lumpability collapses the whole (unlabelled) chain.
        model = IOIMC("labels", signature())
        s0 = model.add_state(initial=True)
        s1 = model.add_state(labels=["failed"])
        s2 = model.add_state()
        model.add_markovian(s0, 1.0, s1)
        model.add_markovian(s0, 1.0, s2)
        assert len(strong_bisimulation_partition(without_labels(model))) == 1
        assert len(strong_bisimulation_partition(model)) == 3

    def test_absorbing_failed_region_lumps(self):
        """States that only keep failing internally collapse into one block."""
        model = IOIMC("absorbing", signature())
        s0 = model.add_state(initial=True)
        f1 = model.add_state(labels=["failed"])
        f2 = model.add_state(labels=["failed"])
        f3 = model.add_state(labels=["failed"])
        model.add_markovian(s0, 1.0, f1)
        model.add_markovian(f1, 5.0, f2)   # movement inside the failed region
        model.add_markovian(f2, 7.0, f3)
        minimized = minimize_strong(model)
        assert minimized.num_states == 2

    def test_different_rates_not_lumped(self):
        model = IOIMC("rates", signature())
        s0 = model.add_state(initial=True)
        s1 = model.add_state()
        s2 = model.add_state()
        goal = model.add_state(labels=["failed"])
        model.add_markovian(s0, 1.0, s1)
        model.add_markovian(s0, 1.0, s2)
        model.add_markovian(s1, 2.0, goal)
        model.add_markovian(s2, 3.0, goal)
        partition = strong_bisimulation_partition(model)
        assert len(partition) == 4


class TestWeakBisimulation:
    def test_figure2_aggregation(self):
        """The composition of Figure 2 aggregates: the four interleaving states
        that all move with rate lambda to the same successor collapse."""
        model_a, model_b = figure2_models(rate=1.5)
        composed = parallel(model_a, model_b).hide(["a"])
        weak = minimize_weak(composed)
        strong = minimize_strong(composed)
        assert weak.num_states <= strong.num_states
        assert weak.num_states <= 4

    def test_internal_chain_collapses(self):
        model = IOIMC("chain", signature(outputs=["done"], internals=["tau"]))
        s0 = model.add_state(initial=True)
        s1 = model.add_state()
        s2 = model.add_state()
        s3 = model.add_state()
        model.add_markovian(s0, 1.0, s1)
        model.add_interactive(s1, "tau", s2)
        model.add_interactive(s2, "tau", s3)
        model.add_interactive(s3, "done", s3)
        weak = minimize_weak(model)
        # s1, s2, s3 are weakly bisimilar (they can all do "done" weakly and
        # never let time pass before that).
        assert weak.num_states == 2

    def test_weak_respects_visible_actions(self):
        model = IOIMC("visible", signature(outputs=["x", "y"]))
        s0 = model.add_state(initial=True)
        s1 = model.add_state()
        s2 = model.add_state()
        model.add_markovian(s0, 1.0, s1)
        model.add_markovian(s0, 1.0, s2)
        model.add_interactive(s1, "x", s1)
        model.add_interactive(s2, "y", s2)
        partition = weak_bisimulation_partition(model)
        assert len(partition) == 3

    def test_weak_partition_refines_initial_labels(self):
        model = IOIMC("labels", signature(internals=["tau"]))
        s0 = model.add_state(initial=True)
        s1 = model.add_state(labels=["failed"])
        model.add_interactive(s0, "tau", s1)
        partition = weak_bisimulation_partition(model)
        assert len(partition) == 2

    def test_tau_divergence_handled(self):
        model = IOIMC("divergent", signature(internals=["tau"]))
        s0 = model.add_state(initial=True)
        s1 = model.add_state()
        model.add_interactive(s0, "tau", s1)
        model.add_interactive(s1, "tau", s0)
        weak = minimize_weak(model)
        assert weak.num_states >= 1  # must not crash or lose the initial state


def tau_cycle_with_escape() -> IOIMC:
    """Two tau-cycles, one of which can escape to a labelled state."""
    model = IOIMC("cycles", signature(outputs=["out"], internals=["tau"]))
    s0 = model.add_state(initial=True)
    s1 = model.add_state()
    s2 = model.add_state()
    s3 = model.add_state()
    goal = model.add_state(labels=["failed"])
    model.add_interactive(s0, "tau", s1)
    model.add_interactive(s1, "tau", s0)
    model.add_interactive(s2, "tau", s3)
    model.add_interactive(s3, "tau", s2)
    model.add_interactive(s3, "out", goal)
    model.add_markovian(s0, 1.0, s2)
    return model


def input_enabled_model() -> IOIMC:
    """Inputs with and without explicit transitions (implicit self-loops)."""
    model = IOIMC("inputs", signature(inputs=["go", "stop"], internals=["tau"]))
    s0 = model.add_state(initial=True)
    s1 = model.add_state()
    s2 = model.add_state(labels=["failed"])
    model.add_interactive(s0, "go", s1)
    model.add_interactive(s1, "tau", s2)
    model.add_markovian(s0, 3.0, s2)
    return model


def nondeterministic_tau_model() -> IOIMC:
    """A tau choice between branches with different stable rate vectors."""
    model = IOIMC("nondet", signature(internals=["tau"]))
    s0 = model.add_state(initial=True)
    left = model.add_state()
    right = model.add_state()
    slow = model.add_state(labels=["failed"])
    fast = model.add_state(labels=["failed"])
    model.add_interactive(s0, "tau", left)
    model.add_interactive(s0, "tau", right)
    model.add_markovian(left, 1.0, slow)
    model.add_markovian(right, 5.0, fast)
    return model


DIFFERENTIAL_MODELS = [
    ("erlang", erlang_like_chain),
    ("figure2", lambda: parallel(*figure2_models(rate=1.5)).hide(["a"])),
    ("tau-cycles", tau_cycle_with_escape),
    ("inputs", input_enabled_model),
    ("nondet", nondeterministic_tau_model),
]


class TestDefaultVsSignature:
    """The default engine must reproduce the signature partitions exactly."""

    @pytest.mark.parametrize("name,factory", DIFFERENTIAL_MODELS)
    def test_strong_partitions_identical(self, name, factory):
        model = factory()
        default = strong_bisimulation_partition(model, algorithm="closure")
        reference = strong_bisimulation_partition(model, algorithm="signature")
        assert default == reference
        assert strong_partition_splitter(model) == reference

    @pytest.mark.parametrize("name,factory", DIFFERENTIAL_MODELS)
    def test_weak_partitions_identical(self, name, factory):
        model = factory()
        default = weak_bisimulation_partition(model, algorithm="closure")
        reference = weak_bisimulation_partition(model, algorithm="signature")
        assert default == reference

    @pytest.mark.parametrize("name,factory", DIFFERENTIAL_MODELS)
    def test_weak_quotients_identical(self, name, factory):
        model = factory()
        default = minimize_weak(model, algorithm="closure")
        reference = minimize_weak(model, algorithm="signature")
        assert default.to_dot() == reference.to_dot()

    @pytest.mark.parametrize("labelled", [True, False])
    def test_label_handling_matches(self, labelled):
        model = tau_cycle_with_escape()
        if not labelled:
            model = without_labels(model)
        assert weak_bisimulation_partition(
            model, algorithm="closure"
        ) == weak_bisimulation_partition(model, algorithm="signature")

    def test_unknown_algorithm_rejected(self):
        model = erlang_like_chain()
        with pytest.raises(ModelError):
            strong_bisimulation_partition(model, algorithm="magic")
        with pytest.raises(ModelError):
            weak_bisimulation_partition(model, algorithm="magic")
        with pytest.raises(ModelError):
            minimize_weak(model, algorithm="magic")

    def test_quotient_weak_standalone_matches_engine(self):
        """quotient_weak(partition) equals the fused engine quotient."""
        model = tau_cycle_with_escape()
        partition = weak_bisimulation_partition(model, algorithm="signature")
        standalone = quotient_weak(model, partition).restrict_to_reachable()
        fused = minimize_weak(model, algorithm="closure")
        assert standalone.num_states == fused.num_states
        assert standalone.num_transitions == fused.num_transitions


def close_rate_model(delta: float) -> IOIMC:
    """Two branches whose rates differ by ``delta`` — split or merge?"""
    model = IOIMC("close", signature())
    s0 = model.add_state(initial=True)
    a = model.add_state()
    b = model.add_state()
    goal = model.add_state(labels=["failed"])
    model.add_markovian(s0, 1.0, a)
    model.add_markovian(s0, 1.0, b)
    model.add_markovian(a, 2.0, goal)
    model.add_markovian(b, 2.0 + delta, goal)
    return model


class TestRatePrecision:
    """Both engines, under both relations and in the pipeline, compare
    aggregate rates at the fixed ``RATE_DIGITS`` precision: noise past the
    tenth significant digit merges, a difference at the eighth splits."""

    RELATIONS = [strong_bisimulation_partition, weak_bisimulation_partition]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_differences_past_the_tenth_digit_merge(self, relation, algorithm):
        # 2.0 and 2.000000000002 differ at the 13th significant digit.
        partition = relation(close_rate_model(2e-12), algorithm=algorithm)
        assert len(partition) == 3  # a and b lump: the difference is noise

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_differences_at_the_eighth_digit_split(self, relation, algorithm):
        # 2.0 and 2.0000002 differ at the 8th significant digit.
        partition = relation(close_rate_model(2e-7), algorithm=algorithm)
        assert len(partition) == 4

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_the_pipeline_compares_at_the_same_precision(self, algorithm):
        merged, _ = aggregate(
            close_rate_model(2e-12), AggregationOptions(method="strong", minimiser=algorithm)
        )
        split, _ = aggregate(
            close_rate_model(2e-7), AggregationOptions(method="strong", minimiser=algorithm)
        )
        assert merged.num_states == 3
        assert split.num_states == 4

    def test_invalid_minimiser_rejected(self):
        with pytest.raises(ModelError):
            AggregationOptions(minimiser="magic")


class TestMeasurePreservation:
    def test_weak_and_strong_agree_on_transient_measure(self, simple_ioimc_pair):
        from repro.ctmc import markov_model_from_ioimc

        producer, consumer = simple_ioimc_pair
        composed = parallel(producer, consumer).hide(["a", "b"])
        weak = minimize_weak(composed)
        strong = minimize_strong(composed)
        p_weak = markov_model_from_ioimc(weak).probability_of_label("failed", 1.0)
        p_strong = markov_model_from_ioimc(strong).probability_of_label("failed", 1.0)
        p_raw = markov_model_from_ioimc(composed).probability_of_label("failed", 1.0)
        assert p_weak == pytest.approx(p_strong, abs=1e-12)
        assert p_weak == pytest.approx(p_raw, abs=1e-12)
