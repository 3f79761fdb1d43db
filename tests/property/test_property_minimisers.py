"""Property tests: the splitter and signature minimisers are interchangeable.

The tentpole claim of the splitter-refinement PR: the worklist-of-splitters
engine (with its tau-SCC condensation on the weak path) computes exactly the
partitions of the seed signature-refinement engine — same blocks, same
quotients, same measures.  Pinned three ways:

* end to end on the paper's systems (Figure 2, CAS, CPS, mutex examples):
  identical unreliability to <= 1e-12 and identical final model sizes;
* on the intermediate fused products of random DFT corpora (Hypothesis):
  identical strong and weak partitions;
* on randomly generated internal-cycle models: the tau-SCC condensation
  preserves the weak partition and quotient that the closure-based signature
  reference computes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Study, StudyOptions, Unreliability
from repro.core import aggregation as core_aggregation
from repro.core import conversion, convert
from repro.ioimc import (
    IOIMC,
    AggregationOptions,
    aggregate,
    minimize_weak,
    parallel,
    reduction,
    signature,
    strong_bisimulation_partition,
    weak_bisimulation_partition,
)
from repro.ioimc.bisimulation import ALGORITHMS
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_system,
    figure2_models,
    inhibition_pair,
    mutually_exclusive_switch,
    random_dft,
)
from tests.reduction_reference import aggregate_to_fixpoint, canonical_form

MISSION_TIME = 1.0


def _options(minimiser: str) -> StudyOptions:
    return StudyOptions(aggregation=AggregationOptions(minimiser=minimiser))


def _unreliability(study: Study) -> float:
    return study.evaluate(Unreliability([MISSION_TIME]))["unreliability"].value


class TestPaperSystemsEndToEnd:
    @pytest.mark.parametrize(
        "factory",
        [cardiac_assist_system, cascaded_pand_system, inhibition_pair,
         mutually_exclusive_switch],
        ids=["cas", "cps", "mutex-inhibition", "mutex-switch"],
    )
    def test_minimisers_agree_on_unreliability(self, factory):
        tree = factory()
        splitter = Study(tree, _options("splitter"))
        reference = Study(tree, _options("signature"))
        assert _unreliability(splitter) == pytest.approx(
            _unreliability(reference), abs=1e-12
        )
        assert splitter.final_ioimc.num_states == reference.final_ioimc.num_states
        assert (
            splitter.final_ioimc.num_transitions
            == reference.final_ioimc.num_transitions
        )

    def test_figure2_agrees(self):
        model_a, model_b = figure2_models(rate=1.5)
        composed = parallel(model_a, model_b).hide(["a"])
        assert weak_bisimulation_partition(
            composed, algorithm="splitter"
        ) == weak_bisimulation_partition(composed, algorithm="signature")


def _intermediate_product(tree):
    """The fused product of the two largest community members, hidden the way
    the aggregation engine would hide it — the input weak minimisation sees."""
    community = convert(tree)
    models = sorted(community.models(), key=lambda m: -m.num_states)
    left, right = models[0], models[1]
    product = parallel(left, right, fuse=True)
    external = set()
    for other in models[2:]:
        external |= other.signature.inputs
    hideable = product.signature.outputs - external
    return product.hide(hideable) if hideable else product


class TestRandomCorpora:
    @settings(max_examples=12, deadline=None)
    @given(
        num_basic_events=st.integers(min_value=3, max_value=7),
        seed=st.integers(min_value=0, max_value=40),
        dynamic=st.booleans(),
    )
    def test_partitions_identical_on_random_products(
        self, num_basic_events, seed, dynamic
    ):
        tree = random_dft(num_basic_events=num_basic_events, seed=seed, dynamic=dynamic)
        product = _intermediate_product(tree)
        assert strong_bisimulation_partition(
            product, algorithm="splitter"
        ) == strong_bisimulation_partition(product, algorithm="signature")
        assert weak_bisimulation_partition(
            product, algorithm="splitter"
        ) == weak_bisimulation_partition(product, algorithm="signature")

    @settings(max_examples=6, deadline=None)
    @given(
        num_basic_events=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=20),
    )
    def test_random_tree_measures_identical(self, num_basic_events, seed):
        tree = random_dft(num_basic_events=num_basic_events, seed=seed)
        splitter = Study(tree, _options("splitter"))
        reference = Study(tree, _options("signature"))
        assert _unreliability(splitter) == pytest.approx(
            _unreliability(reference), abs=1e-12
        )


def random_tau_model(draw) -> IOIMC:
    """A random model with internal cycles, visible actions and rates."""
    num_states = draw(st.integers(min_value=2, max_value=9))
    model = IOIMC(
        "random-tau", signature(inputs=["in"], outputs=["out"], internals=["tau"])
    )
    for index in range(num_states):
        labelled = draw(st.booleans())
        model.add_state(labels=["failed"] if labelled else [], initial=index == 0)
    state_ids = st.integers(min_value=0, max_value=num_states - 1)
    for _ in range(draw(st.integers(min_value=1, max_value=2 * num_states))):
        kind = draw(st.sampled_from(["tau", "out", "in", "rate"]))
        source = draw(state_ids)
        target = draw(state_ids)
        if kind == "rate":
            model.add_markovian(source, draw(st.sampled_from([0.5, 1.0, 2.0])), target)
        else:
            model.add_interactive(source, kind, target)
    return model


class TestCondensationOnInternalCycles:
    """The tau-SCC condensation preserves the weak quotient on cyclic models."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_weak_partition_preserved(self, data):
        model = random_tau_model(data.draw)
        splitter = weak_bisimulation_partition(model, algorithm="splitter")
        reference = weak_bisimulation_partition(model, algorithm="signature")
        assert splitter == reference

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_weak_quotient_preserved(self, data):
        model = random_tau_model(data.draw)
        fused = minimize_weak(model, algorithm="splitter")
        reference = minimize_weak(model, algorithm="signature")
        assert fused.num_states == reference.num_states
        assert fused.num_transitions == reference.num_transitions


class TestWeakMinimisationIdempotent:
    """Minimising a weak quotient again changes nothing, for every engine.

    The quotient leaves input moves back into their own block implicit and
    renders a tau-cycle without exit as a stable state without rates; the
    partition ignores the former (input own-block rule) and treats the
    latter alike (divergence rule), so it computes the relation the
    quotient realises.
    """

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), respect_labels=st.booleans())
    def test_random_models(self, algorithm, data, respect_labels):
        model = random_tau_model(data.draw)
        once = minimize_weak(model, respect_labels=respect_labels, algorithm=algorithm)
        twice = minimize_weak(once, respect_labels=respect_labels, algorithm=algorithm)
        assert canonical_form(twice) == canonical_form(once)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=8, deadline=None)
    @given(
        num_basic_events=st.integers(min_value=3, max_value=7),
        seed=st.integers(min_value=0, max_value=40),
    )
    def test_random_products(self, algorithm, num_basic_events, seed):
        product = _intermediate_product(random_dft(num_basic_events=num_basic_events, seed=seed))
        once = minimize_weak(product, algorithm=algorithm)
        assert canonical_form(minimize_weak(once, algorithm=algorithm)) == canonical_form(once)


#: Every aggregation method with every minimiser (the minimiser is unused by
#: ``"tau"`` and ``"none"``, which the matrix still crosses).
METHOD_MINIMISER = [
    (method, minimiser)
    for method in ("weak", "strong", "tau", "none")
    for minimiser in ALGORITHMS
]


class TestOnePassMatchesRoundLoop:
    """One ``aggregate()`` pass lands on the round loop's fixpoint."""

    @pytest.mark.parametrize("method,minimiser", METHOD_MINIMISER)
    @settings(max_examples=6, deadline=None)
    @given(
        num_basic_events=st.integers(min_value=3, max_value=7),
        seed=st.integers(min_value=0, max_value=40),
        dynamic=st.booleans(),
    )
    def test_random_products(self, method, minimiser, num_basic_events, seed, dynamic):
        options = AggregationOptions(method=method, minimiser=minimiser)
        tree = random_dft(num_basic_events=num_basic_events, seed=seed, dynamic=dynamic)
        product = _intermediate_product(tree)
        reduced, _ = aggregate(product, options)
        reference, _rounds = aggregate_to_fixpoint(product, options)
        assert canonical_form(reduced) == canonical_form(reference)

    @pytest.mark.parametrize("method,minimiser", METHOD_MINIMISER)
    @settings(max_examples=3, deadline=None)
    @given(
        num_basic_events=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=40),
        pattern=st.sampled_from(["plain", "fdep", "shared_spares"]),
    )
    def test_random_trees(self, method, minimiser, num_basic_events, seed, pattern):
        # Every aggregate() call of a whole Study, against the reference.
        options = AggregationOptions(method=method, minimiser=minimiser)
        calls = []

        def recording(model, call_options=None):
            reduced, stats = reduction.aggregate(model, call_options)
            calls.append((model, call_options, reduced))
            return reduced, stats

        extra = {} if pattern == "plain" else {pattern: True}
        tree = random_dft(num_basic_events=num_basic_events, seed=seed, **extra)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core_aggregation, "aggregate", recording)
            patch.setattr(conversion, "aggregate", recording)
            Study(tree, StudyOptions(aggregation=options)).final_ioimc
        assert calls
        for model, call_options, reduced in calls:
            reference, _rounds = aggregate_to_fixpoint(model, call_options)
            assert canonical_form(reduced) == canonical_form(reference)
