"""Reachability is carried on the model, not searched for.

An :class:`~repro.ioimc.model.IOIMC` may be marked as having every state
reachable from its initial one; ``_reachable_part`` then hands it back
without a search.  The cells below check

* that every marked model the producers make really reaches every state:
  element models (``build_ioimc``), products (``parallel``), copies,
  hidden and renamed models, pickles, self-loop removal, compression and
  both quotients, on drawn models with unreachable states, tau cycles,
  input self-loops and rates on unstable states, and on the models of
  random fault trees;
* that every per-state mutator and the maximal-progress prune leave their
  model unmarked;
* that the public reductions still return only the reachable part of an
  unmarked model with unreachable states, and that a weak quotient whose
  unstable states had rates is searched, not trusted.
"""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.conversion import convert
from repro.ioimc import (
    IOIMC,
    ExplicitBehavior,
    aggregate,
    build_ioimc,
    minimize_strong,
    minimize_weak,
    parallel,
    quotient_strong,
    signature,
    strong_bisimulation_partition,
)
from repro.ioimc.bisimulation import ALGORITHMS, _plain_weak_quotient, _weak_partition_plain
from repro.ioimc.maximal_progress import apply_maximal_progress
from repro.ioimc.reduction import compress_deterministic_tau, remove_internal_self_loops
from repro.systems import random_dft
from tests.ioimc.test_weak_refinement import small_models
from tests.reduction_reference import canonical_form


def assert_reaches_every_state(model: IOIMC) -> None:
    assert model._all_reachable, model.name
    assert model.reachable_states() == frozenset(model.states()), model.name


def has_rates_on_unstable_states(model: IOIMC) -> bool:
    return any(
        model.markovian_dict(state) and not model.is_stable(state) for state in model.states()
    )


@st.composite
def explicit_behaviours(draw) -> ExplicitBehavior:
    """A behaviour over a few abstract states, whatever their links."""
    num_states = draw(st.integers(min_value=1, max_value=8))
    state = st.integers(min_value=0, max_value=num_states - 1)
    inputs = {}
    urgent = {}
    markovian = {}
    for source in range(num_states):
        if draw(st.booleans()):
            inputs[(source, "a")] = draw(state)
        urgent[source] = [
            (draw(st.sampled_from(["b", "t"])), draw(state))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        ]
        markovian[source] = [
            (draw(st.sampled_from([0.5, 1.0, 2.0])), draw(state))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        ]
    return ExplicitBehavior(
        "drawn",
        signature(inputs=["a"], outputs=["b"], internals=["t"]),
        0,
        inputs,
        urgent,
        markovian,
        labels={num_states - 1: ("failed",)},
    )


class TestMarkedProducers:
    @given(model=small_models())
    def test_transformations_of_a_marked_model(self, model):
        marked = model.restrict_to_reachable()
        assert_reaches_every_state(marked)
        made = [
            marked.copy(),
            marked.hide(["o"]),
            marked.rename_actions({"i1": "j1", "tau": "tau0"}),
            marked.rename_parameters({"lam": "mu"}, {"mu": 0.7}),
            pickle.loads(pickle.dumps(marked)),
            remove_internal_self_loops(marked),
            compress_deterministic_tau(marked),
            quotient_strong(marked, strong_bisimulation_partition(marked)),
        ]
        for result in made:
            assert_reaches_every_state(result)

    @given(model=small_models())
    def test_weak_quotients_of_a_marked_model(self, model):
        for source in (model.restrict_to_reachable(), apply_maximal_progress(model)):
            source = source._reachable_part()
            quotient = _plain_weak_quotient(source, _weak_partition_plain(source))
            # Rates of a state with an internal move do not enter the
            # quotient, so only without them is it known to be reachable.
            assert quotient._all_reachable != has_rates_on_unstable_states(source)
            if quotient._all_reachable:
                assert_reaches_every_state(quotient)

    @given(behaviour=explicit_behaviours())
    def test_explored_element_models(self, behaviour):
        assert_reaches_every_state(build_ioimc(behaviour))

    @given(
        seed=st.integers(min_value=0, max_value=40),
        pattern=st.sampled_from([{}, {"fdep": True}, {"shared_spares": True}]),
        fuse=st.booleans(),
        data=st.data(),
    )
    def test_products_of_fault_tree_models(self, seed, pattern, fuse, data):
        models = convert(random_dft(5, seed=seed, **pattern)).models()
        for model in models:
            assert_reaches_every_state(model)
        left, right = data.draw(
            st.lists(st.sampled_from(models), min_size=2, max_size=2, unique_by=id)
        )
        product = parallel(left, right, fuse=fuse)
        assert_reaches_every_state(product)
        hidden = product.hide(product.signature.outputs)
        assert_reaches_every_state(hidden)
        for algorithm in ALGORITHMS:
            assert_reaches_every_state(minimize_weak(hidden, algorithm=algorithm))
            assert_reaches_every_state(minimize_strong(hidden, algorithm=algorithm))
        assert_reaches_every_state(aggregate(hidden)[0])


def _marked_model() -> IOIMC:
    model = build_ioimc(
        ExplicitBehavior(
            "two",
            signature(inputs=["a"], outputs=["b"]),
            0,
            {(0, "a"): 1},
            {1: [("b", 0)]},
            {},
        )
    )
    assert_reaches_every_state(model)
    return model


MUTATORS = {
    "add_state": lambda model: model.add_state(),
    "add_interactive": lambda model: model.add_interactive(1, "a", 0),
    "add_interactive_id": lambda model: model.add_interactive_id(
        1, next(iter(model.signature.input_ids)), 1
    ),
    "add_markovian": lambda model: model.add_markovian(0, 1.0, 1),
    "set_initial": lambda model: model.set_initial(1),
}


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_each_mutator_clears_the_mark(mutator):
    model = _marked_model()
    MUTATORS[mutator](model)
    assert not model._all_reachable


def test_the_prune_leaves_its_copy_unmarked():
    model = _marked_model()
    model.add_markovian(1, 1.0, 0)  # rates on an urgent state
    model = model._reachable_part()
    assert model._all_reachable
    pruned = apply_maximal_progress(model)
    assert not pruned._all_reachable
    assert model.copy()._all_reachable


def _with_unreachable_states() -> IOIMC:
    """Three reachable states and, unmarked, two that nothing reaches."""
    model = IOIMC("hand", signature(inputs=["a"], outputs=["b"], internals=["t"]))
    start = model.add_state(initial=True)
    middle = model.add_state()
    failed = model.add_state(labels=["failed"])
    orphan = model.add_state(labels=["failed"])
    source = model.add_state()
    model.add_markovian(start, 1.0, middle)
    model.add_interactive(middle, "b", failed)
    model.add_markovian(source, 2.0, orphan)
    model.add_interactive(orphan, "t", start)
    model.add_interactive(source, "a", middle)
    assert not model._all_reachable
    return model


@pytest.mark.parametrize(
    "reduce",
    [
        lambda model: aggregate(model)[0],
        *(lambda model, a=a: minimize_weak(model, algorithm=a) for a in ALGORITHMS),
        *(lambda model, a=a: minimize_strong(model, algorithm=a) for a in ALGORITHMS),
        lambda model: model.restrict_to_reachable(),
    ],
)
def test_public_reductions_keep_only_the_reachable_part(reduce):
    model = _with_unreachable_states()
    reduced = reduce(model)
    assert reduced.reachable_states() == frozenset(reduced.states())
    reachable = _with_unreachable_states().restrict_to_reachable()
    assert reachable.num_states == 3
    assert canonical_form(reduce(reachable)) == canonical_form(reduced)


def test_a_weak_quotient_drops_what_only_unstable_rates_reached():
    # State 0 moves by tau and has a rate; under maximal progress the rate
    # never fires, the quotient leaves it out, and "failed" is cut off.
    model = build_ioimc(
        ExplicitBehavior(
            "unstable",
            signature(internals=["t"]),
            0,
            {},
            {0: [("t", 1)]},
            {0: [(1.0, 2)]},
            labels={2: ("failed",)},
        )
    )
    assert_reaches_every_state(model)
    assert model.num_states == 3
    for algorithm in ALGORITHMS:
        quotient = minimize_weak(model, algorithm=algorithm)
        assert quotient.reachable_states() == frozenset(quotient.states())
        assert all("failed" not in quotient.labels(state) for state in quotient.states())
