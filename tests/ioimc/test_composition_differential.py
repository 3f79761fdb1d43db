"""The bulk ``parallel`` builds the per-state reference's products exactly.

:func:`repro.ioimc.composition.parallel` writes its composite as whole
per-state lists; ``tests/composition_reference.py`` keeps the exploration
that built it one checked ``add_*`` call at a time.  The two must agree
state for state (:func:`~tests.composition_reference.assert_same_model`):
adjacency lists in order, rate dicts with their key order, labels, names
and the initial state.  They are compared

* on every product of the cold-ladder trees of seeds 1-3 (the repository
  benchmark's ``cold_ladder`` inputs) and of the CPS and race-bank rate
  sweep trees, with and without ``fuse``;
* on Hypothesis-drawn pairs: the producer/consumer and closed models of
  ``tests/property/test_property_ioimc.py``, and open pairs that exercise
  every synchronisation rule.
"""

from typing import List, Tuple

import pytest
from hypothesis import given, strategies as st

from repro import Study
from repro.core import aggregation as core_aggregation
from repro.core.sweep import with_rate_parameters
from repro.ioimc import IOIMC, parallel, signature
from repro.systems import cascaded_pand_system, pand_race_bank
from tests.composition_reference import assert_same_model, reference_parallel
from tests.ioimc.test_ladder_reduction import ladder_trees
from tests.property.test_property_ioimc import (
    random_closed_ioimc,
    random_producer_consumer,
)

SETTINGS = [{"fuse": fuse} for fuse in (True, False)]


def assert_parallel_matches_reference(left: IOIMC, right: IOIMC, **kwargs) -> None:
    assert_same_model(
        parallel(left, right, **kwargs), reference_parallel(left, right, **kwargs)
    )


def _sweep_trees():
    # The rate sweep workload's trees: CPS with one swept rate, and the
    # five-channel race bank with a parameter per event.
    swept = {f"{m}{i}": "lam" for m in ("A", "C", "D") for i in range(1, 5)}
    return [
        with_rate_parameters(cascaded_pand_system(), swept),
        with_rate_parameters(pand_race_bank(5)),
    ]


def _compared_products(trees) -> List[Tuple[str, int]]:
    """Every product of a cache-less Study of each tree, each compared
    with the reference under every setting as it is built; ``(tree name,
    product states)`` of each."""
    compared: List[Tuple[str, int]] = []

    def comparing(left, right, **kwargs):
        product = parallel(left, right, **kwargs)
        assert_same_model(product, reference_parallel(left, right, **kwargs))
        for setting in SETTINGS:
            if setting != kwargs:
                assert_parallel_matches_reference(left, right, **setting)
        compared.append((tree.name, product.num_states))
        return product

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core_aggregation, "parallel", comparing)
        for tree in trees:
            Study(tree).statistics
    return compared


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ladder_products_match_the_reference(seed):
    compared = _compared_products(ladder_trees(seed))
    # About two hundred products per seed, from every one of the 12 trees.
    assert len(compared) > 200
    assert len({name for name, _states in compared}) == 12


def test_sweep_products_match_the_reference():
    compared = _compared_products(_sweep_trees())
    assert len({name for name, _states in compared}) == 2
    assert max(states for _name, states in compared) > 100


@st.composite
def random_open_pair(draw):
    """Two open models over one small alphabet: each drives an output the
    other listens to, both listen to an environment input, each has an
    output of its own, and both have the internal action ``tau``.  Moves
    are drawn freely, self-loops, repeated rates and branching included;
    two internal self-loops make one composite move twice when unfused."""
    left = IOIMC("left", signature(inputs=["b", "env"], outputs=["a", "x"], internals=["tau"]))
    right = IOIMC("right", signature(inputs=["a", "env"], outputs=["b", "y"], internals=["tau"]))
    for model in (left, right):
        num_states = draw(st.integers(min_value=1, max_value=4))
        for index in range(num_states):
            labels = draw(st.sampled_from([(), ("failed",), ("on",)]))
            model.add_state(labels=labels, name=f"{model.name[0]}{index}")
        model.set_initial(draw(st.integers(min_value=0, max_value=num_states - 1)))
        actions = sorted(model.signature.all_actions)
        states = st.integers(min_value=0, max_value=num_states - 1)
        for _ in range(draw(st.integers(min_value=0, max_value=3 * num_states))):
            source, target = draw(states), draw(states)
            if draw(st.booleans()):
                model.add_markovian(source, draw(st.sampled_from([0.5, 1.0, 2.5])), target)
            else:
                model.add_interactive(source, draw(st.sampled_from(actions)), target)
    return left, right


@given(pair=random_producer_consumer(), setting=st.sampled_from(SETTINGS))
def test_producer_consumer_pairs_match_the_reference(pair, setting):
    producer, consumer = pair
    assert_parallel_matches_reference(producer, consumer, **setting)
    assert_parallel_matches_reference(consumer, producer, **setting)


@given(
    left=random_closed_ioimc(), right=random_closed_ioimc(), setting=st.sampled_from(SETTINGS)
)
def test_closed_pairs_match_the_reference(left, right, setting):
    # Both models use the internal action "tau": moves never synchronise,
    # and the composite's repeated pairs are dropped.
    assert_parallel_matches_reference(left, right, **setting)


@given(pair=random_open_pair(), setting=st.sampled_from(SETTINGS))
def test_open_pairs_match_the_reference(pair, setting):
    left, right = pair
    assert_parallel_matches_reference(left, right, **setting)
    assert_parallel_matches_reference(right, left, **setting)


def test_a_move_both_components_make_is_kept_once():
    # Unfused, both components' internal self-loops compose to the same
    # composite self-loop; it is one move, as in the reference.
    models = []
    for name in ("left", "right"):
        model = IOIMC(name, signature(internals=["tau"]))
        state = model.add_state(initial=True)
        model.add_interactive(state, "tau", state)
        models.append(model)
    product = parallel(*models)
    assert len(product.interactive_pairs(0)) == 1
    assert_parallel_matches_reference(*models)
