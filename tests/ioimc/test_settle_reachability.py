"""``aggregate()`` restricts to reachable states after a prune only.

The settle step (maximal progress, internal self-loop removal and
deterministic-tau compression) restricts its result to the reachable states
only when the maximal-progress prune removed a move: the other two keep
every state reachable.  The cells below pin both halves: a prune that cuts
a state off still leaves a reachable-only result, and on the cold-ladder
inputs every restriction the settle step skips would have removed nothing.
"""

import pytest

from repro import Study
from repro.ioimc import IOIMC, AggregationOptions, aggregate, reduction, signature
from repro.ioimc.maximal_progress import _prune_urgent_rates
from tests.ioimc.test_ladder_reduction import ladder_trees


def _pruned_off_model() -> IOIMC:
    """State 0 emits ``fire`` and has a rate to state 2, the only way into
    it: maximal progress drops the rate and leaves state 2 unreachable."""
    model = IOIMC("cut-off", signature(outputs=["fire"]))
    start = model.add_state(initial=True)
    fired = model.add_state(labels=["fired"])
    orphan = model.add_state(labels=["failed"])
    done = model.add_state(labels=["done"])
    model.add_interactive(start, "fire", fired)
    model.add_markovian(start, 1.0, orphan)
    model.add_markovian(orphan, 3.0, done)
    model.add_markovian(fired, 2.0, done)
    return model


def _all_reachable(model: IOIMC) -> bool:
    return len(model.reachable_states()) == model.num_states


@pytest.mark.parametrize("method", ["weak", "strong", "tau"])
def test_a_pruned_off_state_is_restricted_away(method):
    model = _pruned_off_model()
    assert _all_reachable(model)
    reduced, _stats = aggregate(model, AggregationOptions(method=method))
    assert _all_reachable(reduced)
    # The orphan is gone.
    labels = {label for state in reduced.states() for label in reduced.labels(state)}
    assert "failed" not in labels
    assert labels == {"fired", "done"}


@pytest.mark.parametrize("method", ["weak", "strong", "tau"])
def test_an_input_race_cuts_nothing_off(method):
    # With an input in place of the output, state 0 is not urgent: the
    # rate stays, so the state behind it stays reachable and labelled.
    model = IOIMC("input-race", signature(inputs=["fire"]))
    start = model.add_state(initial=True)
    fired = model.add_state(labels=["fired"])
    orphan = model.add_state(labels=["failed"])
    done = model.add_state(labels=["done"])
    model.add_interactive(start, "fire", fired)
    model.add_markovian(start, 1.0, orphan)
    model.add_markovian(orphan, 3.0, done)
    model.add_markovian(fired, 2.0, done)
    reduced, _stats = aggregate(model, AggregationOptions(method=method))
    assert reduced.num_states == 4
    labels = {label for state in reduced.states() for label in reduced.labels(state)}
    assert labels == {"fired", "failed", "done"}


def test_skipped_restrictions_on_the_ladder_remove_nothing():
    settle = reduction._settle
    counts = {"skipped": 0}

    def checking(model):
        settled = settle(model)
        if _prune_urgent_rates(model) is model:
            counts["skipped"] += 1
            assert _all_reachable(settled), model.name
        return settled

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "_settle", checking)
        for seed in (1, 2):
            for tree in ladder_trees(seed):
                Study(tree).statistics
    # Fused composition already prunes urgent rates, so on seeds 1 and 2
    # every one of the 726 settle steps skips its restriction.
    assert counts["skipped"] > 500
