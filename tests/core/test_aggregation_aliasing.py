"""Aggregation never mutates a model its caller owns.

The aggregation loop hides each fresh product in place, and products,
settle steps and quotients are written as whole per-state lists.  None of
that may reach a model the caller handed in or was handed back: after
:meth:`CompositionalAggregator.run` and :meth:`QuotientMemo.aggregate`,
every input model keeps its signature, adjacency, rates, labels, names and
initial state, as a deep copy taken before the run shows; and a returned
model shares no per-state list with an input, so changing it changes no
input either.
"""

import copy

import pytest

from repro.core.aggregation import (
    CompositionalAggregationOptions,
    CompositionalAggregator,
    QuotientMemo,
)
from repro.core.conversion import convert
from repro.ioimc import IOIMC, AggregationOptions, parallel, signature
from repro.systems import cascaded_pand_system, random_dft
from tests.composition_reference import model_lists


def _snapshots(models):
    return [copy.deepcopy(model) for model in models]


def _assert_unchanged(models, snapshots):
    for model, snapshot in zip(models, snapshots):
        assert model.name == snapshot.name
        assert model_lists(model) == model_lists(snapshot), model.name


def _scribble_on(model: IOIMC) -> None:
    """Change every per-state list and dict of ``model``."""
    extra = model.add_state(labels=["scribbled"])
    actions = sorted(model.signature.all_ids)
    for state in range(model.num_states):
        if actions:
            model._itrans[state].append((actions[0], extra))
        model._mtrans[state][extra] = 1.0
    model._labels[0] = frozenset({"scribbled"})
    model._state_names[0] = "scribbled"


def _open_model() -> IOIMC:
    """A model with two outputs, ``fail`` and ``done``, an internal step and
    a rate."""
    model = IOIMC("single", signature(outputs=["fail", "done"], internals=["tau"]))
    up = model.add_state(initial=True, name="up")
    down = model.add_state(name="down")
    failed = model.add_state(labels=["failed"], name="failed")
    model.add_markovian(up, 1.5, down)
    model.add_interactive(down, "tau", failed)
    model.add_interactive(failed, "fail", failed)
    model.add_interactive(failed, "done", up)
    return model


@pytest.mark.parametrize("keep", [(), ("fail",), ("fail", "done")])
def test_one_model_community(keep):
    model = _open_model()
    snapshots = _snapshots([model])
    options = CompositionalAggregationOptions(keep_visible=keep)
    final, _statistics = CompositionalAggregator([model], options).run()
    _assert_unchanged([model], snapshots)
    _scribble_on(final)
    _assert_unchanged([model], snapshots)


@pytest.mark.parametrize(
    "tree",
    [
        cascaded_pand_system(),
        random_dft(8, seed=2, fdep=True),
        random_dft(8, seed=3, shared_spares=True),
    ],
    ids=["cps", "fdep", "shared_spares"],
)
@pytest.mark.parametrize("ordering", ["modular", "linked", "sequential"])
def test_multi_model_community(tree, ordering):
    community = convert(tree)
    models = community.models()
    snapshots = _snapshots(models)
    options = CompositionalAggregationOptions(ordering=ordering)
    final, statistics = CompositionalAggregator(models, options, community=community).run()
    assert statistics.num_steps == len(models) - 1
    _assert_unchanged(models, snapshots)
    _scribble_on(final)
    _assert_unchanged(models, snapshots)


def test_memo_hit():
    community = convert(random_dft(6, seed=4, fdep=True))
    left, right = community.models()[:2]
    product = parallel(left, right, fuse=True)
    # The same product under other action names: a hit on the first.
    renamed = product.rename_actions(
        {name: f"again_{name}" for name in product.signature.all_actions}
    )
    models = [left, right, product, renamed]
    snapshots = _snapshots(models)
    options = AggregationOptions()
    memo = QuotientMemo()
    first = memo.aggregate(product, options)
    first_snapshot = copy.deepcopy(first)
    hit = memo.aggregate(renamed, options)
    assert (memo.hits, memo.misses) == (1, 1)
    assert hit is not first
    _assert_unchanged(models, snapshots)
    _assert_unchanged([first], [first_snapshot])
    # Changing either quotient changes nothing else, the memo's copy included.
    hit_snapshot = copy.deepcopy(hit)
    _scribble_on(hit)
    _assert_unchanged(models + [first], snapshots + [first_snapshot])
    _scribble_on(first)
    _assert_unchanged(models, snapshots)
    again = memo.aggregate(renamed, options)
    assert memo.hits == 2
    _assert_unchanged([again], [hit_snapshot])
