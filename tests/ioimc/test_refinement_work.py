"""The refinement's work stays within c·(n+m)·log2(n) signatures.

The default engine re-signs only the states whose sets read a state that
changed block, and a splitting block keeps its id for its largest part, so
a state changes block at most log2(n) times.  These cells count the states
signed per input (``work``) and bound the total by ``(n + m) * log2(n)``
for ``n`` states and ``m`` transitions, on the shapes that made earlier
engines superlinear:

* a long Markovian chain, strong and weak (the per-block rate worklist of
  the old strong splitter was quadratic there: 2.46 s at 4,000 states);
* a 6,000-state pure tau chain, whose per-state closures are quadratic
  unless the pre-pass collapses it first;
* a dense 300-state tau-SCC;
* a 64-input alphabet, where almost every input of every state is an
  implicit self-loop.

A quadratic schedule signs about n²/2 states on the chains: 8 million at
4,000 states, against a bound of about 96,000.
"""

import math

import pytest

from repro.ioimc import IOIMC, signature, weak_bisimulation_partition
from repro.ioimc.bisimulation import (
    _strong_partition_plain,
    _weak_partition_plain,
)
from tests.property.test_engine_differential import random_tau_cycle_model


def markovian_chain(num_states: int) -> IOIMC:
    """Rate 1.0 from every state to the next; the last one has failed."""
    model = IOIMC("markovian-chain", signature())
    for index in range(num_states):
        model.add_state(labels=("failed",) if index == num_states - 1 else ())
    for index in range(num_states - 1):
        model.add_markovian(index, 1.0, index + 1)
    model.set_initial(0)
    return model


def pure_tau_chain(num_states: int) -> IOIMC:
    model = IOIMC("pure-tau-chain", signature(internals=["tau"]))
    for index in range(num_states):
        model.add_state(labels=("failed",) if index == num_states - 1 else ())
    for index in range(num_states - 1):
        model.add_interactive(index, "tau", index + 1)
    model.set_initial(0)
    return model


def wide_alphabet_chain(num_states: int, num_inputs: int = 64) -> IOIMC:
    """A chain over ``num_inputs`` inputs: state ``k`` takes input
    ``i{k mod num_inputs}`` or, every fourth state, rate 1.0 to ``k + 1``,
    and every fifth state also tau-moves there."""
    inputs = [f"i{index}" for index in range(num_inputs)]
    model = IOIMC("wide-chain", signature(inputs=inputs, internals=["tau"]))
    for index in range(num_states):
        model.add_state(labels=("failed",) if index == num_states - 1 else ())
    for index in range(num_states - 1):
        if index % 4 == 3:
            model.add_markovian(index, 1.0, index + 1)
        else:
            model.add_interactive(index, inputs[index % num_inputs], index + 1)
        if index % 5 == 4:
            model.add_interactive(index, "tau", index + 1)
    model.set_initial(0)
    return model


def assert_within_bound(model: IOIMC, work) -> None:
    num_states, num_transitions = model.num_states, model.num_transitions
    bound = (num_states + num_transitions) * math.log2(num_states)
    assert sum(work) <= bound, (model.name, sum(work), bound)


@pytest.mark.parametrize("relation", ["strong", "weak"])
def test_a_long_markovian_chain(relation):
    model = markovian_chain(4000)
    work = []
    if relation == "strong":
        partition = _strong_partition_plain(model, work)
    else:
        partition = _weak_partition_plain(model, work).partition
    # Every state is a distinct distance from the end: nothing lumps.
    assert len(partition) == model.num_states
    assert_within_bound(model, work)


def test_a_pure_tau_chain():
    model = pure_tau_chain(6000)
    work = []
    partition = _weak_partition_plain(model, work).partition
    assert len(partition) == 2
    assert_within_bound(model, work)


def test_a_dense_tau_scc():
    model = random_tau_cycle_model(0, num_states=300)
    work = []
    partition = _weak_partition_plain(model, work).partition
    assert partition == weak_bisimulation_partition(model, algorithm="signature")
    assert_within_bound(model, work)


@pytest.mark.parametrize("relation", ["strong", "weak"])
def test_a_64_input_alphabet(relation):
    model = wide_alphabet_chain(2000)
    work = []
    if relation == "strong":
        _strong_partition_plain(model, work)
    else:
        _weak_partition_plain(model, work)
    assert_within_bound(model, work)
