"""Signatures list only the inputs that can leave the state's class.

An implicit input self-loop of a state without internal moves reads only
the state's own block: under the weak relation's input own-block rule it
signs as the empty set, and under the strong relation it signs as every
other input that reads only that block.  ``_plain_sets`` leaves those loops
out of ``input_moves``, and ``_plain_partition`` signs inputs as ``(input
id, blocks)`` pairs that leave out every input reading only the own block.
Partitions against the reference engines are checked in
``test_weak_refinement.py`` and ``test_plain_sets.py``; the cells below pin
what is left out and that the dense view is unchanged.
"""

import pytest

from repro.ioimc import strong_bisimulation_partition, weak_bisimulation_partition
from repro.ioimc.bisimulation import (
    _plain_sets,
    _strong_partition_plain,
    _tau_successors,
    _weak_partition_plain,
)
from tests.ioimc.test_refinement_work import wide_alphabet_chain
from tests.ioimc.test_weak_refinement import wide_alphabet_model


def _sets(model, weak):
    return _plain_sets(
        model._itrans,
        [moves.items() for moves in model._mtrans],
        model.signature,
        _tau_successors(model) if weak else None,
        weak,
    )


@pytest.mark.parametrize("internal", [False, True], ids=["tau-free", "with-tau"])
def test_weak_sets_keep_only_explicit_inputs_of_tau_free_states(internal):
    model = wide_alphabet_model(96, internal)
    sets = _sets(model, weak=True)
    inputs = model.signature.input_ids
    for state in model.states():
        listed = {aid for aid, _targets in sets.input_moves[state]}
        explicit = {aid for aid, _target in model.interactive_pairs(state) if aid in inputs}
        if model.is_stable(state):
            assert listed == explicit, state
        else:
            assert listed == inputs, state  # folded: every input, weakly
        # The dense view puts the left-out self-loops back.
        dense = dict(zip(sets.input_ids, sets.in_reach[state]))
        for aid in inputs - listed:
            assert dense[aid] == (state,)


def test_strong_sets_keep_only_explicit_inputs():
    # Without internal moves every state's moves are its own under both
    # relations: an implicit self-loop is signed by leaving the input out.
    model = wide_alphabet_model(48, internal=False)
    strong, weak = _sets(model, weak=False), _sets(model, weak=True)
    assert strong.input_moves == weak.input_moves
    assert strong.in_reach == weak.in_reach


def test_a_64_input_chain_partitions_as_the_signature_engine():
    model = wide_alphabet_chain(72)
    assert _weak_partition_plain(model).partition == weak_bisimulation_partition(
        model, algorithm="signature"
    )
    assert _strong_partition_plain(model) == strong_bisimulation_partition(
        model, algorithm="signature"
    )
