"""The per-state sets of the plain refinement, and the strong relation.

``_plain_sets`` builds what every signature of the default engine reads:
the tau-closure of each state, folded over the tau-SCCs successors first
(one Tarjan pass), its stable members plus the divergence rule's virtual
state, and the weak (``τ* a τ*``) or one-step moves per action.  The cells
below pin the fold on hand-built shapes (chains, cycles with and without an
exit, tau self-loops, diamonds, nested SCCs) and compare every set with
the signature engine's own closures and reach sets, which it builds state
by state with no condensation, on the Hypothesis families of
``test_weak_refinement.py``.

The strong relation runs the same refinement with singleton closures,
internal actions treated as visible and rates on every state; its
partitions must equal the signature engine's and the Paige-Tarjan
reference splitter's.
"""

from typing import Dict, FrozenSet, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.ioimc import (
    IOIMC,
    signature,
    strong_bisimulation_partition,
    weak_bisimulation_partition,
)
from repro.ioimc.bisimulation import (
    _internal_closure,
    _PlainSets,
    _plain_sets,
    _tau_successors,
    _weak_visible_reach,
)
from tests.ioimc.test_weak_refinement import seeded_model, small_models
from tests.partition_reference import strong_partition_splitter, without_labels


def sets_of(model: IOIMC, weak: bool = True) -> _PlainSets:
    """``_plain_sets`` of ``model`` itself, without the weak pre-pass."""
    return _plain_sets(
        model._itrans,
        [moves.items() for moves in model._mtrans],
        model.signature,
        _tau_successors(model) if weak else None,
        weak,
    )


def closures_of(sets: _PlainSets, num_states: int) -> List[FrozenSet[int]]:
    if sets.closures is None:
        return [frozenset((state,)) for state in range(num_states)]
    return [frozenset(closure) for closure in sets.closures]


def moves_of(sets: _PlainSets, state: int) -> Dict[int, FrozenSet[int]]:
    """Reach set per action id of ``state``: its inputs and other actions."""
    moves = {
        aid: frozenset(targets)
        for aid, targets in zip(sets.input_ids, sets.in_reach[state])
    }
    for aid, targets in zip(sets.out_actions[state], sets.out_reach[state]):
        moves[aid] = frozenset(targets)
    return moves


def one_step_moves(model: IOIMC, state: int) -> Dict[int, FrozenSet[int]]:
    """The strong relation's moves: every action in one step, an implicit
    input self-loop for each input ``state`` does not enable."""
    moves: Dict[int, set] = {}
    for aid, target in model.interactive_pairs(state):
        moves.setdefault(aid, set()).add(target)
    for aid in model.signature.input_ids:
        moves.setdefault(aid, {state})
    return {aid: frozenset(targets) for aid, targets in moves.items()}


def assert_weak_sets_match_the_signature_engine(model: IOIMC) -> None:
    sets = sets_of(model)
    closures = _internal_closure(model)
    assert closures_of(sets, model.num_states) == closures, model.name
    reach = _weak_visible_reach(model, closures)
    for state in model.states():
        assert moves_of(sets, state) == reach[state], (model.name, state)
    stable = [model.is_stable(state) for state in model.states()]
    if sets.closures is None:
        assert sets.stable_closure is None
        assert all(stable)
    else:
        # Stable members, plus the virtual state when the closure reaches a
        # tau-cycle without exit (the divergence rule).
        timelocked = [not any(stable[t] for t in closure) for closure in closures]
        for state, closure in enumerate(closures):
            expected = {t for t in closure if stable[t]}
            if any(timelocked[t] for t in closure):
                expected.add(model.num_states)
            assert set(sets.stable_closure[state]) == expected, (model.name, state)
    # Maximal progress: only stable states let time pass.
    for state in model.states():
        targets = sorted((t, r) for t, r, _key in sets.rate_moves[state])
        expected = sorted(model.markovian_dict(state).items()) if stable[state] else []
        assert targets == expected, (model.name, state)


def tau_model(num_states: int, *edges, inputs=(), outputs=()) -> IOIMC:
    """A model whose internal action ``t`` moves along ``edges``."""
    model = IOIMC("tau-shape", signature(inputs=inputs, outputs=outputs, internals=("t",)))
    for index in range(num_states):
        model.add_state(initial=index == 0)
    for source, target in edges:
        model.add_interactive(source, "t", target)
    return model


class TestTauClosureFold:
    def test_a_chain_closes_downwards(self):
        model = tau_model(5, (0, 1), (1, 2), (2, 3), (3, 4))
        sets = sets_of(model)
        assert closures_of(sets, 5) == [frozenset(range(s, 5)) for s in range(5)]
        # Only the sink is stable, and every closure reaches it.
        assert [tuple(c) for c in sets.stable_closure] == [(4,)] * 5
        assert_weak_sets_match_the_signature_engine(model)

    def test_a_cycle_shares_one_closure(self):
        model = tau_model(4, (0, 1), (1, 2), (2, 0), (2, 3))
        sets = sets_of(model)
        assert sets.closures[0] is sets.closures[1] is sets.closures[2]
        assert frozenset(sets.closures[0]) == {0, 1, 2, 3}
        assert sets.closures[3] == (3,)
        # The cycle has an exit into a stable state: no divergence.
        assert [tuple(c) for c in sets.stable_closure] == [(3,)] * 4
        assert_weak_sets_match_the_signature_engine(model)

    def test_a_cycle_without_exit_reaches_the_timelock(self):
        model = tau_model(4, (0, 1), (1, 2), (2, 0), (3, 0))
        sets = sets_of(model)
        assert closures_of(sets, 4)[3] == {0, 1, 2, 3}
        # No stable member anywhere: each closure holds the virtual state.
        assert [tuple(c) for c in sets.stable_closure] == [(4,)] * 4
        assert_weak_sets_match_the_signature_engine(model)

    def test_a_tau_self_loop_is_a_timelock(self):
        model = tau_model(2, (0, 0), outputs=("o",))
        model.add_interactive(0, "o", 1)
        sets = sets_of(model)
        assert closures_of(sets, 2) == [{0}, {1}]
        assert tuple(sets.stable_closure[0]) == (2,)
        assert tuple(sets.stable_closure[1]) == (1,)
        assert_weak_sets_match_the_signature_engine(model)

    def test_visible_moves_do_not_close(self):
        model = tau_model(4, (0, 2), outputs=("o",))
        model.add_interactive(0, "o", 1)
        model.add_interactive(2, "o", 3)
        sets = sets_of(model)
        assert closures_of(sets, 4) == [{0, 2}, {1}, {2}, {3}]
        # 0 outputs into 1 itself and into 3 after its tau.
        (oid,) = sets.out_actions[0]
        assert moves_of(sets, 0)[oid] == {1, 3}
        assert_weak_sets_match_the_signature_engine(model)

    def test_a_diamond_folds_shared_successors(self):
        model = tau_model(5, (0, 1), (0, 2), (1, 3), (2, 3), inputs=("i",))
        model.add_interactive(3, "i", 4)
        sets = sets_of(model)
        closures = closures_of(sets, 5)
        assert closures[0] == {0, 1, 2, 3}
        assert closures[1] == {1, 3} and closures[2] == {2, 3}
        # 0 takes ``i`` by its implicit self-loop (landing in its closure)
        # and, weakly, by 3's explicit move into 4.
        (iid,) = sets.input_ids
        assert moves_of(sets, 0)[iid] == {0, 1, 2, 3, 4}
        # 3 enables ``i``, so it has no implicit self-loop.
        assert moves_of(sets, 3)[iid] == {4}
        assert_weak_sets_match_the_signature_engine(model)

    def test_nested_sccs_fold_successors_first(self):
        model = tau_model(5, (0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4))
        sets = sets_of(model)
        closures = closures_of(sets, 5)
        assert closures[0] == closures[1] == {0, 1, 2, 3, 4}
        assert closures[2] == closures[3] == {2, 3, 4}
        assert sets.closures[2] is sets.closures[3]
        assert_weak_sets_match_the_signature_engine(model)


class TestAgainstTheSignatureEngineSets:
    @settings(deadline=None)
    @given(model=small_models())
    def test_weak_sets_of_small_models(self, model):
        assert_weak_sets_match_the_signature_engine(model)

    @settings(deadline=None)
    @given(model=small_models())
    def test_strong_sets_of_small_models(self, model):
        sets = sets_of(model, weak=False)
        assert sets.closures is None and sets.stable_closure is None
        for state in model.states():
            assert moves_of(sets, state) == one_step_moves(model, state)
            # Rates on every state: no maximal progress under the strong relation.
            targets = sorted((t, r) for t, r, _key in sets.rate_moves[state])
            assert targets == sorted(model.markovian_dict(state).items())

    @pytest.mark.parametrize("num_states,seed", [(60, 1), (500, 2), (2047, 3)])
    def test_weak_sets_of_seeded_models(self, num_states, seed):
        assert_weak_sets_match_the_signature_engine(seeded_model(num_states, seed))


class TestStrongRelation:
    @settings(deadline=None)
    @given(model=small_models(), labelled=st.booleans())
    def test_random_small_models(self, model, labelled):
        if not labelled:
            model = without_labels(model)
        default = strong_bisimulation_partition(model)
        assert default == strong_bisimulation_partition(model, algorithm="signature")
        assert default == strong_partition_splitter(model)

    @pytest.mark.parametrize("num_states,seed", [(60, 4), (500, 5), (2047, 6)])
    def test_seeded_models(self, num_states, seed):
        model = seeded_model(num_states, seed)
        default = strong_bisimulation_partition(model)
        assert default == strong_bisimulation_partition(model, algorithm="signature")
        assert default == strong_partition_splitter(model)

    def test_internal_actions_are_visible(self):
        # 0 moves by tau into 1, which lets time pass like 2: weakly 0, 1
        # and 2 are one class, strongly 0 stands alone.
        model = tau_model(4, (0, 1))
        model.set_labels(3, {"failed"})
        model.add_markovian(1, 2.0, 3)
        model.add_markovian(2, 2.0, 3)
        assert weak_bisimulation_partition(model) == [{0, 1, 2}, {3}]
        assert strong_bisimulation_partition(model) == [{0}, {1, 2}, {3}]

    def test_rates_count_on_unstable_states(self):
        # 0 and 1 both move by tau into 2 and differ only in rates, which
        # maximal progress hides from the weak relation but not the strong.
        model = tau_model(4, (0, 2), (1, 2))
        model.set_labels(3, {"failed"})
        model.add_markovian(0, 1.0, 3)
        model.add_markovian(1, 5.0, 3)
        assert weak_bisimulation_partition(model) == [{0, 1, 2}, {3}]
        assert strong_bisimulation_partition(model) == [{0}, {1}, {2}, {3}]
