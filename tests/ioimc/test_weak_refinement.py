"""The weak refinement against the reference engines.

``algorithm="closure"`` runs one plain signature refinement at every size,
after a pre-pass that merges equal-label tau-SCC members and forwards
single-tau states (``_weak_prepass``).  These cells compare it with
references that share no code with it: the partition must equal the
signature engine's, and the unrestricted quotient must equal
``reference_weak_quotient`` of ``tests/partition_reference.py`` dot for
dot, with exactly equal rates.  They run

* on two Hypothesis families with tau cycles without exit (divergence
  rule), missing input moves (input gaps), explicit input self-loops,
  label splits and parametric rates: small drawn models, and seeded models
  of up to 2,047 states; and on seeded models where a third of the states
  move by one tau alone, which the pre-pass forwards or must refuse to;
* on the products of a parametric CPS build and of the parametric
  race-bank sweep skeleton;
* on what the pre-pass merges (tau chains, dense tau-SCCs) and on the
  forwarding it must refuse, and on a wide input alphabet;
* on the already-minimal exit, which returns the input itself, equal to
  the full quotient under ``canonical_form``.

The benchmark ladder's products (seeds 1-3) are covered in
``test_ladder_reduction.py``.
"""

import random
from typing import Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro import SweepStudy
from repro.core.sweep import with_rate_parameters
from repro.ioimc import (
    IOIMC,
    minimize_weak,
    quotient_weak,
    reduction,
    signature,
    weak_bisimulation_partition,
)
from repro.ioimc.bisimulation import (
    ALGORITHMS,
    Partition,
    _plain_weak_quotient,
    _tau_successors,
    _weak_partition_plain,
    _weak_prepass,
)
from repro.ioimc.rates import ParametricRate
from repro.systems import cascaded_pand_system, pand_race_bank
from tests.partition_reference import reference_weak_quotient, without_labels
from tests.property.test_engine_differential import random_tau_cycle_model
from tests.reduction_reference import canonical_form

LAM = ParametricRate.for_parameter("lam", 0.3)
RATES = (0.5, 1.0, 2.0, LAM, ParametricRate.for_parameter("lam", 0.3, 2.0))
KINDS = ("tau", "tau2", "o", "i1", "i2", "loop", "rate", "rate")
LABELS = ((), (), ("failed",), ("down",))


@st.composite
def small_models(draw, max_states: int = 24) -> IOIMC:
    """A small model mixing every case the weak quotient treats specially."""
    num_states = draw(st.integers(min_value=1, max_value=max_states))
    model = IOIMC(
        "small",
        signature(inputs=["i1", "i2"], outputs=["o"], internals=["tau", "tau2"]),
    )
    for index in range(num_states):
        labels = draw(st.sampled_from(LABELS))
        model.add_state(labels=labels, initial=index == 0)
    state = st.integers(min_value=0, max_value=num_states - 1)
    if draw(st.booleans()):
        # A tau cycle over a few states; without exits it is divergent.
        members = draw(st.lists(state, min_size=1, max_size=4, unique=True))
        for source, target in zip(members, members[1:] + members[:1]):
            if source != target:
                model.add_interactive(source, "tau", target)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * num_states))):
        kind = draw(st.sampled_from(KINDS))
        source = draw(state)
        if kind == "loop":  # an explicit input self-loop
            model.add_interactive(source, draw(st.sampled_from(["i1", "i2"])), source)
        elif kind == "rate":
            model.add_markovian(source, draw(st.sampled_from(RATES)), draw(state))
        else:
            model.add_interactive(source, kind, draw(state))
    return model


def seeded_model(num_states: int, seed: int) -> IOIMC:
    """The cases of :func:`small_models` at any size, from a seed.

    Moves mostly go forward a few states, so the model has structure to
    merge; short tau cycles, some without exit, keep the closures small.
    """
    rng = random.Random(seed)
    model = IOIMC(
        f"seeded-{num_states}-{seed}",
        signature(inputs=["i1", "i2"], outputs=["o"], internals=["tau", "tau2"]),
    )
    for index in range(num_states):
        model.add_state(labels=rng.choice(LABELS), initial=index == 0)

    def near(source: int) -> int:
        return min(num_states - 1, source + rng.randrange(4))

    for _ in range(num_states // 8 + 1):
        start = rng.randrange(num_states)
        members = list(range(start, min(num_states, start + rng.randrange(1, 4))))
        for source, target in zip(members, members[1:] + members[:1]):
            if source != target:
                model.add_interactive(source, "tau", target)
    for _ in range(2 * num_states):
        kind = rng.choice(KINDS)
        source = rng.randrange(num_states)
        if kind == "loop":
            model.add_interactive(source, rng.choice(["i1", "i2"]), source)
        elif kind == "rate":
            model.add_markovian(source, rng.choice(RATES), near(source))
        elif kind.startswith("tau") and rng.random() < 0.5:
            continue  # fewer internal moves than visible ones
        else:
            model.add_interactive(source, kind, near(source))
    return model


def single_tau_model(num_states: int, seed: int) -> IOIMC:
    """A seeded model rich in what the pre-pass merges: about a third of
    its states move by one tau alone, others mix a tau with a visible move,
    take an input self-loop or only let time pass."""
    rng = random.Random(seed)
    model = IOIMC(
        f"single-tau-{num_states}-{seed}",
        signature(inputs=["i1", "i2"], outputs=["o"], internals=["tau", "tau2"]),
    )
    for index in range(num_states):
        labels = rng.choice(((), (), (), ("failed",)))
        model.add_state(labels=labels, initial=index == 0)
    for state in range(num_states):
        draw = rng.random()
        anywhere = rng.randrange(num_states)
        if draw < 0.35:
            model.add_interactive(state, rng.choice(["tau", "tau2"]), anywhere)
        elif draw < 0.5:
            model.add_interactive(state, "tau", anywhere)
            visible = rng.choice(["i1", "i2", "o"])
            model.add_interactive(state, visible, rng.randrange(num_states))
        elif draw < 0.6:
            model.add_interactive(state, rng.choice(["i1", "i2"]), state)
            if rng.random() < 0.5:
                model.add_interactive(state, "tau", anywhere)
        elif draw < 0.8:
            model.add_markovian(state, rng.choice(RATES), anywhere)
        else:
            model.add_interactive(state, rng.choice(["i1", "i2", "o"]), anywhere)
    return model


def refined_quotient(model: IOIMC) -> Tuple[Partition, IOIMC]:
    """The refinement's partition and (unrestricted) quotient of ``model``."""
    refinement = _weak_partition_plain(model)
    return refinement.partition, _plain_weak_quotient(model, refinement)


def assert_matches_reference(model: IOIMC, labelled: bool = True) -> None:
    """The refinement against the references, on ``model`` or, unless
    ``labelled``, on ``model`` with its labels erased."""
    if not labelled:
        model = without_labels(model)
    partition, quotient = refined_quotient(model)
    expected_partition = weak_bisimulation_partition(model, algorithm="signature")
    assert partition == expected_partition, model.name
    full = reference_weak_quotient(model, expected_partition)
    assert quotient.to_dot() == full.to_dot(), model.name
    # The dot prints rates to six digits; the rates themselves agree exactly.
    assert quotient._mtrans == full._mtrans, model.name
    # What minimize_weak returns — the quotient, or the input itself when it
    # is already minimal — is the full quotient up to state numbering.
    result = minimize_weak(model)
    assert canonical_form(result) == canonical_form(full._reachable_part()), model.name


def reduced_size(model: IOIMC, labelled: bool = True) -> int:
    """States of the pre-pass's reduced model (the input's without one),
    with the labels of ``model`` erased unless ``labelled``."""
    if not labelled:
        model = without_labels(model)
    tau_succ = _tau_successors(model)
    reduced = None if tau_succ is None else _weak_prepass(model, tau_succ)
    return model.num_states if reduced is None else len(reduced[1])


class TestAgainstTheReferences:
    @settings(deadline=None)
    @given(model=small_models(), labelled=st.booleans())
    def test_random_small_models(self, model, labelled):
        assert_matches_reference(model, labelled)

    @settings(deadline=None)
    @given(
        num_states=st.one_of(
            st.integers(min_value=1, max_value=200),
            st.integers(min_value=1, max_value=2047),
        ),
        seed=st.integers(min_value=0, max_value=2**32),
        labelled=st.booleans(),
    )
    def test_seeded_models(self, num_states, seed, labelled):
        assert_matches_reference(seeded_model(num_states, seed), labelled)

    @settings(deadline=None)
    @given(
        num_states=st.integers(min_value=2, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32),
        labelled=st.booleans(),
    )
    def test_models_the_pre_pass_shrinks(self, num_states, seed, labelled):
        assert_matches_reference(single_tau_model(num_states, seed), labelled)

    def test_rates_come_from_the_smallest_stable_member(self):
        # States 1 and 2 lump (their rates agree to ten digits) but list
        # their rates in another order and differ in the last bits; state 0
        # only tau-moves into their class, so it joins it.
        model = IOIMC("lumped", signature(internals=["tau"]))
        for labels in [(), (), (), ("failed",), ("down",)]:
            model.add_state(labels=labels)
        model.add_interactive(0, "tau", 1)
        model.add_interactive(0, "tau", 2)
        model.add_markovian(1, 1.0, 3)
        model.add_markovian(1, 2.0, 4)
        model.add_markovian(2, 2.0 + 1e-13, 4)
        model.add_markovian(2, 1.0 + 1e-13, 3)
        model.set_initial(0)
        partition, quotient = refined_quotient(model)
        assert partition == [frozenset({0, 1, 2}), frozenset({3}), frozenset({4})]
        assert list(quotient._mtrans[0].items()) == [(1, 1.0), (2, 2.0)]
        assert_matches_reference(model)

    @pytest.mark.parametrize("build", ["cps", "race_bank"])
    def test_parametric_sweep_products(self, build, monkeypatch):
        models = []

        def recording(model, **kwargs):
            models.append(model)
            return minimize_weak(model, **kwargs)

        monkeypatch.setattr(reduction, "minimize_weak", recording)
        if build == "cps":
            events = {
                f"{module}{i}": "lam" for module in ("A", "C", "D") for i in range(1, 5)
            }
            tree = with_rate_parameters(cascaded_pand_system(), events)
        else:
            tree = with_rate_parameters(pand_race_bank(5))
        SweepStudy(tree).skeleton
        for model in models:
            assert_matches_reference(model)


def wide_alphabet_model(num_states: int, internal: bool) -> IOIMC:
    """A sparse model over 24 inputs: each state has one explicit move, so
    almost every input of every state is an implicit self-loop.

    State ``k`` takes input ``i{k mod 24}`` or, every fourth state, rate 1.0
    to ``k + 1``; with ``internal``, every fifth state tau-moves there too.
    """
    inputs = [f"i{index}" for index in range(24)]
    model = IOIMC(
        "wide",
        signature(inputs=inputs, internals=["tau"] if internal else []),
    )
    for index in range(num_states):
        model.add_state(labels=("failed",) if index == num_states - 1 else ())
    for index in range(num_states - 1):
        if index % 4 == 3:
            model.add_markovian(index, 1.0, index + 1)
        else:
            model.add_interactive(index, inputs[index % 24], index + 1)
        if internal and index % 5 == 4:
            model.add_interactive(index, "tau", index + 1)
    model.set_initial(0)
    return model


def tau_chain(num_states: int, labels: Tuple[str, ...] = ("failed",)) -> IOIMC:
    """A pure tau chain whose last state carries ``labels``."""
    model = IOIMC("tau-chain", signature(internals=["tau"]))
    for index in range(num_states):
        model.add_state(labels=labels if index == num_states - 1 else ())
    for index in range(num_states - 1):
        model.add_interactive(index, "tau", index + 1)
    model.set_initial(0)
    return model


def forwarding_trap() -> IOIMC:
    """State 0's only move is a tau into state 1, with equal labels, but
    state 0 is not weakly bisimilar to state 1: its implicit input
    self-loop followed by the tau step and state 1's tau step reaches
    state 3, which state 1's own input move misses."""
    model = IOIMC("trap", signature(inputs=["a"], internals=["tau"]))
    for labels in [(), (), ("x",), (), ("y",)]:
        model.add_state(labels=labels)
    model.add_interactive(0, "tau", 1)
    model.add_interactive(1, "a", 2)
    model.add_interactive(1, "tau", 3)
    model.add_interactive(3, "a", 4)
    model.set_initial(0)
    return model


def predecessor_trap() -> IOIMC:
    """State 1's only move is a tau into state 2, which has no internal move
    but moves by input ``i`` to state 3.  State 0, labelled apart, takes
    ``i`` itself, so it has no implicit ``i`` self-loop: it weakly reaches
    state 1's block with ``i`` only through state 1's implicit self-loop,
    which state 2 lacks."""
    model = IOIMC("predecessor-trap", signature(inputs=["i"], internals=["tau"]))
    for labels in [("y",), (), (), ("x",)]:
        model.add_state(labels=labels)
    model.add_interactive(0, "tau", 1)
    model.add_interactive(0, "i", 3)
    model.add_interactive(1, "tau", 2)
    model.add_interactive(2, "i", 3)
    model.set_initial(0)
    return model


class TestPrePass:
    @pytest.mark.parametrize("num_states", [2, 3, 50, 3000])
    def test_a_tau_chain_collapses_before_any_closure(self, num_states):
        model = tau_chain(num_states)
        # Everything but the labelled end forwards into the state before it.
        assert reduced_size(model) == min(num_states, 2)
        assert len(weak_bisimulation_partition(model)) == min(num_states, 2)
        if num_states <= 50:
            assert_matches_reference(model)

    def test_an_unlabelled_tau_chain_collapses_to_one_state(self):
        assert reduced_size(tau_chain(100, labels=())) == 1

    @pytest.mark.parametrize(
        "num_states,seeds", [(99, range(20)), (300, range(5))], ids=["99", "300"]
    )
    def test_dense_tau_sccs_shrink(self, num_states, seeds):
        for seed in seeds:
            model = random_tau_cycle_model(seed, num_states=num_states)
            assert reduced_size(model) <= 9, model.name
            assert_matches_reference(model)

    def test_forwarding_needs_input_moves_that_cover_the_closure(self):
        model = forwarding_trap()
        partition = weak_bisimulation_partition(model, algorithm="signature")
        assert frozenset({0}) in partition and frozenset({1}) in partition
        assert reduced_size(model) == model.num_states
        assert_matches_reference(model)

    def test_forwarding_keeps_the_weak_moves_of_predecessors(self):
        model = predecessor_trap()
        # States 1 and 2 are bisimilar, but merging them first would drop
        # the quotient's i-move from state 0 into their block.
        partition = weak_bisimulation_partition(model, algorithm="signature")
        assert frozenset({1, 2}) in partition
        assert reduced_size(model) == model.num_states
        assert_matches_reference(model)

    @pytest.mark.parametrize("labelled", [True, False])
    def test_forwarding_needs_equal_labels(self, labelled):
        model = tau_chain(2)
        model.add_interactive(1, "tau", 1)  # a divergent end
        assert reduced_size(model, labelled) == (2 if labelled else 1)
        assert_matches_reference(model, labelled)

    @pytest.mark.parametrize("labelled", [True, False])
    def test_a_tau_cycle_with_mixed_labels_merges_per_label(self, labelled):
        model = IOIMC("ring", signature(inputs=["i"], internals=["tau"]))
        for index in range(6):
            model.add_state(labels=("x",) if index % 2 else ())
        for index in range(6):
            model.add_interactive(index, "tau", (index + 1) % 6)
        model.add_interactive(2, "i", 0)  # an input some members lack
        model.add_markovian(0, 1.0, 3)  # rates of unstable states never count
        model.set_initial(0)
        assert reduced_size(model, labelled) == (2 if labelled else 1)
        assert_matches_reference(model, labelled)

    @pytest.mark.parametrize("internal", [False, True], ids=["tau-free", "with-tau"])
    def test_a_wide_input_alphabet(self, internal):
        assert_matches_reference(wide_alphabet_model(64, internal))


def discrete_model() -> IOIMC:
    """No internal moves and all states distinct: already minimal."""
    model = IOIMC("discrete", signature(inputs=["i"], outputs=["o"]))
    for index in range(4):
        model.add_state(labels=("failed",) if index == 3 else (), name=f"s{index}")
    model.add_interactive(0, "i", 1)
    model.add_interactive(1, "o", 2)
    model.add_markovian(2, 1.0, 3)
    model.add_markovian(0, 2.0, 2)
    model.set_initial(0)
    return model


class TestAlreadyMinimalExit:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("num_padding", [0, 20, 2048])
    def test_returns_the_input_itself(self, algorithm, num_padding):
        model = discrete_model()
        for index in range(num_padding):  # distinct unreachable states
            model.add_state(labels=(f"pad{index}",))
        partition = weak_bisimulation_partition(model, algorithm=algorithm)
        full = quotient_weak(model, partition)._reachable_part()
        result = minimize_weak(model, algorithm=algorithm)
        if not num_padding:
            assert result is model
        assert result.state_name(0) == "s0"
        assert canonical_form(result) == canonical_form(full)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "loop", ["input", "rate"], ids=["input-self-loop", "markovian-self-loop"]
    )
    def test_a_self_loop_the_quotient_drops_builds_the_quotient(self, algorithm, loop):
        model = discrete_model()
        if loop == "input":
            model.add_interactive(2, "i", 2)
        else:
            model.add_markovian(1, 0.5, 1)
        result = minimize_weak(model, algorithm=algorithm)
        assert result is not model
        assert result.state_name(0) == "B0"
        partition = weak_bisimulation_partition(model, algorithm=algorithm)
        assert canonical_form(result) == canonical_form(
            quotient_weak(model, partition)._reachable_part()
        )
