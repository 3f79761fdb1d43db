"""The plain-Python weak path against the array closure engine.

Below :data:`~repro.ioimc.bisimulation.SMALL_WEAK_STATES` states the closure
engine runs a plain-Python minimiser (:func:`_plain_weak_sets`,
:func:`_plain_weak_partition`, :func:`_plain_weak_quotient`), so the
closure cells of the differential matrix no longer reach the array engine
there.  These cells compare the plain path with the array closure engine
called directly (the strong splitter on inputs without internal moves,
which is what the array route runs for them):

* the partition equals :meth:`_WeakClosureEngine.state_partition` and the
  quotient's dot rendering equals :meth:`_WeakClosureEngine.quotient`'s, on
  two Hypothesis families with tau cycles without exit (divergence rule),
  missing input moves (input gaps), explicit input self-loops, label splits
  and parametric rates: small drawn models, and seeded models of every size
  up to the cut-off;
* the same on the products of a parametric CPS build and of the parametric
  race-bank sweep skeleton;
* at the cut-off, n = T - 1 takes the plain path and n = T the engine,
  both equal to the splitter engine; a dense tau-SCC trips the closure
  budget and goes to the engine, while a wide input alphabet (implicit input
  self-loops) does not trip it;
* the already-minimal exit returns the input itself, which equals the full
  quotient under ``canonical_form``.

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
from repro.ioimc import bisimulation
from repro.ioimc.bisimulation import (
    ALGORITHMS,
    DEFAULT_RATE_DIGITS,
    SMALL_WEAK_STATES,
    Partition,
    _has_no_internal_transitions,
    _plain_weak_partition,
    _plain_weak_quotient,
    _plain_weak_sets,
    _strong_partition_splitter,
    _WeakClosureEngine,
)
from repro.ioimc.rates import ParametricRate
from repro.systems import cascaded_pand_system, pand_race_bank
from tests.property.test_engine_differential import random_tau_cycle_model
from tests.reduction_reference import canonical_form

LAM = ParametricRate.for_parameter("lam", 0.3)
RATES = (0.5, 1.0, 2.0, LAM, ParametricRate.for_parameter("lam", 0.3, 2.0))
KINDS = ("tau", "tau2", "o", "i1", "i2", "loop", "rate", "rate")
LABELS = ((), (), ("failed",), ("down",))


def small_path(model: IOIMC, respect_labels: bool = True) -> Tuple[Partition, IOIMC]:
    """The plain path's partition and (unrestricted) quotient of ``model``."""
    sets = _plain_weak_sets(model, DEFAULT_RATE_DIGITS)
    assert sets is not None, f"{model.name}: over the closure budget"
    partition = _plain_weak_partition(model, sets, respect_labels, DEFAULT_RATE_DIGITS)
    return partition, _plain_weak_quotient(model, partition, sets)


def array_path(model: IOIMC, respect_labels: bool) -> Tuple[Partition, IOIMC]:
    """The array route's partition and (unrestricted) quotient of ``model``."""
    if _has_no_internal_transitions(model):
        partition = _strong_partition_splitter(
            model, respect_labels, DEFAULT_RATE_DIGITS, own_inputs_invisible=True
        )
        return partition, quotient_weak(model, partition)
    engine = _WeakClosureEngine(model, respect_labels, DEFAULT_RATE_DIGITS)
    return engine.state_partition(), engine.quotient()


def assert_matches_closure_engine(model: IOIMC, respect_labels: bool = True) -> None:
    partition, quotient = small_path(model, respect_labels)
    expected_partition, full = array_path(model, respect_labels)
    assert partition == expected_partition, model.name
    assert quotient.to_dot() == full.to_dot(), model.name
    # The dot prints rates to six digits; the rates themselves agree exactly.
    assert quotient._mtrans == full._mtrans, model.name
    # What minimize_weak returns — the quotient, or the input itself when it
    # is already minimal — is the full quotient up to state numbering.
    result = minimize_weak(model, respect_labels=respect_labels)
    assert canonical_form(result) == canonical_form(full._reachable_part()), model.name


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


class TestAgainstTheClosureEngine:
    @settings(deadline=None)
    @given(model=small_models(), respect_labels=st.booleans())
    def test_random_small_models(self, model, respect_labels):
        assert_matches_closure_engine(model, respect_labels)

    @settings(deadline=None)
    @given(
        num_states=st.one_of(
            st.integers(min_value=1, max_value=200),
            st.integers(min_value=1, max_value=SMALL_WEAK_STATES - 1),
        ),
        seed=st.integers(min_value=0, max_value=2**32),
        respect_labels=st.booleans(),
    )
    def test_seeded_models_up_to_the_cut_off(self, num_states, seed, respect_labels):
        assert_matches_closure_engine(seeded_model(num_states, seed), respect_labels)

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
        partition, quotient = small_path(model)
        assert partition == [frozenset({0, 1, 2}), frozenset({3}), frozenset({4})]
        assert list(quotient._mtrans[0].items()) == [(1, 1.0), (2, 2.0)]
        assert_matches_closure_engine(model)

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
        assert max(model.num_states for model in models) < SMALL_WEAK_STATES
        for model in models:
            assert_matches_closure_engine(model)


def fan_model(num_states: int) -> IOIMC:
    """A tau fan from the initial state into ``num_states - 2`` arms that
    rate into one failed state, every third arm with an output move too.

    Its closures hold about two entries per state, so it passes the
    closure budget at every size, and both routes split it in two rounds.
    """
    model = IOIMC("fan", signature(inputs=["i"], outputs=["o"], internals=["tau"]))
    for index in range(num_states):
        model.add_state(labels=("failed",) if index == num_states - 1 else ())
    for arm in range(1, num_states - 1):
        model.add_interactive(0, "tau", arm)
        model.add_markovian(arm, 1.0, num_states - 1)
        if arm % 3 == 0:
            model.add_interactive(arm, "o", num_states - 1)
    model.set_initial(0)
    return model


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


def count_engine_builds(monkeypatch) -> list:
    builds = []

    class Counting(_WeakClosureEngine):
        def __init__(self, *args):
            builds.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(bisimulation, "_WeakClosureEngine", Counting)
    return builds


class TestCutOff:
    @pytest.mark.parametrize(
        "num_states,engine_builds",
        [(SMALL_WEAK_STATES - 1, 0), (SMALL_WEAK_STATES, 1)],
        ids=["below", "at"],
    )
    def test_closure_engine_runs_from_the_cut_off(
        self, num_states, engine_builds, monkeypatch
    ):
        model = fan_model(num_states)
        expected_partition = weak_bisimulation_partition(model, algorithm="splitter")
        expected = minimize_weak(model, algorithm="splitter")
        builds = count_engine_builds(monkeypatch)
        quotient = minimize_weak(model)
        partition = weak_bisimulation_partition(model)
        assert len(builds) == 2 * engine_builds
        # The splitter engine shares no code with either route.
        assert partition == expected_partition
        assert quotient.to_dot() == expected.to_dot()

    def test_a_dense_tau_scc_trips_the_closure_budget(self, monkeypatch):
        model = random_tau_cycle_model(0, num_states=99)
        assert model.num_states < SMALL_WEAK_STATES
        assert _plain_weak_sets(model, DEFAULT_RATE_DIGITS) is None
        expected = minimize_weak(model, algorithm="splitter").to_dot()
        builds = count_engine_builds(monkeypatch)
        assert minimize_weak(model).to_dot() == expected
        assert weak_bisimulation_partition(model) == weak_bisimulation_partition(
            model, algorithm="splitter"
        )
        assert builds == [model, model]

    @pytest.mark.parametrize("internal", [False, True], ids=["tau-free", "with-tau"])
    def test_a_wide_input_alphabet_stays_on_the_plain_path(self, internal, monkeypatch):
        model = wide_alphabet_model(64, internal)
        assert _plain_weak_sets(model, DEFAULT_RATE_DIGITS) is not None
        expected_partition = weak_bisimulation_partition(model, algorithm="splitter")
        expected = minimize_weak(model, algorithm="splitter")
        builds = count_engine_builds(monkeypatch)

        def no_splitter(*args, **kwargs):
            raise AssertionError("the strong splitter ran")

        monkeypatch.setattr(bisimulation, "_strong_partition_splitter", no_splitter)
        assert weak_bisimulation_partition(model) == expected_partition
        assert minimize_weak(model).to_dot() == expected.to_dot()
        assert builds == []

    def test_small_tau_cycles_stay_on_the_plain_path(self, monkeypatch):
        models = [random_tau_cycle_model(seed) for seed in range(12)]
        builds = count_engine_builds(monkeypatch)
        for model in models:
            minimize_weak(model)
        assert builds == []
        for model in models:
            assert_matches_closure_engine(model)


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
    @pytest.mark.parametrize("num_padding", [0, 20, SMALL_WEAK_STATES])
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
