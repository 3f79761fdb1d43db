"""The small-input weak path against the array closure engine.

Below :data:`~repro.ioimc.bisimulation.SMALL_WEAK_STATES` states the closure
and signature engines share one plain-Python path (signature refinement
plus :func:`~repro.ioimc.bisimulation._plain_weak_quotient`), so the
closure-vs-signature cells of the differential matrix no longer compare two
engines there.  These cells compare the path with the array closure engine
called directly:

* the partition equals :meth:`_WeakClosureEngine.state_partition` and the
  quotient's dot rendering equals :meth:`_WeakClosureEngine.quotient`'s, on
  a Hypothesis family of small models with tau cycles without exit
  (divergence rule), missing input moves (input gaps), explicit input
  self-loops, label splits and parametric rates, and on the products of a
  parametric CPS build;
* at the cut-off, n = T - 1 takes the plain path and n = T the engine;
* the already-minimal exit returns the input itself, which equals the full
  quotient under ``canonical_form``.

The benchmark ladder's products are covered in ``test_ladder_reduction.py``.
"""

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
    _internal_closure,
    _plain_weak_quotient,
    _weak_partition_signature,
    _weak_visible_reach,
    _WeakClosureEngine,
)
from repro.ioimc.rates import ParametricRate
from repro.systems import cascaded_pand_system
from tests.reduction_reference import canonical_form

LAM = ParametricRate.for_parameter("lam", 0.3)
RATES = (0.5, 1.0, 2.0, LAM, ParametricRate.for_parameter("lam", 0.3, 2.0))


def small_path(model: IOIMC, respect_labels: bool = True) -> Tuple[Partition, IOIMC]:
    """The small path's partition and (unrestricted) quotient of ``model``."""
    closures = _internal_closure(model)
    reach = _weak_visible_reach(model, closures)
    partition = _weak_partition_signature(
        model, respect_labels, DEFAULT_RATE_DIGITS, closures, reach
    )
    return partition, _plain_weak_quotient(model, partition, closures, reach)


def assert_matches_closure_engine(model: IOIMC, respect_labels: bool = True) -> None:
    partition, quotient = small_path(model, respect_labels)
    engine = _WeakClosureEngine(model, respect_labels, DEFAULT_RATE_DIGITS)
    assert partition == engine.state_partition(), model.name
    full = engine.quotient()
    assert quotient.to_dot() == full.to_dot(), model.name
    # The dot prints rates to six digits; the rates themselves agree exactly.
    assert quotient._mtrans == full._mtrans, model.name
    # What minimize_weak returns — the quotient, or the input itself when it
    # is already minimal — is the full quotient up to state numbering.
    result = minimize_weak(model, respect_labels=respect_labels)
    assert canonical_form(result) == canonical_form(full._reachable_part()), model.name


@st.composite
def small_models(draw, max_states: int = SMALL_WEAK_STATES - 1) -> IOIMC:
    """A small model mixing every case the weak quotient treats specially."""
    num_states = draw(st.integers(min_value=1, max_value=max_states))
    model = IOIMC(
        "small",
        signature(inputs=["i1", "i2"], outputs=["o"], internals=["tau", "tau2"]),
    )
    for index in range(num_states):
        labels = draw(st.sampled_from([(), (), ("failed",), ("down",)]))
        model.add_state(labels=labels, initial=index == 0)
    state = st.integers(min_value=0, max_value=num_states - 1)
    if draw(st.booleans()):
        # A tau cycle over a few states; without exits it is divergent.
        members = draw(st.lists(state, min_size=1, max_size=4, unique=True))
        for source, target in zip(members, members[1:] + members[:1]):
            if source != target:
                model.add_interactive(source, "tau", target)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * num_states))):
        kind = draw(st.sampled_from(["tau", "tau2", "o", "i1", "i2", "loop", "rate", "rate"]))
        source = draw(state)
        if kind == "loop":  # an explicit input self-loop
            model.add_interactive(source, draw(st.sampled_from(["i1", "i2"])), source)
        elif kind == "rate":
            model.add_markovian(source, draw(st.sampled_from(RATES)), draw(state))
        else:
            model.add_interactive(source, kind, draw(state))
    return model


class TestAgainstTheClosureEngine:
    @settings(deadline=None)
    @given(model=small_models(), respect_labels=st.booleans())
    def test_random_small_models(self, model, respect_labels):
        assert_matches_closure_engine(model, respect_labels)

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

    def test_parametric_cps_products(self, monkeypatch):
        models = []

        def recording(model, **kwargs):
            models.append(model)
            return minimize_weak(model, **kwargs)

        monkeypatch.setattr(reduction, "minimize_weak", recording)
        events = {f"{module}{i}": "lam" for module in ("A", "C", "D") for i in range(1, 5)}
        SweepStudy(with_rate_parameters(cascaded_pand_system(), events)).skeleton
        small = [model for model in models if model.num_states < SMALL_WEAK_STATES]
        assert small
        for model in small:
            assert_matches_closure_engine(model)


def tau_ladder(num_states: int) -> IOIMC:
    """A tau chain with an output move on every third rung and one rate back
    from its failed end: weak bisimulation merges most of it."""
    model = IOIMC("ladder", signature(inputs=["i"], outputs=["o"], internals=["tau"]))
    for index in range(num_states):
        model.add_state(labels=("failed",) if index == num_states - 1 else ())
    for index in range(num_states - 1):
        model.add_interactive(index, "tau", index + 1)
    for index in range(0, num_states, 3):
        model.add_interactive(index, "o", num_states - 1)
    model.add_markovian(num_states - 1, 1.0, 0)
    model.set_initial(0)
    return model


class TestCutOff:
    @pytest.mark.parametrize(
        "num_states,engine_builds",
        [(SMALL_WEAK_STATES - 1, 0), (SMALL_WEAK_STATES, 1)],
        ids=["below", "at"],
    )
    def test_closure_engine_runs_from_the_cut_off(
        self, num_states, engine_builds, monkeypatch
    ):
        model = tau_ladder(num_states)
        builds = []

        class Counting(_WeakClosureEngine):
            def __init__(self, *args):
                builds.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(bisimulation, "_WeakClosureEngine", Counting)
        quotient = minimize_weak(model)
        partition = weak_bisimulation_partition(model)
        assert len(builds) == 2 * engine_builds
        assert partition == weak_bisimulation_partition(model, algorithm="splitter")
        expected = minimize_weak(model, algorithm="splitter")
        assert quotient.to_dot() == expected.to_dot()
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
    @pytest.mark.parametrize("num_padding", [0, SMALL_WEAK_STATES])
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
