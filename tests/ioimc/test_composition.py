"""Tests for parallel composition of I/O-IMC."""

import pytest

from repro.errors import CompositionError
from repro.ioimc import (
    IOIMC,
    ActionType,
    parallel,
    signature,
)


def producer(action: str = "a", rate: float = 2.0) -> IOIMC:
    model = IOIMC("producer", signature(outputs=[action]))
    s0 = model.add_state(initial=True)
    s1 = model.add_state()
    s2 = model.add_state()
    model.add_markovian(s0, rate, s1)
    model.add_interactive(s1, action, s2)
    return model


def consumer(action: str = "a") -> IOIMC:
    model = IOIMC("consumer", signature(inputs=[action]))
    s0 = model.add_state(initial=True)
    s1 = model.add_state(labels=["received"])
    model.add_interactive(s0, action, s1)
    return model


class TestSynchronisation:
    def test_output_drives_input(self):
        composite = parallel(producer(), consumer())
        # a stays an output of the composite
        assert "a" in composite.signature.outputs
        assert "a" not in composite.signature.inputs
        # the synchronised transition moves both components at once
        labelled = [s for s in composite.states() if "received" in composite.labels(s)]
        assert labelled, "the consumer must be able to receive the output"

    def test_input_enabledness_implicit_self_loop(self):
        # A consumer without an explicit transition in some state still lets
        # the producer output happen (it just stays put).
        lazy = IOIMC("lazy", signature(inputs=["a"]))
        lazy.add_state(initial=True)
        composite = parallel(producer(), lazy)
        # Producer can still perform its output: 3 states reachable.
        assert composite.num_states == 3

    def test_shared_outputs_rejected(self):
        with pytest.raises(CompositionError):
            parallel(producer("x"), producer("x"))

    def test_markovian_interleaving(self):
        left = producer("a", rate=1.0)
        right = producer("b", rate=2.0)
        composite = parallel(left, right)
        # From the initial state both delays race: two Markovian transitions.
        initial = composite.initial
        rates = sorted(rate for rate, _ in composite.markovian_out(initial))
        assert rates == [1.0, 2.0]

    def test_internal_actions_never_synchronise(self):
        left = IOIMC("l", signature(internals=["step"]))
        l0 = left.add_state(initial=True)
        l1 = left.add_state()
        left.add_interactive(l0, "step", l1)
        right = IOIMC("r", signature(internals=["step"]))
        r0 = right.add_state(initial=True)
        r1 = right.add_state()
        right.add_interactive(r0, "step", r1)
        composite = parallel(left, right)
        # Interleaving: 4 reachable states, not 2.
        assert composite.num_states == 4

    def test_shared_input_synchronises_listeners(self):
        left = consumer("a")
        right = consumer("a")
        composite = parallel(left, right)
        assert "a" in composite.signature.inputs
        targets = composite.interactive_on(composite.initial, "a")
        assert len(targets) == 1
        target = targets[0]
        assert "received" in composite.labels(target)

    def test_labels_are_unioned(self):
        composite = parallel(producer(), consumer())
        final = [
            s
            for s in composite.states()
            if "received" in composite.labels(s)
        ]
        assert final

    def test_three_way_composition(self):
        # producer -> relay -> consumer
        relay = IOIMC("relay", signature(inputs=["a"], outputs=["b"]))
        r0 = relay.add_state(initial=True)
        r1 = relay.add_state()
        r2 = relay.add_state()
        relay.add_interactive(r0, "a", r1)
        relay.add_interactive(r1, "b", r2)
        composite = parallel(parallel(producer(), relay), consumer("b"))
        assert "received" in {
            label for s in composite.states() for label in composite.labels(s)
        }
