"""Tests for the fused compose+maximal-progress path of ``parallel``."""

import pytest

from repro.ioimc import (
    IOIMC,
    apply_maximal_progress,
    parallel,
    remove_internal_self_loops,
    signature,
)
from repro.systems import figure2_models


def _compose_then_reduce(left: IOIMC, right: IOIMC) -> IOIMC:
    composite = parallel(left, right)
    composite = apply_maximal_progress(composite)
    composite = remove_internal_self_loops(composite)
    return composite.restrict_to_reachable()


def _canonical(model: IOIMC):
    """Order-insensitive fingerprint: per-state sorted transition sets."""
    return (
        model.initial,
        tuple(
            (
                tuple(sorted(model.interactive_pairs(state))),
                tuple(sorted(model.markovian_dict(state).items())),
                model.labels(state),
            )
            for state in model.states()
        ),
    )


class TestFusedEqualsComposeThenReduce:
    def test_figure2(self):
        model_a, model_b = figure2_models(rate=1.0)
        fused = parallel(model_a, model_b, fuse=True)
        reduced = _compose_then_reduce(model_a, model_b)
        assert _canonical(fused) == _canonical(reduced)

    def test_markovian_race_with_urgent_output(self):
        # Left: urgent output enabled immediately -> its initial state is
        # urgent, so the right component's Markovian delay must be pruned
        # from the fused initial product state.
        left = IOIMC("l", signature(outputs=["go"]))
        l0 = left.add_state(initial=True)
        l1 = left.add_state()
        left.add_interactive(l0, "go", l1)
        right = IOIMC("r", signature(inputs=["go"]))
        r0 = right.add_state(initial=True)
        r1 = right.add_state()
        right.add_markovian(r0, 3.0, r1)
        fused = parallel(left, right, fuse=True)
        reduced = _compose_then_reduce(left, right)
        assert _canonical(fused) == _canonical(reduced)
        assert not list(fused.markovian_out(fused.initial))

    def test_internal_self_loops_never_materialised(self):
        left = IOIMC("l", signature(internals=["tau"]))
        l0 = left.add_state(initial=True)
        left.add_interactive(l0, "tau", l0)
        right = IOIMC("r", signature(outputs=["b"]))
        r0 = right.add_state(initial=True)
        r1 = right.add_state()
        right.add_interactive(r0, "b", r1)
        fused = parallel(left, right, fuse=True)
        for state in fused.states():
            for _aid, target in fused.interactive_pairs(state):
                assert target != state
        # The self-loop still made the state urgent before being dropped.
        reduced = _compose_then_reduce(left, right)
        assert _canonical(fused) == _canonical(reduced)

    def test_fused_prunes_states_reachable_only_via_urgent_markovian(self):
        # Urgent state with a Markovian transition to an otherwise
        # unreachable state: fused exploration must not materialise it.
        left = IOIMC("l", signature(outputs=["go"]))
        l0 = left.add_state(initial=True)
        l1 = left.add_state()
        l2 = left.add_state()
        left.add_interactive(l0, "go", l1)
        left.add_markovian(l0, 1.0, l2)  # pre-empted by the urgent output
        right = IOIMC("r", signature(inputs=["go"]))
        right.add_state(initial=True)
        fused = parallel(left, right, fuse=True)
        plain = parallel(left, right)
        assert fused.num_states < plain.num_states

    def test_fused_output_preempts_markovian(self):
        # An output is urgent: once it can fire, the rate beside it is cut.
        left = IOIMC("l", signature(outputs=["go"]))
        l0 = left.add_state(initial=True)
        l1 = left.add_state()
        left.add_interactive(l0, "go", l1)
        left.add_markovian(l0, 1.0, l1)
        right = IOIMC("r", signature(inputs=["go"]))
        right.add_state(initial=True)
        fused = parallel(left, right, fuse=True)
        assert list(fused.markovian_out(fused.initial)) == []
        assert _canonical(fused) == _canonical(_compose_then_reduce(left, right))
