"""Tests for maximal-progress (urgency) pruning."""

from repro.ioimc import (
    IOIMC,
    apply_maximal_progress,
    count_pruned_transitions,
    signature,
)


def model_with_urgent_race() -> IOIMC:
    """A state that has both an internal move and a Markovian transition."""
    model = IOIMC("race", signature(outputs=["out"], internals=["tau"]))
    s0 = model.add_state(initial=True)
    s1 = model.add_state()
    s2 = model.add_state()
    s3 = model.add_state()
    model.add_interactive(s0, "tau", s1)
    model.add_markovian(s0, 5.0, s2)     # pre-empted by the internal move
    model.add_markovian(s1, 1.0, s3)
    model.add_interactive(s2, "out", s3)
    model.add_markovian(s2, 2.0, s3)     # pre-empted by the output (I/O-IMC rule)
    return model


class TestMaximalProgress:
    def test_internal_preempts_markovian(self):
        pruned = apply_maximal_progress(model_with_urgent_race())
        assert list(pruned.markovian_out(0)) == []

    def test_output_preempts_markovian(self):
        pruned = apply_maximal_progress(model_with_urgent_race())
        assert list(pruned.markovian_out(2)) == []

    def test_input_does_not_preempt_markovian(self):
        # Inputs wait for the environment, so they are never urgent.
        model = IOIMC("listener", signature(inputs=["go"]))
        s0 = model.add_state(initial=True)
        s1 = model.add_state()
        model.add_interactive(s0, "go", s1)
        model.add_markovian(s0, 1.0, s1)
        assert list(apply_maximal_progress(model).markovian_out(s0)) == [(1.0, s1)]
        assert count_pruned_transitions(model) == 0

    def test_count_is_the_number_of_rates_removed(self):
        model = model_with_urgent_race()
        pruned = apply_maximal_progress(model)
        rates = lambda m: sum(len(list(m.markovian_out(s))) for s in m.states())
        assert rates(model) - rates(pruned) == count_pruned_transitions(model)

    def test_stable_states_untouched(self):
        pruned = apply_maximal_progress(model_with_urgent_race())
        assert list(pruned.markovian_out(1)) == [(1.0, 3)]

    def test_interactive_transitions_preserved(self):
        original = model_with_urgent_race()
        pruned = apply_maximal_progress(original)
        original_interactive = sum(1 for s in original.states() for _ in original.interactive_out(s))
        pruned_interactive = sum(1 for s in pruned.states() for _ in pruned.interactive_out(s))
        assert original_interactive == pruned_interactive

    def test_count_pruned_transitions(self):
        assert count_pruned_transitions(model_with_urgent_race()) == 2

    def test_idempotent(self):
        once = apply_maximal_progress(model_with_urgent_race())
        twice = apply_maximal_progress(once)
        assert once.num_transitions == twice.num_transitions
