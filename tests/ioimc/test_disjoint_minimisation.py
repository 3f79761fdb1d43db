"""Minimisation of models made of several disconnected components.

``minimize_weak`` / ``minimize_strong`` refine the whole state space in one
serial pass and then restrict the quotient to the states reachable from the
initial state.  These tests pin the contract on disjoint unions:

* the minimised union equals the minimised reachable component alone, up to
  state renumbering (strong exactly, weak at the minimisation fixpoint);
* the partition is computed over the whole union, so identical components
  share blocks across the component boundary;
* transient measures are preserved;
* minimisation is serial only: there is no ``processes=`` parameter and no
  ``minimisation_processes`` option.

State renumbering: ``restrict_to_reachable`` keeps ascending block ids, so
isomorphic results may number states differently — comparisons below
canonicalise by a deterministic BFS relabelling instead of comparing raw dots.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.ctmc.builders import ctmc_skeleton_from_ioimc
from repro.ioimc import (
    AggregationOptions,
    IOIMC,
    minimize_strong,
    minimize_weak,
    signature,
    weak_bisimulation_partition,
)
from repro.ioimc.actions import action_name

MISSION_TIMES = (0.5, 1.0, 2.0)


def _add_chain(model, rates, label):
    """One Markovian chain component; returns its entry state."""
    first = model.add_state()
    current = first
    for rate in rates:
        nxt = model.add_state()
        model.add_markovian(current, rate, nxt)
        current = nxt
    model.set_labels(current, {label})
    return first


def _add_spinner(model):
    """A tau self-loop state that leaves at rate 4 into a ``done`` state."""
    spinner = model.add_state()
    model.add_interactive(spinner, "tau", spinner)
    stop = model.add_state()
    model.add_markovian(spinner, 4.0, stop)
    model.set_labels(stop, {"done"})
    return spinner


def two_chain_model():
    """Two disconnected Markovian chains with different rates and labels."""
    model = IOIMC("two-chains", signature())
    entry = _add_chain(model, [1.0, 2.0, 3.0], "failed")
    _add_chain(model, [5.0, 5.0], "other")
    model.set_initial(entry)
    return model


def two_chain_reachable():
    model = IOIMC("two-chains", signature())
    model.set_initial(_add_chain(model, [1.0, 2.0, 3.0], "failed"))
    return model


def twin_model():
    """Two identical components: cross-component blocks must merge."""
    model = IOIMC("twins", signature())
    entry = _add_chain(model, [2.0, 2.0], "failed")
    _add_chain(model, [2.0, 2.0], "failed")
    model.set_initial(entry)
    return model


def twin_reachable():
    model = IOIMC("twins", signature())
    model.set_initial(_add_chain(model, [2.0, 2.0], "failed"))
    return model


def divergent_union_model():
    """A plain chain next to a component with a tau self-loop."""
    model = IOIMC("divergent-union", signature(internals=("tau",)))
    entry = _add_chain(model, [1.0, 1.0], "failed")
    _add_spinner(model)
    model.set_initial(entry)
    return model


def divergent_union_reachable():
    model = IOIMC("divergent-union", signature(internals=("tau",)))
    model.set_initial(_add_chain(model, [1.0, 1.0], "failed"))
    return model


def connected_model():
    """A single weakly-connected component (the common, post-product case)."""
    model = IOIMC("connected", signature(internals=("tau",)))
    states = [model.add_state() for _ in range(5)]
    model.add_interactive(states[0], "tau", states[1])
    model.add_markovian(states[1], 1.5, states[2])
    model.add_markovian(states[0], 1.5, states[3])
    model.add_interactive(states[3], "tau", states[2])
    model.add_markovian(states[2], 2.5, states[4])
    model.set_labels(states[4], {"failed"})
    model.set_initial(states[0])
    return model


UNIONS = {
    "two_chain_model": (two_chain_model, two_chain_reachable),
    "twin_model": (twin_model, twin_reachable),
    "divergent_union_model": (divergent_union_model, divergent_union_reachable),
}


def canonical_form(model):
    """A renumbering-invariant rendering: BFS order over sorted edge keys."""
    order = {model.initial: 0}
    queue = [model.initial]
    while queue:
        state = queue.pop(0)
        moves = sorted(
            [("i", action_name(aid), target) for aid, target in model._itrans[state]]
            + [("m", rate, target) for target, rate in model._mtrans[state].items()]
        )
        for _kind, _key, target in moves:
            if target not in order:
                order[target] = len(order)
                queue.append(target)
    assert len(order) == model.num_states  # restricted models are reachable
    lines = []
    for state in sorted(order, key=order.get):
        moves = sorted(
            [("i", action_name(aid), order[target]) for aid, target in model._itrans[state]]
            + [("m", rate, order[target]) for target, rate in model._mtrans[state].items()]
        )
        lines.append((order[state], sorted(model.labels(state)), moves))
    return lines


def weak_fixpoint(model):
    current = minimize_weak(model)
    while True:
        nxt = minimize_weak(current)
        if (
            nxt.num_states == current.num_states
            and nxt.num_transitions == current.num_transitions
        ):
            return nxt
        current = nxt


def failure_curve(model, label="failed"):
    skeleton = ctmc_skeleton_from_ioimc(model)
    return skeleton.instantiate().probability_of_label_curve(label, MISSION_TIMES)


class TestDisjointUnions:
    def test_single_component_is_deterministic(self):
        first = minimize_weak(connected_model())
        second = minimize_weak(connected_model())
        assert first.to_dot() == second.to_dot()

    @pytest.mark.parametrize("name", ["two_chain_model", "twin_model"])
    def test_strong_union_matches_reachable_component(self, name):
        union, reachable = UNIONS[name]
        assert canonical_form(minimize_strong(union())) == canonical_form(
            minimize_strong(reachable())
        )

    @pytest.mark.parametrize(
        "name", ["two_chain_model", "twin_model", "divergent_union_model"]
    )
    def test_weak_union_matches_reachable_component_at_fixpoint(self, name):
        union, reachable = UNIONS[name]
        assert canonical_form(weak_fixpoint(union())) == canonical_form(
            weak_fixpoint(reachable())
        )

    def test_twin_components_coarsen_across_the_boundary(self):
        # States 0-2 are the first chain, 3-5 its twin: each block of the
        # union's partition pairs a state with its twin's counterpart.
        partition = weak_bisimulation_partition(twin_model())
        assert sorted(sorted(block) for block in partition) == [[0, 3], [1, 4], [2, 5]]

    def test_measures_preserved(self):
        model = two_chain_model()
        original = failure_curve(model)
        assert failure_curve(minimize_weak(model)) == pytest.approx(original, abs=1e-12)
        assert failure_curve(minimize_strong(model)) == pytest.approx(original, abs=1e-12)


class TestSerialOnlySurface:
    def test_minimisers_take_no_processes_argument(self):
        model = two_chain_model()
        with pytest.raises(TypeError):
            minimize_weak(model, processes=2)
        with pytest.raises(TypeError):
            minimize_strong(model, processes=2)

    def test_options_have_no_minimisation_processes(self):
        names = {field.name for field in dataclasses.fields(AggregationOptions)}
        assert "minimisation_processes" not in names
        with pytest.raises(TypeError):
            AggregationOptions(minimisation_processes=2)

    def test_cli_rejects_minimisation_processes_flag(self, tmp_path, capsys):
        tree = tmp_path / "and.dft"
        tree.write_text('toplevel "Sys";\n"Sys" and "A" "B";\n"A" lambda=1.0;\n"B" lambda=2.0;\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(tree), "--minimisation-processes", "2"])
        assert excinfo.value.code == 2
        assert "--minimisation-processes" in capsys.readouterr().err
