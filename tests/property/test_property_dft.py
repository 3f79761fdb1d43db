"""Property-based tests at the fault-tree level (hypothesis).

The key invariant: the compositional I/O-IMC pipeline and the monolithic
DIFTree-style generator — two independent implementations of the DFT
semantics — must agree on the unreliability of randomly generated trees.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Unreliability, UnreliabilityBounds, evaluate
from repro.baselines import DiftreeAnalyzer, monolithic_unreliability
from repro.dft import FaultTreeBuilder, galileo


def unreliability(tree, time):
    return evaluate(tree, Unreliability([time]))["unreliability"].value


def unreliability_bounds(tree, time):
    return evaluate(tree, UnreliabilityBounds([time]))["unreliability_bounds"].bounds


@st.composite
def random_static_tree(draw):
    """A random two-level static tree (AND/OR/K-of-M over basic events)."""
    builder = FaultTreeBuilder("random-static")
    num_branches = draw(st.integers(min_value=1, max_value=3))
    branch_names = []
    counter = 0
    for branch in range(num_branches):
        size = draw(st.integers(min_value=1, max_value=3))
        events = []
        for _ in range(size):
            counter += 1
            name = f"E{counter}"
            rate = draw(st.floats(min_value=0.2, max_value=3.0))
            builder.basic_event(name, rate)
            events.append(name)
        kind = draw(st.sampled_from(["and", "or", "voting"]))
        gate_name = f"G{branch}"
        if kind == "and" or size == 1:
            builder.and_gate(gate_name, events)
        elif kind == "or":
            builder.or_gate(gate_name, events)
        else:
            threshold = draw(st.integers(min_value=1, max_value=size))
            builder.voting_gate(gate_name, events, threshold=threshold)
        branch_names.append(gate_name)
    top_kind = draw(st.sampled_from(["and", "or"]))
    if top_kind == "and":
        builder.and_gate("Top", branch_names)
    else:
        builder.or_gate("Top", branch_names)
    return builder.build("Top")


@st.composite
def random_dynamic_tree(draw):
    """A small random tree mixing spare gates, PAND and static gates.

    The construction avoids configurations with inherent non-determinism so
    that both pipelines produce a single number.
    """
    builder = FaultTreeBuilder("random-dynamic")
    rate = lambda: draw(st.floats(min_value=0.3, max_value=2.0))  # noqa: E731

    builder.basic_event("P1", rate())
    builder.basic_event("P2", rate())
    dormancy = draw(st.sampled_from([0.0, 0.5, 1.0]))
    builder.basic_event("S", rate(), dormancy=dormancy)
    shared = draw(st.booleans())
    builder.spare_gate("G1", primary="P1", spares=["S"])
    if shared:
        builder.spare_gate("G2", primary="P2", spares=["S"])
        subsystem_a = ["G1", "G2"]
    else:
        subsystem_a = ["G1", "P2"]

    builder.basic_event("X", rate())
    builder.basic_event("Y", rate())
    use_pand = draw(st.booleans())
    if use_pand:
        builder.pand_gate("GB", ["X", "Y"])
    else:
        builder.and_gate("GB", ["X", "Y"])

    top_kind = draw(st.sampled_from(["and", "or"]))
    children = subsystem_a + ["GB"]
    if top_kind == "and":
        builder.and_gate("Top", children)
    else:
        builder.or_gate("Top", children)
    return builder.build("Top")


class TestStaticTrees:
    @settings(max_examples=20, deadline=None)
    @given(tree=random_static_tree(), time=st.floats(min_value=0.2, max_value=2.0))
    def test_compositional_matches_bdd(self, tree, time):
        compositional = unreliability(tree, time)
        bdd_based = DiftreeAnalyzer(tree).unreliability(time)
        assert compositional == pytest.approx(bdd_based, abs=1e-7)

    @settings(max_examples=15, deadline=None)
    @given(tree=random_static_tree(), time=st.floats(min_value=0.2, max_value=2.0))
    def test_compositional_matches_monolithic(self, tree, time):
        compositional = unreliability(tree, time)
        monolithic = monolithic_unreliability(tree, time)
        assert compositional == pytest.approx(monolithic, abs=1e-7)

    @settings(max_examples=15, deadline=None)
    @given(tree=random_static_tree())
    def test_unreliability_is_monotone_in_time(self, tree):
        query = Unreliability([0.0, 0.5, 1.0, 2.0, 4.0])
        values = evaluate(tree, query)["unreliability"].values
        assert all(later >= earlier - 1e-12 for earlier, later in zip(values, values[1:]))
        assert 0.0 <= values[0] <= 1e-12
        assert values[-1] <= 1.0 + 1e-12


class TestDynamicTrees:
    @settings(max_examples=15, deadline=None)
    @given(tree=random_dynamic_tree(), time=st.floats(min_value=0.3, max_value=1.5))
    def test_compositional_matches_monolithic(self, tree, time):
        low, high = unreliability_bounds(tree, time)
        reference = monolithic_unreliability(tree, time)
        assert low == pytest.approx(high, abs=1e-9)
        assert low == pytest.approx(reference, abs=1e-7)

    @settings(max_examples=10, deadline=None)
    @given(tree=random_dynamic_tree())
    def test_galileo_round_trip_preserves_unreliability(self, tree):
        parsed = galileo.parse(galileo.write(tree))
        assert unreliability(parsed, 1.0) == pytest.approx(
            unreliability(tree, 1.0), abs=1e-9
        )

    @settings(max_examples=10, deadline=None)
    @given(tree=random_dynamic_tree(), time=st.floats(min_value=0.3, max_value=1.5))
    def test_bounds_always_bracket_point_values(self, tree, time):
        low, high = unreliability_bounds(tree, time)
        assert 0.0 - 1e-12 <= low <= high <= 1.0 + 1e-12
