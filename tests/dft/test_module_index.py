"""Module detection indexes the tree once.

``_independent_module_members`` builds the logic-parent index and the
constraint list of a tree once and returns ``{root: members}`` for the
independent modules in topological order; ``independent_modules``, the
aggregation plan and the design optimiser read it.  The cells below compare
it with the root-by-root loop of ``tests/module_reference.py`` on the
paper's systems and on random trees with functional dependencies, shared
spares, inhibitions and SEQ gates added.
"""

import pytest
from hypothesis import given, strategies as st

from repro.dft.elements import (
    BasicEvent,
    FdepGate,
    InhibitionConstraint,
    OrGate,
    SeqGate,
)
from repro.dft.modules import (
    _independent_module_members,
    independent_modules,
    is_independent_module,
    module_members,
)
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_system,
    fdep_gate_trigger_system,
    mutex_switch_bank,
    nested_spare_system,
    pand_race_bank,
    random_dft,
)
from tests.module_reference import (
    reference_independent_modules,
    reference_is_independent,
    reference_module_members,
)


def assert_matches_reference(tree) -> None:
    found = _independent_module_members(tree)
    assert list(found.items()) == list(reference_independent_modules(tree).items())
    assert independent_modules(tree) == tuple(found)
    for name in tree.names():
        if isinstance(tree.element(name), BasicEvent):
            continue
        assert is_independent_module(tree, name) == reference_is_independent(tree, name)
        assert module_members(tree, name) == reference_module_members(tree, name)


@st.composite
def coupled_trees(draw):
    """A random tree with constraints and a SEQ gate drawn over its elements."""
    pattern = draw(st.sampled_from([{}, {"fdep": True}, {"shared_spares": True}]))
    tree = random_dft(
        draw(st.integers(min_value=3, max_value=9)),
        seed=draw(st.integers(min_value=0, max_value=200)),
        **pattern,
    )
    leaves = sorted(
        name for name in tree.names() if isinstance(tree.element(name), BasicEvent)
    )
    gates = sorted(
        name
        for name in tree.names()
        if not isinstance(tree.element(name), (BasicEvent, FdepGate, InhibitionConstraint))
    )
    elements = st.sampled_from(leaves + gates)
    for index in range(draw(st.integers(min_value=0, max_value=2))):
        inhibitor, target = draw(st.lists(elements, min_size=2, max_size=2, unique=True))
        tree.add(InhibitionConstraint(f"Inhibit{index}", inhibitor, target))
    if draw(st.booleans()):
        trigger, dependent = draw(st.lists(elements, min_size=2, max_size=2, unique=True))
        tree.add(FdepGate("ExtraFdep", trigger, (dependent,)))
    if len(leaves) >= 2 and draw(st.booleans()):
        inputs = draw(st.lists(st.sampled_from(leaves), min_size=2, max_size=3, unique=True))
        tree.add(SeqGate("Seq", tuple(inputs)))
        tree.add(OrGate("SeqTop", (tree.top, "Seq")))
        tree.set_top("SeqTop")
    return tree


@given(tree=coupled_trees())
def test_random_trees_with_constraints_and_seq(tree):
    assert_matches_reference(tree)


@pytest.mark.parametrize(
    "build",
    [
        cardiac_assist_system,
        cascaded_pand_system,
        lambda: pand_race_bank(4),
        lambda: mutex_switch_bank(3),
        fdep_gate_trigger_system,
        nested_spare_system,
    ],
)
def test_paper_and_extension_systems(build):
    tree = build()
    assert_matches_reference(tree)
    assert _independent_module_members(tree)
