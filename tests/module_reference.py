"""Module detection root by root: the reference for the one-pass index.

:func:`reference_independent_modules` is the per-root loop that
:func:`repro.dft.modules.independent_modules` ran before it indexed the
tree once: every candidate gate's member set, then, for every member,
:meth:`~repro.dft.tree.DynamicFaultTree.logic_parents` (a scan over all
elements) and every constraint.  It shares no code with the production
helper, so the tests of ``tests/dft/test_module_index.py`` compare the two.
"""

from typing import Dict, FrozenSet, Set

from repro.dft.elements import BasicEvent, FdepGate, InhibitionConstraint
from repro.dft.tree import DynamicFaultTree


def _constraints(tree: DynamicFaultTree):
    return list(tree.fdep_gates()) + list(tree.inhibitions())


def reference_module_members(tree: DynamicFaultTree, root: str) -> FrozenSet[str]:
    """The descendant closure of ``root`` plus every constraint affecting a
    member and the cone of its inputs, to a fixpoint."""
    members: Set[str] = set(tree.descendants(root))
    changed = True
    while changed:
        changed = False
        for constraint in _constraints(tree):
            if constraint.name in members:
                continue
            if isinstance(constraint, FdepGate):
                affected = constraint.dependents
            else:
                affected = (constraint.target,)
            if any(element in members for element in affected):
                members.add(constraint.name)
                for child in constraint.inputs:
                    members |= tree.descendants(child)
                changed = True
    return frozenset(members)


def reference_is_independent(tree: DynamicFaultTree, root: str) -> bool:
    """Whether the module of ``root`` talks to the outside only via ``root``."""
    members = reference_module_members(tree, root)
    for member in members:
        if member == root:
            continue
        for parent in tree.logic_parents(member):
            if parent not in members:
                return False
    for constraint in _constraints(tree):
        involved = set(constraint.inputs) | {constraint.name}
        inside = involved & members
        if inside and not involved <= members | {constraint.name}:
            return False
        if constraint.name in members and not set(constraint.inputs) <= members:
            return False
        if isinstance(constraint, FdepGate):
            if constraint.trigger in members and not set(constraint.dependents) <= members:
                return False
        else:
            if constraint.inhibitor in members and constraint.target not in members:
                return False
    return True


def reference_independent_modules(tree: DynamicFaultTree) -> Dict[str, FrozenSet[str]]:
    """``{root: members}`` of every gate rooting an independent module, in
    topological order, one root at a time."""
    modules: Dict[str, FrozenSet[str]] = {}
    for name in tree.topological_order():
        if isinstance(tree.element(name), (BasicEvent, FdepGate, InhibitionConstraint)):
            continue
        if reference_is_independent(tree, name):
            modules[name] = reference_module_members(tree, name)
    return modules
