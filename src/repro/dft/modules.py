"""Independent modules of a dynamic fault tree.

A *module* (independent sub-tree) rooted at an element ``m`` is a set of
elements that interacts with the rest of the tree only through the output of
``m``.  Modules can be analysed separately — this is the foundation both of
the DIFTree baseline (Section 2 of the paper) and of the improved modularity
offered by the I/O-IMC framework (Section 5.2).

Functional dependencies and inhibitions couple elements without a parent/child
edge, so the member set of a module is the descendant closure *plus* every
constraint (and its trigger cone) attached to a member
(:func:`module_members`).

Two notions are provided:

* :func:`independent_modules` — every gate whose module is independent (the
  notion the compositional approach can exploit under *any* parent gate);
* :func:`diftree_modules` — the modules DIFTree can actually solve separately.
  A child module is only detached when the surrounding context is *static*: a
  dynamic gate needs the full failure distribution of its inputs, not a single
  probability value, so a dynamic top-level gate swallows its entire sub-tree
  (the very restriction the paper lifts, illustrated by the cascaded PAND
  system of Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .elements import (
    LOGIC_GATES,
    BasicEvent,
    FdepGate,
    InhibitionConstraint,
    STATIC_GATES,
    is_dynamic,
)
from .tree import DynamicFaultTree


def _constraints(tree: DynamicFaultTree):
    return list(tree.fdep_gates()) + list(tree.inhibitions())


def module_members(tree: DynamicFaultTree, root: str) -> FrozenSet[str]:
    """All elements belonging to the module rooted at ``root``.

    Starts from the descendant closure of ``root`` and repeatedly adds every
    FDEP/inhibition constraint that affects a member, together with the full
    cone of the constraint's inputs (triggers and other dependents).
    """
    return _members(tree, root, _constraints(tree))


def _members(tree: DynamicFaultTree, root: str, constraints) -> FrozenSet[str]:
    """:func:`module_members` with the tree's constraints given."""
    members: Set[str] = set(tree.descendants(root))
    changed = True
    while changed:
        changed = False
        for constraint in constraints:
            if constraint.name in members:
                continue
            if isinstance(constraint, FdepGate):
                affected = constraint.dependents
            else:
                affected = (constraint.target,)
            if any(element in members for element in affected):
                members.add(constraint.name)
                for child in constraint.inputs:
                    cone = tree.descendants(child)
                    if not cone <= members:
                        members |= cone
                changed = True
    return frozenset(members)


def _logic_parents(tree: DynamicFaultTree) -> Dict[str, Set[str]]:
    """:meth:`~repro.dft.tree.DynamicFaultTree.logic_parents` of every
    element that has one, from one pass over the tree."""
    parents: Dict[str, Set[str]] = {}
    for name in tree.names():
        element = tree.element(name)
        if isinstance(element, LOGIC_GATES):
            for child in element.inputs:
                parents.setdefault(child, set()).add(name)
    return parents


def is_independent_module(tree: DynamicFaultTree, root: str) -> bool:
    """True iff the module rooted at ``root`` only talks to the outside via ``root``.

    * every member other than the root has all its logic parents inside,
    * every constraint touching a member lies entirely inside (a trigger that
      also fails elements outside the module would couple the module to its
      environment, and vice versa).
    """
    constraints = _constraints(tree)
    members = _members(tree, root, constraints)
    return _is_independent(root, members, _logic_parents(tree), constraints)


def _is_independent(
    root: str,
    members: FrozenSet[str],
    logic_parents: Dict[str, Set[str]],
    constraints,
) -> bool:
    """:func:`is_independent_module` of ``root`` from its members, the
    tree's logic-parent index and its constraints."""
    no_parents: Set[str] = set()
    for member in members:
        if member != root and not logic_parents.get(member, no_parents) <= members:
            return False
    for constraint in constraints:
        involved = set(constraint.inputs) | {constraint.name}
        inside = involved & members
        if inside and not involved <= members | {constraint.name}:
            return False
        if constraint.name in members and not set(constraint.inputs) <= members:
            return False
        # A member acting as a trigger of a constraint whose dependents are
        # outside couples the module to the environment as well.
        if isinstance(constraint, FdepGate):
            if constraint.trigger in members and not set(constraint.dependents) <= members:
                return False
        else:
            if constraint.inhibitor in members and constraint.target not in members:
                return False
    return True


def module_is_dynamic(tree: DynamicFaultTree, root: str) -> bool:
    """A module is dynamic iff it contains a dynamic element or a constraint."""
    members = module_members(tree, root)
    return any(is_dynamic(tree.element(member)) for member in members)


def independent_modules(tree: DynamicFaultTree) -> Tuple[str, ...]:
    """All gates rooting an independent module (basic events excluded), in
    topological order."""
    return tuple(_independent_module_members(tree))


def _independent_module_members(tree: DynamicFaultTree) -> Dict[str, FrozenSet[str]]:
    """``{root: module_members(tree, root)}`` of every gate rooting an
    independent module, in topological order.

    The logic parents and the constraints of the tree are indexed once, so
    the whole tree costs one pass plus each candidate root's member set;
    :func:`independent_modules`, the aggregation plan and the design
    optimiser all read it.
    """
    constraints = _constraints(tree)
    parents = _logic_parents(tree)
    modules: Dict[str, FrozenSet[str]] = {}
    for name in tree.topological_order():
        element = tree.element(name)
        if isinstance(element, (BasicEvent, FdepGate, InhibitionConstraint)):
            continue
        members = _members(tree, name, constraints)
        if _is_independent(name, members, parents, constraints):
            modules[name] = members
    return modules


def module_subtree(tree: DynamicFaultTree, root: str) -> DynamicFaultTree:
    """A standalone fault tree containing exactly the module rooted at ``root``.

    The new tree carries the module's members (in the original insertion
    order, so canonical hashing stays stable across extractions), declares
    every parameter a member basic event references, and sets ``root`` as its
    top event.  Only meaningful for an independent module — for any other
    root the members may reference elements outside the returned tree and
    ``validate()`` will say so.
    """
    members = module_members(tree, root)
    subtree = DynamicFaultTree(name=f"{tree.name}.{root}", top=None)
    for name in tree.names():
        if name not in members:
            continue
        element = tree.element(name)
        if isinstance(element, BasicEvent):
            for param in (element.failure_rate_param, element.repair_rate_param):
                if param is not None and param not in subtree.parameters:
                    subtree.declare_parameter(param, tree.parameter(param))
        subtree.add(element)
    subtree.set_top(root)
    return subtree


@dataclass(frozen=True)
class Module:
    """A module as used by the DIFTree-style analysis."""

    root: str
    members: FrozenSet[str]
    dynamic: bool
    #: Child modules that were detached and are referenced as pseudo basic events.
    detached: Tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.members)


def diftree_modules(tree: DynamicFaultTree) -> List[Module]:
    """The modules DIFTree would solve separately.

    Starting from the top event:

    * a **static** gate whose own context (root plus non-detachable children)
      stays static may detach every child that roots an independent module;
      the detached children are solved first and replaced by constant
      probabilities;
    * a **dynamic** gate — or a static gate whose remaining context contains a
      dynamic element — swallows its entire sub-tree into a single dynamic
      module, because a Markov-chain solution cannot use constant-probability
      pseudo events.
    """
    modules: List[Module] = []
    visited: Set[str] = set()

    def contains_dynamic(members: FrozenSet[str]) -> bool:
        return any(is_dynamic(tree.element(member)) for member in members)

    def cut(root: str) -> None:
        if root in visited:
            return
        visited.add(root)
        element = tree.element(root)
        if isinstance(element, BasicEvent):
            return
        members = module_members(tree, root)

        if isinstance(element, STATIC_GATES):
            kept: Set[str] = {root}
            detachable: List[str] = []
            for child in element.inputs:
                child_element = tree.element(child)
                if not isinstance(child_element, BasicEvent) and is_independent_module(
                    tree, child
                ):
                    detachable.append(child)
                else:
                    kept |= module_members(tree, child)
            if not contains_dynamic(frozenset(kept)):
                for child in detachable:
                    cut(child)
                modules.append(
                    Module(
                        root=root,
                        members=frozenset(kept),
                        dynamic=False,
                        detached=tuple(detachable),
                    )
                )
                return
        # Dynamic context: the whole sub-tree becomes one module.
        modules.append(Module(root=root, members=members, dynamic=True))

    cut(tree.top)
    return modules
