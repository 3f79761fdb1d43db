"""Aggregation planning: module-aware composition orders for the engine.

The compositional aggregation engine repeatedly picks two community members to
compose.  The seed implementation rescanned all ``O(k^2)`` pairs on every
step; this module provides the two data structures that replace that rescan:

* :class:`SharedActionIndex` — an incrementally maintained inverted index
  ``action id -> live models listening to / producing it``.  Only models that
  share a visible action can profit from being composed together (their
  synchronised signal can be hidden afterwards), so the index enumerates
  exactly the *communicating* candidate pairs instead of all pairs.

* :class:`AggregationPlan` / :func:`build_plan` — a precomputed tree of
  composition groups derived from the DFT's independent-module decomposition
  (:func:`repro.dft.modules.independent_modules`).  Every member of the
  community is assigned to the *innermost* independent module containing its
  element; modules nest, and the engine collapses the innermost groups first.
  This is the automated counterpart of the paper's per-module analysis
  (Section 5.2): each module interacts with the rest of the tree only through
  its root's firing signal, so composing a module to completion hides all of
  its internal signals and aggregates it to a tiny quotient before the module
  ever meets its context.  The cross-module residue (top gates, monitor,
  auxiliaries spanning modules) is composed last, ordered by the shared-action
  index.

The plan drives the ``ordering="modular"`` strategy of
:class:`repro.core.aggregation.CompositionalAggregator`.  Collapsing a
module group is dominated by the weak minimisation after each composition
step; that step runs the incremental signature refinement of
:mod:`repro.ioimc.bisimulation` (see ``AggregationOptions.minimiser``),
which is what keeps deep module nests cheap enough for the scalability
sweeps in ``benchmarks/bench_scalability.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..dft.modules import independent_modules, module_members
from ..ioimc.model import IOIMC


class SharedActionIndex:
    """Inverted index ``visible action id -> keys of live models``.

    Maintained incrementally by the aggregation engine: composing two models
    removes their keys and adds the composite's key, touching only the actions
    of the models involved — no global rescan.
    """

    __slots__ = ("_visible", "_by_action")

    def __init__(self) -> None:
        self._visible: Dict[int, FrozenSet[int]] = {}
        self._by_action: Dict[int, Set[int]] = {}

    def add(self, key: int, model: IOIMC) -> None:
        """Register a live model under ``key``."""
        visible = model.signature.visible_ids
        self._visible[key] = visible
        for aid in visible:
            self._by_action.setdefault(aid, set()).add(key)

    def remove(self, key: int) -> None:
        """Forget a model (it has been composed away)."""
        visible = self._visible.pop(key)
        for aid in visible:
            keys = self._by_action[aid]
            keys.discard(key)
            if not keys:
                del self._by_action[aid]

    def visible_ids(self, key: int) -> FrozenSet[int]:
        return self._visible[key]

    def shared_count(self, key_a: int, key_b: int) -> int:
        """Number of visible actions the two models share."""
        return len(self._visible[key_a] & self._visible[key_b])

    def communicating_pairs(
        self, restrict: Optional[AbstractSet[int]] = None
    ) -> Iterator[Tuple[int, int]]:
        """All unordered pairs of (restricted) live models sharing an action.

        Each pair is yielded exactly once, ``(smaller key, larger key)``.
        """
        seen: Set[Tuple[int, int]] = set()
        for keys in self._by_action.values():
            if restrict is not None:
                candidates = [key for key in keys if key in restrict]
            else:
                candidates = list(keys)
            if len(candidates) < 2:
                continue
            candidates.sort()
            for i, key_a in enumerate(candidates):
                for key_b in candidates[i + 1 :]:
                    pair = (key_a, key_b)
                    if pair not in seen:
                        seen.add(pair)
                        yield pair

    def __len__(self) -> int:
        return len(self._visible)


@dataclass
class PlanNode:
    """One composition group of an aggregation plan.

    ``root`` is the element rooting the independent module (``None`` for the
    synthetic top-level residue group); ``member_indices`` are positions into
    the community's member list composed directly at this node; ``children``
    are nested modules whose collapsed results join this group.
    """

    root: Optional[str]
    member_indices: List[int] = field(default_factory=list)
    children: List["PlanNode"] = field(default_factory=list)

    def walk(self) -> Iterator["PlanNode"]:
        """Depth-first iteration (children before the node itself)."""
        for child in self.children:
            yield from child.walk()
        yield self


@dataclass
class AggregationPlan:
    """A precomputed tree of composition groups for a community."""

    root: PlanNode
    #: Module roots in collapse order (innermost first), for diagnostics.
    module_order: Tuple[str, ...] = ()

    def describe(self) -> str:
        """Human-readable plan summary (used by tests and diagnostics)."""
        lines = []

        def visit(node: PlanNode, depth: int) -> None:
            label = node.root if node.root is not None else "<residue>"
            lines.append(
                "  " * depth
                + f"{label}: {len(node.member_indices)} member(s), "
                + f"{len(node.children)} nested module(s)"
            )
            for child in node.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)


def build_plan(community) -> AggregationPlan:
    """Derive the modular aggregation plan of a converted community.

    Every community member is assigned to the innermost independent module of
    the fault tree containing its element; modules nest according to member
    containment.  Members without an element (or outside every module) land in
    the synthetic residue group at the root.
    """
    tree = community.tree
    roots = independent_modules(tree)
    members_of = {root: module_members(tree, root) for root in roots}
    # Innermost lookup: smallest member set first (ties broken by name for
    # determinism; distinct modules of equal size are disjoint or nested).
    by_size = sorted(roots, key=lambda root: (len(members_of[root]), root))

    def innermost(element: Optional[str]) -> Optional[str]:
        if element is None:
            return None
        for root in by_size:
            if element in members_of[root]:
                return root
        return None

    def parent_module(root: str) -> Optional[str]:
        for candidate in by_size:
            if candidate != root and root in members_of[candidate]:
                return candidate
        return None

    nodes: Dict[str, PlanNode] = {root: PlanNode(root=root) for root in roots}
    residue = PlanNode(root=None)
    for root in roots:
        parent = parent_module(root)
        (nodes[parent] if parent is not None else residue).children.append(nodes[root])

    for index, member in enumerate(community.members):
        module = innermost(member.element)
        (nodes[module] if module is not None else residue).member_indices.append(index)

    # Drop module nodes that ended up empty (no members, no nested modules).
    def prune(node: PlanNode) -> None:
        kept = []
        for child in node.children:
            prune(child)
            if child.member_indices or child.children:
                kept.append(child)
        node.children = kept

    prune(residue)
    plan_root = residue
    if not residue.member_indices and len(residue.children) == 1:
        plan_root = residue.children[0]
    return AggregationPlan(
        root=plan_root,
        module_order=tuple(node.root for node in plan_root.walk() if node.root),
    )
