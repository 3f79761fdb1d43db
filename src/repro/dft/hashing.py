"""Canonical structural hashing of dynamic fault trees.

The expensive part of the compositional pipeline — conversion, composition,
bisimulation minimisation — depends only on the *structure* of a fault tree:
the DAG shape, the gate types (and their order-sensitive input lists), the
dormancy/repairability character of the basic events and the pattern of
shared rate parameters.  Concrete failure/repair rates only relabel Markovian
transitions, which the parametric-rate machinery (:mod:`repro.ioimc.rates`)
already factors out.  Two trees that differ only in element names,
declaration order or rate values therefore share every expensive artefact.

This module defines that equivalence:

* :func:`canonical_order` assigns every element a position-derived canonical
  index — names never enter the ordering, so renaming events or permuting the
  Galileo declaration order leaves the indices (and everything below) fixed;
* :func:`structural_records` flattens the tree into per-element records over
  canonical indices (gate kinds, ordered input indices, voting thresholds,
  dormancy, repairability, and the *parameter axes*: which events share a
  declared rate parameter — not the parameter names or values);
* :func:`structural_hash` digests the records into the content-address the
  skeleton store (:mod:`repro.service.store`) keys its cache with;
* :func:`canonical_parametrisation` builds the canonical representative of
  the equivalence class: a clone whose elements are renamed by canonical
  index and whose every rate is bound to a canonical per-event parameter
  (``sf<i>`` / ``sr<i>``), so the aggregated skeleton built from it is valid
  for *any* tree with the same hash;
* :func:`canonical_assignment` / :func:`canonical_parameter_map` translate a
  concrete tree (and its user-declared sweep parameters) into assignments of
  those canonical parameters.

The hash is versioned (:data:`HASH_VERSION`): any change to the record
format must bump it so stale cache entries are never served.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import FaultTreeError
from .elements import (
    AndGate,
    BasicEvent,
    CONSTRAINT_GATES,
    Element,
    FdepGate,
    InhibitionConstraint,
    OrGate,
    PandGate,
    SeqGate,
    SpareGate,
    VotingGate,
)
from .tree import DynamicFaultTree

#: Version tag mixed into every digest; bump on any record-format change.
HASH_VERSION = 1

#: Canonical per-event parameter names of :func:`canonical_parametrisation`.
CANONICAL_FAILURE_PARAM = "sf{index}"
CANONICAL_REPAIR_PARAM = "sr{index}"
#: Canonical element names of the parametrised clone.
CANONICAL_ELEMENT_NAME = "n{index}"


def canonical_rate_parameter(position: int, repair: bool = False) -> str:
    """The canonical parameter of the failure rate (with ``repair``, of the
    repair rate) of the basic event at ``position`` in the canonical order."""
    template = CANONICAL_REPAIR_PARAM if repair else CANONICAL_FAILURE_PARAM
    return template.format(index=position)


_KIND_TAGS: Tuple[Tuple[type, str], ...] = (
    (BasicEvent, "be"),
    (AndGate, "and"),
    (OrGate, "or"),
    (VotingGate, "vote"),
    (PandGate, "pand"),
    (SpareGate, "wsp"),
    (FdepGate, "fdep"),
    (SeqGate, "seq"),
    (InhibitionConstraint, "inhibit"),
)


def _kind_tag(element: Element) -> str:
    for cls, tag in _KIND_TAGS:
        if isinstance(element, cls):
            return tag
    raise FaultTreeError(
        f"cannot hash unknown element type {type(element).__name__}"
    )  # pragma: no cover - the element union is closed


def _float_token(value: float) -> str:
    """An exact, platform-independent token for a structural float (dormancy)."""
    return float(value).hex()


def _fingerprints(tree: DynamicFaultTree) -> Dict[str, str]:
    """Name-free structural fingerprint of every element's input cone.

    Computed bottom-up in topological order (which also rejects cycles and
    dangling references), so shared sub-DAGs get identical fingerprints.  The
    fingerprint deliberately ignores sharing *between* elements — canonical
    indices (assigned later) capture that — it only has to be stable under
    renames and declaration-order permutations so it can order elements that
    the top-event traversal does not reach.
    """
    prints: Dict[str, str] = {}
    for name in tree.topological_order():
        element = tree.element(name)
        parts = [_kind_tag(element)]
        if isinstance(element, BasicEvent):
            parts.append(_float_token(element.dormancy))
            parts.append("rep" if element.is_repairable else "norep")
            parts.append("fp" if element.failure_rate_param is not None else "-")
            parts.append("rp" if element.repair_rate_param is not None else "-")
        elif isinstance(element, VotingGate):
            parts.append(str(element.threshold))
        parts.extend(prints[child] for child in element.inputs)
        prints[name] = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return prints


def canonical_order(tree: DynamicFaultTree) -> Tuple[str, ...]:
    """Element names in canonical (position-derived) order.

    The order is determined purely by structure:

    1. a pre-order depth-first walk from the top event, children in input
       order (renames and declaration order cannot affect it);
    2. constraint gates (FDEP, inhibition) not reached from the top, visited
       in ascending order of a key built from already-assigned indices and
       name-free fingerprints;
    3. any remaining (disconnected) elements, in fingerprint order.

    Ties in steps 2-3 can only occur between structurally indistinguishable
    elements, for which any order yields the same records — the hash is
    well-defined either way.
    """
    prints = _fingerprints(tree)
    assigned: Dict[str, int] = {}
    order: List[str] = []

    def visit(name: str) -> None:
        stack = [name]
        while stack:
            current = stack.pop()
            if current in assigned:
                continue
            assigned[current] = len(order)
            order.append(current)
            # Reversed so the leftmost input is visited (and numbered) first.
            stack.extend(reversed(tree.element(current).inputs))

    if tree.has_top:
        visit(tree.top)

    def pending_key(name: str) -> Tuple:
        element = tree.element(name)
        children = tuple(
            (0, assigned[child]) if child in assigned else (1, prints[child])
            for child in element.inputs
        )
        return (prints[name], children)

    constraints = [
        name
        for name in tree.names()
        if isinstance(tree.element(name), CONSTRAINT_GATES) and name not in assigned
    ]
    while constraints:
        constraints.sort(key=pending_key)
        visit(constraints.pop(0))
        constraints = [name for name in constraints if name not in assigned]

    leftovers = [name for name in tree.names() if name not in assigned]
    for name in sorted(leftovers, key=lambda n: prints[n]):
        if name not in assigned:
            visit(name)
    return tuple(order)


def _parameter_axes(
    tree: DynamicFaultTree, order: Tuple[str, ...]
) -> Dict[str, int]:
    """Canonical class ids of the declared parameters, by first use in order.

    Two trees whose events share parameters in the same *pattern* get the
    same axis classes whatever the parameters are called; changing which
    events share an axis changes the classes (and hence the hash).
    """
    classes: Dict[str, int] = {}
    for name in order:
        element = tree.element(name)
        if not isinstance(element, BasicEvent):
            continue
        for param in (element.failure_rate_param, element.repair_rate_param):
            if param is not None and param not in classes:
                classes[param] = len(classes)
    return classes


def structural_records(
    tree: DynamicFaultTree, order: Optional[Tuple[str, ...]] = None
) -> Tuple[Tuple, ...]:
    """The canonical per-element records the structural hash digests.

    Each record is built from canonical indices only; concrete failure and
    repair rates never appear.  The first record carries the format version
    and the canonical index of the top event.  ``order`` accepts a
    precomputed :func:`canonical_order` so one walk can feed several
    derivations (see :func:`canonical_profile`).
    """
    if order is None:
        order = canonical_order(tree)
    index = {name: position for position, name in enumerate(order)}
    axes = _parameter_axes(tree, order)
    records: List[Tuple] = [
        ("dft-hash", HASH_VERSION, index[tree.top] if tree.has_top else -1)
    ]
    for name in order:
        element = tree.element(name)
        tag = _kind_tag(element)
        if isinstance(element, BasicEvent):
            records.append(
                (
                    tag,
                    index[name],
                    _float_token(element.dormancy),
                    element.is_repairable,
                    None
                    if element.failure_rate_param is None
                    else axes[element.failure_rate_param],
                    None
                    if element.repair_rate_param is None
                    else axes[element.repair_rate_param],
                )
            )
        elif isinstance(element, VotingGate):
            records.append(
                (
                    tag,
                    index[name],
                    element.threshold,
                    tuple(index[child] for child in element.inputs),
                )
            )
        elif isinstance(element, SpareGate):
            records.append(
                (
                    tag,
                    index[name],
                    index[element.primary],
                    tuple(index[spare] for spare in element.spares),
                )
            )
        elif isinstance(element, FdepGate):
            records.append(
                (
                    tag,
                    index[name],
                    index[element.trigger],
                    tuple(index[dependent] for dependent in element.dependents),
                )
            )
        elif isinstance(element, InhibitionConstraint):
            records.append(
                (tag, index[name], index[element.inhibitor], index[element.target])
            )
        else:
            records.append(
                (tag, index[name], tuple(index[child] for child in element.inputs))
            )
    return tuple(records)


def structural_hash(
    tree: DynamicFaultTree, order: Optional[Tuple[str, ...]] = None
) -> str:
    """The canonical structural content-address of ``tree`` (hex sha256).

    Invariant under event renaming, declaration-order permutation and any
    change of concrete failure/repair rates; sensitive to tree shape, gate
    types, order-sensitive input lists, voting thresholds, dormancy,
    repairability and the parameter-sharing axes.
    """
    digest = hashlib.sha256()
    for record in structural_records(tree, order):
        digest.update(repr(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# the canonical representative of a hash class
# ---------------------------------------------------------------------------

def _canonical_elements(
    tree: DynamicFaultTree, order: Tuple[str, ...]
) -> List[Element]:
    """The tree's elements renamed (and re-parametrised) by canonical index."""
    index = {name: position for position, name in enumerate(order)}

    def rename(name: str) -> str:
        return CANONICAL_ELEMENT_NAME.format(index=index[name])

    elements: List[Element] = []
    for name in order:
        element = tree.element(name)
        if isinstance(element, BasicEvent):
            elements.append(
                BasicEvent(
                    name=rename(name),
                    failure_rate=element.failure_rate,
                    dormancy=element.dormancy,
                    repair_rate=element.repair_rate,
                    failure_rate_param=canonical_rate_parameter(index[name]),
                    repair_rate_param=None
                    if element.repair_rate is None
                    else canonical_rate_parameter(index[name], repair=True),
                )
            )
        elif isinstance(element, AndGate):
            elements.append(
                AndGate(rename(name), tuple(rename(c) for c in element.inputs))
            )
        elif isinstance(element, OrGate):
            elements.append(
                OrGate(rename(name), tuple(rename(c) for c in element.inputs))
            )
        elif isinstance(element, VotingGate):
            elements.append(
                VotingGate(
                    rename(name),
                    tuple(rename(c) for c in element.inputs),
                    element.threshold,
                )
            )
        elif isinstance(element, PandGate):
            elements.append(
                PandGate(rename(name), tuple(rename(c) for c in element.inputs))
            )
        elif isinstance(element, SeqGate):
            elements.append(
                SeqGate(rename(name), tuple(rename(c) for c in element.inputs))
            )
        elif isinstance(element, SpareGate):
            elements.append(
                SpareGate(
                    rename(name),
                    primary=rename(element.primary),
                    spares=tuple(rename(s) for s in element.spares),
                )
            )
        elif isinstance(element, FdepGate):
            elements.append(
                FdepGate(
                    rename(name),
                    trigger=rename(element.trigger),
                    dependents=tuple(rename(d) for d in element.dependents),
                )
            )
        elif isinstance(element, InhibitionConstraint):
            elements.append(
                InhibitionConstraint(
                    rename(name),
                    inhibitor=rename(element.inhibitor),
                    target=rename(element.target),
                )
            )
        else:  # pragma: no cover - the element union is closed
            raise FaultTreeError(
                f"cannot canonicalise element type {type(element).__name__}"
            )
    return elements


def canonical_parametrisation(tree: DynamicFaultTree) -> DynamicFaultTree:
    """The canonical representative of ``tree``'s structural-hash class.

    Elements are renamed to ``n<i>`` by canonical index and *every* rate is
    bound to a canonical per-event parameter (``sf<i>`` for failure, ``sr<i>``
    for repair, declared at the source tree's nominal values).  All trees
    with the same :func:`structural_hash` map to the same clone up to the
    (structurally irrelevant) nominal values, so the aggregated skeleton of
    the clone is valid for every member of the class — the property the
    skeleton store relies on.
    """
    order = canonical_order(tree)
    index = {name: position for position, name in enumerate(order)}
    clone = DynamicFaultTree(name=f"canonical-{tree.name}")
    for name in order:
        element = tree.element(name)
        if isinstance(element, BasicEvent):
            clone.declare_parameter(
                canonical_rate_parameter(index[name]), element.failure_rate
            )
            if element.repair_rate is not None:
                clone.declare_parameter(
                    canonical_rate_parameter(index[name], repair=True),
                    element.repair_rate,
                )
    clone.add_all(_canonical_elements(tree, order))
    if tree.has_top:
        clone.set_top(CANONICAL_ELEMENT_NAME.format(index=index[tree.top]))
    return clone


def canonical_assignment(
    tree: DynamicFaultTree, order: Optional[Tuple[str, ...]] = None
) -> Dict[str, float]:
    """``tree``'s concrete rates as an assignment of the canonical parameters.

    Instantiating the cached skeleton of ``tree``'s hash class under this
    assignment reproduces the Markov model of ``tree`` itself.
    """
    if order is None:
        order = canonical_order(tree)
    assignment: Dict[str, float] = {}
    for position, name in enumerate(order):
        element = tree.element(name)
        if not isinstance(element, BasicEvent):
            continue
        assignment[canonical_rate_parameter(position)] = float(element.failure_rate)
        if element.repair_rate is not None:
            assignment[canonical_rate_parameter(position, repair=True)] = float(
                element.repair_rate
            )
    return assignment


def canonical_parameter_map(
    tree: DynamicFaultTree, order: Optional[Tuple[str, ...]] = None
) -> Dict[str, Tuple[str, ...]]:
    """User-declared parameter -> the canonical parameters it fans out to.

    A rate sweep assigning ``lam = x`` on ``tree`` is equivalent to assigning
    ``x`` to every canonical parameter in ``map['lam']`` on the cached
    skeleton (events sharing a user parameter each own a canonical one).
    """
    if order is None:
        order = canonical_order(tree)
    mapping: Dict[str, List[str]] = {name: [] for name in tree.parameters}
    for position, name in enumerate(order):
        element = tree.element(name)
        if not isinstance(element, BasicEvent):
            continue
        if element.failure_rate_param is not None:
            mapping[element.failure_rate_param].append(canonical_rate_parameter(position))
        if element.repair_rate_param is not None:
            mapping[element.repair_rate_param].append(
                canonical_rate_parameter(position, repair=True)
            )
    return {name: tuple(targets) for name, targets in mapping.items()}


class CanonicalProfile:
    """Every canonical-order derivation of one tree, from a single walk.

    ``structural_hash``, ``canonical_assignment`` and
    ``canonical_parameter_map`` each start with the same pre-order walk
    (:func:`canonical_order`); a request handler that needs two or three of
    them — the serving layer's ``/analyze`` needs the hash for the cache key
    and the assignment for evaluation — pays for the walk once here.
    """

    __slots__ = ("order", "hash", "assignment", "_tree", "_parameter_map")

    def __init__(self, tree: DynamicFaultTree):
        self.order = canonical_order(tree)
        self.hash = structural_hash(tree, self.order)
        self.assignment = canonical_assignment(tree, self.order)
        self._tree = tree
        self._parameter_map: Optional[Dict[str, Tuple[str, ...]]] = None

    @property
    def parameter_map(self) -> Dict[str, Tuple[str, ...]]:
        if self._parameter_map is None:
            self._parameter_map = canonical_parameter_map(self._tree, self.order)
        return self._parameter_map


def canonical_profile(tree: DynamicFaultTree) -> CanonicalProfile:
    """Hash + canonical assignment (+ lazy parameter map) in one tree walk."""
    return CanonicalProfile(tree)


def translate_sample(
    sample: Mapping[str, float],
    parameter_map: Optional[Mapping[str, Tuple[str, ...]]],
) -> Dict[str, float]:
    """A user sweep sample re-expressed over the canonical parameters."""
    if parameter_map is None:
        return dict(sample)
    translated: Dict[str, float] = {}
    for name, value in sample.items():
        for target in parameter_map.get(name, ()):
            translated[target] = float(value)
    return translated
