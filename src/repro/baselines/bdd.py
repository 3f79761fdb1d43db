"""A small reduced ordered binary decision diagram (ROBDD) engine.

DIFTree (the baseline methodology of the paper, Section 2) solves *static*
modules of a fault tree with binary decision diagrams: the module's structure
function is built bottom-up with the ITE (if-then-else) operator and the
failure probability is evaluated by a Shannon expansion over the diagram.

The implementation is deliberately compact but complete: hash-consed nodes,
memoised ITE, restriction, satisfying-probability evaluation and minimal cut
sets (useful for diagnostics and for testing the static analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import AnalysisError


@dataclass(frozen=True)
class BDDNode:
    """A node of the shared BDD forest.

    ``variable`` is the index of the decision variable (smaller = closer to the
    root); terminal nodes use ``variable = None`` and ``value`` 0/1.
    """

    variable: Optional[int]
    low: Optional["BDDNode"]
    high: Optional["BDDNode"]
    value: Optional[int] = None

    @property
    def is_terminal(self) -> bool:
        return self.variable is None


class BDDManager:
    """Hash-consing manager for ROBDDs over a fixed variable ordering."""

    def __init__(self, variables: Sequence[str]):
        if len(set(variables)) != len(variables):
            raise AnalysisError("BDD variable names must be unique")
        self._order: Tuple[str, ...] = tuple(variables)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self._order)}
        self._unique: Dict[Tuple[int, int, int], BDDNode] = {}
        self._ite_cache: Dict[Tuple[int, int, int], BDDNode] = {}
        self.zero = BDDNode(variable=None, low=None, high=None, value=0)
        self.one = BDDNode(variable=None, low=None, high=None, value=1)

    # ------------------------------------------------------------------ nodes
    def variable_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AnalysisError(f"unknown BDD variable {name!r}") from None

    def var(self, name: str) -> BDDNode:
        """The BDD of the single variable ``name``."""
        return self._make(self.variable_index(name), self.zero, self.one)

    def _make(self, variable: int, low: BDDNode, high: BDDNode) -> BDDNode:
        if low is high:
            return low
        key = (variable, id(low), id(high))
        node = self._unique.get(key)
        if node is None:
            node = BDDNode(variable=variable, low=low, high=high)
            self._unique[key] = node
        return node

    # ------------------------------------------------------------------- ITE
    def ite(self, condition: BDDNode, then: BDDNode, otherwise: BDDNode) -> BDDNode:
        """If-then-else: the core BDD operation."""
        if condition is self.one:
            return then
        if condition is self.zero:
            return otherwise
        if then is otherwise:
            return then
        if then is self.one and otherwise is self.zero:
            return condition
        key = (id(condition), id(then), id(otherwise))
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        top = min(
            node.variable
            for node in (condition, then, otherwise)
            if not node.is_terminal
        )
        low = self.ite(
            self._cofactor(condition, top, False),
            self._cofactor(then, top, False),
            self._cofactor(otherwise, top, False),
        )
        high = self.ite(
            self._cofactor(condition, top, True),
            self._cofactor(then, top, True),
            self._cofactor(otherwise, top, True),
        )
        result = self._make(top, low, high)
        self._ite_cache[key] = result
        return result

    @staticmethod
    def _cofactor(node: BDDNode, variable: int, value: bool) -> BDDNode:
        if node.is_terminal or node.variable != variable:
            return node
        return node.high if value else node.low

    # ------------------------------------------------------------ connectives
    def apply_not(self, node: BDDNode) -> BDDNode:
        return self.ite(node, self.zero, self.one)

    def apply_and(self, left: BDDNode, right: BDDNode) -> BDDNode:
        return self.ite(left, right, self.zero)

    def apply_or(self, left: BDDNode, right: BDDNode) -> BDDNode:
        return self.ite(left, self.one, right)

    def conjoin(self, nodes: Iterable[BDDNode]) -> BDDNode:
        result = self.one
        for node in nodes:
            result = self.apply_and(result, node)
        return result

    def disjoin(self, nodes: Iterable[BDDNode]) -> BDDNode:
        result = self.zero
        for node in nodes:
            result = self.apply_or(result, node)
        return result

    def at_least(self, threshold: int, nodes: Sequence[BDDNode]) -> BDDNode:
        """BDD of "at least ``threshold`` of ``nodes`` are true" (K/M gate)."""
        if threshold <= 0:
            return self.one
        if threshold > len(nodes):
            return self.zero
        if not nodes:
            return self.zero
        head, tail = nodes[0], nodes[1:]
        with_head = self.at_least(threshold - 1, tail)
        without_head = self.at_least(threshold, tail)
        return self.ite(head, with_head, without_head)

    # -------------------------------------------------------------- analysis
    def probability(self, node: BDDNode, var_probabilities: Mapping[str, float]) -> float:
        """Probability of the function being true under independent variables."""
        cache: Dict[int, float] = {}

        def walk(current: BDDNode) -> float:
            if current.is_terminal:
                return float(current.value)
            key = id(current)
            if key in cache:
                return cache[key]
            name = self._order[current.variable]
            if name not in var_probabilities:
                raise AnalysisError(f"no probability given for BDD variable {name!r}")
            p = var_probabilities[name]
            if not 0.0 <= p <= 1.0:
                raise AnalysisError(f"probability of {name!r} must lie in [0, 1], got {p}")
            value = p * walk(current.high) + (1.0 - p) * walk(current.low)
            cache[key] = value
            return value

        return walk(node)

    def node_count(self, node: BDDNode) -> int:
        """Number of distinct internal nodes reachable from ``node``."""
        seen: set = set()

        def walk(current: BDDNode) -> None:
            if current.is_terminal or id(current) in seen:
                return
            seen.add(id(current))
            walk(current.low)
            walk(current.high)

        walk(node)
        return len(seen)

    def minimal_cut_sets(self, node: BDDNode) -> List[FrozenSet[str]]:
        """Minimal sets of true variables that make the function true.

        Computed from the prime paths of the BDD; intended for small static
        modules (diagnostics and testing), not industrial-size trees.
        """
        paths: List[FrozenSet[str]] = []

        def walk(current: BDDNode, chosen: FrozenSet[str]) -> None:
            if current is self.one:
                paths.append(chosen)
                return
            if current is self.zero:
                return
            name = self._order[current.variable]
            walk(current.high, chosen | {name})
            walk(current.low, chosen)

        walk(node, frozenset())
        minimal = []
        for candidate in sorted(paths, key=len):
            if not any(existing <= candidate for existing in minimal):
                minimal.append(candidate)
        return minimal
