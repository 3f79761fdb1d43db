"""Property tests for the shared Tarjan helper (repro.graph).

``scipy.sparse.csgraph.connected_components(connection="strong")`` is the
independent oracle for the component partition; the helper must also list
components successors-first, the order its three callers (tau-SCC
condensation, vanishing-state resolver, bottom-SCC search) rely on.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.graph import strongly_connected_components


@st.composite
def digraphs(draw, max_nodes: int = 24):
    """Successor lists of a random digraph (self-loops and parallel edges allowed)."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    return [draw(st.lists(node, max_size=4)) for _ in range(num_nodes)]


def _edges(successors):
    return [(source, target) for source, targets in enumerate(successors) for target in targets]


def _oracle_partition(successors):
    num_nodes = len(successors)
    edges = _edges(successors)
    rows = np.array([source for source, _ in edges], dtype=np.int64)
    cols = np.array([target for _, target in edges], dtype=np.int64)
    matrix = csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(num_nodes, num_nodes))
    _count, labels = connected_components(matrix, directed=True, connection="strong")
    groups = {}
    for node, label in enumerate(labels.tolist()):
        groups.setdefault(label, set()).add(node)
    return {frozenset(group) for group in groups.values()}


def _reachable(successors, roots):
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        for target in successors[frontier.pop()]:
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_partition_matches_scipy_and_edges_point_backwards(successors):
    components = strongly_connected_components(successors)
    members = [node for component in components for node in component]
    assert sorted(members) == list(range(len(successors)))
    assert {frozenset(component) for component in components} == _oracle_partition(successors)
    position = {node: i for i, component in enumerate(components) for node in component}
    for source, target in _edges(successors):
        assert position[target] <= position[source]


@settings(max_examples=200, deadline=None)
@given(digraphs(), st.data())
def test_roots_cover_exactly_their_reachable_nodes(successors, data):
    node = st.integers(min_value=0, max_value=len(successors) - 1)
    roots = data.draw(st.lists(node, max_size=3))
    components = strongly_connected_components(successors, roots=roots)
    covered = [node for component in components for node in component]
    assert len(covered) == len(set(covered))
    assert set(covered) == _reachable(successors, roots)
    # Restricting the search never splits or merges a component.
    full = {frozenset(component) for component in strongly_connected_components(successors)}
    assert {frozenset(component) for component in components} <= full


def test_deep_chain_and_cycle_need_no_recursion():
    size = 50_000
    chain = [[node + 1] for node in range(size - 1)] + [[]]
    components = strongly_connected_components(chain)
    assert components == [[node] for node in reversed(range(size))]
    cycle = [[(node + 1) % size] for node in range(size)]
    (component,) = strongly_connected_components(cycle)
    assert sorted(component) == list(range(size))
    assert component[-1] == 0  # the DFS root closes its component
