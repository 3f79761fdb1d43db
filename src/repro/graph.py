"""Graph primitives shared by the I/O-IMC and Markov-chain layers.

:func:`strongly_connected_components` is the one Tarjan pass of the
package: the tau-SCC condensation of the weak-bisimulation engines, the
vanishing-state plan of the CTMDP resolver and the bottom-SCC search of the
steady-state solver all call it.  The graphs it sees are mostly tiny (a
handful of states after every minimisation), so it is a plain-Python
iterative pass: a ``scipy.sparse.csgraph`` call costs more in conversion and
dispatch than the whole traversal.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def strongly_connected_components(
    successors: Sequence[Sequence[int]],
    roots: Optional[Iterable[int]] = None,
) -> List[List[int]]:
    """Strongly connected components of a digraph, successors first.

    ``successors[node]`` lists the targets of ``node``'s edges; nodes are
    ``0 .. len(successors) - 1``.  The search starts from ``roots`` in the
    given order (default: every node in ascending order) and covers exactly
    the nodes reachable from them.

    Components are returned in Tarjan completion order: every edge leaving a
    component points into a component listed *earlier*, so one pass over the
    list visits successors before their predecessors.  Each component lists
    its members in stack-pop order, the DFS root of the component last.  The
    pass is iterative (an explicit work stack), so deep graphs never hit
    Python's recursion limit.
    """
    num_nodes = len(successors)
    index = [-1] * num_nodes
    low = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(num_nodes) if roots is None else roots:
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        if not successors[root]:
            components.append([root])  # a sink is its own component
            continue
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(successors[root]))]
        while work:
            node, edges = work[-1]
            for target in edges:
                if index[target] == -1:
                    index[target] = low[target] = counter
                    counter += 1
                    if not successors[target]:
                        components.append([target])
                        continue
                    stack.append(target)
                    on_stack[target] = True
                    work.append((target, iter(successors[target])))
                    break
                if on_stack[target] and index[target] < low[node]:
                    low[node] = index[target]
            else:
                work.pop()
                if low[node] == index[node]:
                    component: List[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
    return components
