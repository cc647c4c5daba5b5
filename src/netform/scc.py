"""Strongly connected components (iterative Tarjan) and condensation."""

from __future__ import annotations

from typing import Callable, List, Sequence, Set, Tuple


def strongly_connected_components(n: int, successors: Callable[[int], Sequence[int]]
                                  ) -> List[List[int]]:
    """SCCs of the graph on vertices 0..n-1, each sorted, ordered by minimum
    vertex.  Iterative so deep chains do not hit the recursion limit."""
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(sorted(successors(root))))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(successors(w)))))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def condensation(n: int, successors: Callable[[int], Sequence[int]]
                 ) -> Tuple[List[List[int]], List[int], Set[Tuple[int, int]]]:
    """Returns (components, comp_of, dag_edges) where dag_edges are the
    deduplicated component-level edges."""
    comps = strongly_connected_components(n, successors)
    comp_of = [0] * n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    dag_edges: Set[Tuple[int, int]] = set()
    for v in range(n):
        for w in successors(v):
            if comp_of[v] != comp_of[w]:
                dag_edges.add((comp_of[v], comp_of[w]))
    return comps, comp_of, dag_edges


def topological_order(num: int, dag_edges: Set[Tuple[int, int]]) -> List[int]:
    """Kahn topological order of the graph on 0..num-1.  It is shorter than
    ``num`` exactly when the graph has a cycle."""
    out = [[] for _ in range(num)]
    indeg = [0] * num
    for a, b in dag_edges:
        out[a].append(b)
        indeg[b] += 1
    order = [i for i in range(num) if indeg[i] == 0]
    for i in order:
        for j in out[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    return order


def dag_reachability(num: int, dag_edges: Set[Tuple[int, int]]) -> List[Set[int]]:
    """For each component index, the set of component indices reachable from
    it, including itself."""
    out = [[] for _ in range(num)]
    for a, b in dag_edges:
        out[a].append(b)
    reach: List[Set[int]] = [set() for _ in range(num)]
    # the condensation is acyclic by construction: the order covers every index
    for i in reversed(topological_order(num, dag_edges)):
        acc = {i}
        for j in out[i]:
            acc |= reach[j]
        reach[i] = acc
    return reach
