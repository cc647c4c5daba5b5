"""Strongly connected components from closed reach.

With ``R(v)`` the closed reach of v, its ball (v included), two vertices
share a component exactly when ``R(u) == R(w)``: each reaches the other
iff each reach holds the other, and then the reaches coincide.  The rule
needs reach to be transitive, i.e. taken with an unbounded horizon
(k = inf); a bounded ball is not a closure and groups the wrong vertices.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def condensation(reach: Sequence[int]) -> Tuple[List[int], List[int]]:
    """``(components, comp_of)`` of the graph whose vertex v has the closed
    reach bitset ``reach[v]``: the components as vertex bitsets, numbered by
    lowest vertex, and the component index of every vertex."""
    index: Dict[int, int] = {}
    components: List[int] = []
    comp_of: List[int] = []
    for v, closed in enumerate(reach):
        i = index.setdefault(closed, len(components))
        if i == len(components):
            components.append(0)
        components[i] |= 1 << v
        comp_of.append(i)
    return components, comp_of
