"""Structural metrics on the live rows: diameter, SCC sizes, clustering,
reciprocity, degree histograms and polarization."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .model import (ALL_OTHERS, BidirectedNetwork, INF, Mode, Params,
                    TargetSets, _bfs, _transpose, ascending)
from .scc import condensation


def _live_rows(net: BidirectedNetwork, mode: Mode):
    """The live out-rows and the rows of the undirected projection, where
    u and v are adjacent when a step between them is live either way."""
    live = [net.successors(v, mode) for v in range(net.n)]
    return live, [row | back for row, back in zip(live, _transpose(live))]


def diameter(net: BidirectedNetwork, mode: Mode):
    """Longest shortest live path between distinct vertices; INF when not
    strongly connected.  It is the least k whose k-ball from every vertex
    holds all the others, found by bisection over reach searches."""
    everyone = (1 << net.n) - 1

    def covers(k) -> bool:
        return all(_bfs(net, k, s, True, mode)[0] == everyone
                   for s in range(net.n))

    if not covers(INF):
        return INF
    lo, hi = min(1, net.n - 1), net.n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if covers(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass
class StructureMetrics:
    clustering: Fraction
    scc_sizes: Dict[int, int]  # component size -> count
    reciprocity: Fraction
    out_speak_hist: Dict[int, int]
    in_speak_hist: Dict[int, int]
    out_listen_hist: Dict[int, int]
    in_listen_hist: Dict[int, int]
    polarization: Optional[Fraction]


def _transitivity(adj: List[int]) -> Fraction:
    """Closed wedges over wedges of an undirected graph given as rows; the
    sum of |adj[a] & adj[v]| over v's neighbours a finds each closed wedge
    a-v-b at v from both ends."""
    wedges = sum(d * (d - 1) // 2 for d in map(int.bit_count, adj))
    closed = sum((adj[a] & row).bit_count()
                 for row in adj for a in ascending(row)) // 2
    return Fraction(closed, wedges) if wedges else Fraction(0)


def _groups_from_targets(net: BidirectedNetwork, targets: TargetSets
                         ) -> Optional[List[frozenset]]:
    if not targets.speak:
        return None
    groups = []
    for v in range(net.n):
        tset = targets.speak.get(v)
        groups.append(None if tset is None else frozenset(tset) | {v})
    return groups


def metrics(net: BidirectedNetwork, params: Params,
            targets: TargetSets = ALL_OTHERS) -> StructureMetrics:
    mode = params.mode
    live, adj = _live_rows(net, mode)
    comps, _ = condensation([_bfs(net, INF, v, True, mode)[0]
                             for v in range(net.n)])
    speak = [net.successors(v, Mode.DIRECTED) for v in range(net.n)]
    said = sum(map(int.bit_count, speak))
    mutual = sum((row & back).bit_count()  # u speaks to v and v to u
                 for row, back in zip(speak, _transpose(speak)))
    groups = _groups_from_targets(net, targets)
    steps = sum(map(int.bit_count, live))
    polarization = None
    if groups is not None and steps:
        crossing = sum(groups[u] != groups[v]
                       for u, row in enumerate(live) for v in ascending(row))
        polarization = Fraction(crossing, steps)
    return StructureMetrics(
        clustering=_transitivity(adj),
        scc_sizes=Counter(c.bit_count() for c in comps),
        reciprocity=Fraction(mutual, said) if said else Fraction(0),
        out_speak_hist=Counter(net.out_speak(v) for v in range(net.n)),
        in_speak_hist=Counter(net.in_speak(v) for v in range(net.n)),
        out_listen_hist=Counter(net.out_listen(v) for v in range(net.n)),
        in_listen_hist=Counter(net.in_listen(v) for v in range(net.n)),
        polarization=polarization,
    )
