"""Structural metrics on the live-pair graph and stable-structure search."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .dynamics import run
from .generators import random_net
from .model import (ALL_OTHERS, BidirectedNetwork, INF, Mode, Params,
                    TargetSets, _bfs)
from .scc import condensation


def live_pairs(net: BidirectedNetwork, mode: Mode) -> List[Tuple[int, int]]:
    return sorted((u, v) for u in range(net.n)
                  for v in net.successors(u, mode))


def undirected_projection(net: BidirectedNetwork, mode: Mode) -> List[set]:
    """Adjacency of the simple undirected graph whose edges are unordered
    pairs live in at least one direction."""
    adj = [set() for _ in range(net.n)]
    for u, v in live_pairs(net, mode):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def diameter(net: BidirectedNetwork, mode: Mode):
    """Longest shortest live path between distinct vertices; INF when not
    strongly connected.  It is the least k whose k-ball from every vertex
    holds all the others, found by bisection over reach searches."""
    everyone = (1 << net.n) - 1

    def covers(k) -> bool:
        return all(_bfs(net, k, s, True, mode)[0] | 1 << s == everyone
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


def _hist(values) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


def clustering_coefficient(net: BidirectedNetwork, mode: Mode) -> Fraction:
    """Global clustering (transitivity) of the undirected live projection."""
    adj = undirected_projection(net, mode)
    closed = 0
    wedges = 0
    for v in range(net.n):
        deg = len(adj[v])
        wedges += deg * (deg - 1) // 2
        for a in adj[v]:
            for b in adj[v]:
                if a < b and b in adj[a]:
                    closed += 1
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
    pairs = live_pairs(net, mode)
    comps, _ = condensation([_bfs(net, INF, v, True, mode)[0] | 1 << v
                             for v in range(net.n)])
    speaking = net.speaking
    reciprocity = (Fraction(sum((v, u) in speaking for (u, v) in speaking),
                            len(speaking)) if speaking else Fraction(0))
    groups = _groups_from_targets(net, targets)
    polarization = None
    if groups is not None and pairs:
        crossing = sum(1 for (u, v) in pairs if groups[u] != groups[v])
        polarization = Fraction(crossing, len(pairs))
    return StructureMetrics(
        clustering=clustering_coefficient(net, mode),
        scc_sizes=_hist(c.bit_count() for c in comps),
        reciprocity=reciprocity,
        out_speak_hist=_hist(net.out_speak(v) for v in range(net.n)),
        in_speak_hist=_hist(net.in_speak(v) for v in range(net.n)),
        out_listen_hist=_hist(net.out_listen(v) for v in range(net.n)),
        in_listen_hist=_hist(net.in_listen(v) for v in range(net.n)),
        polarization=polarization,
    )


def has_open_and_closed_triangle(net: BidirectedNetwork, mode: Mode) -> bool:
    """Some wedge of the live projection is closed and some is open."""
    return 0 < clustering_coefficient(net, mode) < 1


def start_density(rng: random.Random) -> float:
    """One of the densities 0.15, 0.3 and 0.5, drawn as ``dynamics.step``
    draws: 2 bits until the value is below 3.  ``rng.choice`` of the three
    draws the same, but through CPython's private ``_randbelow``."""
    r = rng.getrandbits(2)
    while r >= 3:
        r = rng.getrandbits(2)
    return (0.15, 0.3, 0.5)[r]


def structure_search(params: Params, budget: int,
                     targets: TargetSets = ALL_OTHERS,
                     ns: Sequence[int] = (4, 5, 6, 7, 8),
                     seed: int = 0,
                     max_steps_per_run: int = 4000
                     ) -> Optional[BidirectedNetwork]:
    """Random-restart search over dynamics fixed points for a STABLE network
    with both an open and a closed triangle.  The budget counts network states
    examined (every dynamics step plus every start); returns the first hit
    or None once the budget is exhausted."""
    rng = random.Random(seed)
    spent = 0
    attempt = 0
    while spent < budget:
        n = ns[attempt % len(ns)]
        attempt += 1
        p = start_density(rng)
        start = random_net(n, p, p if params.mode is Mode.BIDIRECTED else 0,
                           rng.getrandbits(63))
        spent += 1
        trace = run(start, params, targets,
                    seed=rng.getrandbits(63),
                    max_steps=min(max_steps_per_run, max(1, budget - spent)))
        spent += trace.steps_sampled
        if trace.converged and has_open_and_closed_triangle(trace.final,
                                                            params.mode):
            return trace.final
    return None
