"""Deterministic constructors for the named networks plus seeded random nets.

Directed constructions emit speaking edges only; their ``lifted`` (or
``bidirected``) variants are ``lift`` of them, which adds the reverse
listening edge of every speaking edge so every step is live in the
bidirected model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .dynamics import seeded_rng
from .model import BidirectedNetwork


@dataclass(frozen=True)
class FlowerSpec:
    n: int
    k: int
    petal_len: int
    q: int
    center: int = 0


def empty(n: int) -> BidirectedNetwork:
    return BidirectedNetwork(n)


def lift(net: BidirectedNetwork) -> BidirectedNetwork:
    """Bidirected replacement of a directed construction: every speaking edge
    (u, v) gets its partner listening edge (v listens to u)."""
    speaking = net.speaking
    return BidirectedNetwork(net.n, speaking,
                             net.listening | {(v, u) for u, v in speaking})


def cycle(n: int, lifted: bool = True) -> BidirectedNetwork:
    if n < 2:
        raise ValueError("cycle needs n >= 2")
    net = BidirectedNetwork(n, [(i, (i + 1) % n) for i in range(n)])
    return lift(net) if lifted else net


def complete_net(n: int, bidirected: bool = True) -> BidirectedNetwork:
    net = BidirectedNetwork(n, [(u, v) for u in range(n) for v in range(n)
                                if u != v])
    return lift(net) if bidirected else net


def _flower_from_petals(n: int, petals: List[List[int]]) -> BidirectedNetwork:
    net = BidirectedNetwork(n)
    for petal in petals:
        prev = 0
        for node in petal:
            net.add_speaking(prev, node)
            prev = node
        net.add_speaking(prev, 0)
    return net


def _petal_partition(n: int, k: int) -> Tuple[int, List[List[int]], List[int]]:
    p = k // 2
    nodes = list(range(1, n))
    petals = []
    while len(nodes) >= p:
        petals.append(nodes[:p])
        nodes = nodes[p:]
    return p, petals, nodes


def balanced_flower(n: int, k: int) -> Tuple[BidirectedNetwork, FlowerSpec]:
    """Petal cycles of floor(k/2) non-center nodes through a shared center;
    a nonzero remainder is topped up to floor(k/2) - 1 nodes by stealing the
    tail node of each of the earliest petals."""
    if not (4 <= k and k * k <= 4 * n and n >= 3):
        raise ValueError(f"balanced flower needs 4 <= k <= 2*sqrt(n), n >= 3; "
                         f"got n={n}, k={k}")
    p, petals, rest = _petal_partition(n, k)
    if rest:
        needed = (p - 1) - len(rest)
        if needed > len(petals):
            raise ValueError(f"cannot balance flower for n={n}, k={k}")
        for i in range(needed):
            rest.append(petals[i].pop())
        petals.append(rest)
    q = len(petals)
    assert q == -((n - 1) // -p)  # ceil((n-1)/p)
    return _flower_from_petals(n, petals), FlowerSpec(n=n, k=k, petal_len=p, q=q)


def unbalanced_flower(n: int, k: int) -> BidirectedNetwork:
    """Same construction without the balancing steal: the last petal keeps
    its remainder size."""
    if k < 4 or n < 3:
        raise ValueError(f"unbalanced flower needs k >= 4 and n >= 3; "
                         f"got n={n}, k={k}")
    _, petals, rest = _petal_partition(n, k)
    if rest:
        petals.append(rest)
    return _flower_from_petals(n, petals)


def kautz_labels(d: int, D: int) -> List[Tuple[int, ...]]:
    labels = [(c,) for c in range(d + 1)]
    for _ in range(D - 1):
        labels = [lab + (c,) for lab in labels for c in range(d + 1)
                  if c != lab[-1]]
    return sorted(labels)


def kautz_order(d: int, D: int) -> int:
    """Vertex count of ``kautz(d, D)``, known before any label is built."""
    if d < 2 or D < 2:
        raise ValueError("kautz needs d >= 2 and D >= 2")
    return (d + 1) * d ** (D - 1)


def kautz(d: int, D: int, lifted: bool = False) -> BidirectedNetwork:
    """Shift-register graph on length-D no-repeat strings over {0..d}:
    (d+1)*d^(D-1) vertices, uniform out-degree d, measured diameter D."""
    n = kautz_order(d, D)
    labels = kautz_labels(d, D)
    index = {lab: i for i, lab in enumerate(labels)}
    net = BidirectedNetwork(n)
    for lab in labels:
        for y in range(d + 1):
            if y != lab[-1]:
                net.add_speaking(index[lab], index[lab[1:] + (y,)])
    return lift(net) if lifted else net


def random_net(n: int, p_s: float, p_l: float, seed: int) -> BidirectedNetwork:
    """Each speaking, then each listening, edge present with probability
    p_s or p_l, drawn from ``seeded_rng(seed)``."""
    if not (0 <= p_s <= 1 and 0 <= p_l <= 1):
        raise ValueError("probabilities must be in [0, 1]")
    rng = seeded_rng(seed)
    net = BidirectedNetwork(n)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p_s:
                net.add_speaking(u, v)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p_l:
                net.add_listening(u, v)
    return net
