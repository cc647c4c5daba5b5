"""Stability, bi-pairwise stability, census classes and the Nash oracle.

The production stability check is the edge scan (no addable or removable
typed edge); ``brute_force_nash`` enumerates whole strategy spaces and is
used to validate the scan on small instances rather than trusted blindly.
``classes`` indexes the networks on n agents by relabelling class, one
index for every (k, cost) row of the ``netform census`` CSV, whose folds
give efficiency, PoA and PoS at small n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .dynamics import EdgeKind, MoveKind, ReachBalls, scan_witnesses
from .errors import CapacityError
from .model import (ALL_OTHERS, BidirectedNetwork, Mode, Params, TargetSets,
                    agent_utility, ascending)


@dataclass
class StabilityReport:
    stable: bool
    witnesses: List[Tuple[EdgeKind, int, int, MoveKind]]
    bi_pairwise: Optional[bool] = None
    bi_pairwise_witness: Optional[Tuple[int, int, Fraction, Fraction]] = None


def is_stable(net: BidirectedNetwork, params: Params,
              targets: TargetSets = ALL_OTHERS) -> StabilityReport:
    witnesses = scan_witnesses(net, params, targets)
    return StabilityReport(stable=not witnesses, witnesses=witnesses)


def is_bi_pairwise_stable(net: BidirectedNetwork, params: Params,
                          targets: TargetSets = ALL_OTHERS) -> StabilityReport:
    """``bi_pairwise`` from fresh reach balls of ``net``."""
    return bi_pairwise(ReachBalls(net, params, targets))


def bi_pairwise(balls: ReachBalls) -> StabilityReport:
    """No single removal helps its owner, and every joint addition of a
    speaking edge with its return listening edge that strictly helps the
    speaker strictly harms the listener.  The addition makes u -> v live,
    which moves only u's speaking and v's listening reach: both deltas come
    from the scan's reach balls."""
    net, params = balls.net, balls.params
    witnesses = list(balls.witnesses())
    report = StabilityReport(stable=not witnesses, witnesses=witnesses)
    if any(not w[3].add for w in report.witnesses):
        report.bi_pairwise = False
        return report
    directed = params.mode is Mode.DIRECTED
    # the edge rule's integer thresholds: a gain is > c_s iff it is at least
    # floor(c_s) + 1, and >= c_l iff it is above ceil(c_l) - 1
    (_, listen_max), (speak_min, _) = balls.rules
    full = (1 << net.n) - 1
    for u in range(net.n):
        # the steps u -> v not live yet: a live one changes nothing
        for v in ascending(full & ~(1 << u) & ~net.successors(u, params.mode)):
            add_s = not net.has_speaking(u, v)
            add_l = not net.has_listening(v, u)
            gain_u = balls.gain(u, v, True)
            if gain_u < (speak_min if add_s else 1):
                continue
            gain_v = 0 if directed else balls.gain(v, u, False)
            if add_l and gain_v <= listen_max:
                continue
            report.bi_pairwise = False
            report.bi_pairwise_witness = (u, v, gain_u - params.c_s * add_s,
                                          gain_v - params.c_l * add_l)
            return report
    report.bi_pairwise = True
    return report


def brute_force_nash(net: BidirectedNetwork, params: Params,
                     targets: TargetSets = ALL_OTHERS) -> bool:
    """Literal Nash predicate: no agent has any strategy (its full set of
    outgoing speaking and listening edges) that strictly beats the current
    one.  Each agent walks its strategies on its own copy in reflected Gray
    code order from the current one, so step i flips one edge: the one at
    the index of i's lowest set bit.  Directed utility reads neither
    listening edges nor their cost, so there only speaking edges are walked.
    Exponential; guarded to small n."""
    n = net.n
    directed = params.mode is Mode.DIRECTED
    limit = 7 if directed else 6
    if n > limit:
        raise CapacityError(f"brute_force_nash guarded to n <= {limit} "
                            f"in {params.mode.value} mode, got n={n}")
    for v in range(n):
        work = net.copy()
        current = agent_utility(work, params, targets, v)
        kinds = [(work.has_speaking, work.add_speaking, work.remove_speaking)]
        if not directed:
            kinds.append((work.has_listening, work.add_listening,
                          work.remove_listening))
        edges = [(kind, w) for kind in kinds for w in range(n) if w != v]
        for i in range(1, 2 ** len(edges)):
            (has, add, remove), w = edges[(i & -i).bit_length() - 1]
            (remove if has(v, w) else add)(v, w)
            if agent_utility(work, params, targets, v) > current:
                return False
    return True


def net_from_mask(n: int, mask: int, mode: Mode) -> BidirectedNetwork:
    """Decode a bitmask over the ordered pairs (speaking bits first, then
    listening bits in bidirected mode) into a network.  The pairs (u, v) run
    in lexicographic order, so agent u's n - 1 bits of each half are one
    chunk: its out-row with its own bit left out."""
    width = n - 1
    rows = []
    for i in range(2 * n if mode is Mode.BIDIRECTED else n):
        chunk = (mask >> i * width) & ((1 << width) - 1)
        below = (1 << i % n) - 1  # heads below the owner keep their bit
        rows.append((chunk & below) | (chunk & ~below) << 1)
    return BidirectedNetwork.from_out_rows(rows[:n], rows[n:] or [0] * n)


def enumeration_bits(n: int, mode: Mode) -> int:
    """The census's mask width, refused over 12 bits before any 2^bits."""
    bits = n * (n - 1) * (2 if mode is Mode.BIDIRECTED else 1)
    if bits > 12:
        raise CapacityError(f"exhaustive enumeration over 2^{bits} networks "
                            f"refused (n={n}, {mode.value})")
    return bits


def _relabelings(n: int, mode: Mode, targets: TargetSets) -> List[list]:
    """Per-byte image tables of each agent permutation s that maps every
    agent's targets onto its image's targets, in each direction the mode
    reads: all n! under ``ALL_OTHERS``.  Mask bit (a, b) of either half,
    owner a and other end b, goes to (s[a], s[b]) of the same half, so a
    mask's image is the sum of its bytes' table entries."""
    directions = (True,) if mode is Mode.DIRECTED else (True, False)
    masks = [[targets.mask(v, f, n) for v in range(n)] for f in directions]
    width, out = n - 1, []
    for s in itertools.permutations(range(n)):
        if any(m[s[v]] != sum(1 << s[w] for w in range(n) if m[v] >> w & 1)
               for m in masks for v in range(n)):
            continue
        image = []
        for i in range(len(directions) * n):  # chunk i: half i // n, owner a
            a = i % n
            image += [1 << (i - a + s[a]) * width + s[b] - (s[b] > s[a])
                      for b in range(n) if b != a]
        tables = []
        for low in range(0, len(image), 8):
            t = [0]  # t[x]: t[x & (x - 1)] plus the image of x's lowest bit
            for x in range(1, 1 << min(8, len(image) - low)):
                t.append(t[x & (x - 1)]
                         | image[low + (x & -x).bit_length() - 1])
            tables.append(t)
        out.append(tables)
    return out


def classes(n: int, mode: Mode, targets: TargetSets = ALL_OTHERS
            ) -> Tuple[List[int], List[int]]:
    """The relabelling classes of the networks on n agents as ``(least,
    class_of)``: each class's least mask, in ascending order, and the index
    in ``least`` of every mask's class.  A relabelling keeps the targets, so
    each agent's utility moves with it and welfare, stability, bi-pairwise
    stability, completeness and symmetry hold one value per class."""
    class_of = [None] * 2 ** enumeration_bits(n, mode)
    relabelings = _relabelings(n, mode, targets)
    least = []
    for mask in range(len(class_of)):
        if class_of[mask] is None:  # the least mask of a new class
            c = len(least)  # one int object for the whole class
            least.append(mask)
            for tables in relabelings:
                class_of[sum(t[mask >> 8 * i & 255]
                             for i, t in enumerate(tables))] = c
    return least, class_of


def check_symmetric(net: BidirectedNetwork, params: Params,
                    targets: TargetSets = ALL_OTHERS) -> bool:
    """Exact equality of total utility across all agents."""
    utilities = {agent_utility(net, params, targets, v) for v in range(net.n)}
    return len(utilities) <= 1
