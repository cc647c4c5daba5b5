"""Stability, bi-pairwise stability, efficiency, and small-n oracles.

The production stability check is the edge scan (no addable or removable
typed edge); ``brute_force_nash`` enumerates whole strategy spaces and is
used to validate the scan on small instances rather than trusted blindly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from .dynamics import Classification, EdgeKind, ReachBalls, scan_witnesses
from .errors import CapacityError
from .model import (ALL_OTHERS, BidirectedNetwork, Mode, Params, TargetSets,
                    agent_utility, welfare)


@dataclass
class StabilityReport:
    stable: bool
    witnesses: List[Tuple[EdgeKind, int, int, Classification]]
    bi_pairwise: Optional[bool] = None
    bi_pairwise_witness: Optional[Tuple[int, int, Fraction, Fraction]] = None


@dataclass
class EfficiencyReport:
    best_welfare: Fraction
    argmax_nets: List[BidirectedNetwork]
    searched: int


@dataclass
class PoAResult:
    poa: Optional[Fraction]
    pos: Optional[Fraction]
    degenerate: bool
    best_welfare: Fraction
    worst_stable_welfare: Optional[Fraction]
    best_stable_welfare: Optional[Fraction]


def is_stable(net: BidirectedNetwork, params: Params,
              targets: TargetSets = ALL_OTHERS,
              balls: Optional[ReachBalls] = None) -> StabilityReport:
    witnesses = scan_witnesses(net, params, targets, balls)
    return StabilityReport(stable=not witnesses, witnesses=witnesses)


def all_complete(net: BidirectedNetwork) -> bool:
    """Every speaking edge (u, v) has its partner listening edge (v listens
    to u) and vice versa."""
    return (all(net.has_listening(v, u) for (u, v) in net.speaking)
            and all(net.has_speaking(u, v) for (v, u) in net.listening))


def is_bi_pairwise_stable(net: BidirectedNetwork, params: Params,
                          targets: TargetSets = ALL_OTHERS) -> StabilityReport:
    """No single removal helps its owner, and every joint addition of a
    speaking edge with its return listening edge that strictly helps the
    speaker strictly harms the listener.  The addition makes u -> v live,
    which moves only u's speaking and v's listening reach: both deltas come
    from the scan's reach balls."""
    balls = ReachBalls(net, params, targets)
    report = is_stable(net, params, targets, balls)
    if any(w[3] is Classification.REMOVABLE for w in report.witnesses):
        report.bi_pairwise = False
        return report
    directed = params.mode is Mode.DIRECTED
    # integer gains: > c_s iff >= floor(c_s) + 1, >= c_l iff >= ceil(c_l)
    speak_min, listen_min = math.floor(params.c_s) + 1, math.ceil(params.c_l)
    for u in range(net.n):
        for v in range(net.n):
            if u == v:
                continue
            add_s = (u, v) not in net.speaking
            add_l = (v, u) not in net.listening
            if not add_s and (directed or not add_l):
                continue  # the step u -> v is live already: nothing changes
            gain_u = balls.gain(u, v, True)
            if gain_u < (speak_min if add_s else 1):
                continue
            gain_v = 0 if directed else balls.gain(v, u, False)
            if gain_v < (listen_min if add_l else 0):
                continue
            report.bi_pairwise = False
            report.bi_pairwise_witness = (u, v, gain_u - params.c_s * add_s,
                                          gain_v - params.c_l * add_l)
            return report
    report.bi_pairwise = True
    return report


def set_agent_strategy(net: BidirectedNetwork, v: int,
                       speak_to: frozenset, listen_to: frozenset):
    for w in list(net._speak_out[v]):
        net.remove_speaking(v, w)
    for w in list(net._listen_out[v]):
        net.remove_listening(v, w)
    for w in speak_to:
        net.add_speaking(v, w)
    for w in listen_to:
        net.add_listening(v, w)


def brute_force_nash(net: BidirectedNetwork, params: Params,
                     targets: TargetSets = ALL_OTHERS) -> bool:
    """Literal Nash predicate: no agent has any strategy (its full set of
    outgoing speaking and listening edges) that strictly beats the current
    one.  Exponential; guarded to small n."""
    n = net.n
    limit = 6 if params.mode is Mode.BIDIRECTED else 7
    if n > limit:
        raise CapacityError(f"brute_force_nash guarded to n <= {limit} "
                            f"in {params.mode.value} mode, got n={n}")
    work = net.copy()
    for v in range(n):
        others = [w for w in range(n) if w != v]
        current = agent_utility(work, params, targets, v)
        orig_speak = frozenset(work._speak_out[v])
        orig_listen = frozenset(work._listen_out[v])
        listen_masks = range(2 ** (n - 1)) if params.mode is Mode.BIDIRECTED else (0,)
        try:
            for s_mask in range(2 ** (n - 1)):
                speak_to = frozenset(others[i] for i in range(n - 1)
                                     if s_mask >> i & 1)
                for l_mask in listen_masks:
                    listen_to = frozenset(others[i] for i in range(n - 1)
                                          if l_mask >> i & 1)
                    set_agent_strategy(work, v, speak_to, listen_to)
                    if agent_utility(work, params, targets, v) > current:
                        return False
        finally:
            set_agent_strategy(work, v, orig_speak, orig_listen)
    return True


def _ordered_pairs(n: int) -> List[Tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def net_from_mask(n: int, mask: int, mode: Mode) -> BidirectedNetwork:
    """Decode a bitmask over the ordered pairs (speaking bits first, then
    listening bits in bidirected mode) into a network."""
    pairs = _ordered_pairs(n)
    net = BidirectedNetwork(n)
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            net.add_speaking(u, v)
    if mode is Mode.BIDIRECTED:
        base = len(pairs)
        for i, (u, v) in enumerate(pairs):
            if mask >> (base + i) & 1:
                net.add_listening(u, v)
    return net


def enumeration_bits(n: int, mode: Mode) -> int:
    per = n * (n - 1)
    return 2 * per if mode is Mode.BIDIRECTED else per


def iter_all_networks(n: int, mode: Mode) -> Iterator[BidirectedNetwork]:
    bits = enumeration_bits(n, mode)
    if bits > 12:
        raise CapacityError(f"exhaustive enumeration over 2^{bits} networks "
                            f"refused (n={n}, {mode.value})")
    for mask in range(2 ** bits):
        yield net_from_mask(n, mask, mode)


def efficient_search(n: int, params: Params,
                     targets: TargetSets = ALL_OTHERS) -> EfficiencyReport:
    """Welfare maxima over all networks on n agents (exhaustive)."""
    best: Optional[Fraction] = None
    argmax: List[BidirectedNetwork] = []
    searched = 0
    for net in iter_all_networks(n, params.mode):
        searched += 1
        w = welfare(net, params, targets)
        if best is None or w > best:
            best = w
            argmax = [net]
        elif w == best:
            argmax.append(net)
    return EfficiencyReport(best_welfare=best, argmax_nets=argmax,
                            searched=searched)


def poa_pos(n: int, params: Params,
            targets: TargetSets = ALL_OTHERS) -> PoAResult:
    """Price of anarchy and stability over the full census: worst and best
    stable welfare divided by the optimum."""
    best: Optional[Fraction] = None
    worst_stable: Optional[Fraction] = None
    best_stable: Optional[Fraction] = None
    for net in iter_all_networks(n, params.mode):
        w = welfare(net, params, targets)
        if best is None or w > best:
            best = w
        if is_stable(net, params, targets).stable:
            if worst_stable is None or w < worst_stable:
                worst_stable = w
            if best_stable is None or w > best_stable:
                best_stable = w
    if best is None or best <= 0 or worst_stable is None:
        return PoAResult(poa=None, pos=None, degenerate=True,
                         best_welfare=best if best is not None else Fraction(0),
                         worst_stable_welfare=worst_stable,
                         best_stable_welfare=best_stable)
    return PoAResult(poa=Fraction(worst_stable, 1) / best,
                     pos=Fraction(best_stable, 1) / best,
                     degenerate=False, best_welfare=best,
                     worst_stable_welfare=worst_stable,
                     best_stable_welfare=best_stable)


def check_symmetric(net: BidirectedNetwork, params: Params,
                    targets: TargetSets = ALL_OTHERS) -> bool:
    """Exact equality of total utility across all agents."""
    utilities = {agent_utility(net, params, targets, v) for v in range(net.n)}
    return len(utilities) <= 1
