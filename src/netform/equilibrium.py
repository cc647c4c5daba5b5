"""Stability, bi-pairwise stability, efficiency, and small-n oracles.

The production stability check is the edge scan (no addable or removable
typed edge); ``brute_force_nash`` enumerates whole strategy spaces and is
used to validate the scan on small instances rather than trusted blindly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from .dynamics import Classification, EdgeKind, ReachBalls, scan_witnesses
from .errors import CapacityError
from .model import (ALL_OTHERS, BidirectedNetwork, Mode, Params, TargetSets,
                    agent_utility, all_complete)


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


@dataclass
class PoAResult:
    poa: Optional[Fraction]
    pos: Optional[Fraction]
    degenerate: bool
    best_welfare: Fraction
    worst_stable_welfare: Optional[Fraction]
    best_stable_welfare: Optional[Fraction]


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
    if any(w[3] is Classification.REMOVABLE for w in report.witnesses):
        report.bi_pairwise = False
        return report
    directed = params.mode is Mode.DIRECTED
    # the edge rule's integer thresholds: a gain is > c_s iff it is at least
    # floor(c_s) + 1, and >= c_l iff it is above ceil(c_l) - 1
    (_, listen_max), (speak_min, _) = balls.rules
    for u in range(net.n):
        for v in range(net.n):
            if u == v:
                continue
            add_s = not net.has_speaking(u, v)
            add_l = not net.has_listening(v, u)
            if not add_s and (directed or not add_l):
                continue  # the step u -> v is live already: nothing changes
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
    per = n * (n - 1)
    return 2 * per if mode is Mode.BIDIRECTED else per


def iter_all_networks(n: int, mode: Mode) -> Iterator[BidirectedNetwork]:
    bits = enumeration_bits(n, mode)
    if bits > 12:
        raise CapacityError(f"exhaustive enumeration over 2^{bits} networks "
                            f"refused (n={n}, {mode.value})")
    for mask in range(2 ** bits):
        yield net_from_mask(n, mask, mode)


def census(n: int, params: Params, targets: TargetSets = ALL_OTHERS
           ) -> Iterator[Tuple[int, ReachBalls]]:
    """Every network on n agents with its mask, in one ``ReachBalls`` each.
    They share one set of target masks and cost constants, which depend on
    n, params and targets only."""
    balls = None
    for mask, net in enumerate(iter_all_networks(n, params.mode)):
        balls = (ReachBalls(net, params, targets) if balls is None
                 else balls.with_net(net))
        yield mask, balls


def efficient_search(n: int, params: Params,
                     targets: TargetSets = ALL_OTHERS) -> EfficiencyReport:
    """Welfare maxima over all networks on n agents (exhaustive)."""
    best, argmax = None, []
    for _, balls in census(n, params, targets):
        w = sum(map(balls.scaled_utility, range(n)))  # scale times welfare
        if best is None or w > best:
            best, argmax = w, [balls.net]
        elif w == best:
            argmax.append(balls.net)
    return EfficiencyReport(best_welfare=Fraction(best, balls.scale),
                            argmax_nets=argmax)


def poa_pos(n: int, params: Params,
            targets: TargetSets = ALL_OTHERS) -> PoAResult:
    """Price of anarchy and stability over the full census: worst and best
    stable welfare divided by the optimum."""
    welfares, stable = [], []  # scale times each welfare
    for _, balls in census(n, params, targets):
        welfares.append(sum(map(balls.scaled_utility, range(n))))
        if next(balls.witnesses(), None) is None:
            stable.append(welfares[-1])
    best, scale = max(welfares), balls.scale
    degenerate = best <= 0 or not stable
    return PoAResult(
        poa=None if degenerate else Fraction(min(stable), best),
        pos=None if degenerate else Fraction(max(stable), best),
        degenerate=degenerate, best_welfare=Fraction(best, scale),
        worst_stable_welfare=Fraction(min(stable), scale) if stable else None,
        best_stable_welfare=Fraction(max(stable), scale) if stable else None)


def check_symmetric(net: BidirectedNetwork, params: Params,
                    targets: TargetSets = ALL_OTHERS) -> bool:
    """Exact equality of total utility across all agents."""
    utilities = {agent_utility(net, params, targets, v) for v in range(net.n)}
    return len(utilities) <= 1
