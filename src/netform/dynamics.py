"""Edge classification and the asynchronous stochastic edge dynamics.

Each round samples one typed ordered pair uniformly from the 2*n*(n-1)
possibilities and applies the strict add/remove rule for its owner: an
absent edge is added iff adding it strictly increases the owner's utility,
a present edge is removed iff removing it strictly increases it, decided
from reach balls without touching the network (see ``ReachBalls``).

Runs are driven by Python's ``random.Random`` (MT19937) seeded with the
64-bit seed recorded in the trace, so a trace replays bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .errors import TraceError
from .model import (ALL_OTHERS, BidirectedNetwork, Mode, Params, TargetSets,
                    _bfs)

RNG_ID = "python-random-mt19937"


class EdgeKind(Enum):
    SPEAKING = "s"
    LISTENING = "l"


class Classification(Enum):
    ADDABLE = "addable"
    REMOVABLE = "removable"
    STAY_PRESENT = "stay_present"
    STAY_ABSENT = "stay_absent"


class MoveKind(Enum):
    ADD_SPEAKING = "+s"
    REMOVE_SPEAKING = "-s"
    ADD_LISTENING = "+l"
    REMOVE_LISTENING = "-l"
    NO_CHANGE = "."


_APPLY = {MoveKind.ADD_SPEAKING: BidirectedNetwork.add_speaking,
          MoveKind.REMOVE_SPEAKING: BidirectedNetwork.remove_speaking,
          MoveKind.ADD_LISTENING: BidirectedNetwork.add_listening,
          MoveKind.REMOVE_LISTENING: BidirectedNetwork.remove_listening}

# move fired by an addable/removable classification of a typed edge
_FIRES = {(Classification.ADDABLE, EdgeKind.SPEAKING): MoveKind.ADD_SPEAKING,
          (Classification.ADDABLE, EdgeKind.LISTENING): MoveKind.ADD_LISTENING,
          (Classification.REMOVABLE, EdgeKind.SPEAKING): MoveKind.REMOVE_SPEAKING,
          (Classification.REMOVABLE, EdgeKind.LISTENING): MoveKind.REMOVE_LISTENING}


@dataclass(frozen=True, slots=True)
class Move:
    kind: MoveKind
    edge_kind: EdgeKind  # what was sampled, also for NO_CHANGE
    u: int
    v: int
    step_index: int

    @property
    def mutating(self) -> bool:
        return self.kind in _APPLY


@dataclass
class Trace:
    seed: int
    params: Params
    initial: BidirectedNetwork
    moves: List[Move]
    final: BidirectedNetwork
    converged: bool
    steps_sampled: int
    targets: TargetSets = ALL_OTHERS
    rng_id: str = RNG_ID


@dataclass(frozen=True)
class PotentialMeasure:
    complete_pairs: int
    edge_count: int
    value: int


class ReachBalls:
    """Reach balls of one unchanged network, each built by one BFS on first
    use, and the edge rule decided from them.  A speaking edge moves only its
    owner's forward ball, a listening edge only the backward one.  Adding the
    live step u -> v gives u the reach ``B_k(u) | {v} | B_{k-1}(v)``, as a
    shortest path from v never re-enters v; removing a present live step
    takes one BFS that skips it.  A dead pair (bidirected, partner half
    absent) moves no reach: a present dead edge is removable iff its cost is
    above 0, an absent one is never addable.  So a scan runs one BFS per
    vertex and direction plus one per present live edge."""

    __slots__ = ("net", "params", "_balls", "_counts", "_rules")

    def __init__(self, net: BidirectedNetwork, params: Params,
                 targets: TargetSets = ALL_OTHERS):
        self.net, self.params = net, params
        self._balls = ({}, {})  # [forward][vertex]
        self._counts = (targets.listen_count, targets.speak_count)
        # gains and losses are integers: gain > c iff gain >= floor(c) + 1,
        # and lost < c iff lost <= ceil(c) - 1
        self._rules = tuple((c.numerator // c.denominator + 1,
                             -(-c.numerator // c.denominator) - 1)
                            for c in (params.c_l, params.c_s))

    def ball(self, x: int, forward: bool) -> Tuple[set, set]:
        """``(B_k(x), B_{k-1}(x))``, neither containing x."""
        got = self._balls[forward].get(x)
        if got is None:
            seen, last = _bfs(self.net, self.params.k, x, forward,
                              self.params.mode)
            inner = seen.difference(last) if last else seen
            got = self._balls[forward][x] = (seen, inner)
        return got

    def gain(self, u: int, v: int, forward: bool) -> int:
        """Targets u newly reaches when the live step between u and v
        (u -> v forward, v -> u backward) is added."""
        added = (self.ball(v, forward)[1] | {v}) - self.ball(u, forward)[0]
        added.discard(u)
        return self._counts[forward](u, added)

    def classify(self, kind: EdgeKind, u: int, v: int) -> Classification:
        net, forward = self.net, kind is EdgeKind.SPEAKING
        directed = self.params.mode is Mode.DIRECTED
        if forward:
            present = (u, v) in net.speaking
            live = directed or (v, u) in net.listening
        else:
            present = (u, v) in net.listening
            # listening is implicit and free (c_l = 0) in the reduced model:
            # a listening edge there is dead and never fires
            live = not directed and (v, u) in net.speaking
        add_min, lost_max = self._rules[forward]
        if not present:
            return (Classification.ADDABLE
                    if live and self.gain(u, v, forward) >= add_min
                    else Classification.STAY_ABSENT)
        lost = 0
        if live:
            kept = _bfs(net, self.params.k, u, forward, self.params.mode, v)[0]
            lost = self._counts[forward](u, self.ball(u, forward)[0] - kept)
        return (Classification.REMOVABLE if lost <= lost_max
                else Classification.STAY_PRESENT)


def classify(net: BidirectedNetwork, params: Params, targets: TargetSets,
             kind: EdgeKind, u: int, v: int) -> Classification:
    """Addable/removable status of the typed edge (u, v) for its owner u."""
    net._check_pair(u, v)
    return ReachBalls(net, params, targets).classify(kind, u, v)


def iter_typed_pairs(n: int):
    for kind in (EdgeKind.SPEAKING, EdgeKind.LISTENING):
        for u in range(n):
            for v in range(n):
                if u != v:
                    yield kind, u, v


def _witnesses(net: BidirectedNetwork, params: Params, targets: TargetSets,
               balls: Optional[ReachBalls] = None):
    balls = balls or ReachBalls(net, params, targets)
    for kind, u, v in iter_typed_pairs(net.n):
        cls = balls.classify(kind, u, v)
        if cls is Classification.ADDABLE or cls is Classification.REMOVABLE:
            yield kind, u, v, cls


def find_witness(net: BidirectedNetwork, params: Params,
                 targets: TargetSets = ALL_OTHERS
                 ) -> Optional[Tuple[EdgeKind, int, int, Classification]]:
    """First addable or removable typed edge in deterministic order, or None."""
    return next(_witnesses(net, params, targets), None)


def scan_witnesses(net: BidirectedNetwork, params: Params,
                   targets: TargetSets = ALL_OTHERS,
                   balls: Optional[ReachBalls] = None
                   ) -> List[Tuple[EdgeKind, int, int, Classification]]:
    """Every addable or removable typed edge; ``balls`` are net's own."""
    return list(_witnesses(net, params, targets, balls))


def apply_move(net: BidirectedNetwork, move) -> None:
    """Apply a recorded ``Move`` or ``CertMove`` to ``net`` (NO_CHANGE does
    nothing); a move inconsistent with the network raises TraceError."""
    method = _APPLY.get(move.kind)
    if method is None:
        return
    try:
        method(net, move.u, move.v)
    except ValueError as exc:
        raise TraceError(f"inconsistent move {move}: {exc}") from exc


def step(net: BidirectedNetwork, params: Params, targets: TargetSets,
         rng: random.Random, step_index: int = 0) -> Move:
    """One dynamics round.  Mutates ``net`` when the sampled edge fires."""
    n = net.n
    kind = EdgeKind.SPEAKING if rng.randrange(2) == 0 else EdgeKind.LISTENING
    u = rng.randrange(n)
    v = rng.randrange(n - 1)
    if v >= u:
        v += 1
    cls = classify(net, params, targets, kind, u, v)
    if cls is not Classification.ADDABLE and cls is not Classification.REMOVABLE:
        return Move(MoveKind.NO_CHANGE, kind, u, v, step_index)
    move = Move(_FIRES[cls, kind], kind, u, v, step_index)
    apply_move(net, move)
    return move


def run(initial: BidirectedNetwork, params: Params,
        targets: TargetSets = ALL_OTHERS, seed: int = 0,
        max_steps: Optional[int] = None,
        scan_interval: Optional[int] = None) -> Trace:
    """Run the dynamics until a full scan finds nothing addable or removable,
    or until max_steps.  Non-convergence is reported, never raised."""
    n = initial.n
    if max_steps is None:
        max_steps = 50 * n ** 6
    if scan_interval is None:
        scan_interval = max(1, 2 * n * (n - 1))
    if max_steps < 1 or scan_interval < 1:
        raise ValueError("max_steps and scan_interval must be >= 1")
    net = initial.copy()
    rng = random.Random(seed)
    moves: List[Move] = []
    converged = find_witness(net, params, targets) is None
    steps = 0
    while not converged and steps < max_steps:
        moves.append(step(net, params, targets, rng, steps))
        steps += 1
        if steps % scan_interval == 0:
            converged = find_witness(net, params, targets) is None
    return Trace(seed=seed, params=params, initial=initial.copy(), moves=moves,
                 final=net, converged=converged, steps_sampled=steps,
                 targets=targets)


def replay(trace: Trace) -> BidirectedNetwork:
    """Re-apply the trace's moves; raises TraceError on any inconsistency."""
    net = trace.initial.copy()
    for mv in trace.moves:
        apply_move(net, mv)
    if net != trace.final:
        raise TraceError("replayed final network differs from recorded final")
    return net


@dataclass(frozen=True)
class NeverReaddResult:
    ok: bool
    applicable: bool

    def __bool__(self):
        return self.ok


def never_readd_check(trace: Trace) -> NeverReaddResult:
    """Validates that once both halves of a pair (u, v) -- the speaking edge
    (u, v) and the listening edge (v, u) -- are simultaneously absent, neither
    half is ever added later in the trace.  Only meaningful for bidirected
    runs with strictly positive costs."""
    if (trace.params.mode is Mode.DIRECTED
            or trace.params.c_s <= 0 or trace.params.c_l <= 0):
        return NeverReaddResult(ok=True, applicable=False)
    net = trace.initial.copy()
    dead = {(u, v) for u in range(net.n) for v in range(net.n)
            if u != v and not net.has_speaking(u, v)
            and not net.has_listening(v, u)}
    for mv in trace.moves:
        if mv.kind is MoveKind.NO_CHANGE:
            continue
        # pair (a, b) is the speaking edge (a, b) plus the listening edge
        # (b, a), so a listening move on (u, v) belongs to pair (v, u)
        listening = mv.kind in (MoveKind.ADD_LISTENING, MoveKind.REMOVE_LISTENING)
        a, b = (mv.v, mv.u) if listening else (mv.u, mv.v)
        if (a, b) in dead and mv.kind in (MoveKind.ADD_SPEAKING,
                                          MoveKind.ADD_LISTENING):
            return NeverReaddResult(ok=False, applicable=True)
        apply_move(net, mv)
        if not net.has_speaking(a, b) and not net.has_listening(b, a):
            dead.add((a, b))
    if net != trace.final:
        raise TraceError("trace does not replay to its recorded final network")
    return NeverReaddResult(ok=True, applicable=True)


def potential(net: BidirectedNetwork) -> PotentialMeasure:
    """Complete-pair count plus total edge count (convergence instrumentation).
    A pair (u, v) is complete when u speaks to v and v listens back."""
    p = sum(1 for (u, v) in net.speaking if net.has_listening(v, u))
    m = len(net.speaking) + len(net.listening)
    return PotentialMeasure(complete_pairs=p, edge_count=m, value=p + m)
