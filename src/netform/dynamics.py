"""Edge classification and the asynchronous stochastic edge dynamics.

Each round samples one typed ordered pair uniformly from the 2*n*(n-1)
possibilities and applies the strict add/remove rule for its owner: an
absent edge is added iff adding it strictly increases the owner's utility,
a present edge is removed iff removing it strictly increases it, decided
from reach balls without touching the network (see ``ReachBalls``).

Runs are driven by Python's ``random.Random`` (MT19937) seeded with the
64-bit seed recorded in the trace.  A round draws its kind, u and v from
``getrandbits`` alone, each an integer below m for m = 2, n, n - 1 in that
order: take ``getrandbits(m.bit_length())`` until the value is below m (so
the kind takes 2 bits, 0 being speaking), and v at or above u is moved up
by one.  The draw is what ``randrange(m)`` does, written out here so a
trace's bytes rest on MT19937's ``getrandbits`` only.  A round yields a
``Move``, a named tuple.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

from .errors import TraceError
from .model import (ALL_OTHERS, INF, BidirectedNetwork, Mode, Params,
                    TargetSets, _bfs)

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


# keyed by ``_value_``: an enum member's ``__hash__`` runs in Python
_APPLY = {MoveKind.ADD_SPEAKING._value_: BidirectedNetwork.add_speaking,
          MoveKind.REMOVE_SPEAKING._value_: BidirectedNetwork.remove_speaking,
          MoveKind.ADD_LISTENING._value_: BidirectedNetwork.add_listening,
          MoveKind.REMOVE_LISTENING._value_: BidirectedNetwork.remove_listening}

# move fired by an addable/removable classification of a typed edge
_FIRES = {(Classification.ADDABLE, EdgeKind.SPEAKING): MoveKind.ADD_SPEAKING,
          (Classification.ADDABLE, EdgeKind.LISTENING): MoveKind.ADD_LISTENING,
          (Classification.REMOVABLE, EdgeKind.SPEAKING): MoveKind.REMOVE_SPEAKING,
          (Classification.REMOVABLE, EdgeKind.LISTENING): MoveKind.REMOVE_LISTENING}


class Move(NamedTuple):
    kind: MoveKind
    edge_kind: EdgeKind  # what was sampled, also for NO_CHANGE
    u: int
    v: int

    @property
    def mutating(self) -> bool:
        return self.kind is not MoveKind.NO_CHANGE


@dataclass
class Trace:
    seed: int
    params: Params
    initial: BidirectedNetwork
    moves: List[Move]
    final: BidirectedNetwork
    converged: bool
    targets: TargetSets = ALL_OTHERS
    rng_id: str = RNG_ID

    @property
    def steps_sampled(self) -> int:
        """Rounds drawn, one move each; move i is step i."""
        return len(self.moves)


class ReachBalls:
    """Reach balls of one network, each built by one BFS on first use, and
    the edge rule and the agents' utilities decided from them.  Hold one for
    the network's life and mutate it through ``flip``; ``net.revision`` only
    guards against a change made outside it, which drops every ball.  Balls
    and target sets are bitsets (see ``model``), with one target mask per
    direction and owner.  A speaking edge moves only its owner's forward
    ball, a listening edge only the backward one.  Adding the live step
    u -> v gives u the new targets ``(inner(v) | 1<<v) & ~(ball(u) | 1<<u)``,
    inner being the ball one step short (a shortest path from v never
    re-enters v); removing a present live step takes one BFS that skips it,
    ``kept``, and loses ``ball(u) & ~kept``.  A dead pair (bidirected,
    partner half absent) moves no reach: a present dead edge is removable
    iff its cost is above 0, an absent one is never addable.  So a scan runs
    one BFS per vertex and direction plus one per present live edge.
    ``rules[forward]`` holds the edge rule's integer thresholds for the
    listening (backward) or speaking cost; ``scaled_utility`` is ``scale``
    times a utility, ``scale`` the least common denominator of the costs."""

    __slots__ = ("net", "params", "_balls", "_revision", "_masks", "rules",
                 "scale", "_costs")

    def __init__(self, net: BidirectedNetwork, params: Params,
                 targets: TargetSets = ALL_OTHERS):
        self.net, self.params = net, params
        self._balls = ({}, {})  # [forward][vertex], valid at _revision
        self._revision = net.revision
        # [forward][vertex]; directed mode reads no backward (listening) mask
        self._masks = (None if params.mode is Mode.DIRECTED else
                       [targets.mask(v, False, net.n) for v in range(net.n)],
                       [targets.mask(v, True, net.n) for v in range(net.n)])
        # gains and losses are integers: gain > c iff gain >= floor(c) + 1,
        # and lost < c iff lost <= ceil(c) - 1
        self.rules = tuple((c.numerator // c.denominator + 1,
                            -(-c.numerator // c.denominator) - 1)
                           for c in (params.c_l, params.c_s))
        self.scale = math.lcm(params.c_l.denominator, params.c_s.denominator)
        # [forward]: scale times the listening (backward) or speaking cost
        self._costs = tuple(c.numerator * (self.scale // c.denominator)
                            for c in (params.c_l, params.c_s))

    def with_net(self, net: BidirectedNetwork) -> "ReachBalls":
        """Empty reach balls of ``net``, a network on as many agents, sharing
        this one's parameters, target masks and cost constants."""
        other = ReachBalls.__new__(ReachBalls)
        for name in ReachBalls.__slots__:
            setattr(other, name, getattr(self, name))
        other.net, other._balls, other._revision = net, ({}, {}), net.revision
        return other

    def ball(self, x: int, forward: bool) -> Tuple[int, int]:
        """``(B_k(x), B_{k-1}(x))`` as bitsets, neither holding x."""
        if self._revision != self.net.revision:
            self._balls = ({}, {})
            self._revision = self.net.revision
        got = self._balls[forward].get(x)
        if got is None:
            seen, last = _bfs(self.net, self.params.k, x, forward,
                              self.params.mode)
            got = self._balls[forward][x] = (seen, seen & ~last)
        return got

    def gain(self, u: int, v: int, forward: bool) -> int:
        """Targets u newly reaches when the live step between u and v
        (u -> v forward, v -> u backward) is added."""
        added = ((self.ball(v, forward)[1] | 1 << v)
                 & ~(self.ball(u, forward)[0] | 1 << u))
        return (added & self._masks[forward][u]).bit_count()

    def flip(self, speaking: bool, a: int, b: int, add: bool) -> bool:
        """``net._flip(speaking, a, b, add)``, keeping each held ball the
        change cannot move; True when that is every ball: the edge's step
        u -> v is dead, or the removal is lossless at k = inf (a's ball is
        unchanged, so a path through the step can detour).  Else a forward
        ball stays when its owner is not u and its inner ball lacks u, a
        backward one likewise for v: a path through u -> v first reaches u,
        within k - 1 steps."""
        net, mode = self.net, self.params.mode
        net._check_pair(a, b)  # before any ball is read
        if self._revision != net.revision:  # changed outside flip
            self._balls = ({}, {})
        u, v = (a, b) if speaking else (b, a)  # the step u -> v
        live = (speaking if mode is Mode.DIRECTED else
                (net._listen_out if speaking else net._speak_out)[b] >> a & 1)
        exact = live and not add and self.params.k == INF
        held = self.ball(a, speaking)[0] if exact else None
        net._flip(speaking, a, b, add)
        self._revision = net.revision
        if exact:
            new = _bfs(net, INF, a, speaking, mode)[0]
        if not live or exact and new == held:
            return True
        self._balls = tuple({x: got for x, got in balls.items()
                             if x != pivot and not got[1] >> pivot & 1}
                            for balls, pivot in zip(self._balls, (v, u)))
        if exact:
            self._balls[speaking][a] = (new, new)  # no last layer at k = inf
        return False

    def scaled_utility(self, v: int) -> int:
        """``scale`` times v's utility, an exact integer counted from v's
        held balls, target masks and out-degrees."""
        net, masks = self.net, self._masks
        u = (self.scale * (self.ball(v, True)[0] & masks[True][v]).bit_count()
             - self._costs[True] * net.out_speak(v))
        if self.params.mode is Mode.DIRECTED:
            return u
        lr = (self.ball(v, False)[0] & masks[False][v]).bit_count()
        return u + self.scale * lr - self._costs[False] * net.out_listen(v)

    def classify(self, kind: EdgeKind, u: int, v: int) -> Classification:
        net, forward = self.net, kind is EdgeKind.SPEAKING
        directed = self.params.mode is Mode.DIRECTED
        if forward:
            present = net._speak_out[u] >> v & 1
            live = directed or net._listen_out[v] >> u & 1
        else:
            present = net._listen_out[u] >> v & 1
            # listening is implicit and free (c_l = 0) in the reduced model:
            # a listening edge there is dead and never fires
            live = not directed and net._speak_out[v] >> u & 1
        add_min, lost_max = self.rules[forward]
        if not present:
            return (Classification.ADDABLE
                    if live and self.gain(u, v, forward) >= add_min
                    else Classification.STAY_ABSENT)
        lost = 0
        if live:
            kept = _bfs(net, self.params.k, u, forward, self.params.mode, v)[0]
            lost = (self.ball(u, forward)[0] & ~kept
                    & self._masks[forward][u]).bit_count()
        return (Classification.REMOVABLE if lost <= lost_max
                else Classification.STAY_PRESENT)

    def witnesses(self):
        """Every addable or removable typed edge, in ``iter_typed_pairs``
        order, as ``(kind, u, v, classification)``.  In directed mode the
        walk ends with the speaking pairs: a listening edge there never
        fires (see ``classify``)."""
        pairs = iter_typed_pairs(self.net.n)
        if self.params.mode is Mode.DIRECTED:
            pairs = itertools.islice(pairs, self.net.n * (self.net.n - 1))
        for kind, u, v in pairs:
            cls = self.classify(kind, u, v)
            if cls is Classification.ADDABLE or cls is Classification.REMOVABLE:
                yield kind, u, v, cls


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


def find_witness(net: BidirectedNetwork, params: Params,
                 targets: TargetSets = ALL_OTHERS
                 ) -> Optional[Tuple[EdgeKind, int, int, Classification]]:
    """First addable or removable typed edge in deterministic order, or None."""
    return next(ReachBalls(net, params, targets).witnesses(), None)


def scan_witnesses(net: BidirectedNetwork, params: Params,
                   targets: TargetSets = ALL_OTHERS
                   ) -> List[Tuple[EdgeKind, int, int, Classification]]:
    """Every addable or removable typed edge."""
    return list(ReachBalls(net, params, targets).witnesses())


def apply_move(net: BidirectedNetwork, move) -> None:
    """Apply a recorded ``Move`` or ``CertMove`` to ``net`` (NO_CHANGE does
    nothing); a move inconsistent with the network raises TraceError."""
    method = _APPLY.get(move.kind._value_)
    if method is None:
        return
    try:
        method(net, move.u, move.v)
    except ValueError as exc:
        raise TraceError(f"inconsistent move {move}: {exc}") from exc


def step(balls: ReachBalls, rng: random.Random) -> Move:
    """One dynamics round, drawn as the module docstring says.  When the
    sampled edge fires it changes ``balls.net`` through ``balls.flip``;
    fewer than two agents raise ValueError, since no pair can be drawn."""
    n = balls.net.n
    if n < 2:
        raise ValueError(f"a dynamics round needs two agents, got n={n}")
    bits = rng.getrandbits
    r = bits(2)
    while r >= 2:
        r = bits(2)
    kind = EdgeKind.LISTENING if r else EdgeKind.SPEAKING
    width = n.bit_length()
    u = bits(width)
    while u >= n:
        u = bits(width)
    width = (n - 1).bit_length()
    v = bits(width)
    while v >= n - 1:
        v = bits(width)
    if v >= u:
        v += 1
    cls = balls.classify(kind, u, v)
    if cls is not Classification.ADDABLE and cls is not Classification.REMOVABLE:
        return Move(MoveKind.NO_CHANGE, kind, u, v)
    balls.flip(kind is EdgeKind.SPEAKING, u, v, cls is Classification.ADDABLE)
    return Move(_FIRES[cls, kind], kind, u, v)


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
    balls = ReachBalls(net, params, targets)
    rng = random.Random(seed)
    moves: List[Move] = []
    converged = next(balls.witnesses(), None) is None
    steps = 0
    while not converged and steps < max_steps:
        moves.append(step(balls, rng))
        steps += 1
        if steps % scan_interval == 0:
            converged = next(balls.witnesses(), None) is None
    return Trace(seed=seed, params=params, initial=initial.copy(), moves=moves,
                 final=net, converged=converged, targets=targets)


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

