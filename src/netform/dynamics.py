"""Edge classification and the asynchronous stochastic edge dynamics.

Each round samples one typed ordered pair uniformly from the 2*n*(n-1)
possibilities and applies the strict add/remove rule for its owner: an
absent edge is added iff adding it strictly increases the owner's utility,
a present edge is removed iff removing it strictly increases it, decided
from reach balls without touching the network (see ``ReachBalls``).

Runs are driven by Python's ``random.Random`` (MT19937) seeded with the
64-bit seed recorded in the trace (``seeded_rng``).  A round draws its
kind, u and v from ``getrandbits`` alone, each ``_below(bits, m)`` for
m = 2, n, n - 1 in that order: take ``getrandbits(m.bit_length())`` until
the value is below m (so the kind takes 2 bits, 0 being speaking), and v
at or above u is moved up by one.  ``_below`` is what ``randrange(m)``
does, written out here so a trace's bytes rest on MT19937's
``getrandbits`` only.  A round yields a ``Move``, a named tuple.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

from .errors import TraceError
from .model import (ALL_OTHERS, INF, BidirectedNetwork, Mode, Params,
                    TargetSets, _bfs)

RNG_ID = "python-random-mt19937"
MAX_SEED = 2 ** 64 - 1


def seeded_rng(seed: int) -> random.Random:
    """``random.Random(seed)`` for a seed in 0..MAX_SEED.  Any other seed
    raises ValueError: ``random.Random`` seeds with ``abs(seed)``, so a
    negative seed would replay the positive one under its own name."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in 0..2**64-1, got {seed}")
    return random.Random(seed)


class EdgeKind(Enum):
    SPEAKING = "s"
    LISTENING = "l"


class MoveKind(Enum):
    ADD_SPEAKING = "+s"
    REMOVE_SPEAKING = "-s"
    ADD_LISTENING = "+l"
    REMOVE_LISTENING = "-l"
    NO_CHANGE = "."

    def __init__(self, value: str):
        # speaking: the move's edge is a speaking edge; add: it adds the edge
        self.speaking = value[1:] == "s"
        self.add = value[0] == "+"


# [add, speaking]: the move that adds or removes that edge kind
_MOVES = {(kind.add, kind.speaking): kind for kind in MoveKind
          if kind is not MoveKind.NO_CHANGE}
# the edge rule's members, bound once: on Python 3.11 a read through the
# enum class goes through its slow attribute hook
_SPEAKING, _NO_CHANGE = EdgeKind.SPEAKING, MoveKind.NO_CHANGE


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

    @property
    def steps_sampled(self) -> int:
        """Rounds drawn, one move each; move i is step i."""
        return len(self.moves)


class ReachBalls:
    """Reach balls of one network, each built by one BFS on first use, and
    the edge rule and the agents' utilities decided from them.  Hold one for
    the network's life and mutate it through ``fire``; ``net.revision`` only
    guards against a change made outside it, which drops every ball.  Balls
    and target sets are bitsets (see ``model``), with one target mask per
    direction and owner.  A ball is closed, holding its owner, and a mask
    never holds it.  A speaking edge moves only its owner's forward ball, a
    listening edge only the backward one.  Adding the live step u -> v
    gives u the new targets ``inner(v) & ~ball(u)``, inner being the ball
    one step short; removing a present live step takes one BFS that skips it,
    ``kept``, and loses ``ball(u) & ~kept``, or nothing when the search
    answers None (at k = inf, it reached v).  At k = inf a ball search
    reads the balls held in its direction.  A dead pair (bidirected,
    partner half absent) moves no reach: a present dead edge is removable
    iff its cost is above 0, an absent one is never addable.  So a scan runs
    one BFS per vertex and direction plus one per present live edge.
    ``rules[forward]`` holds the edge rule's integer thresholds for the
    listening (backward) or speaking cost; ``scaled_utility`` is ``scale``
    times a utility, ``scale`` the least common denominator of the costs."""

    __slots__ = ("net", "params", "_balls", "_revision", "_masks", "rules",
                 "scale", "_costs", "_after", "_directed", "_closure")

    def __init__(self, net: BidirectedNetwork, params: Params,
                 targets: TargetSets = ALL_OTHERS):
        self.net, self.params = net, params
        self._balls = ({}, {})  # [forward][vertex], valid at _revision
        self._revision = net.revision
        self._directed = params.mode is Mode.DIRECTED
        self._closure = params.k == INF  # ball searches read held balls
        # [forward][vertex]; directed mode reads no backward (listening) mask
        self._masks = (None if self._directed else
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
        # the skip search of the last edge classify answered with a removal,
        # None if dead; fire reads it after that answer only
        self._after = None

    def with_net(self, net: BidirectedNetwork) -> "ReachBalls":
        """Empty reach balls of ``net``, a network on as many agents, sharing
        this one's parameters, target masks and cost constants."""
        other = ReachBalls.__new__(ReachBalls)
        for name in ReachBalls.__slots__:
            setattr(other, name, getattr(self, name))
        other.net, other._balls, other._revision = net, ({}, {}), net.revision
        return other

    def ball(self, x: int, forward: bool) -> Tuple[int, int]:
        """``(B_k(x), B_{k-1}(x))`` as ``_bfs`` returns them, x in both."""
        if self._revision != self.net.revision:
            self._balls = ({}, {})
            self._revision = self.net.revision
        got = self._balls[forward].get(x)
        if got is None:
            got = self._balls[forward][x] = _bfs(
                self.net, self.params.k, x, forward, self.params.mode, None,
                self._balls[forward] if self._closure else None)
        return got

    def gain(self, u: int, v: int, forward: bool) -> int:
        """Targets u newly reaches when the live step between u and v
        (u -> v forward, v -> u backward) is added."""
        added = self.ball(v, forward)[1] & ~self.ball(u, forward)[0]
        return (added & self._masks[forward][u]).bit_count()

    def scaled_utility(self, v: int) -> int:
        """``scale`` times v's utility, an exact integer counted from v's
        held balls, target masks and out-degrees."""
        net, masks = self.net, self._masks
        u = (self.scale * (self.ball(v, True)[0] & masks[True][v]).bit_count()
             - self._costs[True] * net.out_speak(v))
        if self._directed:
            return u
        lr = (self.ball(v, False)[0] & masks[False][v]).bit_count()
        return u + self.scale * lr - self._costs[False] * net.out_listen(v)

    def classify(self, kind: EdgeKind, u: int, v: int) -> MoveKind:
        """The edge rule's move on the typed edge (u, v), or NO_CHANGE."""
        net, forward, directed = self.net, kind is _SPEAKING, self._directed
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
            return (_MOVES[True, forward]
                    if live and self.gain(u, v, forward) >= add_min
                    else _NO_CHANGE)
        after = (_bfs(net, self.params.k, u, forward, self.params.mode, v)
                 if live else None)
        lost = 0 if after is None else (self.ball(u, forward)[0] & ~after[0]
                                        & self._masks[forward][u]).bit_count()
        if lost > lost_max:
            return _NO_CHANGE
        self._after = after
        return _MOVES[False, forward]

    def fire(self, kind: EdgeKind, u: int, v: int) -> MoveKind:
        """Make the move ``classify`` answers for the typed edge (u, v) and
        return it; NO_CHANGE changes nothing.  Every held ball stays when
        the step is dead or the skip search answered None (at k = inf the
        removal keeps v in u's ball, so a path through the step can detour).
        Else a ball in the edge's direction stays when its inner ball lacks
        u (a path through the step reaches u within k - 1 steps; u's own
        inner ball holds u), one in the other direction likewise for v, and
        a removal holds u's new ball, classify's skip search, as returned."""
        move = self.classify(kind, u, v)
        if move is _NO_CHANGE:
            return move
        net, forward, add = self.net, move.speaking, move.add
        after = None if add else self._after
        if self._revision != net.revision:  # changed outside fire
            self._balls = ({}, {})
        net._flip(forward, u, v, add)
        self._revision = net.revision
        if add or after:
            pivots = (v, u) if forward else (u, v)  # [forward]
            self._balls = tuple({x: got for x, got in balls.items()
                                 if not got[1] >> pivot & 1}
                                for balls, pivot in zip(self._balls, pivots))
            if not add:
                self._balls[forward][u] = after
        return move

    def witnesses(self, quiet=None):
        """Every addable or removable typed edge as ``(kind, u, v, move)``,
        speaking before listening, u ascending, then v ascending.  A pair
        whose bit v is set in ``quiet[listening][u]`` (``run``'s record of
        the pairs that answered NO_CHANGE since its last fired move) is
        skipped, and each pair found NO_CHANGE gets its bit; without
        ``quiet`` no pair counts as quiet.  An absent dead pair (bidirected,
        partner half absent) is never addable and is skipped too, and in
        directed mode the walk ends with the speaking pairs: a listening
        edge there never fires (see ``classify``).  At k = inf reach is a
        closure: when u's ball holds v it holds v's ball too, so an absent
        edge from u to v gains nothing.  Such pairs get their bit without a
        ``classify`` call, from u's ball in the edge's direction, read when
        the walk comes to u's first absent pair."""
        net, n, no_change = self.net, self.net.n, _NO_CHANGE
        if quiet is None:
            quiet = ([0] * n, [0] * n)
        directed, closure = self._directed, self._closure
        # [listening]: (kind, forward, out, partner_in); bit v of out[u] |
        # partner_in[u] is set when (u, v) or its partner half is present
        halves = ((_SPEAKING, True, net._speak_out, net._listen_in),
                  (EdgeKind.LISTENING, False, net._listen_out, net._speak_in))
        for (kind, forward, out, partner_in), q in zip(
                halves[:1 if directed else 2], quiet):
            for u in range(n):
                todo = (((1 << n) - 1 if directed else out[u] | partner_in[u])
                        & ~q[u] & ~(1 << u))
                absent = todo & ~out[u] if closure else 0
                while todo:
                    low = todo & -todo
                    if low & absent:  # u's first absent pair
                        reached = absent & self.ball(u, forward)[0]
                        q[u] |= reached
                        todo ^= reached
                        absent = 0
                        continue
                    todo ^= low
                    v = low.bit_length() - 1
                    move = self.classify(kind, u, v)
                    if move is no_change:
                        q[u] |= low
                    else:
                        yield kind, u, v, move


def classify(net: BidirectedNetwork, params: Params, targets: TargetSets,
             kind: EdgeKind, u: int, v: int) -> MoveKind:
    """The move the edge rule makes on the typed edge (u, v) for its owner u."""
    net._check_pair(u, v)
    return ReachBalls(net, params, targets).classify(kind, u, v)


def find_witness(net: BidirectedNetwork, params: Params,
                 targets: TargetSets = ALL_OTHERS
                 ) -> Optional[Tuple[EdgeKind, int, int, MoveKind]]:
    """First addable or removable typed edge in deterministic order, or None."""
    return next(ReachBalls(net, params, targets).witnesses(), None)


def scan_witnesses(net: BidirectedNetwork, params: Params,
                   targets: TargetSets = ALL_OTHERS
                   ) -> List[Tuple[EdgeKind, int, int, MoveKind]]:
    """Every addable or removable typed edge."""
    return list(ReachBalls(net, params, targets).witnesses())


def apply_move(net: BidirectedNetwork, move) -> None:
    """Apply a recorded ``Move`` or ``CertMove`` to ``net`` (NO_CHANGE does
    nothing); a move inconsistent with the network raises TraceError."""
    if move.kind is MoveKind.NO_CHANGE:
        return
    try:
        net._flip(move.kind.speaking, move.u, move.v, move.kind.add)
    except ValueError as exc:
        raise TraceError(f"inconsistent move {move}: {exc}") from exc


def _below(bits, m: int) -> int:
    """An integer below m from ``bits``, an rng's ``getrandbits``, drawn
    by the module docstring's rule; ``run`` writes it out inline."""
    r = m
    while r >= m:
        r = bits(m.bit_length())
    return r


def step(balls: ReachBalls, rng: random.Random) -> Move:
    """One dynamics round, drawn as the module docstring says: ``balls.fire``
    decides the sampled edge and, when it fires, changes ``balls.net``.
    Fewer than two agents raise ValueError, since no pair can be drawn.
    ``run`` makes its rounds in its own loop; this is the one-round
    reference that tests check it against, and the name the benchmark's
    tracer wraps."""
    n = balls.net.n
    if n < 2:
        raise ValueError(f"a dynamics round needs two agents, got n={n}")
    bits = rng.getrandbits
    kind = EdgeKind.LISTENING if _below(bits, 2) else EdgeKind.SPEAKING
    u, v = _below(bits, n), _below(bits, n - 1)
    if v >= u:
        v += 1
    return Move(balls.fire(kind, u, v), kind, u, v)


def run(initial: BidirectedNetwork, params: Params,
        targets: TargetSets = ALL_OTHERS, seed: int = 0,
        max_steps: Optional[int] = None) -> Trace:
    """Run the dynamics until a full scan, made first and after every
    2n(n-1)-th round, finds nothing addable or removable, or until
    max_steps: ``run`` on a trace's header, with max_steps
    ``max(1, steps_sampled)``, makes the trace again.  Non-convergence is
    reported, never raised; a seed outside 0..MAX_SEED raises ValueError
    (``seeded_rng``).  A round is ``step``'s, made here with ``_below``
    inline as the fast path, which tests check against ``step``: a dead
    draw (a listening edge in directed mode, or an absent edge whose
    partner half is absent) is NO_CHANGE without a ``fire`` call, and every
    no-change round on one typed edge appends the same ``Move``.  So is a
    quiet draw, a pair that answered NO_CHANGE since the last fired move,
    and the scans skip quiet pairs (``witnesses``): ``classify`` reads only
    the network, which only a fired move changes, so their answer stands."""
    n = initial.n
    if max_steps is None:
        max_steps = 50 * n ** 6
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    scan_interval = max(1, 2 * n * (n - 1))
    bits = seeded_rng(seed).getrandbits
    net = initial.copy()
    balls = ReachBalls(net, params, targets)
    moves: List[Move] = []
    # [listening][u]: bit v set when the typed edge (u, v) is quiet
    quiet = ([0] * n, [0] * n)
    converged = next(balls.witnesses(quiet), None) is None
    fire, no_change = balls.fire, MoveKind.NO_CHANGE
    directed = params.mode is Mode.DIRECTED
    # [listening]; the partner half of listening (u, v) is speaking (v, u)
    kinds = (EdgeKind.SPEAKING, EdgeKind.LISTENING)
    rows = (net._speak_out, net._listen_out)
    # [listening][u][v], filled as rounds come: made up front, it would
    # hold 2*n*n moves, 2*10**8 at a document's 10,000 agents
    idle = ([{} for _ in range(n)], [{} for _ in range(n)])
    u_width, v_width = n.bit_length(), (n - 1).bit_length()
    steps = 0
    while not converged and steps < max_steps:
        r = bits(2)
        while r >= 2:
            r = bits(2)
        u = bits(u_width)
        while u >= n:
            u = bits(u_width)
        v = bits(v_width)
        while v >= n - 1:
            v = bits(v_width)
        if v >= u:
            v += 1
        if quiet[r][u] >> v & 1 or not (
                not r if directed
                else rows[r][u] >> v & 1 or rows[1 - r][v] >> u & 1):
            kind = no_change
        else:
            kind = fire(kinds[r], u, v)
            if kind is no_change:
                quiet[r][u] |= 1 << v
            else:
                quiet = ([0] * n, [0] * n)
        if kind is no_change:
            move = idle[r][u].get(v)
            if move is None:
                move = idle[r][u][v] = Move(no_change, kinds[r], u, v)
        else:
            move = Move(kind, kinds[r], u, v)
        moves.append(move)
        steps += 1
        if steps % scan_interval == 0:
            converged = next(balls.witnesses(quiet), None) is None
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


def never_readd_check(trace: Trace) -> bool:
    """Whether no move of a bidirected trace adds a half of a pair whose
    halves -- the speaking edge (u, v) and the listening edge (v, u) -- are
    both absent: once dead, a pair stays dead.  A directed trace passes.
    Raises TraceError if the moves do not replay to the recorded final."""
    net = trace.initial.copy()
    bidirected = trace.params.mode is Mode.BIDIRECTED
    for mv in trace.moves:
        apply_move(net, mv)  # an add's own half was absent, or this raised
        # the partner of edge (u, v) is the other kind's edge (v, u)
        if bidirected and mv.kind.add and not (
                net.has_listening if mv.kind.speaking
                else net.has_speaking)(mv.v, mv.u):
            return False
    if net != trace.final:
        raise TraceError("trace does not replay to its recorded final network")
    return True
