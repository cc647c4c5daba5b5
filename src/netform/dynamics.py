"""Edge classification and the asynchronous stochastic edge dynamics.

Each round samples one typed ordered pair uniformly from the 2*n*(n-1)
possibilities and applies the strict add/remove rule for its owner: an
absent edge is added iff adding it strictly increases the owner's utility,
a present edge is removed iff removing it strictly increases it.

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


def _owner_reach_count(net, params, targets, kind: EdgeKind, u: int) -> int:
    # Toggling an outgoing speaking edge of u can only change u's forward
    # reach, and toggling an outgoing listening edge of u only its backward
    # reach: a shortest live path never revisits its endpoint, so edges
    # incident to u in the other role cannot appear on it.
    if kind is EdgeKind.SPEAKING:
        return targets.speak_count(u, _bfs(net, params.k, u, True, params.mode))
    return targets.listen_count(u, _bfs(net, params.k, u, False, params.mode))


def classify(net: BidirectedNetwork, params: Params, targets: TargetSets,
             kind: EdgeKind, u: int, v: int) -> Classification:
    """Addable/removable status of the typed edge (u, v) for its owner u."""
    net._check_pair(u, v)
    if kind is EdgeKind.LISTENING and params.mode is Mode.DIRECTED:
        # Listening is implicit and free in the reduced model; toggling a
        # listening edge never strictly changes any utility.
        return (Classification.STAY_PRESENT if net.has_listening(u, v)
                else Classification.STAY_ABSENT)

    if kind is EdgeKind.SPEAKING:
        present = net.has_speaking(u, v)
        cost = params.c_s
        add, remove = net.add_speaking, net.remove_speaking
    else:
        present = net.has_listening(u, v)
        cost = params.c_l
        add, remove = net.add_listening, net.remove_listening

    base = _owner_reach_count(net, params, targets, kind, u)
    if present:
        remove(u, v)
        alt = _owner_reach_count(net, params, targets, kind, u)
        add(u, v)
        lost = base - alt
        return Classification.REMOVABLE if lost < cost else Classification.STAY_PRESENT
    add(u, v)
    alt = _owner_reach_count(net, params, targets, kind, u)
    remove(u, v)
    gain = alt - base
    return Classification.ADDABLE if gain > cost else Classification.STAY_ABSENT


def iter_typed_pairs(n: int):
    for kind in (EdgeKind.SPEAKING, EdgeKind.LISTENING):
        for u in range(n):
            for v in range(n):
                if u != v:
                    yield kind, u, v


def _witnesses(net: BidirectedNetwork, params: Params, targets: TargetSets):
    for kind, u, v in iter_typed_pairs(net.n):
        cls = classify(net, params, targets, kind, u, v)
        if cls is Classification.ADDABLE or cls is Classification.REMOVABLE:
            yield kind, u, v, cls


def find_witness(net: BidirectedNetwork, params: Params,
                 targets: TargetSets = ALL_OTHERS
                 ) -> Optional[Tuple[EdgeKind, int, int, Classification]]:
    """First addable or removable typed edge in deterministic order, or None."""
    return next(_witnesses(net, params, targets), None)


def scan_witnesses(net: BidirectedNetwork, params: Params,
                   targets: TargetSets = ALL_OTHERS
                   ) -> List[Tuple[EdgeKind, int, int, Classification]]:
    return list(_witnesses(net, params, targets))


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
