"""Game state and exact utility computation.

A network carries two independent kinds of directed edges: a *speaking*
edge (u, v) built by u toward v, and a *listening* edge (v, u) built by v
toward u (v accepts contact from u).  A step u -> v is traversable ("live")
only when the speaking edge (u, v) and the listening edge (v, u) are both
present; in the directed-reduced mode listening is implicit and speaking
edges alone are live.

Costs are exact ``Fraction`` values: the addable/removable rules use strict
inequalities, so boundary cases like cost == gain must not depend on
floating-point rounding.  Reach gains and losses are integers, so the rules
compare them with the integer thresholds ``floor(c) + 1`` and ``ceil(c) - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

#: Sentinel for an unbounded path-length horizon.  Code must branch on it
#: explicitly; several results hold only in the unbounded regime.
INF = float("inf")


class Mode(Enum):
    #: Full model: both speaking and listening edges carry cost and meaning.
    BIDIRECTED = "bidirected"
    #: Reduced model with zero listening cost: every agent implicitly
    #: listens to everyone, so only speaking edges and speaking utility count.
    DIRECTED = "directed"


def _as_cost(value) -> Fraction:
    c = Fraction(value)
    if c < 0:
        raise ValueError(f"costs must be nonnegative, got {c}")
    return c


@dataclass(frozen=True)
class Params:
    """Game parameters: horizon k, edge costs, and utility mode."""

    k: object  # positive int or INF
    c_s: Fraction
    c_l: Fraction = Fraction(0)
    mode: Mode = Mode.BIDIRECTED

    def __post_init__(self):
        k = self.k
        if not (k == INF or (isinstance(k, int) and not isinstance(k, bool) and k >= 1)):
            raise ValueError(f"k must be a positive integer or INF, got {k!r}")
        object.__setattr__(self, "c_s", _as_cost(self.c_s))
        object.__setattr__(self, "c_l", _as_cost(self.c_l))
        if self.mode is Mode.DIRECTED and self.c_l != 0:
            raise ValueError("directed-reduced mode requires c_l = 0")


@dataclass(frozen=True)
class TargetSets:
    """Per-agent reach targets.  A vertex absent from a mapping targets
    everyone else (the default, un-generalized utility)."""

    speak: Mapping[int, frozenset] = field(default_factory=dict)
    listen: Mapping[int, frozenset] = field(default_factory=dict)

    def __post_init__(self):
        for name, mapping in (("speak", self.speak), ("listen", self.listen)):
            for v, tset in mapping.items():
                if v in tset:
                    raise ValueError(f"{name} target set of {v} contains itself")

    def speak_count(self, v: int, reach: set) -> int:
        tset = self.speak.get(v)
        return len(reach) if tset is None else len(reach & tset)

    def listen_count(self, v: int, reach: set) -> int:
        tset = self.listen.get(v)
        return len(reach) if tset is None else len(reach & tset)


ALL_OTHERS = TargetSets()


class BidirectedNetwork:
    """Mutable edge sets plus incrementally maintained adjacency.

    ``speaking`` holds ordered pairs (u, v): u speaks to v.
    ``listening`` holds ordered pairs (v, u): v listens to u.
    Live successors/predecessors come out as set intersections:
    succ(x) = speak_out[x] & listen_in[x], pred(x) = speak_in[x] & listen_out[x].
    """

    __slots__ = ("n", "speaking", "listening", "_speak_out", "_speak_in",
                 "_listen_out", "_listen_in", "revision")

    def __init__(self, n: int, speaking: Iterable = (), listening: Iterable = ()):
        if n < 1:
            raise ValueError("need at least one agent")
        self.n = n
        self.speaking: set = set()
        self.listening: set = set()
        self._speak_out = [set() for _ in range(n)]
        self._speak_in = [set() for _ in range(n)]
        self._listen_out = [set() for _ in range(n)]
        self._listen_in = [set() for _ in range(n)]
        self.revision = 0
        for u, v in speaking:
            self.add_speaking(u, v)
        for u, v in listening:
            self.add_listening(u, v)
        self.revision = 0

    def _check_pair(self, u: int, v: int):
        if u == v:
            raise ValueError(f"self-pair ({u}, {v}) is not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"pair ({u}, {v}) out of range for n={self.n}")

    # -- mutation ---------------------------------------------------------

    def add_speaking(self, u: int, v: int):
        self._check_pair(u, v)
        if (u, v) in self.speaking:
            raise ValueError(f"speaking edge ({u}, {v}) already present")
        self.speaking.add((u, v))
        self._speak_out[u].add(v)
        self._speak_in[v].add(u)
        self.revision += 1

    def remove_speaking(self, u: int, v: int):
        if (u, v) not in self.speaking:
            raise ValueError(f"speaking edge ({u}, {v}) not present")
        self.speaking.remove((u, v))
        self._speak_out[u].remove(v)
        self._speak_in[v].remove(u)
        self.revision += 1

    def add_listening(self, v: int, u: int):
        """v starts listening to u (enables the live step u -> v)."""
        self._check_pair(v, u)
        if (v, u) in self.listening:
            raise ValueError(f"listening edge ({v}, {u}) already present")
        self.listening.add((v, u))
        self._listen_out[v].add(u)
        self._listen_in[u].add(v)
        self.revision += 1

    def remove_listening(self, v: int, u: int):
        if (v, u) not in self.listening:
            raise ValueError(f"listening edge ({v}, {u}) not present")
        self.listening.remove((v, u))
        self._listen_out[v].remove(u)
        self._listen_in[u].remove(v)
        self.revision += 1

    # -- queries ----------------------------------------------------------

    def has_speaking(self, u: int, v: int) -> bool:
        return (u, v) in self.speaking

    def has_listening(self, v: int, u: int) -> bool:
        return (v, u) in self.listening

    def successors(self, x: int, mode: Mode) -> set:
        if mode is Mode.DIRECTED:
            return self._speak_out[x]
        return self._speak_out[x] & self._listen_in[x]

    def predecessors(self, x: int, mode: Mode) -> set:
        if mode is Mode.DIRECTED:
            return self._speak_in[x]
        return self._speak_in[x] & self._listen_out[x]

    def out_speak(self, v: int) -> int:
        return len(self._speak_out[v])

    def out_listen(self, v: int) -> int:
        return len(self._listen_out[v])

    def in_speak(self, v: int) -> int:
        return len(self._speak_in[v])

    def in_listen(self, v: int) -> int:
        return len(self._listen_in[v])

    def copy(self) -> "BidirectedNetwork":
        return BidirectedNetwork(self.n, self.speaking, self.listening)

    def canonical(self):
        return (self.n, tuple(sorted(self.speaking)), tuple(sorted(self.listening)))

    def __eq__(self, other):
        return (isinstance(other, BidirectedNetwork)
                and self.n == other.n
                and self.speaking == other.speaking
                and self.listening == other.listening)

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return (f"BidirectedNetwork(n={self.n}, speaking={sorted(self.speaking)}, "
                f"listening={sorted(self.listening)})")


def _bfs(net: BidirectedNetwork, k, v: int, forward: bool, mode: Mode,
         skip=None):
    """The only reach search: the ball of v, vertices within k live steps
    (never v), and its last layer, those at distance exactly k (empty when
    the search ran out first, so always for k = INF).  ``skip`` leaves out
    v's own step to that vertex: the ball after removing that live edge."""
    step = net.successors if forward else net.predecessors
    seen = {v} if skip is None else {v, skip}
    frontier = [v]
    depth = 0
    while frontier and depth < k:
        depth += 1
        nxt = []
        for x in frontier:
            for y in step(x, mode):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if depth == 1 and skip is not None:
            seen.discard(skip)  # still reachable by a longer path
        frontier = nxt
    seen.discard(v)
    return seen, frontier


def speaking_reach(net: BidirectedNetwork, params: Params, v: int) -> set:
    """Vertices reachable from v by live paths of length at most k; never v."""
    if not 0 <= v < net.n:
        raise ValueError(f"vertex {v} out of range")
    return _bfs(net, params.k, v, True, params.mode)[0]


def listening_reach(net: BidirectedNetwork, params: Params, v: int) -> set:
    """Vertices u such that v lies in u's speaking reach (backward closure)."""
    if not 0 <= v < net.n:
        raise ValueError(f"vertex {v} out of range")
    return _bfs(net, params.k, v, False, params.mode)[0]


@dataclass(frozen=True)
class UtilityBreakdown:
    speak_reach: int
    listen_reach: int
    out_speak: int
    out_listen: int
    u_s: Fraction
    u_l: Fraction
    u_total: Fraction


def utility(net: BidirectedNetwork, params: Params,
            targets: TargetSets = ALL_OTHERS, v: int = 0) -> UtilityBreakdown:
    sr = targets.speak_count(v, speaking_reach(net, params, v))
    lr = targets.listen_count(v, listening_reach(net, params, v))
    ds, dl = net.out_speak(v), net.out_listen(v)
    u_s = sr - params.c_s * ds
    u_l = lr - params.c_l * dl
    total = u_s if params.mode is Mode.DIRECTED else u_s + u_l
    return UtilityBreakdown(sr, lr, ds, dl, u_s, u_l, total)


def agent_utility(net: BidirectedNetwork, params: Params,
                  targets: TargetSets, v: int) -> Fraction:
    """Total utility of one agent (lean path for enumeration oracles)."""
    sr = targets.speak_count(v, speaking_reach(net, params, v))
    u_s = sr - params.c_s * net.out_speak(v)
    if params.mode is Mode.DIRECTED:
        return u_s
    lr = targets.listen_count(v, listening_reach(net, params, v))
    return u_s + lr - params.c_l * net.out_listen(v)


def welfare(net: BidirectedNetwork, params: Params,
            targets: TargetSets = ALL_OTHERS) -> Fraction:
    return sum((agent_utility(net, params, targets, v) for v in range(net.n)),
               Fraction(0))
