"""Game state and exact utility computation.

A network carries two independent kinds of directed edges: a *speaking*
edge (u, v) built by u toward v, and a *listening* edge (v, u) built by v
toward u (v accepts contact from u).  A step u -> v is traversable ("live")
only when the speaking edge (u, v) and the listening edge (v, u) are both
present; in the directed-reduced mode listening is implicit and speaking
edges alone are live.

Vertex sets are Python ints used as bitsets (bit w stands for vertex w):
adjacency rows, a network's only edge state, reach balls and target masks
alike, so a reach search ORs rows and a count is ``int.bit_count()``.

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

    def mask(self, v: int, forward: bool, n: int) -> int:
        """v's speaking (forward) or listening targets among n agents as a
        bitset, never holding v.  A member outside 0..n-1 is never reached,
        so it is left out."""
        tset = (self.speak if forward else self.listen).get(v)
        if tset is None:
            return ((1 << n) - 1) & ~(1 << v)
        return sum(1 << w for w in tset if 0 <= w < n)


ALL_OTHERS = TargetSets()


class BidirectedNetwork:
    """A network is its adjacency rows, its only edge state.  Vertex x has
    four int rows: ``_speak_out[x]`` has bit v when x speaks to v, and
    ``_speak_in[x]`` bit u when u speaks to x; ``_listen_out``/``_listen_in``
    likewise hold the listening edges (v, u), v listens to u.  The live rows
    ``_live_out[x] = _speak_out[x] & _listen_in[x]`` and ``_live_in[x] =
    _speak_in[x] & _listen_out[x]`` serve the bidirected reach; directed mode
    reads the speaking rows.  ``speaking``/``listening`` are read-only
    frozensets of pairs built per access: hot loops use ``has_speaking``/
    ``has_listening`` or the ordered walk ``edges``.
    """

    __slots__ = ("n", "_speak_out", "_speak_in", "_listen_out", "_listen_in",
                 "_live_out", "_live_in", "revision")

    def __init__(self, n: int, speaking: Iterable = (), listening: Iterable = ()):
        if n < 1:
            raise ValueError("need at least one agent")
        self.n = n
        (self._speak_out, self._speak_in, self._listen_out, self._listen_in,
         self._live_out, self._live_in) = ([0] * n for _ in range(6))
        self.revision = 0
        for u, v in speaking:
            self.add_speaking(u, v)
        for v, u in listening:
            self.add_listening(v, u)
        self.revision = 0

    @classmethod
    def from_out_rows(cls, speak_out: list, listen_out: list
                      ) -> "BidirectedNetwork":
        """The network, at revision 0, with these out-rows: bit v of
        ``speak_out[u]`` when u speaks to v, bit u of ``listen_out[v]`` when
        v listens to u.  Its in-rows and live rows are derived from them.
        The caller passes n rows of each kind, every row a nonnegative int
        of vertices in 0..n-1 other than its own."""
        net = cls(len(speak_out))
        net._speak_out, net._listen_out = list(speak_out), list(listen_out)
        net._speak_in = _transpose(speak_out)
        net._listen_in = _transpose(listen_out)
        net._live_out = [s & l for s, l in zip(speak_out, net._listen_in)]
        net._live_in = [s & l for s, l in zip(net._speak_in, listen_out)]
        return net

    def _check_pair(self, u: int, v: int):
        if u == v:
            raise ValueError(f"self-pair ({u}, {v}) is not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"pair ({u}, {v}) out of range for n={self.n}")

    # -- mutation ---------------------------------------------------------

    def _flip(self, speaking: bool, a: int, b: int, add: bool):
        """Add or remove the speaking or listening edge (a, b) in its two
        rows and refresh the live rows of its step.  A bad pair, or an edge
        present (add) or absent (remove), raises ValueError and changes
        nothing."""
        self._check_pair(a, b)
        out, into = ((self._speak_out, self._speak_in) if speaking
                     else (self._listen_out, self._listen_in))
        if (out[a] >> b & 1) == add:
            raise ValueError(f"{'speaking' if speaking else 'listening'} edge "
                             f"({a}, {b}) {'already' if add else 'not'} present")
        out[a] ^= 1 << b
        into[b] ^= 1 << a
        u, v = (a, b) if speaking else (b, a)  # the step u -> v
        self._live_out[u] = self._speak_out[u] & self._listen_in[u]
        self._live_in[v] = self._speak_in[v] & self._listen_out[v]
        self.revision += 1

    def add_speaking(self, u: int, v: int):
        self._flip(True, u, v, True)

    def remove_speaking(self, u: int, v: int):
        self._flip(True, u, v, False)

    def add_listening(self, v: int, u: int):
        """v starts listening to u (enables the live step u -> v)."""
        self._flip(False, v, u, True)

    def remove_listening(self, v: int, u: int):
        self._flip(False, v, u, False)

    # -- queries ----------------------------------------------------------

    def has_speaking(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and \
            bool(self._speak_out[u] >> v & 1)

    def has_listening(self, v: int, u: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and \
            bool(self._listen_out[v] >> u & 1)

    def edges(self, speaking: bool):
        """The speaking (or listening) edges in lexicographic order."""
        rows = self._speak_out if speaking else self._listen_out
        return ((a, b) for a, row in enumerate(rows) for b in ascending(row))

    @property
    def speaking(self) -> frozenset:
        """Speaking edges (u, v), u speaks to v; built on every access."""
        return frozenset(self.edges(speaking=True))

    @property
    def listening(self) -> frozenset:
        """Listening edges (v, u), v listens to u; built on every access."""
        return frozenset(self.edges(speaking=False))

    def _rows(self, forward: bool, mode: Mode) -> list:
        """The live successor (forward) or predecessor rows of ``mode``."""
        if mode is Mode.DIRECTED:
            return self._speak_out if forward else self._speak_in
        return self._live_out if forward else self._live_in

    def successors(self, x: int, mode: Mode) -> set:
        return vertices(self._rows(True, mode)[x])

    def out_speak(self, v: int) -> int:
        return self._speak_out[v].bit_count()

    def out_listen(self, v: int) -> int:
        return self._listen_out[v].bit_count()

    def in_speak(self, v: int) -> int:
        return self._speak_in[v].bit_count()

    def in_listen(self, v: int) -> int:
        return self._listen_in[v].bit_count()

    def copy(self) -> "BidirectedNetwork":
        """An independent network with the same rows, at revision 0."""
        out = BidirectedNetwork(self.n)
        (out._speak_out, out._speak_in, out._listen_out, out._listen_in,
         out._live_out, out._live_in) = (
            row[:] for row in (self._speak_out, self._speak_in,
                               self._listen_out, self._listen_in,
                               self._live_out, self._live_in))
        return out

    def canonical(self):
        return (self.n, tuple(self.edges(speaking=True)),
                tuple(self.edges(speaking=False)))

    def __eq__(self, other):
        return (isinstance(other, BidirectedNetwork)
                and self.n == other.n
                and self._speak_out == other._speak_out
                and self._listen_out == other._listen_out)

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        _, speaking, listening = self.canonical()
        return (f"BidirectedNetwork(n={self.n}, speaking={list(speaking)}, "
                f"listening={list(listening)})")


def all_complete(net: BidirectedNetwork) -> bool:
    """Every speaking edge (u, v) has its partner (v, u), v listening to u."""
    return net._speak_out == net._listen_in


def ascending(bits: int) -> list:
    """The vertices of a bitset, lowest first."""
    out = []
    while bits:
        x = bits.bit_length() - 1
        out.append(x)
        bits ^= 1 << x
    out.reverse()  # decoded from the top: bit_length finds the highest bit
    return out


def _transpose(rows: list) -> list:
    """In-rows from out-rows: bit b of row a becomes bit a of row b."""
    out = [0] * len(rows)
    for a, row in enumerate(rows):
        while row:
            b = row.bit_length() - 1
            out[b] |= 1 << a
            row ^= 1 << b
    return out


def vertices(bits: int) -> set:
    """The vertices of a bitset."""
    return set(ascending(bits))


def _bfs(net: BidirectedNetwork, k, v: int, forward: bool, mode: Mode,
         skip=None):
    """The only reach search: the ball of v, vertices within k live steps
    (never v), and its last layer, those at distance exactly k (0 when the
    search ran out first, so always for k = INF), both as bitsets.  ``skip``
    leaves out v's own step to that vertex: the ball after removing that
    live edge.  Each layer ORs the rows of the frontier's vertices."""
    rows = net._rows(forward, mode)
    seen = 1 << v
    frontier = rows[v]  # no row holds its own vertex
    if skip is not None:
        frontier &= ~(1 << skip)  # only here: a longer path may reach it
    depth = 1
    while frontier and depth < k:
        seen |= frontier
        depth += 1
        nxt = 0
        while frontier:
            x = frontier.bit_length() - 1
            nxt |= rows[x]
            frontier ^= 1 << x
        frontier = nxt & ~seen
    return (seen | frontier) & ~(1 << v), frontier


def _count(net: BidirectedNetwork, params: Params, targets: TargetSets,
           v: int, forward: bool) -> int:
    """How many of v's targets its speaking (forward) or listening reach
    holds, from a fresh search: the only from-scratch reach reader."""
    if not 0 <= v < net.n:
        raise ValueError(f"vertex {v} out of range")
    return (_bfs(net, params.k, v, forward, params.mode)[0]
            & targets.mask(v, forward, net.n)).bit_count()


def agent_utility(net: BidirectedNetwork, params: Params,
                  targets: TargetSets, v: int) -> Fraction:
    """v's total utility from fresh searches: the from-scratch definition
    ``brute_force_nash`` uses and ``ReachBalls.scaled_utility`` is tested
    against.  Directed mode counts the speaking half only."""
    u = _count(net, params, targets, v, True) - params.c_s * net.out_speak(v)
    if params.mode is Mode.DIRECTED:
        return u
    return (u + _count(net, params, targets, v, False)
            - params.c_l * net.out_listen(v))


def utility(net: BidirectedNetwork, params: Params,
            targets: TargetSets = ALL_OTHERS, v: int = 0) -> Fraction:
    """``agent_utility``.  Nothing calls it: it stays only because the
    benchmark tracer (``perfbench/tracer.LAYERS``) wraps this name."""
    return agent_utility(net, params, targets, v)


def welfare(net: BidirectedNetwork, params: Params,
            targets: TargetSets = ALL_OTHERS) -> Fraction:
    return sum((agent_utility(net, params, targets, v) for v in range(net.n)),
               Fraction(0))
