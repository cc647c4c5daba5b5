"""Constructive convergence path for the directed unbounded-horizon regime.

From any starting network this emits an explicit finite sequence of single
addable/removable speaking-edge moves ending in a stable graph, following a
fixed step discipline:

  1. strip removable edges (lexicographic order) until none remain;
  2. stop if nothing is addable;
  3. condense into strongly connected components and split them at the
     largeness threshold;
  5. if a large root can reach a distinct large leaf, connect leaf to root;
  6. else if several large components exist, none reaches another: connect
     the first two both ways;
  7. else if a small leaf component exists (an isolated vertex), connect it
     into the unique large component;
  8. else connect the large component down into a qualifying small root
     component;
  then return to 1.

A component counts as *large* when its size strictly exceeds the speaking
cost: the strict form is what makes "any edge into a large component you
cannot reach is addable" true under the strict add rule, including integer
cost boundaries.  When the cost is at most 1 a stripped network can hold an
addable edge without any strictly-large component existing (e.g. a chain of
singletons at c = 1); in that regime every removable edge loses nothing, so
the constructor falls back to adding the lexicographically first addable
edge (labelled step 4), which strictly grows total reach and terminates.
Every emitted move is made by ``ReachBalls.fire``, which applies it only
when the edge rule allows it at its turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from .dynamics import EdgeKind, MoveKind, ReachBalls
from .errors import ConstructionError, LemmaCheckError
from .model import BidirectedNetwork, INF, Mode, Params, ascending
from .scc import condensation


@dataclass
class ComponentGraph:
    components: List[int]  # vertex bitsets, numbered by lowest vertex
    comp_of: List[int]
    reach: List[int]  # closed vertex reach of each component
    large: FrozenSet[int]  # component indices with size strictly above c

    def reaches(self, i: int, j: int) -> bool:
        """Component i reaches component j (every component reaches itself)."""
        return bool(self.reach[i] & self.components[j])

    def full_roots(self) -> List[int]:
        hit = 0  # vertices some other component reaches
        for comp, r in zip(self.components, self.reach):
            hit |= r & ~comp
        return [i for i, comp in enumerate(self.components) if not hit & comp]

    def full_leaves(self) -> List[int]:
        return [i for i, (comp, r) in enumerate(zip(self.components, self.reach))
                if r == comp]


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


@dataclass(frozen=True)
class CertMove:
    kind: MoveKind  # ADD_SPEAKING or REMOVE_SPEAKING
    u: int
    v: int
    step_label: int  # 1 (strip), 4 (small-cost fallback), 5, 6, 7, 8


@dataclass
class PathCertificate:
    moves: List[CertMove]
    final: BidirectedNetwork
    retired_edges: Set[Tuple[int, int]]
    lemma_results: List[Tuple[str, bool]] = field(default_factory=list)


def _require(params: Params):
    if params.mode is not Mode.DIRECTED:
        raise ValueError("path construction is defined for the directed-reduced mode")
    if params.k != INF:
        raise ValueError("path construction requires an unbounded horizon")
    if params.c_s <= 0:
        raise ValueError("path construction requires a positive speaking cost")


def condense(balls: ReachBalls) -> ComponentGraph:
    """The condensation of the held network, read from its forward balls at
    the current revision, which the edge rule then reuses."""
    _require(balls.params)
    closed = [balls.ball(v, True)[0] for v in range(balls.net.n)]
    comps, comp_of = condensation(closed)
    c = balls.params.c_s
    return ComponentGraph(
        components=comps, comp_of=comp_of,
        reach=[closed[_lowest(comp)] for comp in comps],
        large=frozenset(i for i, comp in enumerate(comps)
                        if comp.bit_count() > c))


def _addable(balls: ReachBalls, u: int, v: int) -> bool:
    return balls.classify(EdgeKind.SPEAKING, u, v) is MoveKind.ADD_SPEAKING


def _strip_inplace(balls: ReachBalls) -> List[CertMove]:
    removed = []
    restart = True
    while restart:
        restart = False
        for (u, v) in balls.net.edges(speaking=True):
            if balls.fire(EdgeKind.SPEAKING, u, v) is MoveKind.REMOVE_SPEAKING:
                removed.append(CertMove(MoveKind.REMOVE_SPEAKING, u, v, 1))
                # a lossless removal (v stays in u's ball, held after fire)
                # leaves every edge passed unremovable (same ball, a smaller
                # skip search), so the walk, which reads each row as it
                # reaches it, goes on; a lossy one restarts it
                if not balls.ball(u, True)[0] >> v & 1:
                    restart = True
                    break
    return removed


def _find_addable(balls: ReachBalls) -> Optional[Tuple[int, int]]:
    """The first addable speaking edge in ``witnesses`` order, or None: the
    walk's first witness with every present edge quiet."""
    net = balls.net
    quiet = ([net.successors(u, Mode.DIRECTED) for u in range(net.n)],
             [0] * net.n)
    for _, u, v, _ in balls.witnesses(quiet):
        return (u, v)
    return None


# -- invariant predicates for the constructed path ---------------------------

def lemma_checks(cg_before: ComponentGraph, cg: ComponentGraph,
                 step_label: int, balls: ReachBalls) -> List[Tuple[str, bool]]:
    """Concrete pass/fail predicates around one proof step.  ``cg_before``
    condenses the network just before the step fired, ``cg`` the network
    after the step plus the following strip, which ``balls`` holds."""
    net_after, c = balls.net, balls.params.c_s
    results: List[Tuple[str, bool]] = []
    before_large = len(cg_before.large)
    after_large = len(cg.large)

    if step_label == 1:
        # L27: the condensation is acyclic: no component reaches another
        # component that reaches back into it.
        results.append(("L27_condensation_acyclic", not any(
            cg.reach[cg.comp_of[x]] & comp
            for comp, r in zip(cg.components, cg.reach)
            for x in ascending(r & ~comp))))
        # L28: with no removable edges, every edge head's reach closure
        # (head included) holds at least c vertices.
        ok28 = all(balls.ball(v, True)[0].bit_count() >= c
                   for (_, v) in net_after.edges(speaking=True))
        results.append(("L28_edge_heads_reach_at_least_c", ok28))
        # L29: small leaf components are singletons, and edgeless ones when
        # c > 1 (at c <= 1 a singleton leaf may keep incoming edges: losing
        # a single vertex is not a strict improvement there).
        ok29 = True
        for i in cg.full_leaves():
            comp = cg.components[i]
            if i in cg.large:
                continue
            if comp.bit_count() == 1:
                v = _lowest(comp)
                if c <= 1 or not (net_after.in_speak(v)
                                  or net_after.out_speak(v)):
                    continue
            ok29 = False
        results.append(("L29_leaves_isolated_or_large", ok29))
        # L32: stripping never increases the number of large components.
        results.append(("L32_strip_large_count_nonincreasing",
                        after_large <= before_large))
    elif step_label == 4:
        # Fallback add: only legitimate in the small-cost regime where no
        # strictly-large component needs to exist.
        results.append(("L30_fallback_only_when_c_at_most_1", c <= 1))
    elif step_label == 5:
        results.append(("L33_step5_large_count_decreases",
                        after_large < before_large))
    elif step_label == 6:
        results.append(("L34_step6_large_count_decreases",
                        after_large < before_large))
    elif step_label == 7:
        results.append(("L35_step7_large_count_nonincreasing",
                        after_large <= before_large))
        # L35 also implies the strip after step 7 removes nothing; callers
        # verify that from the move stream.
    elif step_label == 8:
        results.append(("L25_step8_large_count_nonincreasing",
                        after_large <= before_large))
    return results


def _pre_step_checks(balls: ReachBalls, cg: ComponentGraph,
                     addable: Tuple[int, int]) -> List[Tuple[str, bool]]:
    u, v = addable
    results = [("L26_addable_spans_components",
                cg.comp_of[u] != cg.comp_of[v])]
    # L30 holds for the strict largeness threshold only when c > 1; at
    # c <= 1 an addable edge can exist in a pure-singleton condensation.
    if balls.params.c_s > 1:
        results.append(("L30_large_component_exists", bool(cg.large)))
    # L31 spot check: an edge from any vertex that cannot reach a large
    # component into that component is addable.
    if cg.large:
        i = min(cg.large)
        x = next((x for x in range(balls.net.n)
                  if not cg.reaches(cg.comp_of[x], i)), None)
        if x is not None:
            results.append(("L31_edge_into_unreached_large_addable",
                            _addable(balls, x, _lowest(cg.components[i]))))
    return results


def _apply_add(balls: ReachBalls, moves, u, v, label):
    if balls.fire(EdgeKind.SPEAKING, u, v) is not MoveKind.ADD_SPEAKING:
        raise LemmaCheckError(
            f"step {label} selected edge ({u}, {v}) that is not addable")
    moves.append(CertMove(MoveKind.ADD_SPEAKING, u, v, label))


def construct_path(start: BidirectedNetwork, params: Params,
                   assert_lemmas: bool = True,
                   max_moves: Optional[int] = None) -> PathCertificate:
    """Emit a finite addable/removable move sequence from ``start`` to a
    stable network.  With ``assert_lemmas`` every intermediate invariant is
    evaluated and a failure raises ``LemmaCheckError``."""
    _require(params)
    net = start.copy()
    balls = ReachBalls(net, params)
    n = net.n
    if max_moves is None:
        max_moves = 50 * n ** 3 + 200
    moves: List[CertMove] = []
    retired: Set[Tuple[int, int]] = set()
    lemma_results: List[Tuple[str, bool]] = []

    def record(checks):
        lemma_results.extend(checks)
        if assert_lemmas:
            for name, ok in checks:
                if not ok:
                    raise LemmaCheckError(f"lemma predicate {name} failed")

    # Each network state is condensed once: the start, each proof step's
    # add and each strip that removed an edge.  The graph after a strip
    # drives the next step and is the "after" of both checks around it.
    label = None
    while True:
        cg_before = condense(balls)
        stripped = _strip_inplace(balls)
        moves.extend(stripped)
        cg_after = condense(balls) if stripped else cg_before
        if label is not None:
            record(lemma_checks(cg, cg_after, label, balls))
        record(lemma_checks(cg_before, cg_after, 1, balls))
        if label == 7 and params.c_s > 1:
            # At c <= 1 every removable edge has zero reach loss, so the
            # strip after step 7 may fire without changing any reach set;
            # only for c > 1 does step 7 leave nothing removable.
            record([("L35_step7_leaves_nothing_removable", not stripped)])
        cg = cg_after
        if len(moves) > max_moves:
            raise ConstructionError(
                f"move budget {max_moves} exceeded (n={n}, c={params.c_s})")
        addable = _find_addable(balls)
        if addable is None:
            break  # step 2: stable
        for (u, v) in retired:
            if net.has_speaking(u, v) is False and _addable(balls, u, v):
                record([("L25_retired_edge_never_addable_again", False)])
        record(_pre_step_checks(balls, cg, addable))
        label = _one_proof_step(balls, cg, moves, retired, addable)

    return PathCertificate(moves=moves, final=net, retired_edges=retired,
                           lemma_results=lemma_results)


def _one_proof_step(balls: ReachBalls, cg: ComponentGraph,
                    moves: List[CertMove], retired: Set[Tuple[int, int]],
                    addable: Tuple[int, int]) -> int:
    net = balls.net
    large = sorted(cg.large)  # by index, so by lowest vertex

    # Small-cost fallback: an addable edge with no strictly-large component
    # (possible only for c <= 1, where strips never change any reach set).
    if not large:
        _apply_add(balls, moves, addable[0], addable[1], 4)
        return 4

    # Step 5: a large root that can reach a distinct large component; wire
    # one of its large leaves back up to the root.
    for t in large:
        if any(cg.reaches(j, t) for j in large if j != t):
            continue  # reached by another large component: not a root
        leaves = [j for j in large if j != t and cg.reaches(t, j)
                  and not any(cg.reaches(j, x) for x in large if x != j)]
        if leaves:
            l_i = _lowest(cg.components[leaves[0]])
            r_i = _lowest(cg.components[t])
            _apply_add(balls, moves, l_i, r_i, 5)
            return 5

    # Step 6: no large component reaches another (else step 5 fired), so
    # connect the first two both ways.
    if len(large) > 1:
        r1, r2 = (_lowest(cg.components[t]) for t in large[:2])
        _apply_add(balls, moves, r2, r1, 6)
        _apply_add(balls, moves, r1, r2, 6)
        return 6

    t1_vertices = cg.components[large[0]]
    r1 = _lowest(t1_vertices)

    # Step 7: a small leaf component (necessarily a singleton) gets an
    # edge into the large component.
    small_leaves = [i for i in cg.full_leaves() if i not in cg.large]
    if small_leaves:
        _apply_add(balls, moves, _lowest(cg.components[small_leaves[0]]), r1, 7)
        return 7

    # Step 8: the unique large component reaches nothing outside itself and
    # everything reaches it; connect it into a small root component whose
    # reach outside the large component strictly exceeds c.
    c = balls.params.c_s
    for i in cg.full_roots():
        outside = cg.reach[i] & ~t1_vertices
        if outside.bit_count() <= c:
            continue
        # the entry point of a path from the small root into the large
        # component: the head r_k of the first edge (t_k, r_k) crossing in
        r_k = next((b for (a, b) in net.edges(speaking=True)
                    if outside >> a & 1 and t1_vertices >> b & 1), None)
        if r_k is None:
            continue
        for s_k in ascending(cg.components[i]):
            if _addable(balls, r_k, s_k):
                _apply_add(balls, moves, r_k, s_k, 8)
                retired.add((r_k, s_k))
                return 8
    raise ConstructionError("step 8 found no qualifying small root component")


@dataclass(frozen=True)
class CertificateVerdict:
    """Truthy when a certificate replays; else why not ("unknown kind",
    "bad pair", "wrong classification", "final mismatch" or "final not
    stable") and the index of the failing move, None for the final checks."""
    ok: bool
    reason: str = ""
    move: Optional[int] = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        return (self.reason if self.move is None
                else f"move {self.move}: {self.reason}")


def validate_certificate(cert: PathCertificate, start: BidirectedNetwork,
                         params: Params) -> CertificateVerdict:
    """Replay every move, requiring the edge rule to make it at its turn,
    and require the terminal network to match and be stable."""
    net = start.copy()
    balls = ReachBalls(net, params)
    for i, mv in enumerate(cert.moves):
        if not mv.kind.speaking:
            return CertificateVerdict(False, "unknown kind", i)
        try:
            net._check_pair(mv.u, mv.v)
        except ValueError:
            return CertificateVerdict(False, "bad pair", i)
        if balls.fire(EdgeKind.SPEAKING, mv.u, mv.v) is not mv.kind:
            return CertificateVerdict(False, "wrong classification", i)
    if net != cert.final:
        return CertificateVerdict(False, "final mismatch")
    if next(balls.witnesses(), None) is not None:
        return CertificateVerdict(False, "final not stable")
    return CertificateVerdict(True)
