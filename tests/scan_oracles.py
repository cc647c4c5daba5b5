"""Test oracles for the bitset reach kernel, the ball-based stability
checks, the census, the dynamics' draw and the convergence strip: the
set-based reach search the kernel replaced, the edge rule and the
bi-pairwise joint additions decided by mutating a copy of the network and
recomputing reach or utility from scratch, the raw census enumeration
(every mask, with its own reach balls and row cells) that the walk by
relabelling class replaced, the efficiency and PoA/PoS searches over every
network with from-scratch welfare and a full witness scan, the typed-pair
order of the witness walk, the ``randrange`` sampler that ``dynamics.step``
once called, the strip that restarts its sweep after every removal, the
pair-by-pair search for the path's next addable edge, and the re-add check
that keeps the set of dead pairs."""

from fractions import Fraction

from conftest import oracle_live
from netform import (ALL_OTHERS, EdgeKind, Mode, ReachBalls, agent_utility,
                     all_complete, is_stable, welfare)
from netform.convergence import CertMove
from netform.dynamics import MoveKind, apply_move
from netform.equilibrium import bi_pairwise, enumeration_bits, net_from_mask


def bfs_by_sets(net, k, v, forward, mode, skip=None):
    """Reach over vertex sets, one live step at a time: the ball of v
    within k steps (never v) and the layer at distance exactly k, with v's
    own step to ``skip`` left out; ``model._bfs`` returns the ball with v
    and without that layer.  Steps come from edge queries
    (``conftest.oracle_live``), so no row is read."""
    nbrs = [{y for y in range(net.n) if oracle_live(net, mode, x, y)}
            for x in range(net.n)]
    if not forward:
        nbrs = [{y for y in range(net.n) if x in nbrs[y]}
                for x in range(net.n)]
    seen = {v} if skip is None else {v, skip}
    frontier = [v]
    depth = 0
    while frontier and depth < k:
        depth += 1
        nxt = []
        for x in frontier:
            for y in nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if depth == 1 and skip is not None:
            seen.discard(skip)  # still reachable by a longer path
        frontier = nxt
    seen.discard(v)
    return seen, set(frontier)


def iter_typed_pairs(n):
    """Every typed pair ``(kind, u, v)`` in the order ``ReachBalls.witnesses``
    walks: speaking before listening, u ascending, then v ascending."""
    for kind in (EdgeKind.SPEAKING, EdgeKind.LISTENING):
        for u in range(n):
            for v in range(n):
                if u != v:
                    yield kind, u, v


def sample_by_randrange(rng, n):
    """A dynamics round's typed pair ``(kind, u, v)`` drawn the way
    ``dynamics.step`` drew it through ``random.Random.randrange``."""
    kind = EdgeKind.SPEAKING if rng.randrange(2) == 0 else EdgeKind.LISTENING
    u = rng.randrange(n)
    v = rng.randrange(n - 1)
    if v >= u:
        v += 1
    return kind, u, v


def oracle_strip(balls):
    """``convergence._strip_inplace`` as it was before removals kept the
    balls: remove the lexicographically first removable speaking edge of
    ``balls.net`` and restart the sweep from the first edge, until none is
    removable.  The removals, as strip moves."""
    net = balls.net
    removed = []
    progress = True
    while progress:
        progress = False
        for (u, v) in net.edges(speaking=True):
            if balls.classify(EdgeKind.SPEAKING, u, v) \
                    is MoveKind.REMOVE_SPEAKING:
                net.remove_speaking(u, v)
                removed.append(CertMove(MoveKind.REMOVE_SPEAKING, u, v, 1))
                progress = True
                break
    return removed


def find_addable_by_pairs(balls):
    """``convergence._find_addable`` as a double loop over the pairs: the
    first absent speaking edge (u, v), u then v ascending, that ``classify``
    answers addable, or None."""
    net = balls.net
    for u in range(net.n):
        for v in range(net.n):
            if u != v and not net.has_speaking(u, v) and \
                    balls.classify(EdgeKind.SPEAKING, u, v) \
                    is MoveKind.ADD_SPEAKING:
                return (u, v)
    return None


def never_readd_by_dead_set(trace):
    """``dynamics.never_readd_check`` as a set of the dead pairs: every pair
    (a, b) with neither the speaking edge (a, b) nor the listening edge
    (b, a), taken from the initial network and from each move; an add into
    the set fails.  A directed trace passes without a replay."""
    if trace.params.mode is Mode.DIRECTED:
        return True
    net = trace.initial.copy()
    dead = {(u, v) for u in range(net.n) for v in range(net.n)
            if u != v and not net.has_speaking(u, v)
            and not net.has_listening(v, u)}
    for mv in trace.moves:
        if mv.kind is MoveKind.NO_CHANGE:
            continue
        # a listening move on (u, v) belongs to pair (v, u)
        a, b = (mv.u, mv.v) if mv.kind.speaking else (mv.v, mv.u)
        if (a, b) in dead and mv.kind.add:
            return False
        apply_move(net, mv)
        if not net.has_speaking(a, b) and not net.has_listening(b, a):
            dead.add((a, b))
    return True


def _owner_reach_count(net, params, targets, kind, u):
    forward = kind is EdgeKind.SPEAKING
    reach = bfs_by_sets(net, params.k, u, forward, params.mode)[0]
    tset = (targets.speak if forward else targets.listen).get(u)
    return len(reach) if tset is None else len(reach & tset)


def classify_by_toggle(net, params, targets, kind, u, v):
    """Toggle the typed edge on a copy and compare the owner's reach count
    before and after against the edge cost: the toggle's move if it strictly
    pays, else NO_CHANGE."""
    if kind is EdgeKind.LISTENING and params.mode is Mode.DIRECTED:
        return MoveKind.NO_CHANGE
    work = net.copy()
    if kind is EdgeKind.SPEAKING:
        present, cost = work.has_speaking(u, v), params.c_s
        add, remove = work.add_speaking, work.remove_speaking
    else:
        present, cost = work.has_listening(u, v), params.c_l
        add, remove = work.add_listening, work.remove_listening
    base = _owner_reach_count(work, params, targets, kind, u)
    (remove if present else add)(u, v)
    alt = _owner_reach_count(work, params, targets, kind, u)
    pays = base - alt < cost if present else alt - base > cost
    return (MoveKind(("-" if present else "+") + kind.value) if pays
            else MoveKind.NO_CHANGE)


def bi_pairwise_by_utility(net, params, targets):
    """(verdict, witness) of the joint-addition part of bi-pairwise
    stability: the first pair (u, v) whose joint addition of the speaking
    edge (u, v) and the listening edge (v, u) strictly helps u and does not
    strictly harm v, from total utilities before and after."""
    work = net.copy()
    for u in range(net.n):
        for v in range(net.n):
            if u == v:
                continue
            add_s = not work.has_speaking(u, v)
            add_l = not work.has_listening(v, u)
            if not (add_s or add_l):
                continue
            before_u = agent_utility(work, params, targets, u)
            before_v = agent_utility(work, params, targets, v)
            if add_s:
                work.add_speaking(u, v)
            if add_l:
                work.add_listening(v, u)
            after_u = agent_utility(work, params, targets, u)
            after_v = agent_utility(work, params, targets, v)
            if add_s:
                work.remove_speaking(u, v)
            if add_l:
                work.remove_listening(v, u)
            if after_u > before_u and not after_v < before_v:
                return False, (u, v, after_u - before_u, after_v - before_v)
    return True, None


def iter_all_networks(n, mode):
    """Every network on n agents, in mask order."""
    for mask in range(2 ** enumeration_bits(n, mode)):
        yield net_from_mask(n, mask, mode)


def census_by_mask(n, params, targets=ALL_OTHERS):
    """``(mask, balls)`` for every network on n agents, in mask order, with
    fresh reach balls per network: the raw enumeration that the census by
    relabelling class (``equilibrium.classes`` and the CLI's rows over
    it) is checked against."""
    for mask, net in enumerate(iter_all_networks(n, params.mode)):
        yield mask, ReachBalls(net, params, targets)


def census_cells_by_mask(n, params):
    """Every mask's ``netform census`` cells after the mask (welfare, stable,
    bi_pairwise, complete, symmetric) as CSV text, computed per mask."""
    for mask, balls in census_by_mask(n, params):
        report = bi_pairwise(balls)
        utilities = [balls.scaled_utility(v) for v in range(n)]
        yield mask, [str(Fraction(sum(utilities), balls.scale)),
                     str(int(report.stable)), str(int(report.bi_pairwise)),
                     str(int(all_complete(balls.net))),
                     str(int(len(set(utilities)) <= 1))]


def efficient_search_by_definition(n, params, targets):
    """The welfare optimum over every network on n agents and its argmax
    masks in ascending order, with ``welfare`` recomputed per network."""
    best, argmax = None, []
    for mask, net in enumerate(iter_all_networks(n, params.mode)):
        w = welfare(net, params, targets)
        if best is None or w > best:
            best, argmax = w, [mask]
        elif w == best:
            argmax.append(mask)
    return best, argmax


def poa_pos_by_definition(n, params, targets):
    """The welfare optimum and the worst and best stable welfare (``None``
    when no network is stable), from ``welfare`` and ``is_stable`` per
    network."""
    best = worst_stable = best_stable = None
    for net in iter_all_networks(n, params.mode):
        w = welfare(net, params, targets)
        if best is None or w > best:
            best = w
        if is_stable(net, params, targets).stable:
            if worst_stable is None or w < worst_stable:
                worst_stable = w
            if best_stable is None or w > best_stable:
                best_stable = w
    return best, worst_stable, best_stable
