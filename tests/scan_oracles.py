"""Test oracles for the ball-based stability checks: the edge rule and the
bi-pairwise joint additions decided by mutating a copy of the network and
recomputing reach or utility from scratch."""

from netform import (Classification, EdgeKind, Mode, agent_utility,
                     listening_reach, speaking_reach)


def _owner_reach_count(net, params, targets, kind, u):
    if kind is EdgeKind.SPEAKING:
        return targets.speak_count(u, speaking_reach(net, params, u))
    return targets.listen_count(u, listening_reach(net, params, u))


def classify_by_toggle(net, params, targets, kind, u, v):
    """Toggle the typed edge on a copy and compare the owner's reach count
    before and after against the edge cost."""
    if kind is EdgeKind.LISTENING and params.mode is Mode.DIRECTED:
        return (Classification.STAY_PRESENT if net.has_listening(u, v)
                else Classification.STAY_ABSENT)
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
    if present:
        return (Classification.REMOVABLE if base - alt < cost
                else Classification.STAY_PRESENT)
    return (Classification.ADDABLE if alt - base > cost
            else Classification.STAY_ABSENT)


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
