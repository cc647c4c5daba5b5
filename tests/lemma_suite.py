"""Shared invariant suite used by the property tests and the acceptance run.

Each function returns a list of violation labels (empty = all invariants
hold) so bulk runs can report exactly which claim broke and where.  Every
predicate is stated under the strict add/remove semantics (add iff gain
strictly exceeds cost, remove iff loss strictly below cost), so a few of the
component-graph claims carry an explicit cost-regime condition: at c <= 1 a
singleton leaf may legally keep incoming edges, and a removable-free graph
with an addable edge need not contain a large component.
"""

import networkx as nx

from conftest import oracle_live, strip_removables
from netform import (ALL_OTHERS, INF, BidirectedNetwork, EdgeKind, Mode,
                     MoveKind, Params, all_complete, classify,
                     is_bi_pairwise_stable, is_stable)
from scan_oracles import bfs_by_sets


def _live_graph(net: BidirectedNetwork, mode: Mode) -> nx.DiGraph:
    """The live-step digraph, for networkx's independent condensation."""
    g = nx.DiGraph()
    g.add_nodes_from(range(net.n))
    g.add_edges_from((u, v) for u in range(net.n) for v in range(net.n)
                     if oracle_live(net, mode, u, v))
    return g


def _live_strongly_connected(net: BidirectedNetwork, mode: Mode) -> bool:
    return nx.is_strongly_connected(_live_graph(net, mode))


def bidirected_violations(net: BidirectedNetwork, params: Params) -> list:
    """Invariants of the full (speaking + listening) game:

    - pairwise stability implies stability;
    - with both costs positive, stable or pairwise-stable networks are
      complete (every speaking edge has its return listening edge);
    - a speaking edge with no return listening edge is dead weight and is
      always removable when speaking costs anything;
    - a stable, strongly connected network is pairwise stable (unbounded
      horizon: no joint addition can create new reach).
    """
    out = []
    rep = is_bi_pairwise_stable(net, params)
    if rep.bi_pairwise and not rep.stable:
        out.append("pairwise-implies-stable")
    if params.c_s > 0 and params.c_l > 0:
        if rep.stable and not all_complete(net):
            out.append("stable-implies-complete")
        if rep.bi_pairwise and not all_complete(net):
            out.append("pairwise-implies-complete")
    if params.c_s > 0:
        for (v, w) in net.speaking:
            if not net.has_listening(w, v):
                move = classify(net, params, ALL_OTHERS,
                                EdgeKind.SPEAKING, v, w)
                if move is not MoveKind.REMOVE_SPEAKING:
                    out.append(f"dead-edge-removable:{v}->{w}")
    if (params.k == INF and rep.stable and rep.bi_pairwise is False
            and _live_strongly_connected(net, params.mode)):
        out.append("stable-scc-implies-pairwise")
    return out


def directed_violations(net: BidirectedNetwork, params: Params) -> list:
    """Invariants of the unbounded-horizon speaking-only reduction used by
    the convergence-path construction:

    - an addable edge always crosses two strongly connected components;
    - the component graph is acyclic;
    - the head of a non-removable edge reaches at least c vertices
      (counting itself);
    - with no removable edge, every leaf component is a single vertex or
      large (> c vertices); above unit cost the singleton is edgeless;
    - above unit cost, no removable edge plus an addable edge forces a
      large component to exist;
    - any edge into a large component from a vertex that does not reach it
      is addable;
    - stripping removable edges never increases the large-component count.
    """
    if params.mode is not Mode.DIRECTED or params.k != INF or params.c_s <= 0:
        raise ValueError("directed suite needs directed mode, k=inf, c_s > 0")
    out = []
    c = params.c_s
    n = net.n
    cond = nx.condensation(_live_graph(net, Mode.DIRECTED))
    if not nx.is_directed_acyclic_graph(cond):
        out.append("component-graph-acyclic")
    comps = [cond.nodes[i]["members"] for i in range(len(cond))]
    comp_of = cond.graph["mapping"]

    reach = {u: bfs_by_sets(net, params.k, u, True, params.mode)[0]
             for u in range(n)}
    removable = set()
    addable = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            move = classify(net, params, ALL_OTHERS, EdgeKind.SPEAKING, u, v)
            if move is MoveKind.ADD_SPEAKING:
                addable.append((u, v))
                if comp_of[u] == comp_of[v]:
                    out.append(f"addable-crosses-components:{u}->{v}")
            elif move is MoveKind.REMOVE_SPEAKING:
                removable.add((u, v))
            elif net.has_speaking(u, v) and 1 + len(reach[v]) < c:
                out.append(f"unremovable-head-reaches-c:{u}->{v}")

    large = {i for i, comp in enumerate(comps) if len(comp) > c}
    if not removable:
        for i, comp in enumerate(comps):
            if cond.out_degree(i) or i in large:
                continue
            if len(comp) > 1:
                out.append(f"leaf-singleton-or-large:{sorted(comp)}")
            elif c > 1:
                v = next(iter(comp))
                if net.in_speak(v) or net.out_speak(v):
                    out.append(f"leaf-singleton-edgeless:{v}")
        if addable and c > 1 and not large:
            out.append("addable-needs-large-component")

    for i in large:
        comp = set(comps[i])
        for u in range(n):
            if u in comp or comp & ({u} | reach[u]):
                continue
            for v in comp:
                move = classify(net, params, ALL_OTHERS,
                                EdgeKind.SPEAKING, u, v)
                if move is not MoveKind.ADD_SPEAKING:
                    out.append(f"edge-into-large-addable:{u}->{v}")

    before = len(large)
    stripped, _ = strip_removables(net, params)
    s_comps = nx.strongly_connected_components(
        _live_graph(stripped, Mode.DIRECTED))
    if sum(1 for comp in s_comps if len(comp) > c) > before:
        out.append("strip-large-count-nonincreasing")
    return out

