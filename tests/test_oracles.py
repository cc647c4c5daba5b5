"""networkx as an independent oracle for the SCC, condensation, topological
order and reach code."""

import random
from fractions import Fraction as F

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from netform import (INF, BidirectedNetwork, Mode, Params, listening_reach,
                     speaking_reach)
from netform.metrics import diameter
from netform.model import _bfs, vertices
from netform.scc import (condensation, dag_reachability,
                         strongly_connected_components, topological_order)

from scan_oracles import bfs_by_sets


@st.composite
def digraphs(draw, max_n=8, self_loops=False):
    """(n, edge set) of a random digraph; dense draws are usually cyclic."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(a, b) for a in range(n) for b in range(n) if self_loops or a != b]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))
                 if pairs else st.just(set()))
    return n, edges


def nx_graph(n, edges):
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def adjacency(n, edges):
    out = [set() for _ in range(n)]
    for a, b in edges:
        out[a].add(b)
    return out


class TestScc:
    @given(digraphs())
    @settings(max_examples=200, deadline=None)
    def test_components_match_networkx(self, graph):
        n, edges = graph
        comps = strongly_connected_components(n, adjacency(n, edges).__getitem__)
        expected = sorted(sorted(c) for c in
                          nx.strongly_connected_components(nx_graph(n, edges)))
        assert comps == expected

    @given(digraphs())
    @settings(max_examples=200, deadline=None)
    def test_condensation_and_reachability_match_networkx(self, graph):
        n, edges = graph
        comps, comp_of, dag = condensation(n, adjacency(n, edges).__getitem__)
        cg = nx.condensation(nx_graph(n, edges))
        # networkx numbers components arbitrarily: map through a member
        to_ours = {c: comp_of[min(cg.nodes[c]["members"])] for c in cg}
        assert sorted(to_ours.values()) == list(range(len(comps)))
        assert all(sorted(cg.nodes[c]["members"]) == comps[to_ours[c]]
                   for c in cg)
        assert dag == {(to_ours[a], to_ours[b]) for a, b in cg.edges}
        reach = dag_reachability(len(comps), dag)
        for c in cg:
            assert reach[to_ours[c]] == {to_ours[c]} | {
                to_ours[d] for d in nx.descendants(cg, c)}

    @given(digraphs(self_loops=True))
    @settings(max_examples=200, deadline=None)
    def test_topological_order_detects_cycles(self, graph):
        n, edges = graph
        order = topological_order(n, edges)
        acyclic = nx.is_directed_acyclic_graph(nx_graph(n, edges))
        assert (len(order) == n) == acyclic
        assert len(set(order)) == len(order)
        if acyclic:
            position = {v: i for i, v in enumerate(order)}
            assert all(position[a] < position[b] for a, b in edges)


@st.composite
def reach_cases(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    speaking = draw(st.sets(st.sampled_from(pairs)))
    listening = draw(st.sets(st.sampled_from(pairs)))
    mode = draw(st.sampled_from(Mode))
    k = draw(st.sampled_from((1, 2, 3, INF)))
    # directed mode must ignore the listening edges
    net = BidirectedNetwork(n, speaking, listening)
    return net, Params(k=k, c_s=F(1), c_l=F(0), mode=mode)


def live_graph(net: BidirectedNetwork, mode: Mode) -> nx.DiGraph:
    """Live steps from the edge sets alone: u -> v needs u speaking to v and,
    in bidirected mode, v listening to u."""
    speaking, listening = net.speaking, net.listening  # each built once
    return nx_graph(net.n, [(u, v) for u, v in speaking
                            if mode is Mode.DIRECTED or (v, u) in listening])


class TestReach:
    @given(reach_cases())
    @settings(max_examples=200, deadline=None)
    def test_reach_matches_bounded_shortest_paths(self, case):
        net, params = case
        g = live_graph(net, params.mode)
        cutoff = None if params.k == INF else params.k
        for v in range(net.n):
            fwd = nx.single_source_shortest_path_length(g, v, cutoff=cutoff)
            bwd = nx.single_source_shortest_path_length(g.reverse(), v,
                                                        cutoff=cutoff)
            assert speaking_reach(net, params, v) == set(fwd) - {v}
            assert listening_reach(net, params, v) == set(bwd) - {v}


@st.composite
def kernel_cases(draw, max_n=70):
    """A network built by adds and then some removals, so every mutator has
    touched the rows; n up to 70 makes rows cross 64 bits."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=max_n),
                       st.integers(min_value=60, max_value=max_n)))
    density = draw(st.sampled_from((0.02, 0.05, 0.1, 0.3)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    speaking = [p for p in pairs if rng.random() < density]
    listening = [p for p in pairs if rng.random() < 2 * density]
    net = BidirectedNetwork(n, speaking, listening)
    for u, v in rng.sample(speaking, len(speaking) // 4):
        net.remove_speaking(u, v)
    for v, u in rng.sample(listening, len(listening) // 4):
        net.remove_listening(v, u)
    mode = draw(st.sampled_from(Mode))
    k = draw(st.sampled_from((1, 2, 3, INF)))
    sources = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                            min_size=1, max_size=4))
    return net, mode, k, sources, rng


class TestReachKernel:
    @given(kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_bfs_matches_set_oracle_and_networkx(self, case):
        # ball and last layer, with and without a skipped step, in both
        # directions; networkx sees the skipped edge removed
        net, mode, k, sources, rng = case
        g = live_graph(net, mode)
        cutoff = None if k == INF else k
        for v in sources:
            for forward in (True, False):
                gv = g if forward else g.reverse()
                succ = sorted(gv.successors(v))
                for skip in [None] + ([rng.choice(succ)] if succ else []):
                    ball, last = _bfs(net, k, v, forward, mode, skip)
                    assert isinstance(ball, int) and isinstance(last, int)
                    expect_ball, expect_last = bfs_by_sets(net, k, v, forward,
                                                           mode, skip)
                    assert vertices(ball) == expect_ball
                    assert vertices(last) == expect_last
                    h = gv.copy()
                    if skip is not None:
                        h.remove_edge(v, skip)
                    dist = nx.single_source_shortest_path_length(h, v, cutoff)
                    assert expect_ball == set(dist) - {v}
                    assert expect_last == {w for w, d in dist.items()
                                           if d == k}

    @given(digraphs(max_n=10), st.sampled_from(Mode))
    @settings(max_examples=200, deadline=None)
    def test_diameter_matches_networkx(self, graph, mode):
        # the bisection over k-balls against networkx eccentricities; the
        # listening edges mirror the speaking ones, so both modes see the
        # same live graph
        n, edges = graph
        net = BidirectedNetwork(n, edges, [(b, a) for a, b in edges])
        g = nx_graph(n, edges)
        expected = (nx.diameter(g) if nx.is_strongly_connected(g) else INF)
        assert diameter(net, mode) == expected
