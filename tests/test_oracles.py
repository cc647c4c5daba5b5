"""networkx as an independent oracle for the SCC, condensation and reach
code."""

import random
from collections import Counter
from fractions import Fraction as F

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netform import (INF, BidirectedNetwork, Mode, Params, ReachBalls,
                     TargetSets, condense)
from netform.metrics import diameter, metrics
from netform.model import _bfs
from netform.scc import condensation

from conftest import held_reach, members, oracle_live
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


def bits(vertices):
    return sum(1 << v for v in vertices)


class TestScc:
    @given(digraphs(self_loops=True))
    @settings(max_examples=200, deadline=None)
    def test_components_match_networkx(self, graph):
        # the grouping rule alone, on closed reaches networkx computes
        n, edges = graph
        g = nx_graph(n, edges)
        comps, comp_of = condensation(
            [bits(nx.descendants(g, v) | {v}) for v in range(n)])
        expected = sorted(sorted(c) for c in nx.strongly_connected_components(g))
        assert comps == [bits(c) for c in expected]
        assert all(v in expected[comp_of[v]] for v in range(n))

    @given(digraphs(), st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(3)]))
    @settings(max_examples=200, deadline=None)
    def test_condensation_and_reachability_match_networkx(self, graph, c):
        n, edges = graph
        cg = condense(ReachBalls(BidirectedNetwork(n, edges),
                                 Params(k=INF, c_s=c, mode=Mode.DIRECTED)))
        nxc = nx.condensation(nx_graph(n, edges))
        members = {x: nxc.nodes[x]["members"] for x in nxc}
        # networkx numbers components arbitrarily; ours go by lowest vertex
        order = sorted(nxc, key=lambda x: min(members[x]))
        ours = {x: i for i, x in enumerate(order)}
        assert cg.components == [bits(members[x]) for x in order]
        assert cg.comp_of == [ours[nxc.graph["mapping"][v]] for v in range(n)]
        assert cg.reach == [bits(members[x].union(
            *(members[d] for d in nx.descendants(nxc, x)))) for x in order]
        assert cg.full_roots() == [ours[x] for x in order
                                   if nxc.in_degree(x) == 0]
        assert cg.full_leaves() == [ours[x] for x in order
                                    if nxc.out_degree(x) == 0]
        assert cg.large == {ours[x] for x in order if len(members[x]) > c}


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
            assert held_reach(net, params, v) == set(fwd) - {v}
            assert held_reach(net, params, v, False) == set(bwd) - {v}


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
        # the closed ball and closed inner ball, with and without a skipped
        # step, in both directions: the oracle's ball plus v, and its last
        # layer as their difference; networkx sees the skipped edge removed.
        # At k = inf a ball search reads a held map of true closed balls of
        # some other vertices, and a skip search that still reaches its
        # head answers None
        net, mode, k, sources, rng = case
        g = live_graph(net, mode)
        cutoff = None if k == INF else k
        for v in sources:
            for forward in (True, False):
                gv = g if forward else g.reverse()
                succ = sorted(gv.successors(v))
                held = None
                if k == INF:
                    held = {}
                    for x in rng.sample(range(net.n), rng.randint(0, net.n)):
                        if x != v:
                            b = bits(bfs_by_sets(net, k, x, forward, mode)[0]
                                     | {x})
                            held[x] = (b, b)
                whole = bfs_by_sets(net, k, v, forward, mode)[0]
                for skip in [None] + ([rng.choice(succ)] if succ else []):
                    expect_ball, expect_last = bfs_by_sets(net, k, v, forward,
                                                           mode, skip)
                    got = _bfs(net, k, v, forward, mode, skip,
                               held if skip is None else None)
                    if skip is not None and k == INF and skip in expect_ball:
                        assert got is None
                        assert expect_ball == whole
                    else:
                        ball, inner = got
                        assert isinstance(ball, int) and isinstance(inner, int)
                        assert members(ball) == expect_ball | {v}
                        assert inner >> v & 1 and not inner & ~ball
                        assert members(ball & ~inner) == expect_last
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


@st.composite
def metrics_cases(draw, max_n=8):
    """A network, a mode and speaking target sets, some of whose members lie
    outside 0..n-1 (polarization compares the raw sets)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
    net = BidirectedNetwork(n, draw(edges), draw(edges))
    speak = draw(st.dictionaries(
        st.integers(min_value=0, max_value=n - 1),
        st.frozensets(st.integers(min_value=-1, max_value=n))))
    targets = TargetSets(speak={v: t - {v} for v, t in speak.items()})
    return net, draw(st.sampled_from(Mode)), targets


class TestMetrics:
    @given(metrics_cases())
    @settings(max_examples=200, deadline=None)
    def test_metrics_match_networkx(self, case):
        # every number against networkx on graphs built from edge queries
        net, mode, targets = case
        n = net.n
        live = nx_graph(n, [(u, v) for u in range(n) for v in range(n)
                            if oracle_live(net, mode, u, v)])
        speaking = nx_graph(n, [(u, v) for u in range(n) for v in range(n)
                                if net.has_speaking(u, v)])
        m = metrics(net, Params(k=INF, c_s=F(1), mode=mode), targets)
        assert float(m.clustering) == pytest.approx(
            nx.transitivity(live.to_undirected()))
        assert float(m.reciprocity) == pytest.approx(
            nx.overall_reciprocity(speaking) if speaking.edges else 0)
        assert m.scc_sizes == Counter(
            len(c) for c in nx.strongly_connected_components(live))
        # the share of live steps between agents of different groups, a
        # group being an agent's speaking targets with itself
        group = {v: t | {v} for v, t in targets.speak.items()}
        if targets.speak and live.edges:
            crossing = sum(group.get(u) != group.get(v) for u, v in live.edges)
            assert m.polarization == F(crossing, live.number_of_edges())
        else:
            assert m.polarization is None
