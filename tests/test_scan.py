"""The ball-based edge rule, witness scan and bi-pairwise check against the
toggle-and-recompute oracles in ``scan_oracles``."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import net_from_bits, oracle_utility
from netform import (ALL_OTHERS, INF, BidirectedNetwork, Classification,
                     EdgeKind, Mode, Move, MoveKind, Params, ReachBalls,
                     TargetSets, agent_utility, classify, construct_path,
                     find_witness, is_bi_pairwise_stable, is_stable, run,
                     scan_witnesses, validate_certificate)
from netform.dynamics import apply_move, iter_typed_pairs
from netform.generators import random_net
from scan_oracles import bi_pairwise_by_utility, classify_by_toggle

# zero, fractional and integer costs: with integer costs an integer gain or
# loss can equal the cost exactly, where the strict rule must not fire
COSTS = (F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(3))
KS = (1, 2, 3, INF)
FIRES = (Classification.ADDABLE, Classification.REMOVABLE)


@st.composite
def targets(draw, n):
    """Default targets, or a random target subset for some agents; a subset
    may hold vertices outside 0..n-1, which are never reached."""
    speak, listen = {}, {}
    for mapping in (speak, listen):
        for v in range(n):
            if draw(st.booleans()):
                others = [w for w in range(-1, n + 2) if w != v]
                mapping[v] = frozenset(draw(st.lists(
                    st.sampled_from(others), max_size=len(others))))
    return TargetSets(speak=speak, listen=listen)


@st.composite
def cases(draw, max_n=5, costs=COSTS):
    """(network, params, targets) in either mode, sparse to dense."""
    mode = draw(st.sampled_from((Mode.BIDIRECTED, Mode.DIRECTED)))
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = n * (n - 1) * (2 if mode is Mode.BIDIRECTED else 1)
    bits = st.integers(min_value=0, max_value=2 ** pairs - 1)
    a, b = draw(bits), draw(bits)
    mask = draw(st.sampled_from((a, a & b, a | b)))
    c_l = draw(st.sampled_from(costs)) if mode is Mode.BIDIRECTED else F(0)
    params = Params(k=draw(st.sampled_from(KS)),
                    c_s=draw(st.sampled_from(costs)), c_l=c_l, mode=mode)
    tsets = draw(st.one_of(st.just(ALL_OTHERS), targets(n)))
    return net_from_bits(n, mask, mode), params, tsets


@st.composite
def larger_cases(draw):
    """Seeded random networks on 6 to 10 agents, default targets."""
    mode = draw(st.sampled_from((Mode.BIDIRECTED, Mode.DIRECTED)))
    n = draw(st.integers(min_value=6, max_value=10))
    p = draw(st.sampled_from((0.15, 0.3, 0.5)))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    net = random_net(n, p, p if mode is Mode.BIDIRECTED else 0.0, seed)
    c_l = draw(st.sampled_from(COSTS)) if mode is Mode.BIDIRECTED else F(0)
    params = Params(k=draw(st.sampled_from(KS)),
                    c_s=draw(st.sampled_from(COSTS)), c_l=c_l, mode=mode)
    return net, params, ALL_OTHERS


@st.composite
def directed_with_listening(draw):
    """Seeded random networks in directed mode that carry listening edges,
    which that mode ignores."""
    n = draw(st.integers(min_value=2, max_value=9))
    net = random_net(n, draw(st.sampled_from((0.15, 0.3, 0.5))),
                     draw(st.sampled_from((0.2, 0.5, 0.9))),
                     draw(st.integers(min_value=0, max_value=2 ** 31)))
    params = Params(k=draw(st.sampled_from(KS)),
                    c_s=draw(st.sampled_from(COSTS)), mode=Mode.DIRECTED)
    return net, params, draw(st.one_of(st.just(ALL_OTHERS), targets(n)))


def toggle(net, kind, u, v):
    """Add the typed edge (u, v) if absent, else remove it."""
    if kind is EdgeKind.SPEAKING:
        move = (MoveKind.REMOVE_SPEAKING if net.has_speaking(u, v)
                else MoveKind.ADD_SPEAKING)
    else:
        move = (MoveKind.REMOVE_LISTENING if net.has_listening(u, v)
                else MoveKind.ADD_LISTENING)
    apply_move(net, Move(move, kind, u, v))


def oracle_witnesses(net, params, tsets):
    out = []
    for kind, u, v in iter_typed_pairs(net.n):
        cls = classify_by_toggle(net, params, tsets, kind, u, v)
        if cls in FIRES:
            out.append((kind, u, v, cls))
    return out


class TestAgainstOracles:
    @given(cases())
    @settings(max_examples=300, deadline=None)
    def test_classify_matches_toggle_oracle(self, case):
        net, params, tsets = case
        for kind, u, v in iter_typed_pairs(net.n):
            assert classify(net, params, tsets, kind, u, v) is \
                classify_by_toggle(net, params, tsets, kind, u, v), (kind, u, v)

    @given(st.one_of(cases(), larger_cases()))
    @settings(max_examples=300, deadline=None)
    def test_scan_matches_toggle_oracle_in_order(self, case):
        net, params, tsets = case
        expected = oracle_witnesses(net, params, tsets)
        assert scan_witnesses(net, params, tsets) == expected
        assert find_witness(net, params, tsets) == \
            (expected[0] if expected else None)

    # with free edges nothing is removable, so the joint additions are
    # always searched
    @given(st.one_of(cases(), larger_cases(), cases(costs=(F(0),))))
    @settings(max_examples=300, deadline=None)
    def test_bi_pairwise_matches_utility_oracle(self, case):
        net, params, tsets = case
        expected = oracle_witnesses(net, params, tsets)
        report = is_bi_pairwise_stable(net, params, tsets)
        assert report.witnesses == expected
        assert report.stable == (not expected)
        if any(w[3] is Classification.REMOVABLE for w in expected):
            verdict, witness = False, None
        else:
            verdict, witness = bi_pairwise_by_utility(net, params, tsets)
        assert (report.bi_pairwise, report.bi_pairwise_witness) == \
            (verdict, witness)


class TestDirectedScan:
    @given(directed_with_listening())
    @settings(max_examples=200, deadline=None)
    def test_scan_equals_full_typed_pair_scan(self, case):
        # the directed scan walks the speaking pairs alone; every listening
        # pair, present or absent, still classifies as staying put
        net, params, tsets = case
        balls = ReachBalls(net, params, tsets)
        full = [(kind, u, v, cls) for kind, u, v in iter_typed_pairs(net.n)
                for cls in [balls.classify(kind, u, v)] if cls in FIRES]
        assert list(balls.witnesses()) == full
        assert not any(kind is EdgeKind.LISTENING for kind, *_ in full)


class TestBoundaries:
    def test_gain_equal_to_integer_cost_is_not_addable(self):
        net = BidirectedNetwork(3, [(1, 2)])  # 0 -> 1 would reach 1 and 2
        for cost, cls in ((F(2), Classification.STAY_ABSENT),
                          (F(19, 10), Classification.ADDABLE)):
            p = Params(k=INF, c_s=cost, mode=Mode.DIRECTED)
            assert classify(net, p, ALL_OTHERS, EdgeKind.SPEAKING, 0, 1) is cls

    def test_loss_equal_to_integer_cost_is_not_removable(self):
        net = BidirectedNetwork(3, [(0, 1), (1, 2)])  # 0 -> 1 reaches 1 and 2
        for cost, cls in ((F(2), Classification.STAY_PRESENT),
                          (F(21, 10), Classification.REMOVABLE)):
            p = Params(k=INF, c_s=cost, mode=Mode.DIRECTED)
            assert classify(net, p, ALL_OTHERS, EdgeKind.SPEAKING, 0, 1) is cls

    def test_dead_edges_follow_their_cost(self):
        # speaking (0, 1) without listening (1, 0) is dead: it reaches nothing
        net = BidirectedNetwork(2, [(0, 1)])
        for cost, cls in ((F(0), Classification.STAY_PRESENT),
                          (F(1, 100), Classification.REMOVABLE)):
            p = Params(k=INF, c_s=cost, c_l=F(1))
            assert classify(net, p, ALL_OTHERS, EdgeKind.SPEAKING, 0, 1) is cls
        p = Params(k=INF, c_s=F(0), c_l=F(0))
        assert classify(net, p, ALL_OTHERS, EdgeKind.SPEAKING, 1, 0) is \
            Classification.STAY_ABSENT

    def test_joint_addition_that_the_listener_does_not_notice(self):
        # 0 -> 1 -> 2 -> 3 is live and 2 already listens to 0: speaking
        # (0, 2) alone makes 0 -> 2 live, 0 gains 3 and 2 hears nobody new
        net = BidirectedNetwork(4, [(0, 1), (1, 2), (2, 3)],
                                [(1, 0), (2, 1), (3, 2), (2, 0)])
        p = Params(k=2, c_s=F(1, 2), c_l=F(0))
        expected = (0, 2, F(1, 2), F(0))
        assert bi_pairwise_by_utility(net, p, ALL_OTHERS) == (False, expected)
        assert is_bi_pairwise_stable(net, p).bi_pairwise_witness == expected

    def test_removal_keeps_longer_route(self):
        # 0 -> 2 is redundant at k=2 (0 -> 1 -> 2) but not at k=1
        net = BidirectedNetwork(3, [(0, 1), (1, 2), (0, 2)])
        for k, cls in ((2, Classification.REMOVABLE),
                       (1, Classification.STAY_PRESENT)):
            p = Params(k=k, c_s=F(1, 2), mode=Mode.DIRECTED)
            assert classify(net, p, ALL_OTHERS, EdgeKind.SPEAKING, 0, 2) is cls


READ_ONLY_CHECKS = (
    lambda net, p, t: [classify(net, p, t, kind, u, v)
                       for kind, u, v in iter_typed_pairs(net.n)],
    find_witness, scan_witnesses, is_stable, is_bi_pairwise_stable)


class TestReadOnly:
    @given(cases(max_n=4))
    @settings(max_examples=50, deadline=None)
    def test_checks_leave_network_and_revision_unchanged(self, case):
        net, params, tsets = case
        before, revision = net.copy(), net.revision
        for check in READ_ONLY_CHECKS:
            check(net, params, tsets)
            assert net == before and net.revision == revision, check


class TestStaleBalls:
    @given(cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_reach_balls_across_mutations(self, case, data):
        # every pair is classified before each toggle, so each ball is
        # cached when the network moves under it
        net, params, tsets = case
        balls = ReachBalls(net, params, tsets)
        pairs = list(iter_typed_pairs(net.n))
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            for kind, u, v in pairs:
                assert balls.classify(kind, u, v) is \
                    classify_by_toggle(net, params, tsets, kind, u, v), \
                    (kind, u, v)
            toggle(net, *data.draw(st.sampled_from(pairs)))
        for kind, u, v in pairs:
            assert balls.classify(kind, u, v) is \
                classify_by_toggle(net, params, tsets, kind, u, v), (kind, u, v)

    @given(cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_held_utilities_match_from_scratch(self, case, data):
        # against agent_utility on any targets, and against the simple-path
        # oracle on tiny networks with the default targets
        net, params, tsets = case
        balls = ReachBalls(net, params, tsets)
        toggles = data.draw(st.lists(
            st.sampled_from(list(iter_typed_pairs(net.n))), max_size=6))
        for edge in [None, *toggles]:
            if edge is not None:
                toggle(net, *edge)
            for v in range(net.n):
                got = F(balls.scaled_utility(v), balls.scale)
                assert got == agent_utility(net, params, tsets, v), (edge, v)
                if tsets is ALL_OTHERS and net.n <= 4:
                    assert got == oracle_utility(net, params, v), (edge, v)

    @given(cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_flip_keeps_only_valid_balls(self, case, data):
        # a random set of balls is held before each flip, and now and then
        # the network is changed outside flip, so a wrong carry-over would
        # answer from a stale ball; every ball still held must be the fresh
        # one, and all are kept exactly when the flipped edge's step is dead
        # (its live row does not move) or the removal leaves the owner's
        # ball unchanged at k = inf
        net, params, tsets = case
        balls = ReachBalls(net, params, tsets)
        pairs = list(iter_typed_pairs(net.n))
        held = st.lists(st.tuples(st.integers(0, net.n - 1), st.booleans()),
                        max_size=2 * net.n)

        def has(kind, a, b):
            return (net.has_speaking(a, b) if kind is EdgeKind.SPEAKING
                    else net.has_listening(a, b))

        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            for x, forward in data.draw(held):
                balls.ball(x, forward)
            if data.draw(st.integers(0, 3)) == 0:
                toggle(net, *data.draw(st.sampled_from(pairs)))
            # present edges drawn twice as often, so removals are common
            kind, a, b = data.draw(st.sampled_from(
                pairs + [p for p in pairs if has(*p)]))
            speaking, add = kind is EdgeKind.SPEAKING, not has(kind, a, b)
            u = a if speaking else b  # the step u -> v
            before = net.copy()
            kept = ([dict(d) for d in balls._balls]
                    if balls._revision == net.revision else [{}, {}])
            old = ReachBalls(before, params, tsets).ball(a, speaking)
            keeps_all = balls.flip(speaking, a, b, add)
            fresh = ReachBalls(net, params, tsets)
            dead = before.successors(u, params.mode) == \
                net.successors(u, params.mode)
            lossless = (params.k == INF and not add
                        and fresh.ball(a, speaking) == old)
            assert keeps_all is bool(dead or lossless), (kind, a, b, add)
            assert balls._revision == net.revision
            for forward in (False, True):
                if keeps_all:
                    assert kept[forward].keys() <= balls._balls[forward].keys()
                for x, got in balls._balls[forward].items():
                    assert got == fresh.ball(x, forward), (x, forward)

    def test_flip_bad_edge_changes_nothing(self):
        # a bad pair (an out-of-range owner too), a present add or an absent
        # remove raises ValueError and changes neither the network, its
        # revision nor a held ball
        net = BidirectedNetwork(3, [(0, 1)])
        balls = ReachBalls(net, Params(k=INF, c_s=F(1), mode=Mode.DIRECTED))
        balls.ball(1, True)
        held = [dict(d) for d in balls._balls]
        for speaking, a, b, add in ((True, 0, 0, True), (True, 0, 3, True),
                                    (True, 3, 0, True), (True, 3, 0, False),
                                    (False, 3, 0, True), (True, 1, 0, False),
                                    (True, 0, 1, True), (False, 0, 1, False)):
            with pytest.raises(ValueError):
                balls.flip(speaking, a, b, add)
            assert net.speaking == {(0, 1)} and not net.listening
            assert net.revision == 0 and balls._revision == 0
            assert [dict(d) for d in balls._balls] == held

    def test_nothing_mutates_held_network_behind_its_balls(self, monkeypatch):
        # every ball read finds the balls at the network's revision: each
        # mutation of a held network went through ReachBalls.flip
        ball = ReachBalls.ball

        def checked(self, x, forward):
            assert self._revision == self.net.revision
            return ball(self, x, forward)

        monkeypatch.setattr(ReachBalls, "ball", checked)
        for seed in range(3):
            start = random_net(6, 0.3, 0.3, seed)
            run(start, Params(k=2, c_s=F(1, 2), c_l=F(1, 2)), seed=seed,
                max_steps=3000)
            run(start, Params(k=INF, c_s=F(3, 2), mode=Mode.DIRECTED),
                seed=seed, max_steps=3000)
            start = random_net(8, 0.3, 0.0, seed)
            params = Params(k=INF, c_s=F(3, 2), mode=Mode.DIRECTED)
            cert = construct_path(start, params)
            assert validate_certificate(cert, start, params)


def test_target_masks_built_only_where_read(monkeypatch):
    # directed mode never reads a backward (listening) mask, so a ReachBalls
    # there builds the n forward masks alone
    built = []
    mask = TargetSets.mask
    monkeypatch.setattr(TargetSets, "mask", lambda self, v, forward, n:
                        built.append(forward) or mask(self, v, forward, n))
    net = random_net(5, 0.4, 0.4, 1)
    ReachBalls(net, Params(k=2, c_s=F(1), mode=Mode.DIRECTED))
    assert built == [True] * 5
    built.clear()
    ReachBalls(net, Params(k=2, c_s=F(1), c_l=F(1)))
    assert sorted(built) == [False] * 5 + [True] * 5
