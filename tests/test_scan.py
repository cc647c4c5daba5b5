"""The ball-based edge rule, witness scan and bi-pairwise check against the
toggle-and-recompute oracles in ``scan_oracles``."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import net_from_bits, oracle_utility
from netform import (ALL_OTHERS, INF, BidirectedNetwork, EdgeKind, Mode,
                     Move, MoveKind, Params, ReachBalls, TargetSets,
                     agent_utility, classify, construct_path, find_witness,
                     is_bi_pairwise_stable, is_stable, run, scan_witnesses,
                     validate_certificate)
from netform import dynamics
from netform.dynamics import apply_move
from netform.generators import random_net
from scan_oracles import (bfs_by_sets, bi_pairwise_by_utility,
                          classify_by_toggle, iter_typed_pairs)

# zero, fractional and integer costs: with integer costs an integer gain or
# loss can equal the cost exactly, where the strict rule must not fire
COSTS = (F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(3))
KS = (1, 2, 3, INF)


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
        move = classify_by_toggle(net, params, tsets, kind, u, v)
        if move is not MoveKind.NO_CHANGE:
            out.append((kind, u, v, move))
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
        if any(not w[3].add for w in expected):
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
        # pair, present or absent, still answers NO_CHANGE
        net, params, tsets = case
        balls = ReachBalls(net, params, tsets)
        full = [(kind, u, v, move) for kind, u, v in iter_typed_pairs(net.n)
                for move in [balls.classify(kind, u, v)]
                if move is not MoveKind.NO_CHANGE]
        assert list(balls.witnesses()) == full
        assert not any(kind is EdgeKind.LISTENING for kind, *_ in full)


def walked(net, params, kind, u, v):
    """How the witness walk treats the typed pair (u, v).  None when it
    passes it by unmarked: a listening pair in directed mode, or in
    bidirected mode a pair that is absent with its partner half (v, u)
    absent too.  "reached" when it marks it NO_CHANGE without asking: at
    k = inf, an absent pair whose head v the owner u already reaches in the
    edge's direction (``bfs_by_sets``).  Else "asked"."""
    speaking, mode = kind is EdgeKind.SPEAKING, params.mode
    if mode is Mode.DIRECTED and not speaking:
        return None
    present = (net.has_speaking(u, v) if speaking
               else net.has_listening(u, v))
    partner = (net.has_listening(v, u) if speaking
               else net.has_speaking(v, u))
    if mode is Mode.BIDIRECTED and not (present or partner):
        return None
    if params.k == INF and not present and \
            v in bfs_by_sets(net, INF, u, speaking, mode)[0]:
        return "reached"
    return "asked"


class AskedBalls(ReachBalls):
    """``ReachBalls`` recording every typed pair ``classify`` is asked."""
    __slots__ = ("asked",)

    def classify(self, kind, u, v):
        self.asked.append((kind, u, v))
        return super().classify(kind, u, v)


class TestQuietWalk:
    @given(st.one_of(cases(), larger_cases(), directed_with_listening()),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_quiet_walk_matches_oracle_and_marks_what_it_asks(
            self, case, data):
        # a random subset of the pairs the oracle answers NO_CHANGE is
        # marked quiet first, as run's record holds them.  The walk yields
        # the oracle's witnesses in order, asks about each asked pair that
        # is not marked, once, and marks every walked pair that answers
        # NO_CHANGE, the reached ones it never asks included
        net, params, tsets = case
        n, pairs = net.n, list(iter_typed_pairs(net.n))
        answers = {pair: classify_by_toggle(net, params, tsets, *pair)
                   for pair in pairs}
        picked = data.draw(st.integers(0, 2 ** len(pairs) - 1))
        quiet, marked = ([0] * n, [0] * n), set()
        for i, (kind, u, v) in enumerate(pairs):
            if picked >> i & 1 and answers[kind, u, v] is MoveKind.NO_CHANGE:
                quiet[kind is EdgeKind.LISTENING][u] |= 1 << v
                marked.add((kind, u, v))
        balls = AskedBalls(net, params, tsets)
        balls.asked = []
        assert list(balls.witnesses(quiet)) == \
            oracle_witnesses(net, params, tsets)
        ways = {pair: walked(net, params, *pair) for pair in pairs}
        assert balls.asked == [
            pair for pair in pairs
            if ways[pair] == "asked" and pair not in marked]
        for kind, u, v in pairs:
            bit = quiet[kind is EdgeKind.LISTENING][u] >> v & 1
            quiet_answer = answers[kind, u, v] is MoveKind.NO_CHANGE
            assert bit <= quiet_answer, (kind, u, v)
            if ways[kind, u, v] is not None:
                assert bit == quiet_answer, (kind, u, v)


    def test_reached_head_is_skipped_at_unbounded_horizon_only(self):
        # 0 -> 1 -> 2 -> 3: 0 already reaches 2, but at k = 2 the absent
        # edge 0 -> 2 brings 3 within two steps, so it is addable there
        net = BidirectedNetwork(4, [(0, 1), (1, 2), (2, 3)])
        pair = (EdgeKind.SPEAKING, 0, 2)
        for k, move in ((2, MoveKind.ADD_SPEAKING), (INF, None)):
            params = Params(k=k, c_s=F(1, 2), mode=Mode.DIRECTED)
            balls = AskedBalls(net, params)
            balls.asked, quiet = [], ([0] * 4, [0] * 4)
            found = list(balls.witnesses(quiet))
            assert found == oracle_witnesses(net, params, ALL_OTHERS)
            assert ((*pair, move) in found) == (move is not None)
            assert (pair in balls.asked) == (move is not None)
            assert quiet[0][0] >> 2 & 1 == (move is None)


class TestBoundaries:
    def test_gain_equal_to_integer_cost_is_not_addable(self):
        net = BidirectedNetwork(3, [(1, 2)])  # 0 -> 1 would reach 1 and 2
        for cost, move in ((F(2), MoveKind.NO_CHANGE),
                           (F(19, 10), MoveKind.ADD_SPEAKING)):
            p = Params(k=INF, c_s=cost, mode=Mode.DIRECTED)
            assert classify(net, p, ALL_OTHERS, EdgeKind.SPEAKING, 0, 1) \
                is move

    def test_loss_equal_to_integer_cost_is_not_removable(self):
        net = BidirectedNetwork(3, [(0, 1), (1, 2)])  # 0 -> 1 reaches 1 and 2
        for cost, move in ((F(2), MoveKind.NO_CHANGE),
                           (F(21, 10), MoveKind.REMOVE_SPEAKING)):
            p = Params(k=INF, c_s=cost, mode=Mode.DIRECTED)
            assert classify(net, p, ALL_OTHERS, EdgeKind.SPEAKING, 0, 1) \
                is move

    def test_dead_edges_follow_their_cost(self):
        # speaking (0, 1) without listening (1, 0) is dead: it reaches nothing
        net = BidirectedNetwork(2, [(0, 1)])
        for cost, move in ((F(0), MoveKind.NO_CHANGE),
                           (F(1, 100), MoveKind.REMOVE_SPEAKING)):
            p = Params(k=INF, c_s=cost, c_l=F(1))
            assert classify(net, p, ALL_OTHERS, EdgeKind.SPEAKING, 0, 1) \
                is move
        p = Params(k=INF, c_s=F(0), c_l=F(0))
        assert classify(net, p, ALL_OTHERS, EdgeKind.SPEAKING, 1, 0) is \
            MoveKind.NO_CHANGE

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
        for k, move in ((2, MoveKind.REMOVE_SPEAKING),
                        (1, MoveKind.NO_CHANGE)):
            p = Params(k=k, c_s=F(1, 2), mode=Mode.DIRECTED)
            assert classify(net, p, ALL_OTHERS, EdgeKind.SPEAKING, 0, 2) \
                is move


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
    def test_fire_makes_the_oracle_move_and_keeps_only_valid_balls(
            self, case, data):
        # a random set of balls is held before each fire, and now and then
        # the network is changed outside fire, so a wrong carry-over would
        # answer from a stale ball.  fire makes the toggle oracle's move and
        # changes the network by exactly that edge; every ball still held
        # must be the fresh one, and all are kept when nothing fires, when
        # the fired edge's step is dead (its live row does not move) or when
        # the removal leaves the owner's ball unchanged at k = inf
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
            kind, u, v = data.draw(st.sampled_from(
                pairs + [p for p in pairs if has(*p)]))
            forward, removal = kind is EdgeKind.SPEAKING, has(kind, u, v)
            expected = classify_by_toggle(net, params, tsets, kind, u, v)
            before, revision = net.copy(), net.revision
            kept = ([dict(d) for d in balls._balls]
                    if balls._revision == net.revision else [{}, {}])
            old = ReachBalls(before, params, tsets).ball(u, forward)
            got = balls.fire(kind, u, v)
            assert got is expected, (kind, u, v)
            if got is MoveKind.NO_CHANGE:
                assert net == before and net.revision == revision
                keeps_all = True
            else:
                tail = u if forward else v  # the step tail -> head
                dead = net.successors(tail, params.mode) == \
                    before.successors(tail, params.mode)
                lossless = (params.k == INF and removal and
                            ReachBalls(net, params, tsets).ball(u, forward)
                            == old)
                keeps_all = dead or lossless
                toggle(before, kind, u, v)
                assert net == before and balls._revision == net.revision
            fresh = ReachBalls(net, params, tsets)
            for forward in (False, True):
                if keeps_all:
                    assert kept[forward].items() <= \
                        balls._balls[forward].items(), (kind, u, v)
                if balls._revision == net.revision:
                    for x, ball in balls._balls[forward].items():
                        assert ball == fresh.ball(x, forward), (x, forward)

    @pytest.mark.parametrize("edge", [(0, 2), (1, 2)],
                             ids=["lossless", "lossy"])
    def test_removal_runs_one_search(self, monkeypatch, edge):
        # with u's ball held, a removal at k = inf runs only classify's skip
        # search: fire reads it for the lossless check and u's new ball
        net = BidirectedNetwork(3, [(0, 1), (1, 2), (0, 2)])
        balls = ReachBalls(net, Params(k=INF, c_s=F(2), mode=Mode.DIRECTED))
        u, v = edge
        balls.ball(u, True)
        searches = []

        def counted(*args):
            searches.append(args)
            return bfs(*args)

        bfs = dynamics._bfs
        monkeypatch.setattr(dynamics, "_bfs", counted)
        assert balls.fire(EdgeKind.SPEAKING, u, v) is MoveKind.REMOVE_SPEAKING
        assert len(searches) == 1
        # u's new ball is held: only the fresh one below is searched
        assert balls.ball(u, True) == \
            ReachBalls(net, balls.params).ball(u, True)
        assert len(searches) == 2

    def test_add_keeps_a_ball_that_reaches_the_tail_only_at_k(self):
        # k = 2 on the chain 0 -> 1 -> 2 and vertex 3: adding 2 -> 3 moves
        # no ball whose inner ball lacks 2.  0's ball holds 2 at distance 2,
        # so it stays though its outer ball holds the tail; 1's inner ball
        # holds 2 and 2's holds itself, so theirs go
        net = BidirectedNetwork(4, [(0, 1), (1, 2)])
        balls = ReachBalls(net, Params(k=2, c_s=F(1, 2), mode=Mode.DIRECTED))
        for x in range(net.n):
            balls.ball(x, True)
        assert balls.ball(0, True) == (0b0111, 0b0011)
        assert balls.fire(EdgeKind.SPEAKING, 2, 3) is MoveKind.ADD_SPEAKING
        assert sorted(balls._balls[True]) == [0, 3]
        fresh = ReachBalls(net, balls.params)
        assert all(balls.ball(x, True) == fresh.ball(x, True)
                   for x in range(net.n))

    def test_nothing_mutates_held_network_behind_its_balls(self, monkeypatch):
        # every ball read finds the balls at the network's revision: each
        # mutation of a held network went through ReachBalls.fire
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


class CountedRows(list):
    """A row list that counts its reads, for ``net._speak_out``."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = 0

    def __getitem__(self, x):
        self.reads += 1
        return super().__getitem__(x)


def counting(net):
    """``net`` with its speaking out-rows counting their reads."""
    net._speak_out = CountedRows(net._speak_out)
    return net


def chain(n):
    return counting(BidirectedNetwork(n, [(x, x + 1) for x in range(n - 1)]))


class TestClosureReads:
    """At k = inf a ball search adds the balls already held instead of
    reading their rows, and a skip search that reaches the removed edge's
    head stops there; at a finite horizon every row is read."""

    def test_ball_search_reads_no_row_of_a_held_ball(self):
        net = chain(10)
        balls = ReachBalls(net, Params(k=INF, c_s=F(1), mode=Mode.DIRECTED))
        balls.ball(1, True)
        net._speak_out.reads = 0
        assert balls.ball(0, True) == ((1 << 10) - 1, (1 << 10) - 1)
        assert net._speak_out.reads == 1  # its own row; 10 with no balls held

    def test_lossless_removal_stops_at_the_head_and_keeps_every_ball(
            self, monkeypatch):
        # 0 -> 2 -> 1 still reaches 1 once the edge (0, 1) is removed
        net = counting(BidirectedNetwork(10, [(0, 1), (0, 2), (2, 1), (1, 3)]
                                         + [(x, x + 1) for x in range(3, 9)]))
        balls = ReachBalls(net, Params(k=INF, c_s=F(2), mode=Mode.DIRECTED))
        for x in range(net.n):
            balls.ball(x, True)
        held = dict(balls._balls[True])
        reads = []

        def counted(*args):
            before = net._speak_out.reads
            got = bfs(*args)
            reads.append(net._speak_out.reads - before)
            return got

        bfs = dynamics._bfs
        monkeypatch.setattr(dynamics, "_bfs", counted)
        assert balls.fire(EdgeKind.SPEAKING, 0, 1) is \
            MoveKind.REMOVE_SPEAKING
        assert reads == [2]  # rows 0 and 2, then 1 is in the frontier
        assert balls._balls[True] == held
        fresh = ReachBalls(net, balls.params)
        assert all(held[x] == fresh.ball(x, True) for x in held)

    def test_finite_horizon_reads_every_row(self):
        net = chain(10)
        balls = ReachBalls(net, Params(k=3, c_s=F(1), mode=Mode.DIRECTED))
        balls.ball(1, True)
        net._speak_out.reads = 0
        assert balls.ball(0, True) == (0b1111, 0b0111)
        assert net._speak_out.reads == 3  # rows 0, 1 and 2


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
