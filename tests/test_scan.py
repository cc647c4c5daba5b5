"""The ball-based edge rule, witness scan and bi-pairwise check against the
toggle-and-recompute oracles in ``scan_oracles``."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import net_from_bits
from netform import (ALL_OTHERS, INF, BidirectedNetwork, Classification,
                     EdgeKind, Mode, Params, TargetSets, classify, find_witness,
                     is_bi_pairwise_stable, is_stable, scan_witnesses)
from netform.dynamics import iter_typed_pairs
from netform.generators import random_net
from scan_oracles import bi_pairwise_by_utility, classify_by_toggle

# zero, fractional and integer costs: with integer costs an integer gain or
# loss can equal the cost exactly, where the strict rule must not fire
COSTS = (F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(3))
KS = (1, 2, 3, INF)
FIRES = (Classification.ADDABLE, Classification.REMOVABLE)


@st.composite
def targets(draw, n):
    """Default targets, or a random target subset for some agents."""
    speak, listen = {}, {}
    for mapping in (speak, listen):
        for v in range(n):
            if draw(st.booleans()):
                others = [w for w in range(n) if w != v]
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
