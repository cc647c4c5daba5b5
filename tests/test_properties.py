"""Property-based invariants (hypothesis) over random small networks."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (held_reach, net_from_bits, oracle_speaking_reach,
                      oracle_utility)
from lemma_suite import bidirected_violations, directed_violations
from scan_oracles import iter_typed_pairs, never_readd_by_dead_set
from netform import (ALL_OTHERS, INF, EdgeKind, Move, Mode, MoveKind, Params,
                     Trace, agent_utility, classify, never_readd_check, run,
                     welfare)
from netform.dynamics import apply_move
from netform.serialize import trace_from_text, trace_to_text

COSTS = (F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(3))
KS = (1, 2, 3, INF)


@st.composite
def bidirected_cases(draw, max_n=5):
    n = draw(st.integers(min_value=2, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=2 ** (2 * n * (n - 1)) - 1))
    k = draw(st.sampled_from(KS))
    c_s = draw(st.sampled_from(COSTS))
    c_l = draw(st.sampled_from(COSTS))
    return (net_from_bits(n, mask, Mode.BIDIRECTED),
            Params(k=k, c_s=c_s, c_l=c_l))


@st.composite
def directed_cases(draw, max_n=6, ks=KS):
    n = draw(st.integers(min_value=2, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=2 ** (n * (n - 1)) - 1))
    k = draw(st.sampled_from(ks))
    c_s = draw(st.sampled_from(COSTS))
    return (net_from_bits(n, mask, Mode.DIRECTED),
            Params(k=k, c_s=c_s, mode=Mode.DIRECTED))


@st.composite
def flip_traces(draw, max_n=4):
    """A bidirected trace of random rows: each flips a random typed edge,
    dead pairs' re-adds included, or is a no-change row."""
    net, params = draw(bidirected_cases(max_n))
    final, moves = net.copy(), []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        edge = draw(st.sampled_from(EdgeKind))
        u = draw(st.integers(min_value=0, max_value=net.n - 1))
        v = (u + draw(st.integers(min_value=1, max_value=net.n - 1))) % net.n
        kind = MoveKind.NO_CHANGE
        if draw(st.booleans()):
            present = (final.has_speaking if edge is EdgeKind.SPEAKING
                       else final.has_listening)(u, v)
            kind = MoveKind(("-" if present else "+") + edge.value)
        moves.append(Move(kind, edge, u, v))
        apply_move(final, moves[-1])
    return Trace(seed=0, params=params, initial=net, moves=moves,
                 final=final, converged=False)


class TestReach:
    @given(bidirected_cases())
    def test_duality(self, case):
        # v hears exactly those who reach v by speaking
        net, params = case
        fwd = {u: held_reach(net, params, u) for u in range(net.n)}
        for v in range(net.n):
            assert held_reach(net, params, v, False) == {
                u for u in range(net.n) if u != v and v in fwd[u]}

    @given(directed_cases())
    def test_monotone_in_k(self, case):
        net, params = case
        prev = [set() for _ in range(net.n)]
        for k in (1, 2, 3, 4, INF):
            p = Params(k=k, c_s=params.c_s, mode=Mode.DIRECTED)
            cur = [held_reach(net, p, v) for v in range(net.n)]
            assert all(prev[v] <= cur[v] for v in range(net.n))
            prev = cur

    @given(bidirected_cases(max_n=4))
    def test_matches_simple_path_oracle(self, case):
        net, params = case
        for v in range(net.n):
            assert held_reach(net, params, v) == \
                oracle_speaking_reach(net, params, v)

    @given(directed_cases(max_n=5))
    def test_directed_equals_fully_listening_bidirected(self, case):
        # the speaking-only model is the full model with everyone listening
        net, params = case
        full = net.copy()
        for u in range(net.n):
            for v in range(net.n):
                if u != v:
                    if not full.has_listening(u, v):
                        full.add_listening(u, v)
        bi = Params(k=params.k, c_s=params.c_s, c_l=F(0))
        for v in range(net.n):
            assert held_reach(net, params, v) == \
                held_reach(full, bi, v)

    @given(bidirected_cases(max_n=5))
    def test_dead_edges_never_carry_reach(self, case):
        # dropping every speaking edge without its return listening edge
        # (and vice versa) leaves all reach sets unchanged
        net, params = case
        pruned = net.copy()
        for (u, v) in net.speaking:
            if not net.has_listening(v, u):
                pruned.remove_speaking(u, v)
        for (v, u) in net.listening:
            if not net.has_speaking(u, v):
                pruned.remove_listening(v, u)
        for v in range(net.n):
            assert held_reach(net, params, v) == \
                held_reach(pruned, params, v)
            assert held_reach(net, params, v, False) == \
                held_reach(pruned, params, v, False)


class TestUtility:
    @given(bidirected_cases(max_n=4))
    def test_utility_matches_oracle(self, case):
        net, params = case
        for v in range(net.n):
            assert agent_utility(net, params, ALL_OTHERS, v) == \
                oracle_utility(net, params, v)

    @given(bidirected_cases())
    def test_welfare_is_utility_sum(self, case):
        net, params = case
        assert welfare(net, params) == sum(
            agent_utility(net, params, ALL_OTHERS, v) for v in range(net.n))


class TestClassify:
    @given(bidirected_cases(max_n=4))
    def test_classification_matches_utility_deltas(self, case):
        # addable/removable exactly when the owner's total utility strictly
        # improves after the toggle
        net, params = case
        for kind, u, v in iter_typed_pairs(net.n):
            move = classify(net, params, ALL_OTHERS, kind, u, v)
            work = net.copy()
            before = agent_utility(work, params, ALL_OTHERS, u)
            if kind is EdgeKind.SPEAKING:
                present = work.has_speaking(u, v)
                (work.remove_speaking if present else work.add_speaking)(u, v)
            else:
                present = work.has_listening(u, v)
                (work.remove_listening if present else work.add_listening)(u, v)
            improves = agent_utility(work, params, ALL_OTHERS, u) > before
            if params.mode is Mode.DIRECTED and kind is EdgeKind.LISTENING:
                improves = False  # inert in the reduced model
            expected = (MoveKind(("-" if present else "+") + kind.value)
                        if improves else MoveKind.NO_CHANGE)
            assert move is expected, (kind, u, v)


class TestDynamicsProperties:
    @given(bidirected_cases(max_n=4), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_seeded_run_is_reproducible(self, case, seed):
        net, params = case
        a = run(net, params, seed=seed, max_steps=400)
        b = run(net, params, seed=seed, max_steps=400)
        assert trace_to_text(a) == trace_to_text(b)
        assert a.final == b.final

    @given(bidirected_cases(max_n=4), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_trace_text_round_trips(self, case, seed):
        net, params = case
        tr = run(net, params, seed=seed, max_steps=200)
        assert trace_to_text(trace_from_text(trace_to_text(tr))) == \
            trace_to_text(tr)

    @given(flip_traces())
    @settings(max_examples=300, deadline=None)
    def test_readd_verdict_matches_dead_set(self, trace):
        assert never_readd_check(trace) is never_readd_by_dead_set(trace)


class TestInvariantSuite:
    @given(bidirected_cases(max_n=4))
    @settings(max_examples=150, deadline=None)
    def test_bidirected_invariants(self, case):
        net, params = case
        assert bidirected_violations(net, params) == []

    @given(directed_cases(max_n=5, ks=(INF,)))
    @settings(max_examples=150, deadline=None)
    def test_directed_invariants(self, case):
        net, params = case
        assert directed_violations(net, params) == []
