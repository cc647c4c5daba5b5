import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netform
from netform import (ALL_OTHERS, INF, BidirectedNetwork, Mode, Params,
                     TargetSets, agent_utility, is_bi_pairwise_stable,
                     scan_witnesses, welfare)
from netform.generators import balanced_flower, cycle, empty
from netform.model import _count

from conftest import (bi, child_env, di, held_reach, oracle_speaking_reach,
                      oracle_utility, net_from_bits)


class TestParams:
    def test_rejects_bad_k(self):
        for k in (0, -1, 1.5, True, "inf"):
            with pytest.raises(ValueError):
                Params(k=k, c_s=F(1))

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            Params(k=1, c_s=F(-1, 2))

    def test_directed_requires_free_listening(self):
        with pytest.raises(ValueError):
            Params(k=1, c_s=F(1), c_l=F(1), mode=Mode.DIRECTED)

    def test_costs_coerced_exactly(self):
        p = Params(k=2, c_s="1.5")
        assert p.c_s == F(3, 2) and isinstance(p.c_s, F)

    @pytest.mark.parametrize("cost", [0.1, True])
    def test_inexact_costs_rejected(self, cost):
        # 0.1 is not 1/10 in binary, and a bool is no cost
        with pytest.raises(ValueError, match=rf"got {cost!r}$"):
            Params(k=1, c_s=cost)

    @pytest.mark.parametrize("cost", ["1e5000", 10 ** 5000],
                             ids=["exponent", "digits"])
    def test_unwritable_costs_rejected(self, cost):
        # a document could not write either back: past 4300 digits
        with pytest.raises(ValueError):
            Params(k=1, c_s=cost)

    def test_giant_exponent_fails_fast(self):
        # in a child process, so a regression fails on the timeout instead of
        # hanging the suite while Fraction builds 10**999999999
        code = ("from decimal import Decimal\n"
                "from netform import Params\n"
                "for cost in ('1e999999999', Decimal('1e999999999')):\n"
                "    try:\n        Params(k=1, c_s=cost)\n"
                "    except ValueError:\n        print('rejected')\n")
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, timeout=30)
        assert out.stdout.split() == ["rejected"] * 2, out.stderr


class TestNetwork:
    def test_duplicate_and_self_edges_rejected(self):
        net = BidirectedNetwork(3)
        net.add_speaking(0, 1)
        with pytest.raises(ValueError):
            net.add_speaking(0, 1)
        with pytest.raises(ValueError):
            net.add_speaking(2, 2)
        with pytest.raises(ValueError):
            net.add_listening(0, 3)
        with pytest.raises(ValueError):
            net.remove_speaking(1, 0)

    def test_revision_counts_mutations(self):
        net = BidirectedNetwork(3, [(0, 1)], [(1, 0)])
        assert net.revision == 0  # construction does not count
        net.add_speaking(1, 2)
        net.remove_speaking(1, 2)
        assert net.revision == 2

    def test_copy_is_independent(self):
        net = cycle(3)
        net.add_speaking(0, 2)  # dead until 2 listens to 0
        other = net.copy()
        assert other == net and other.revision == 0

        def rows(g):
            # successors, and predecessors as the k = 1 backward ball
            return ([(g.successors(x, m),
                      held_reach(g, Params(k=1, c_s=F(0), mode=m), x, False))
                     for m in Mode for x in range(3)],
                    [(g.out_listen(x), g.in_listen(x)) for x in range(3)])

        before = rows(net)
        other.remove_speaking(0, 1)
        other.add_listening(2, 0)  # makes the step 0 -> 2 live on the copy
        assert other.successors(0, Mode.BIDIRECTED) == 1 << 2
        assert rows(net) == before
        assert net.has_speaking(0, 1) and not net.has_listening(2, 0)
        assert net != other

    def test_eq_and_hash(self):
        assert cycle(4) == cycle(4)
        assert hash(cycle(4)) == hash(cycle(4))
        assert cycle(4) != cycle(4, lifted=False)


@st.composite
def edit_scripts(draw, max_n=70):
    """A network size, a small pool of pairs (self pairs and vertices
    outside 0..n-1 included) and add/remove edits drawn from the pool, so
    edits often meet a present edge and an absent one alike; n up to 70
    makes rows cross 64 bits."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=max_n),
                       st.integers(min_value=60, max_value=max_n)))
    vertex = st.one_of(st.integers(min_value=-2, max_value=n + 1),
                       st.integers(min_value=max(0, n - 6), max_value=n - 1),
                       st.integers(min_value=0, max_value=min(n - 1, 5)))
    pool = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=8))
    script = draw(st.lists(st.tuples(st.booleans(), st.booleans(),
                                     st.sampled_from(pool)), max_size=40))
    return n, pool, script


class TestNetworkModel:
    """The rows against a plain model: one set of pairs per edge kind."""

    @given(edit_scripts())
    @settings(max_examples=200, deadline=None)
    def test_matches_pair_set_model(self, case):
        n, pool, script = case
        net = BidirectedNetwork(n)
        model = {True: set(), False: set()}  # keyed by "is speaking"
        for speaking, add, (a, b) in script:
            kind = "speaking" if speaking else "listening"
            mutate = getattr(net, f"{'add' if add else 'remove'}_{kind}")
            valid = (a != b and 0 <= a < n and 0 <= b < n
                     and ((a, b) in model[speaking]) != add)
            before, revision = net.canonical(), net.revision
            if valid:
                mutate(a, b)
                (model[speaking].add if add else model[speaking].remove)((a, b))
                assert net.revision == revision + 1
            else:
                with pytest.raises(ValueError):
                    mutate(a, b)
                assert net.canonical() == before and net.revision == revision
        speaking, listening = sorted(model[True]), sorted(model[False])
        assert isinstance(net.speaking, frozenset)
        assert net.speaking == model[True] and net.listening == model[False]
        assert list(net.edges(speaking=True)) == speaking
        assert list(net.edges(speaking=False)) == listening
        assert net.canonical() == (n, tuple(speaking), tuple(listening))
        for a in range(-2, n + 2):
            for b in range(-2, n + 2):
                assert net.has_speaking(a, b) is ((a, b) in model[True])
                assert net.has_listening(a, b) is ((a, b) in model[False])
        same = BidirectedNetwork(n, model[True], model[False])
        assert net == same and hash(net) == hash(same)
        copy = net.copy()
        assert copy == net and copy.canonical() == net.canonical()
        free = [(a, b) for a, b in pool
                if a != b and 0 <= a < n and 0 <= b < n]
        if free:
            a, b = free[0]
            if copy.has_listening(a, b):
                copy.remove_listening(a, b)
            else:
                copy.add_listening(a, b)
            assert copy != net and net.listening == model[False]


ROW_NAMES = re.compile(r"\b_(speak_out|speak_in|listen_out|listen_in|live_out"
                       r"|live_in|rows)\b")


def test_rows_named_only_by_model_and_reach_kernel():
    # the rows are the network's own edge state: outside the model and the
    # reach kernel every module goes through the network's methods
    src = os.path.dirname(netform.__file__)
    naming = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name not in ("model.py", "dynamics.py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                naming += [f"{name}: {m.group()}"
                           for m in ROW_NAMES.finditer(fh.read())]
    assert naming == []


class TestLiveSemantics:
    def test_live_needs_listening_back(self):
        # [TRIVIAL] the receiver must listen back for the step to be live
        net = BidirectedNetwork(2, [(0, 1)])
        assert net.successors(0, Mode.BIDIRECTED) == 0
        net.add_listening(1, 0)
        assert net.successors(0, Mode.BIDIRECTED) == 0b10
        assert net.successors(1, Mode.BIDIRECTED) == 0

    def test_directed_mode_ignores_listening(self):
        net = BidirectedNetwork(2, [(0, 1)])
        assert net.successors(0, Mode.DIRECTED) == 0b10
        net.add_listening(0, 1)  # listening alone never makes a step
        assert net.successors(1, Mode.DIRECTED) == 0


class TestReach:
    def test_cycle_reach_all(self):
        # [DERIVED] BFS on the explicit lifted 4-cycle: reach 3 both ways
        net = cycle(4)
        p = bi()
        for v in range(4):
            assert len(held_reach(net, p, v)) == 3
            assert len(held_reach(net, p, v, False)) == 3

    def test_k_bounds_path_length(self):
        net = cycle(4, lifted=False)
        p = di(k=2)
        assert held_reach(net, p, 0) == {1, 2}

    def test_reach_excludes_self(self):
        # the closed ball holds its owner and no target mask does, so the
        # reach a utility counts leaves the owner out
        balls = netform.ReachBalls(cycle(3), bi())
        for forward in (True, False):
            ball = balls.ball(0, forward)[0]
            assert ball == 0b111
            assert ball & ALL_OTHERS.mask(0, forward, 3) == 0b110
        with pytest.raises(ValueError, match="contains itself"):
            TargetSets(speak={0: frozenset({0, 1})})

    def test_against_path_enumeration_oracle(self):
        # [DERIVED] independent simple-path enumeration over a dense sample
        for mode in Mode:
            for mask in (0x3FF, 0x2B5, 0xF0F, 0xABC, 0x111):
                net = net_from_bits(3, mask, mode)
                for k in (1, 2, INF):
                    p = Params(k=k, c_s=F(1), c_l=F(0) if mode is Mode.DIRECTED
                               else F(1), mode=mode)
                    for v in range(3):
                        assert held_reach(net, p, v) == \
                            oracle_speaking_reach(net, p, v)

    def test_duality(self):
        # v speaks to u within k steps iff u hears v within k steps
        net = net_from_bits(4, 0xBEEF, Mode.BIDIRECTED)
        p = bi(k=2)
        for u in range(4):
            for v in range(4):
                if u != v:
                    assert (u in held_reach(net, p, v)) == \
                        (v in held_reach(net, p, u, False))


class TestUtility:
    def test_empty_welfare_zero(self):
        assert welfare(empty(5), bi()) == 0  # [TRIVIAL]

    def test_bidirected_3cycle_welfare(self):
        # [DERIVED] per-node: reach 2+2, degree 1+1 -> 4 - (c_s + c_l)
        net = cycle(3)
        assert welfare(net, bi()) == 9
        assert welfare(net, bi(cs=F(1), cl=F(1))) == 6
        for v in range(3):
            assert agent_utility(net, bi(), ALL_OTHERS, v) == 3

    def test_flower_welfare_530(self):
        # [DERIVED] n(n-1) - c*ceil((n-1)/floor(k/2)) - c(n-1) at n=26, k=10, c=4
        net, spec = balanced_flower(26, 10)
        p = Params(k=10, c_s=F(4), mode=Mode.DIRECTED)
        assert welfare(net, p) == 26 * 25 - 4 * 5 - 4 * 25 == 530
        # center pays for q=5 edges, reaches everyone
        assert _count(net, p, ALL_OTHERS, 0, True) == 25
        assert (net.out_speak(0), net.out_speak(1)) == (5, 1)
        assert agent_utility(net, p, ALL_OTHERS, 0) == 25 - 4 * 5 == 5
        assert _count(net, p, ALL_OTHERS, 1, True) == 25
        assert agent_utility(net, p, ALL_OTHERS, 1) == 25 - 4 == 21

    def test_directed_welfare_counts_speaking_only(self):
        net = cycle(4, lifted=False)
        p = di(cs=F(1, 2))
        assert welfare(net, p) == 4 * (3 - F(1, 2)) == 10

    def test_breakdown_matches_formula(self):
        net = net_from_bits(4, 0xFACE, Mode.BIDIRECTED)
        p = bi(k=2, cs=F(3, 7), cl=F(2, 5))
        for v in range(4):
            speak = _count(net, p, ALL_OTHERS, v, True)
            listen = _count(net, p, ALL_OTHERS, v, False)
            assert speak == len(oracle_speaking_reach(net, p, v))
            assert listen == sum(v in oracle_speaking_reach(net, p, u)
                                 for u in range(4) if u != v)
            u = agent_utility(net, p, ALL_OTHERS, v)
            assert u == (speak - p.c_s * net.out_speak(v)
                         + listen - p.c_l * net.out_listen(v))
            assert u == oracle_utility(net, p, v)

    def test_target_sets_restrict_reach_value(self):
        net = cycle(4)
        t = TargetSets(speak={0: frozenset({1})}, listen={0: frozenset({1, 2})})
        p = bi()
        assert _count(net, p, t, 0, True) == 1
        assert _count(net, p, t, 0, False) == 2
        assert agent_utility(net, p, t, 0) == \
            1 - p.c_s * net.out_speak(0) + 2 - p.c_l * net.out_listen(0)

    def test_out_of_range_targets_never_reached(self):
        # a member outside 0..n-1 (negative or >= n) counts as unreachable
        net = cycle(4)
        p = bi(k=2)
        wide = TargetSets(speak={0: frozenset({-1, 1, 4}), 2: frozenset({9})},
                          listen={0: frozenset({-3, 2, 7})})
        narrow = TargetSets(speak={0: frozenset({1}), 2: frozenset()},
                            listen={0: frozenset({2})})
        assert _count(net, p, wide, 0, True) == 1
        assert _count(net, p, wide, 0, False) == 1
        for v in range(4):
            assert agent_utility(net, p, wide, v) == \
                agent_utility(net, p, narrow, v)
        assert scan_witnesses(net, p, wide) == scan_witnesses(net, p, narrow)
        assert is_bi_pairwise_stable(net, p, wide) == \
            is_bi_pairwise_stable(net, p, narrow)

    def test_directed_runs_one_search_bidirected_two(self, monkeypatch):
        # directed utility has no listening half, so no backward search
        directions = []
        bfs = netform.model._bfs
        monkeypatch.setattr(netform.model, "_bfs",
                            lambda *a: directions.append(a[3]) or bfs(*a))
        net = cycle(4)
        assert agent_utility(net, di(), ALL_OTHERS, 0) == 3 - 1
        assert directions == [True]
        directions.clear()
        assert agent_utility(net, bi(), ALL_OTHERS, 0) == 3 + 3 - 1
        assert directions == [True, False]

    def test_out_of_range_agent_rejected(self):
        # the from-scratch count checks its agent before any search
        for v in (-1, 4):
            with pytest.raises(ValueError, match=f"vertex {v} out of range"):
                agent_utility(cycle(4), bi(), ALL_OTHERS, v)

    def test_target_set_cannot_contain_owner(self):
        with pytest.raises(ValueError):
            TargetSets(speak={0: frozenset({0, 1})})
