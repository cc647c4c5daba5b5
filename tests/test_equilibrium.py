from fractions import Fraction as F

import pytest

import netform.equilibrium
import netform.model
from conftest import net_from_bits
from netform import (ALL_OTHERS, INF, BidirectedNetwork, Classification,
                     EdgeKind, Mode, Params, TargetSets, agent_utility,
                     all_complete, brute_force_nash, check_symmetric,
                     efficient_search, is_bi_pairwise_stable, is_stable,
                     poa_pos, welfare)
from netform.cli import main
from netform.equilibrium import census, iter_all_networks, net_from_mask
from netform.errors import CapacityError
from netform.generators import (balanced_flower, complete_net, cycle, empty,
                                kautz, random_net)
from netform.serialize import format_k
from scan_oracles import efficient_search_by_definition, poa_pos_by_definition

ROWS = ("_speak_out", "_speak_in", "_listen_out", "_listen_in", "_live_out",
        "_live_in")


def bi(k=INF, cs=F(1, 2), cl=F(1, 2)):
    return Params(k=k, c_s=cs, c_l=cl)


def di(k=INF, cs=F(1)):
    return Params(k=k, c_s=cs, mode=Mode.DIRECTED)


class TestIsStable:
    def test_cycle_stable_in_cost_window(self):
        # [PAPER] lifted cycle stable for 0 < c <= n-1 at unbounded k
        for c in (F(1, 2), F(1), F(3)):
            assert is_stable(cycle(4), bi(cs=c, cl=c)).stable

    def test_empty_stable_at_unit_costs(self):
        assert is_stable(empty(5), bi(cs=F(2), cl=F(2))).stable  # [PAPER]

    def test_flower_stable_below_half_petal(self):
        net, _ = balanced_flower(26, 10)
        assert is_stable(net, Params(k=10, c_s=F(2), mode=Mode.DIRECTED)).stable

    def test_witnesses_listed_for_unstable(self):
        # the dead edge is removable and its listening half is addable
        rep = is_stable(BidirectedNetwork(2, [(0, 1)]), bi())
        assert not rep.stable
        assert {(k, u, v, c) for k, u, v, c in rep.witnesses} == {
            (EdgeKind.SPEAKING, 0, 1, Classification.REMOVABLE),
            (EdgeKind.LISTENING, 1, 0, Classification.ADDABLE)}


class TestBiPairwise:
    def test_empty_unit_cost_is_bi_pairwise(self):
        rep = is_bi_pairwise_stable(empty(3), bi(cs=F(1), cl=F(1)))
        assert rep.bi_pairwise  # [PAPER]

    def test_empty_cheap_is_not(self):
        # [DERIVED] joint add nets 1 - 1/2 for both sides
        rep = is_bi_pairwise_stable(empty(2), bi(k=1))
        assert rep.stable and not rep.bi_pairwise
        assert rep.bi_pairwise_witness is not None

    def test_kautz_lifted_bi_pairwise(self):
        # [PAPER] lifted Kautz stays pairwise stable for c <= 1
        net, _ = kautz(2, 4, lifted=True)
        assert is_bi_pairwise_stable(net, bi(k=4)).bi_pairwise

    def test_bi_pairwise_implies_stable_on_census(self):
        # [PAPER] over every n=2 bidirected network
        p = bi(k=2, cs=F(2, 3), cl=F(1, 3))
        for net in iter_all_networks(2, Mode.BIDIRECTED):
            rep = is_bi_pairwise_stable(net, p)
            if rep.bi_pairwise:
                assert rep.stable


class TestAllComplete:
    def test_lifted_cycle_complete(self):
        assert all_complete(cycle(3))  # [TRIVIAL]

    def test_lone_edge_incomplete(self):
        assert not all_complete(BidirectedNetwork(2, [(0, 1)]))
        assert not all_complete(BidirectedNetwork(2, listening=[(1, 0)]))

    def test_stable_with_positive_costs_implies_complete(self):
        # [PAPER] cross-validator over the n=2 census
        p = bi(k=2)
        for net in iter_all_networks(2, Mode.BIDIRECTED):
            if is_stable(net, p).stable:
                assert all_complete(net)


class TestBruteForceNash:
    def test_agrees_with_edge_scan_on_tiny_census(self):
        # [DERIVED] the two characterizations coincide on every n=2 network
        p = bi(k=1)
        for net in iter_all_networks(2, Mode.BIDIRECTED):
            assert is_stable(net, p).stable == brute_force_nash(net, p)

    def test_stable_cycle_is_nash(self):
        assert brute_force_nash(cycle(4), bi(cs=F(1), cl=F(1)))  # [PAPER]

    def test_empty_directed_cheap_not_nash(self):
        # [DERIVED] one speaking edge alone already pays at c < 1
        assert not brute_force_nash(empty(3), Params(k=INF, c_s=F(1, 2),
                                                     mode=Mode.DIRECTED))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            brute_force_nash(empty(7), bi())

    @pytest.mark.parametrize("net, p, edge_kinds", [
        (random_net(4, 0.5, 0.5, 1), bi(k=2), 2),
        (random_net(5, 0.4, 0.5, 2), di(k=2, cs=F(1, 2)), 1),
    ], ids=["bidirected", "directed"])
    def test_gray_walk_visits_each_strategy_once(self, monkeypatch, net, p,
                                                 edge_kinds):
        # a recorder that never reports a gain sees every agent's whole
        # strategy space, each strategy once and one edge flip apart; the
        # directed walk leaves listening edges as they are
        def strategy(net, v):
            return (frozenset(w for w in range(net.n) if net.has_speaking(v, w)),
                    frozenset(w for w in range(net.n) if net.has_listening(v, w)))

        seen = {v: [] for v in range(net.n)}
        monkeypatch.setattr(netform.equilibrium, "agent_utility",
                            lambda work, params, targets, v:
                            seen[v].append(strategy(work, v)) or 0)
        before, revision = net.copy(), net.revision
        assert brute_force_nash(net, p)
        assert net == before and net.revision == revision
        for v, walk in seen.items():
            assert len(walk) == 2 ** (edge_kinds * (net.n - 1))
            assert len(set(walk)) == len(walk)
            assert walk[0] == strategy(net, v)
            assert all(len(s ^ t) + len(l ^ m) == 1
                       for (s, l), (t, m) in zip(walk, walk[1:]))
            if p.mode is Mode.DIRECTED:
                assert {l for _, l in walk} == {strategy(net, v)[1]}

    def test_directed_verdict_ignores_listening_edges(self):
        # directed utility reads neither listening edges nor their cost
        verdicts = []
        nets = [cycle(5), cycle(6)] + [random_net(5, 0.4, 0.5, seed)
                                       for seed in range(8)]
        for net in nets:
            bare = BidirectedNetwork(net.n, net.speaking)
            assert net.listening and not bare.listening
            for cs in (F(1, 2), F(2)):
                verdict = brute_force_nash(net, di(cs=cs))
                assert verdict == brute_force_nash(bare, di(cs=cs))
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts


class TestEfficiency:
    def test_bidirected_3cycle_is_argmax(self):
        # [PAPER] the cycle is the efficient network at n=3, c=1/2;
        # both rotations attain the maximum (uniqueness up to orientation)
        rep = efficient_search(3, bi())
        assert rep.best_welfare == 9
        assert any(net == cycle(3) for net in rep.argmax_nets)
        lifted_cycles = {cycle(3).canonical(),
                         BidirectedNetwork(3, [(0, 2), (2, 1), (1, 0)],
                                           [(2, 0), (1, 2), (0, 1)]).canonical()}
        assert {net.canonical() for net in rep.argmax_nets} == lifted_cycles

    def test_directed_4cycle_argmax(self):
        # [DERIVED] exhaustive over 2^12 directed graphs on 4 vertices
        p = Params(k=INF, c_s=F(1, 2), mode=Mode.DIRECTED)
        rep = efficient_search(4, p)
        assert rep.best_welfare == 10
        assert any(net == cycle(4, lifted=False) for net in rep.argmax_nets)

    def test_high_cost_argmax_is_empty(self):
        # [PAPER] k=1 with costs above 1: the empty network is efficient
        rep = efficient_search(2, bi(k=1, cs=F(2), cl=F(2)))
        assert rep.best_welfare == 0
        assert rep.argmax_nets == [empty(2)]

    def test_efficient_nets_all_complete(self):
        # [PAPER] with positive costs every exhaustive argmax is complete
        for rep in (efficient_search(3, bi()),
                    efficient_search(2, bi(k=1, cs=F(2), cl=F(2)))):
            assert all(all_complete(net) for net in rep.argmax_nets)


class TestPoAPoS:
    def test_unit_cost_poa_zero_pos_one(self):
        # [PAPER] empty is stable at welfare 0, cycle is stable and efficient
        r = poa_pos(3, bi(cs=F(1), cl=F(1)))
        assert r.poa == 0 and r.pos == 1 and not r.degenerate
        assert r.best_welfare == 6

    def test_k1_cheap_pos_one(self):
        # [PAPER] complete network stable and efficient at k=1, c=1/2
        r = poa_pos(2, bi(k=1))
        assert r.pos == 1 and r.best_welfare == 2

    def test_k1_unit_all_stable_and_efficient(self):
        # [PAPER] at k=1, c_s=c_l=1 both ratios collapse to 1 among the
        # complete-pair networks; welfare optimum is 0
        r = poa_pos(2, bi(k=1, cs=F(1), cl=F(1)))
        assert r.degenerate and r.best_welfare == 0
        assert r.worst_stable_welfare == 0 and r.best_stable_welfare == 0


class TestSymmetry:
    def test_cycle_symmetric(self):
        assert check_symmetric(cycle(5), bi())  # [TRIVIAL]

    def test_flower_asymmetric(self):
        net, _ = balanced_flower(26, 10)
        assert not check_symmetric(net, Params(k=10, c_s=F(2),
                                               mode=Mode.DIRECTED))  # [PAPER]

    def test_kautz_symmetric(self):
        net, _ = kautz(2, 4)
        assert check_symmetric(net, Params(k=4, c_s=F(3), mode=Mode.DIRECTED))

    def test_complete_symmetric(self):
        assert check_symmetric(complete_net(4), bi(k=1))


class TestEnumeration:
    def test_mask_round_trip(self):
        net = net_from_mask(3, 0b101_010_111_001, Mode.BIDIRECTED)
        assert len(net.speaking) + len(net.listening) == 7

    # BidirectedNetwork.__eq__ reads the out-rows alone, so every row list
    # is compared, against the checked mutators of the local decoder
    @pytest.mark.parametrize("n, mode", [(2, Mode.BIDIRECTED),
                                         (3, Mode.BIDIRECTED),
                                         (3, Mode.DIRECTED),
                                         (4, Mode.DIRECTED)])
    def test_decoded_rows_match_checked_mutators(self, n, mode):
        bits = n * (n - 1) * (2 if mode is Mode.BIDIRECTED else 1)
        for mask in range(2 ** bits):
            got = net_from_mask(n, mask, mode)
            want = net_from_bits(n, mask, mode)
            assert got.revision == 0
            for rows in ROWS:
                assert getattr(got, rows) == getattr(want, rows), (mask, rows)

    def test_census_guard(self):
        with pytest.raises(CapacityError):
            list(iter_all_networks(4, Mode.BIDIRECTED))


class TestCensusFolds:
    @pytest.mark.parametrize("n, params, targets", [
        (2, bi(k=2, cs=F(1, 2), cl=F(1)), ALL_OTHERS),
        (3, bi(k=2, cs=F(1, 2), cl=F(1)), ALL_OTHERS),
        (3, di(cs=F(1, 2)), ALL_OTHERS),
        (4, di(cs=F(2, 3)), ALL_OTHERS),
        (3, bi(k=1, cs=F(1, 3), cl=F(1, 2)),
         TargetSets(speak={0: frozenset({1})}, listen={2: frozenset({0, 5})})),
        (2, bi(k=1, cs=F(1), cl=F(1)), ALL_OTHERS),  # degenerate
    ])
    def test_folds_match_definition(self, n, params, targets):
        assert efficient_search(n, params, targets) == \
            efficient_search_by_definition(n, params, targets)
        assert poa_pos(n, params, targets) == \
            poa_pos_by_definition(n, params, targets)

    # costs whose least common denominator is 1, 2, 3 and 6, zero among them
    @pytest.mark.parametrize("n, params, scale", [
        (3, bi(k=2, cs=F(0), cl=F(1)), 1),
        (3, bi(k=INF, cs=F(1, 2), cl=F(2)), 2),
        (3, bi(k=1, cs=F(2, 3), cl=F(0)), 3),
        (3, bi(k=2, cs=F(1, 2), cl=F(4, 3)), 6),
        (4, di(cs=F(0)), 1),
        (4, di(cs=F(3, 2)), 2),
        (4, di(k=2, cs=F(1, 3)), 3),
        (4, di(cs=F(7, 6)), 6),
    ])
    def test_scaled_utilities_and_welfare_cells(self, tmp_path, n, params,
                                                scale):
        # every agent of every network against the from-scratch utility,
        # and every census row's welfare cell against their sum
        utilities = []
        for mask, balls in census(n, params):
            assert balls.scale == scale
            assert balls.net == net_from_bits(n, mask, params.mode)
            exact = [agent_utility(balls.net, params, ALL_OTHERS, v)
                     for v in range(n)]
            assert [balls.scaled_utility(v) for v in range(n)] == \
                [scale * u for u in exact], mask
            utilities.append(exact)
        out = tmp_path / "c.csv"
        assert main(["census", "--n", str(n), "--k", str(format_k(params.k)),
                     "--cs", str(params.c_s), "--cl", str(params.c_l),
                     "--mode", params.mode.value, "-o", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == len(utilities)
        for row, exact in zip(rows, utilities):
            assert row.split(",")[4] == str(sum(exact)), row

    def test_census_runs_no_from_scratch_reach(self, tmp_path, monkeypatch):
        # ReachBalls binds its own _bfs; model._bfs is looked up only by the
        # from-scratch reach of agent_utility and welfare
        calls = []
        bfs = netform.model._bfs
        monkeypatch.setattr(netform.model, "_bfs",
                            lambda *a: calls.append(a) or bfs(*a))
        p = bi(k=2, cs=F(1, 2), cl=F(1))
        welfare(empty(2), p)
        assert calls  # the counter sees from-scratch utilities
        calls.clear()
        assert main(["census", "--n", "2", "--k", "2", "--cs", "1/2",
                     "--cl", "1", "-o", str(tmp_path / "c.csv")]) == 0
        efficient_search(2, p)
        poa_pos(3, di())
        assert calls == []

    @pytest.mark.parametrize("flags", [(), ("--bi-pairwise",)])
    def test_check_runs_no_from_scratch_reach(self, tmp_path, monkeypatch,
                                              flags):
        # the check report and its symmetric field read one held ReachBalls
        calls = []
        bfs = netform.model._bfs
        monkeypatch.setattr(netform.model, "_bfs",
                            lambda *a: calls.append(a) or bfs(*a))
        doc = tmp_path / "r.json"
        assert main(["generate", "random", "--n", "9", "--seed", "2",
                     "--ps", "0.3", "--pl", "0.3", "--cs", "1/2", "--cl", "1",
                     "-o", str(doc)]) == 0
        assert main(["check", "-i", str(doc), *flags,
                     "-o", str(tmp_path / "c.json")]) == 0
        assert calls == []
