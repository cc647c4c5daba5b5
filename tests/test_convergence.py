import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netform import (INF, BidirectedNetwork, Mode, Params, ReachBalls,
                     condense, construct_path, is_stable, lemma_checks,
                     validate_certificate)
from netform.cli import main
from netform.convergence import CertMove, ComponentGraph
from netform import convergence, dynamics
from netform.dynamics import MoveKind
from netform.errors import LemmaCheckError
from netform.generators import cycle, empty, random_net
from netform.scc import condensation
from netform.serialize import certificate_to_text, document_text, emit_document

from conftest import strip_removables
from scan_oracles import (find_addable_by_pairs, iter_all_networks,
                          oracle_strip)


def di(c=2):
    return Params(k=INF, c_s=F(c), mode=Mode.DIRECTED)


def two_cycles(length):
    net = BidirectedNetwork(2 * length)
    for i in range(length):
        net.add_speaking(i, (i + 1) % length)
        net.add_speaking(length + i, length + (i + 1) % length)
    return net


def bits(*vs):
    return sum(1 << v for v in vs)


class TestScc:
    def test_known_graph(self):
        # [DERIVED] hand-checked components of a mixed graph
        net = BidirectedNetwork(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3),
                                    (2, 3), (4, 5)])
        cg = condense(ReachBalls(net, di(2)))
        assert cg.components == [bits(0, 1, 2), bits(3, 4), bits(5)]
        assert cg.comp_of == [0, 0, 0, 1, 1, 2]
        assert cg.reach == [bits(*range(6)), bits(3, 4, 5), bits(5)]
        assert cg.full_roots() == [0] and cg.full_leaves() == [2]
        assert cg.large == {0}

    def test_singletons_without_edges(self):
        assert condensation([bits(0), bits(1), bits(2)]) == \
            ([bits(0), bits(1), bits(2)], [0, 1, 2])


class TestCondense:
    def test_two_disjoint_3cycles(self):
        # [TRIVIAL] both components large at c=2, both isolated
        cg = condense(ReachBalls(two_cycles(3), di(2)))
        assert len(cg.components) == 2 and cg.large == {0, 1}
        assert cg.reach == cg.components

    def test_cycle_plus_feeder(self):
        # [DERIVED] vertex 3 points into a 3-cycle; the cycle is the only
        # large component and is isolated within the large restriction
        net = BidirectedNetwork(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
        cg = condense(ReachBalls(net, di(2)))
        assert cg.large == {cg.comp_of[0]}
        assert cg.reach[cg.comp_of[0]] == bits(0, 1, 2)
        assert cg.comp_of[3] not in cg.large

    def test_strictly_large_threshold(self):
        # a component of size exactly c does not count as large
        cg = condense(ReachBalls(two_cycles(3), di(3)))
        assert cg.large == frozenset()

    def test_second_condense_runs_no_bfs(self, monkeypatch):
        # condense reads the held forward balls: at an unchanged revision a
        # second condensation searches nothing (ReachBalls calls the _bfs
        # that dynamics binds)
        calls = []
        real = dynamics._bfs
        monkeypatch.setattr(dynamics, "_bfs",
                            lambda *a: calls.append(a) or real(*a))
        net = two_cycles(3)
        balls = ReachBalls(net, di(2))
        first = condense(balls)
        assert len(calls) == net.n
        assert condense(balls) == first and len(calls) == net.n
        net.remove_speaking(0, 1)
        assert condense(balls) != first and len(calls) == 2 * net.n

    def test_requires_directed_unbounded(self):
        for p in (Params(k=INF, c_s=F(1), c_l=F(1)),
                  Params(k=3, c_s=F(1), mode=Mode.DIRECTED),
                  Params(k=INF, c_s=F(0), mode=Mode.DIRECTED)):
            with pytest.raises(ValueError):
                condense(ReachBalls(cycle(3, lifted=False), p))


class TestStrip:
    def test_dangling_edge_removed(self):
        # [PAPER] an edge whose head reaches fewer than c vertices goes
        net = BidirectedNetwork(3, [(0, 1), (1, 2)])
        stripped, removed = strip_removables(net, di(3))
        assert not stripped.speaking and len(removed) == 2

    def test_stable_net_untouched(self):
        net = cycle(5, lifted=False)
        stripped, removed = strip_removables(net, di(2))
        assert stripped == net and not removed

    def test_large_count_never_increases(self):
        for seed in range(20):
            net = random_net(7, 0.4, 0.0, seed)
            p = di(2)
            before = len(condense(ReachBalls(net, p)).large)
            stripped, _ = strip_removables(net, p)
            assert len(condense(ReachBalls(stripped, p)).large) <= before

    def test_lossy_removal_reopens_an_earlier_edge(self):
        # [DERIVED] at c=2 the chain 0 -> 1 -> 2 keeps (0, 1), which loses
        # 2 vertices, until the lossy removal of (1, 2) leaves it losing 1:
        # the sweep must go back to the first edge
        net = BidirectedNetwork(3, [(0, 1), (1, 2)])
        balls = ReachBalls(net.copy(), di(2))
        assert balls.classify(dynamics.EdgeKind.SPEAKING, 0, 1) is \
            dynamics.MoveKind.NO_CHANGE
        assert balls.fire(dynamics.EdgeKind.SPEAKING, 1, 2) \
            is dynamics.MoveKind.REMOVE_SPEAKING
        assert not balls.ball(1, True)[0] >> 2 & 1
        stripped, removed = strip_removables(net, di(2))
        assert removed == [(1, 2), (0, 1)] and not stripped.speaking
        assert [(m.u, m.v) for m in oracle_strip(ReachBalls(net, di(2)))] \
            == removed


# random directed starts for the strip against its restart oracle: n from 2
# to 12, the costs below, densities from sparse to dense
STRIP_COSTS = ("1/3", "1/2", "1", "3/2", "2", "5/2", "3", "4")


def strip_starts(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 12)
        yield (random_net(n, rng.choice((0.1, 0.2, 0.35, 0.6, 0.9)), 0.0,
                          rng.getrandbits(32)), di(rng.choice(STRIP_COSTS)))


class TestStripAgainstOracle:
    def test_same_removals_and_fresh_balls(self):
        for start, p in strip_starts(1000, 14):
            net = start.copy()
            balls = ReachBalls(net, p)
            for x in range(net.n):  # every ball held, so any stale one shows
                balls.ball(x, True), balls.ball(x, False)
            removed = convergence._strip_inplace(balls)
            oracle_net = start.copy()
            assert oracle_strip(ReachBalls(oracle_net, p)) == removed, \
                (start, p)
            assert net == oracle_net
            fresh = ReachBalls(net.copy(), p)
            for x in range(net.n):
                for forward in (True, False):
                    assert balls.ball(x, forward) == fresh.ball(x, forward), \
                        (start, p, x, forward)

    def test_same_certificates(self, monkeypatch):
        starts = list(strip_starts(200, 15))
        runs = []
        for strip in (convergence._strip_inplace, oracle_strip):
            monkeypatch.setattr(convergence, "_strip_inplace", strip)
            runs.append([(certificate_to_text(cert, start, p),
                          cert.lemma_results)
                         for start, p in starts
                         for cert in [construct_path(start, p,
                                                     assert_lemmas=False)]])
        assert runs[0] == runs[1]


# at, just below and just above integers, on both sides of c = 1
ADD_COSTS = (F(1, 2), F(9, 10), F(1), F(11, 10), F(3, 2), F(19, 10), F(2),
             F(21, 10), F(3))


class TestAddableAgainstOracle:
    @given(st.integers(2, 10), st.sampled_from((0.1, 0.2, 0.35, 0.6)),
           st.integers(0, 2 ** 32 - 1), st.sampled_from(ADD_COSTS),
           st.sampled_from((1, 2, 3, INF)))
    @settings(max_examples=300, deadline=None)
    def test_first_addable_pair(self, n, p, seed, c, k):
        # on the start, where present edges may be removable, and after the
        # strip, where construct_path asks; the horizons below INF check
        # that the walk keeps its reached-head skip to k = inf
        net = random_net(n, p, 0.0, seed)
        params = Params(k=k, c_s=c, mode=Mode.DIRECTED)
        balls = ReachBalls(net, params)
        for _ in range(2):
            assert convergence._find_addable(balls) == \
                find_addable_by_pairs(ReachBalls(net.copy(), params))
            oracle_strip(balls)


class TestConstructPath:
    def test_empty_start_zero_moves(self):
        cert = construct_path(empty(5), di(2))
        assert not cert.moves and cert.final == empty(5)  # [TRIVIAL]

    def test_two_cycles_merge_to_strongly_connected(self):
        # [DERIVED] two disjoint directed c+1-cycles end as one SCC
        start = two_cycles(3)
        p = di(2)
        cert = construct_path(start, p)
        assert validate_certificate(cert, start, p)
        assert len(condense(ReachBalls(cert.final, p)).components) == 1

    def test_random_starts_replay_and_stabilize(self):
        # [DERIVED] every certificate replays move-for-move and ends stable
        p = di(2)
        for seed in range(30):
            start = random_net(10, 0.3, 1.0, seed)
            cert = construct_path(start, p, assert_lemmas=True)
            assert validate_certificate(cert, start, p)
            assert is_stable(cert.final, p).stable

    def test_small_cost_chain_uses_fallback(self):
        # at c = 1 a stripped chain of singletons has an addable edge but no
        # strictly-large component; the fallback add must fire and converge
        start = BidirectedNetwork(3, [(0, 1), (1, 2)])
        p = di(1)
        cert = construct_path(start, p)
        assert [(m.kind, m.u, m.v, m.step_label) for m in cert.moves] == \
            [(MoveKind.ADD_SPEAKING, 2, 0, 4)]
        assert validate_certificate(cert, start, p)

    def test_fallback_never_fires_above_unit_cost(self):
        for seed in range(20):
            cert = construct_path(random_net(8, 0.3, 0.0, seed), di(2))
            assert all(m.step_label != 4 for m in cert.moves)

    def test_retired_edges_recorded_for_step8(self):
        # step 8 retires its edge
        p = di(2)
        for seed in range(60):
            start = random_net(8, 0.2, 0.0, seed)
            cert = construct_path(start, p)
            eights = [m for m in cert.moves if m.step_label == 8]
            assert len(cert.retired_edges) == len(eights)
            for m in eights:
                assert (m.u, m.v) in cert.retired_edges

    def test_lemma_results_all_pass(self):
        cert = construct_path(random_net(9, 0.35, 0.0, 5), di(2),
                              assert_lemmas=False)
        assert cert.lemma_results and all(ok for _, ok in cert.lemma_results)

    def test_move_budget_raises(self):
        from netform.errors import ConstructionError
        with pytest.raises(ConstructionError):
            construct_path(random_net(8, 0.3, 0.0, 1), di(2), max_moves=0)

    def test_requires_directed_unbounded(self):
        with pytest.raises(ValueError):
            construct_path(empty(3), Params(k=INF, c_s=F(1), c_l=F(1)))

    def test_step6_joins_first_two_large_components_both_ways(self):
        # three disjoint 3-cycles at c = 2: no large component reaches
        # another, so step 6 wires the first two together, (3, 0) then (0, 3)
        start = BidirectedNetwork(9, [(b + i, b + (i + 1) % 3)
                                      for b in (0, 3, 6) for i in range(3)])
        p = di(2)
        cert = construct_path(start, p)
        assert [(m.kind, m.u, m.v, m.step_label) for m in cert.moves[:2]] == \
            [(MoveKind.ADD_SPEAKING, 3, 0, 6), (MoveKind.ADD_SPEAKING, 0, 3, 6)]
        assert validate_certificate(cert, start, p)


# two costs in each cost class of n = 3: (0, 1), 1, (1, 2), 2 and (2, inf)
N3_COST_CLASSES = [("1/3", "2/3"), ("1", "1"), ("5/4", "7/4"), ("2", "2"),
                   ("5/2", "7")]


class TestEveryStart:
    def test_n3_every_start_each_cost_class(self):
        # construct_path reads c_s only through comparisons with integers,
        # so two costs of one class give the same moves and retired edges
        for c1, c2 in N3_COST_CLASSES:
            for start in iter_all_networks(3, Mode.DIRECTED):
                runs = []
                for c in (c1, c2):
                    cert = construct_path(start, di(c), assert_lemmas=True)
                    assert validate_certificate(cert, start, di(c)), (c, start)
                    runs.append((cert.moves, cert.retired_edges))
                assert runs[0] == runs[1], (c1, c2, start)

    @pytest.mark.parametrize("c, labels", [("1/2", {1, 5, 6}),
                                           ("1", {1, 4, 5, 6, 7, 8})])
    def test_n4_every_start(self, c, labels):
        # together the two costs use every step label; c = 1 alone does
        used = set()
        for start in iter_all_networks(4, Mode.DIRECTED):
            cert = construct_path(start, di(c), assert_lemmas=True)
            assert validate_certificate(cert, start, di(c)), start
            used |= {m.step_label for m in cert.moves}
        assert used == labels


# (n, c_s, speaking density, seed) of random directed starts; together their
# certificates use step labels 1, 4, 5, 6, 7 and 8
GOLDEN_STARTS = [(14, "1", 0.1, 0), (14, "3/2", 0.1, 10), (14, "2", 0.1, 10),
                 (6, "1", 0.1, 3), (6, "1", 0.2, 9), (6, "1", 0.2, 11),
                 (6, "3/2", 0.3, 9), (8, "3/2", 0.2, 2), (8, "1", 0.3, 5),
                 (10, "1", 0.3, 6), (10, "2", 0.3, 0), (10, "3", 0.3, 1)]
GOLDEN_SHA256 = \
    "1b9c822a04279c90b4d6a11bb4ce64c82875b647509529a009fb313e758e79b6"


def test_construct_path_golden():
    # certificate bytes and every lemma result are pinned: a refactor of the
    # constructor must not change which moves it emits or what it checks
    digest = hashlib.sha256()
    labels = set()
    for n, c, density, seed in GOLDEN_STARTS:
        p = di(c)
        start = random_net(n, density, 0.0, seed)
        cert = construct_path(start, p, assert_lemmas=False)
        labels |= {m.step_label for m in cert.moves}
        digest.update(certificate_to_text(cert, start, p).encode())
        digest.update(repr(cert.lemma_results).encode())
    assert labels == {1, 4, 5, 6, 7, 8}
    assert digest.hexdigest() == GOLDEN_SHA256


class TestLemmaChecks:
    def test_step5_reduces_large_count(self):
        # [PAPER] build a two-large-component graph where the large
        # reachability has a root and a leaf, then run one proof step
        net = two_cycles(3)
        net.add_speaking(0, 3)  # first 3-cycle is root, second is leaf
        p = di(2)
        stripped, _ = strip_removables(net, p)
        cert = construct_path(stripped, p)
        first_add = next(m for m in cert.moves
                         if m.kind is MoveKind.ADD_SPEAKING)
        assert first_add.step_label == 5
        checks = dict(cert.lemma_results)
        assert checks.get("L33_step5_large_count_decreases") is True

    def test_predicates_on_stable_graph(self):
        net = cycle(6, lifted=False)
        balls = ReachBalls(net, di(2))
        cg = condense(balls)
        results = dict(lemma_checks(cg, cg, 1, balls))
        assert results["L27_condensation_acyclic"]
        assert results["L28_edge_heads_reach_at_least_c"]
        assert results["L29_leaves_isolated_or_large"]
        assert results["L32_strip_large_count_nonincreasing"]

    def test_broken_invariant_detected(self):
        # negative control: a net whose edge head reaches nothing flunks L28
        bad = BidirectedNetwork(3, [(0, 1)])
        balls = ReachBalls(bad, di(3))
        cg = condense(balls)
        results = dict(lemma_checks(cg, cg, 1, balls))
        assert results["L28_edge_heads_reach_at_least_c"] is False

    def test_cyclic_condensation_detected(self):
        # negative control: two components that reach each other flunk L27,
        # while the true condensation of the same 2-cycle passes
        balls = ReachBalls(cycle(2, lifted=False), di(2))
        cyclic = ComponentGraph(components=[bits(0), bits(1)], comp_of=[0, 1],
                                reach=[bits(0, 1), bits(0, 1)],
                                large=frozenset())
        for cg, acyclic in ((cyclic, False), (condense(balls), True)):
            results = dict(lemma_checks(cg, cg, 1, balls))
            assert results["L27_condensation_acyclic"] is acyclic

    def test_tampered_certificate_rejected(self):
        # negative control: injecting a non-addable move must fail replay
        start = two_cycles(3)
        p = di(2)
        cert = construct_path(start, p)
        assert validate_certificate(cert, start, p)
        cert.moves.insert(0, CertMove(MoveKind.ADD_SPEAKING, 0, 1, 5))
        assert not validate_certificate(cert, start, p)

    @pytest.mark.parametrize("move", [
        CertMove(MoveKind.NO_CHANGE, 0, 1, 1),
        CertMove(MoveKind.ADD_LISTENING, 1, 0, 1),
        # (0, 1) closes a 3-cycle: removing it loses 2 reach at cost 2
        CertMove(MoveKind.REMOVE_SPEAKING, 0, 1, 1)])
    def test_certificate_move_kinds_rejected(self, move):
        start = two_cycles(3)
        p = di(2)
        cert = construct_path(start, p)
        cert.moves.insert(0, move)
        assert not validate_certificate(cert, start, p)

    def test_lemma_check_error_is_assertion(self):
        assert issubclass(LemmaCheckError, AssertionError)


class TestCertificateVerdict:
    """``validate_certificate`` names the first failing move and why."""

    def verdict(self, edit):
        start, p = two_cycles(3), di(2)
        cert = construct_path(start, p)
        assert len(cert.moves) == 2
        edit(cert)
        return validate_certificate(cert, start, p)

    def test_valid(self):
        verdict = self.verdict(lambda cert: None)
        assert verdict and verdict.ok and verdict.move is None

    @pytest.mark.parametrize("kind", [MoveKind.NO_CHANGE,
                                      MoveKind.ADD_LISTENING])
    def test_unknown_kind(self, kind):
        verdict = self.verdict(
            lambda cert: cert.moves.insert(1, CertMove(kind, 0, 1, 5)))
        assert not verdict
        assert (verdict.reason, verdict.move) == ("unknown kind", 1)
        assert str(verdict) == "move 1: unknown kind"

    @pytest.mark.parametrize("u, v", [(2, 2), (0, 6), (-1, 0)])
    def test_bad_pair(self, u, v):
        verdict = self.verdict(lambda cert: cert.moves.insert(
            0, CertMove(MoveKind.ADD_SPEAKING, u, v, 5)))
        assert not verdict
        assert (verdict.reason, verdict.move) == ("bad pair", 0)

    def test_wrong_classification(self):
        # the first move's edge, added a second time, is no longer absent
        verdict = self.verdict(lambda cert: cert.moves.insert(
            1, cert.moves[0]))
        assert not verdict
        assert (verdict.reason, verdict.move) == ("wrong classification", 1)

    def test_final_mismatch(self):
        verdict = self.verdict(lambda cert: cert.final.remove_speaking(0, 1))
        assert not verdict
        assert (verdict.reason, verdict.move) == ("final mismatch", None)
        assert str(verdict) == "final mismatch"

    def test_final_not_stable(self):
        def stop_early(cert):
            first = cert.moves[0]
            del cert.moves[1:]
            cert.final = two_cycles(3)
            cert.final.add_speaking(first.u, first.v)
        verdict = self.verdict(stop_early)
        assert not verdict
        assert (verdict.reason, verdict.move) == ("final not stable", None)

    def test_cli_path_names_the_reason(self, tmp_path, monkeypatch, capsys):
        build = convergence.construct_path

        def tampered(start, params, **kw):
            cert = build(start, params, **kw)
            cert.moves.insert(0, CertMove(MoveKind.NO_CHANGE, 0, 1, 1))
            return cert
        monkeypatch.setattr(convergence, "construct_path", tampered)
        doc = tmp_path / "d.json"
        doc.write_text(document_text(emit_document(two_cycles(3), di(2))))
        assert main(["path", "-i", str(doc), "-o", str(tmp_path / "c")]) == 3
        assert "replay validation: move 0: unknown kind" in \
            capsys.readouterr().err
