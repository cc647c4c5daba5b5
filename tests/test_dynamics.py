import hashlib
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import pytest

from netform import (ALL_OTHERS, INF, BidirectedNetwork, EdgeKind, Mode,
                     Move, MoveKind, Params, ReachBalls, TargetSets, Trace,
                     classify, find_witness, never_readd_check, replay, run,
                     scan_witnesses, step)
from netform.dynamics import _below, apply_move
from netform.errors import TraceError
from netform.generators import cycle, empty, random_net
from netform.serialize import trace_to_text

from conftest import bi, child_env, net_from_bits, oracle_utility
from scan_oracles import iter_typed_pairs, sample_by_randrange


class TestClassify:
    def test_addable_strict_gain(self):
        # [TRIVIAL] n=2, k=1 directed: gain 1 > 1/2 addable; 1 > 1 is not
        net = empty(2)
        p = Params(k=1, c_s=F(1, 2), mode=Mode.DIRECTED)
        assert classify(net, p, ALL_OTHERS, EdgeKind.SPEAKING, 0, 1) \
            is MoveKind.ADD_SPEAKING
        p1 = Params(k=1, c_s=F(1), mode=Mode.DIRECTED)
        assert classify(net, p1, ALL_OTHERS, EdgeKind.SPEAKING, 0, 1) \
            is MoveKind.NO_CHANGE

    def test_dead_speaking_edge_removable(self):
        # [PAPER] a speaking edge with no listening partner is removable
        # whenever it costs anything
        net = BidirectedNetwork(3, [(0, 1)])
        assert classify(net, bi(), ALL_OTHERS, EdgeKind.SPEAKING, 0, 1) \
            is MoveKind.REMOVE_SPEAKING

    def test_listening_inert_in_directed_mode(self):
        net = empty(2)
        p = Params(k=INF, c_s=F(1), mode=Mode.DIRECTED)
        assert classify(net, p, ALL_OTHERS, EdgeKind.LISTENING, 0, 1) \
            is MoveKind.NO_CHANGE

    def test_matches_full_utility_recomputation(self):
        # [DERIVED] the owner-reach shortcut must agree with toggling the
        # edge and recomputing the full oracle utility
        rng = random.Random(7)
        for _ in range(40):
            mode = rng.choice(list(Mode))
            net = net_from_bits(4, rng.getrandbits(24), mode)
            p = Params(k=rng.choice([1, 2, INF]), c_s=F(rng.randrange(5), 2),
                       c_l=F(0) if mode is Mode.DIRECTED else F(rng.randrange(5), 2),
                       mode=mode)
            for kind, u, v in iter_typed_pairs(4):
                move = classify(net, p, ALL_OTHERS, kind, u, v)
                base = oracle_utility(net, p, u)
                work = net.copy()
                if kind is EdgeKind.SPEAKING:
                    present = work.has_speaking(u, v)
                    (work.remove_speaking if present else work.add_speaking)(u, v)
                else:
                    present = work.has_listening(u, v)
                    (work.remove_listening if present else work.add_listening)(u, v)
                improved = oracle_utility(work, p, u) > base
                expect = (MoveKind(("-" if present else "+") + kind.value)
                          if improved else MoveKind.NO_CHANGE)
                assert move is expect, (mode, p.k, p.c_s, kind, u, v)


class TestStep:
    def test_empty_bidirected_never_fires(self):
        # [DERIVED] no lone edge pays for itself at positive costs
        net = empty(2)
        balls = ReachBalls(net, bi(k=1))
        rng = random.Random(0)
        for _ in range(50):
            mv = step(balls, rng)
            assert mv.kind is MoveKind.NO_CHANGE and not mv.mutating
        assert not net.speaking and not net.listening

    def test_dead_edge_gets_removed_when_sampled(self):
        # listening priced out so completing the pair is never profitable
        net = BidirectedNetwork(2, [(0, 1)])
        balls = ReachBalls(net, bi(cl=F(2)))
        rng = random.Random(0)
        while True:
            mv = step(balls, rng)
            if mv.mutating:
                assert mv.kind is MoveKind.REMOVE_SPEAKING and (mv.u, mv.v) == (0, 1)
                break

    def test_sampling_covers_all_typed_pairs(self):
        rng = random.Random(3)
        seen = set()
        balls = ReachBalls(empty(3), Params(k=1, c_s=F(2), c_l=F(2)))
        for _ in range(600):
            mv = step(balls, rng)
            seen.add((mv.edge_kind, mv.u, mv.v))
        assert seen == set(iter_typed_pairs(3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 17, 24, 33, 64, 65])
    def test_draw_matches_randrange_oracle(self, n):
        # n and n - 1 on both sides of a power of two cross every bit-length
        # boundary of the draw; on an empty network nothing fires
        balls = ReachBalls(empty(n), bi())
        for seed in range(20):
            ours, oracle = random.Random(seed), random.Random(seed)
            for i in range(100):
                mv = step(balls, ours)
                assert (mv.edge_kind, mv.u, mv.v) == sample_by_randrange(
                    oracle, n), (n, seed, i)
            assert ours.getstate() == oracle.getstate()

    def test_below_draws_as_randrange(self):
        # the one written draw, for every m up to 64: m = 1 and the powers
        # of two are where m.bit_length() steps up
        for seed in range(5):
            ours, oracle = random.Random(seed), random.Random(seed)
            for m in range(1, 65):
                assert [_below(ours.getrandbits, m) for _ in range(20)] == [
                    oracle.randrange(m) for _ in range(20)], (seed, m)
            assert ours.getstate() == oracle.getstate()

    def test_one_agent_raises_promptly(self):
        # in a child process, so a regression fails on the timeout instead
        # of hanging the suite on a draw below n - 1 = 0
        code = ("import random\n"
                "from fractions import Fraction\n"
                "from netform import BidirectedNetwork, Params, ReachBalls, step\n"
                "balls = ReachBalls(BidirectedNetwork(1), Params(1, Fraction(1)))\n"
                "try:\n    step(balls, random.Random(0))\n"
                "except ValueError:\n    print('rejected')\n")
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, timeout=30)
        assert out.stdout.strip() == "rejected", out.stderr


def stepped_run(initial, params, targets, seed, max_steps):
    """``run``'s reference: rounds of ``step`` on a copy of ``initial``,
    with a first-witness scan before the first round and after every
    2n(n-1)-th.  The moves, the final network and ``converged``."""
    scan_interval = max(1, 2 * initial.n * (initial.n - 1))
    net = initial.copy()
    balls = ReachBalls(net, params, targets)
    rng = random.Random(seed)
    moves = []
    converged = find_witness(net, params, targets) is None
    while not converged and len(moves) < max_steps:
        moves.append(step(balls, rng))
        if len(moves) % scan_interval == 0:
            converged = find_witness(net, params, targets) is None
    return moves, net, converged


# (params, n, speaking density, listening density, targets): both modes at
# k = 1, 2 and inf, default and custom target sets, directed starts holding
# listening edges, and n or n - 1 a power of two
RUN_CASES = {
    "bi-k1-n2": (bi(k=1, cs=F(1, 3), cl=F(1, 3)), 2, 0.5, 0.5, ALL_OTHERS),
    "bi-k2-n5": (bi(k=2), 5, 0.4, 0.4, ALL_OTHERS),
    "bi-kinf-n9-targets": (bi(cs=F(1), cl=F(1, 3)), 9, 0.3, 0.3,
                           TargetSets(speak={0: frozenset({1, 2, 3})},
                                      listen={4: frozenset({0, 5, 8})})),
    "dir-k1-n3-listening": (Params(k=1, c_s=F(1, 2), mode=Mode.DIRECTED), 3,
                            0.3, 0.6, ALL_OTHERS),
    "dir-k2-n4-targets": (Params(k=2, c_s=F(1), mode=Mode.DIRECTED), 4, 0.4,
                          0.4, TargetSets(speak={1: frozenset({0, 3})})),
    "dir-kinf-n8-listening": (Params(k=INF, c_s=F(3, 2), mode=Mode.DIRECTED),
                              8, 0.2, 0.5, ALL_OTHERS),
}


@pytest.mark.parametrize("case", sorted(RUN_CASES))
@pytest.mark.parametrize("max_steps", [None, 6], ids=["scan-default", "cut"])
def test_run_matches_stepped_reference(case, max_steps):
    # run makes its rounds in its own loop; a loop of step must give the
    # same moves, final network and verdict, and the draws must be
    # randrange's
    params, n, ps, pl, targets = RUN_CASES[case]
    for seed in range(4):
        start = random_net(n, ps, pl, 50 + seed)
        trace = run(start, params, targets, seed=seed, max_steps=max_steps)
        moves, final, converged = stepped_run(
            start, params, targets, seed,
            50 * n ** 6 if max_steps is None else max_steps)
        assert trace.moves == moves, (case, seed)
        assert trace.final == final and trace.converged is converged
        assert trace.initial == start
        if max_steps is not None and not converged:
            assert trace.steps_sampled == max_steps
        oracle = random.Random(seed)
        assert [(mv.edge_kind, mv.u, mv.v) for mv in trace.moves] == [
            sample_by_randrange(oracle, n) for _ in trace.moves]


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_asks_no_quiet_pair_again(case, monkeypatch):
    # classify reads only the network, which moves only when a move fires:
    # at one revision, a pair that answered NO_CHANGE is never asked again,
    # by a draw or a scan.  A pair that answered with a move may be: a scan
    # finds it and a later draw fires it
    params, n, ps, pl, targets = RUN_CASES[case]
    classify = ReachBalls.classify
    asked = []

    def recorded(self, kind, u, v):
        move = classify(self, kind, u, v)
        asked.append(((self.net.revision, kind, u, v), move))
        return move

    monkeypatch.setattr(ReachBalls, "classify", recorded)
    answered_quiet = 0
    for seed in range(4):
        asked.clear()
        run(random_net(n, ps, pl, 50 + seed), params, targets, seed=seed)
        quiet = set()
        for key, move in asked:
            assert key not in quiet, (case, seed, key)
            if move is MoveKind.NO_CHANGE:
                quiet.add(key)
        answered_quiet += len(quiet)
    assert answered_quiet, case


class TestRun:
    def test_stable_start_converges_immediately(self):
        # [PAPER] the lifted cycle is stable for 0 < c <= n-1, k unbounded
        tr = run(cycle(5), bi(cs=F(2), cl=F(2)), seed=1)
        assert tr.converged and tr.steps_sampled == 0 and not tr.moves

    def test_empty_high_cost_converges_immediately(self):
        tr = run(empty(4), bi(cs=F(1), cl=F(1)), seed=1)
        assert tr.converged and tr.steps_sampled == 0

    def test_soak_converges_and_replays(self):
        for seed in range(5):
            tr = run(random_net(6, 0.3, 0.3, seed), bi(k=2), seed=seed)
            assert tr.converged
            assert replay(tr) == tr.final
            assert find_witness(tr.final, tr.params) is None

    def test_determinism(self):
        a = run(random_net(6, 0.4, 0.4, 9), bi(), seed=123)
        b = run(random_net(6, 0.4, 0.4, 9), bi(), seed=123)
        assert a.moves == b.moves and a.final == b.final
        c = run(random_net(6, 0.4, 0.4, 9), bi(), seed=124)
        assert c.moves != a.moves or c.final == a.final

    def test_nonconvergence_reported_not_raised(self):
        # cut before the first scan after the start: 1 < 2n(n-1) = 112
        tr = run(random_net(8, 0.5, 0.5, 0), bi(), seed=0, max_steps=1)
        assert tr.steps_sampled == 1 and tr.converged is False

    def test_bad_budgets_rejected(self):
        with pytest.raises(ValueError):
            run(empty(3), bi(), max_steps=0)

    def test_seed_outside_64_bits_refused(self):
        # random.Random seeds with abs(seed): -5 would replay seed 5's rows
        start = BidirectedNetwork(3, [(0, 1)])
        for seed in (-5, 2 ** 64):
            with pytest.raises(ValueError, match="seed must be in"):
                run(start, bi(), seed=seed)
        tr = run(start, bi(), seed=2 ** 64 - 1, max_steps=3)
        assert tr.seed == 2 ** 64 - 1 and tr.steps_sampled >= 1


def test_move_kind_attributes_match_the_value_text():
    # (speaking, add) of every member, keyed by its value
    assert {kind.value: (kind.speaking, kind.add) for kind in MoveKind} == {
        "+s": (True, True), "-s": (True, False), "+l": (False, True),
        "-l": (False, False), ".": (False, False)}


class TestApplyMove:
    # on BidirectedNetwork(3, [(0, 1)], [(1, 0)]): each mutating kind, its
    # named mutator, a pair it applies to, and the mutator's refusal of that
    # pair once applied
    @pytest.mark.parametrize("kind, mutator, pair, refusal", [
        (MoveKind.ADD_SPEAKING, "add_speaking", (1, 2),
         "speaking edge (1, 2) already present"),
        (MoveKind.REMOVE_SPEAKING, "remove_speaking", (0, 1),
         "speaking edge (0, 1) not present"),
        (MoveKind.ADD_LISTENING, "add_listening", (2, 1),
         "listening edge (2, 1) already present"),
        (MoveKind.REMOVE_LISTENING, "remove_listening", (1, 0),
         "listening edge (1, 0) not present")])
    def test_changes_the_named_mutators_edge(self, kind, mutator, pair,
                                             refusal):
        net = BidirectedNetwork(3, [(0, 1)], [(1, 0)])
        expect = net.copy()
        getattr(expect, mutator)(*pair)
        edge = EdgeKind.SPEAKING if kind.speaking else EdgeKind.LISTENING
        move = Move(kind, edge, *pair)
        apply_move(net, move)
        assert net == expect
        for bad, reason in [(move, refusal),
                            (Move(kind, edge, 2, 2),
                             "self-pair (2, 2) is not allowed"),
                            (Move(kind, edge, 0, 3),
                             "pair (0, 3) out of range for n=3")]:
            with pytest.raises(TraceError) as err:
                apply_move(net, bad)
            assert str(err.value) == f"inconsistent move {bad}: {reason}"
            assert net == expect


class TestNeverReadd:
    def test_passes_on_generated_traces(self):
        # [PAPER] once both halves of a pair are gone, nothing re-adds them
        for seed in range(10):
            tr = run(random_net(6, 0.4, 0.4, seed), bi(), seed=seed)
            assert never_readd_check(tr) is True

    @pytest.mark.parametrize("k", [1, 2, INF])
    def test_passes_at_zero_costs(self, k):
        # [DERIVED] a dead pair moves no reach, so it is never addable, at
        # any cost: the ban needs no positive cost
        for seed in range(10):
            tr = run(random_net(5, 0.3, 0.3, seed), bi(k, F(0), F(0)),
                     seed=seed, max_steps=2000)
            assert never_readd_check(tr) is True

    def test_negative_control(self):
        # hand-built trace that re-adds a dead pair must fail
        initial = empty(2)
        final = BidirectedNetwork(2, [(0, 1)])
        tr = Trace(seed=0, params=bi(), initial=initial,
                   moves=[Move(MoveKind.ADD_SPEAKING, EdgeKind.SPEAKING, 0, 1)],
                   final=final, converged=False)
        assert never_readd_check(tr) is False

    @pytest.mark.parametrize("readd, final", [
        (Move(MoveKind.ADD_SPEAKING, EdgeKind.SPEAKING, 0, 1),
         BidirectedNetwork(2, [(0, 1)])),
        (Move(MoveKind.ADD_LISTENING, EdgeKind.LISTENING, 1, 0),
         BidirectedNetwork(2, [], [(1, 0)]))])
    def test_listening_removal_kills_pair(self, readd, final):
        # removing listening edge (1, 0) leaves pair (0, 1) with neither half
        tr = Trace(seed=0, params=bi(), initial=BidirectedNetwork(2, [], [(1, 0)]),
                   moves=[Move(MoveKind.REMOVE_LISTENING, EdgeKind.LISTENING,
                               1, 0), readd],
                   final=final, converged=False)
        assert never_readd_check(tr) is False

    def test_passes_for_directed(self):
        p = Params(k=INF, c_s=F(1), mode=Mode.DIRECTED)
        tr = run(empty(3), p, seed=0, max_steps=5)
        assert never_readd_check(tr) is True

    def test_malformed_trace_raises(self):
        tr = Trace(seed=0, params=bi(), initial=empty(2),
                   moves=[Move(MoveKind.REMOVE_SPEAKING, EdgeKind.SPEAKING, 0, 1)],
                   final=empty(2), converged=False)
        with pytest.raises(TraceError):
            never_readd_check(tr)

    def test_malformed_directed_trace_raises(self):
        # a directed trace is replayed too, so its inconsistency is found
        tr = Trace(seed=0, params=Params(k=INF, c_s=F(1), mode=Mode.DIRECTED),
                   initial=empty(2), moves=[], final=cycle(2, lifted=False),
                   converged=False)
        with pytest.raises(TraceError):
            never_readd_check(tr)

    def test_memory_flat_in_agents(self):
        # no per-pair container: an empty 800-agent trace with no moves
        # has 639,200 dead pairs, and the check holds none of them
        net = empty(800)
        tr = Trace(seed=0, params=bi(), initial=net, moves=[], final=net,
                   converged=True)
        tracemalloc.start()
        try:
            assert never_readd_check(tr) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestPotential:
    def test_value_not_above_start_when_start_unaddable(self):
        # weaker, literally testable form of the potential argument: from a
        # start with no addable edges, the dynamics only shed edges
        for seed in range(5):
            start = random_net(5, 0.6, 0.6, seed)
            p = bi(cs=F(5), cl=F(5))  # costs above n-1: nothing is ever addable
            assert not any(move.add for *_, move in scan_witnesses(start, p))
            tr = run(start, p, seed=seed)
            assert tr.converged
            assert not any(mv.kind in (MoveKind.ADD_SPEAKING,
                                       MoveKind.ADD_LISTENING)
                           for mv in tr.moves)
            assert tr.final.speaking <= start.speaking
            assert tr.final.listening <= start.listening


class TestWitnessScan:
    def test_stable_iff_no_witness(self):
        assert find_witness(cycle(4), bi(cs=F(1), cl=F(1))) is None
        w = find_witness(BidirectedNetwork(2, [(0, 1)]), bi())
        assert w is not None and w[3] is MoveKind.REMOVE_SPEAKING


# (params, n, speaking density, listening density, targets) per golden
# family; every family runs the same eight start/run seeds
GOLDEN_RUN_FAMILIES = {
    "bidirected-k3": (bi(k=3), 10, 0.3, 0.3, ALL_OTHERS),
    "bidirected-kinf": (bi(cs=F(1), cl=F(1, 3)), 10, 0.25, 0.25,
                        TargetSets(speak={0: frozenset({1, 2, 3, 4})},
                                   listen={1: frozenset({0, 5, 6})})),
    "directed": (Params(k=INF, c_s=F(3, 2), mode=Mode.DIRECTED), 12, 0.15,
                 0.0, ALL_OTHERS),
}
GOLDEN_RUN_SHA256 = {
    "bidirected-k3":
        "d6d44141ef82417a0c89f77ce29c342699a4e1f070e1be3aaa7945a415a1df1d",
    "bidirected-kinf":
        "2823de30372367c618e4bf5d339f470522585d3cd4f26833a61094a43c01ad2c",
    "directed":
        "c4ec0704c3b650ed9d6c2f50ac3430f8fc7cc9f1c8fae5e8cce269e4da899000",
}


@pytest.mark.parametrize("family", sorted(GOLDEN_RUN_FAMILIES))
def test_run_trace_golden(family):
    # trace bytes are pinned: a change to the reach kernel or the edge rule
    # must not change which moves a seeded run samples and fires
    params, n, ps, pl, targets = GOLDEN_RUN_FAMILIES[family]
    digest = hashlib.sha256()
    for seed in range(8):
        start = random_net(n, ps, pl, 100 + seed)
        trace = run(start, params, targets, seed=seed, max_steps=4000)
        digest.update(trace_to_text(trace).encode())
    assert digest.hexdigest() == GOLDEN_RUN_SHA256[family]
