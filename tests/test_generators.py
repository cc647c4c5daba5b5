from fractions import Fraction as F
from itertools import combinations, permutations

import pytest

from netform import INF, BidirectedNetwork, Mode, Params, is_stable, welfare
from netform.generators import (balanced_flower, complete_net, cycle, empty,
                                kautz, kautz_labels, kautz_order, lift,
                                random_net, unbalanced_flower)
from netform.metrics import diameter

from conftest import oracle_live


class TestEmptyAndCycle:
    def test_empty(self):
        net = empty(3)
        assert not net.speaking and not net.listening  # [TRIVIAL]

    def test_lifted_cycle_edges(self):
        net = cycle(3)
        assert len(net.speaking) == 3 and len(net.listening) == 3
        for i in range(3):
            assert net.has_speaking(i, (i + 1) % 3)
            assert net.has_listening((i + 1) % 3, i)

    def test_unlifted_cycle(self):
        net = cycle(4, lifted=False)
        assert len(net.listening) == 0 and len(net.speaking) == 4

    def test_too_small(self):
        with pytest.raises(ValueError):
            cycle(1)


class TestFlower:
    def test_reference_instance_26_10(self):
        # [PAPER] n=26, k=10: five petals of 5, center out-degree 5, 30 edges
        net, spec = balanced_flower(26, 10)
        assert (spec.petal_len, spec.q) == (5, 5)
        assert len(net.speaking) == 30 and not net.listening
        assert net.out_speak(0) == 5
        assert all(net.out_speak(v) == 1 for v in range(1, 26))
        assert diameter(net, Mode.DIRECTED) <= 10

    def test_balancing_steal(self):
        # n=23, k=8: 22 non-center nodes, petal length 4; the remainder of 2
        # is topped up to 3 by stealing from the earliest petal
        net, spec = balanced_flower(23, 8)
        assert spec.q == 6 == -((23 - 1) // -4)
        sizes = sorted(_petal_sizes(net))
        assert sizes == [3, 3, 4, 4, 4, 4]

    def test_parameter_window(self):
        for n, k in ((26, 3), (26, 11), (2, 4)):
            with pytest.raises(ValueError):
                balanced_flower(n, k)

    def test_diameter_bound_sweep(self):
        # [DERIVED] diameter <= k across the feasible sweep
        for k in (4, 6, 8, 10):
            for n in range(max(3, (k * k + 3) // 4), 40):
                net, _ = balanced_flower(n, k)
                assert diameter(net, Mode.DIRECTED) <= k, (n, k)

    def test_unbalanced_remainder(self):
        # [DERIVED] n=8, k=6: non-center petal sizes 3, 3, 1
        net = unbalanced_flower(8, 6)
        assert sorted(_petal_sizes(net)) == [1, 3, 3]

    def test_unbalanced_equals_balanced_when_divisible(self):
        assert unbalanced_flower(26, 10) == balanced_flower(26, 10)[0]

    def test_flower_edge_minimality_small_n(self):
        # [PAPER] desk-scale form: no strongly connected digraph on n=6
        # vertices with diameter <= 4 does it with fewer edges than the
        # flower's 8 (the plain cycle is out: diameter 5)
        net, _ = balanced_flower(6, 4)
        flower_edges = len(net.speaking)
        assert flower_edges == 8
        for m in range(6, flower_edges):
            assert not _scc_digraph_exists(6, 4, m), m


class TestKautz:
    def test_reference_instance_2_4(self):
        # [PAPER] 24 vertices, 48 edges, out-degree 2, diameter 4
        net = kautz(2, 4)
        assert net.n == 24 == kautz_order(2, 4)
        assert len(net.speaking) == 48
        assert all(net.out_speak(v) == 2 for v in range(24))
        assert diameter(net, Mode.DIRECTED) == 4

    def test_small_instance(self):
        net = kautz(2, 2)
        assert net.n == 6 and len(net.speaking) == 12
        assert diameter(net, Mode.DIRECTED) == 2

    def test_degree_diameter_sweep(self):
        # [DERIVED] measured diameter equals D for all (d, D) with n <= 200
        for d in (2, 3, 4):
            for D in (2, 3, 4):
                if kautz_order(d, D) > 200:
                    continue
                net = kautz(d, D)
                assert all(net.out_speak(v) == d for v in range(net.n))
                assert diameter(net, Mode.DIRECTED) == D, (d, D)

    def test_labels_no_repeats(self):
        labels = kautz_labels(2, 3)
        assert len(labels) == 12
        assert all(a != b for lab in labels for a, b in zip(lab, lab[1:]))

    def test_lift_adds_reverse_listening(self):
        net = kautz(2, 2, lifted=True)
        assert len(net.listening) == len(net.speaking)
        assert all(net.has_listening(v, u) for (u, v) in net.speaking)


class TestRandomAndComplete:
    def test_extreme_probabilities(self):
        assert random_net(4, 0, 0, 1) == empty(4)  # [TRIVIAL]
        assert random_net(4, 1, 1, 1) == complete_net(4)

    def test_seed_determinism(self):
        assert random_net(6, 0.4, 0.2, 42) == random_net(6, 0.4, 0.2, 42)
        assert random_net(6, 0.4, 0.2, 42) != random_net(6, 0.4, 0.2, 43)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            random_net(3, 1.2, 0, 0)

    def test_seed_outside_64_bits_refused(self):
        # random.Random seeds with abs(seed): -1 would build seed 1's network
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="seed must be in"):
                random_net(3, 0.5, 0.5, seed)
        assert random_net(3, 1, 1, 2 ** 64 - 1) == complete_net(3)


def _petal_sizes(net):
    """Non-center cycle lengths of a flower: follow each center out-edge."""
    def heads(u):
        return [v for v in range(net.n)
                if oracle_live(net, Mode.DIRECTED, u, v)]

    sizes = []
    for start in heads(0):
        size, v = 0, start
        while v != 0:
            size += 1
            (v,) = heads(v)
        sizes.append(size)
    return sizes


def _scc_digraph_exists(n, k, m):
    """Whether a strongly connected digraph on n vertices with exactly m
    edges and diameter <= k exists; enumerates per-vertex out-neighbor sets
    over all out-degree splits (every vertex needs out-degree >= 1)."""
    def assign(v, remaining, chosen):
        if v == n:
            if remaining:
                return False
            net = BidirectedNetwork(n, [(u, w) for u, outs in enumerate(chosen)
                                        for w in outs])
            # diameter is INF unless the net is strongly connected
            return diameter(net, Mode.DIRECTED) <= k
        budget_left = n - v - 1  # every later vertex takes at least 1 edge
        for d in range(1, remaining - budget_left + 1):
            for outs in combinations([w for w in range(n) if w != v], d):
                if assign(v + 1, remaining - d, chosen + [outs]):
                    return True
        return False

    return assign(0, m, [])
