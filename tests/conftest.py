"""Shared helpers: an independent reachability oracle (simple-path
enumeration, no BFS) and small strategies for property tests."""

import os
from fractions import Fraction
from itertools import permutations

import pytest

import netform
from netform import INF, BidirectedNetwork, Mode, Params


def child_env() -> dict:
    """Environment for a child ``python -m netform`` that imports the same
    netform sources as this test run, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(netform.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src if not path else os.pathsep.join((src, path))}


def oracle_live(net: BidirectedNetwork, mode: Mode, u: int, v: int) -> bool:
    if mode is Mode.DIRECTED:
        return (u, v) in net.speaking
    return (u, v) in net.speaking and (v, u) in net.listening


def oracle_speaking_reach(net: BidirectedNetwork, params: Params, s: int) -> set:
    """Reach set by brute-force enumeration of simple paths from s of length
    at most k.  Exponential; for cross-validating the production BFS on
    tiny networks only."""
    n = net.n
    k = n - 1 if params.k == INF else min(int(params.k), n - 1)
    reached = set()
    others = [v for v in range(n) if v != s]
    for length in range(1, k + 1):
        for path in permutations(others, length):
            full = (s,) + path
            if all(oracle_live(net, params.mode, full[i], full[i + 1])
                   for i in range(length)):
                reached.add(full[-1])
    return reached


def oracle_utility(net: BidirectedNetwork, params: Params, v: int) -> Fraction:
    """Utility recomputed from the definition with the oracle reach."""
    fwd = len(oracle_speaking_reach(net, params, v))
    u_s = fwd - params.c_s * net.out_speak(v)
    if params.mode is Mode.DIRECTED:
        return u_s
    bwd = sum(1 for u in range(net.n) if u != v
              and v in oracle_speaking_reach(net, params, u))
    return u_s + bwd - params.c_l * net.out_listen(v)


def net_from_bits(n: int, mask: int, mode: Mode) -> BidirectedNetwork:
    """Local decoder, independent of the package's net_from_mask."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    net = BidirectedNetwork(n)
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            net.add_speaking(u, v)
    if mode is Mode.BIDIRECTED:
        for i, (u, v) in enumerate(pairs):
            if mask >> (len(pairs) + i) & 1:
                net.add_listening(u, v)
    return net


@pytest.fixture
def directed_params():
    return Params(k=INF, c_s=Fraction(2), mode=Mode.DIRECTED)


# One line per acceptance criterion, echoed after the run summary so the
# verdicts are visible even with output capture on.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
