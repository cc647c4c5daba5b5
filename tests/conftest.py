"""Shared helpers: an independent reachability oracle (simple-path
enumeration, no BFS), the production reach and strip read through their
kernels, the ``netform census`` CSV read in-process and folded into the
optimum and the stable welfare range, small strategies for property tests,
the usual bidirected and directed parameters, and a time limit on every
test."""

import contextlib
import csv
import io
import os
import signal
from fractions import Fraction
from itertools import permutations

import pytest

import netform
from netform import INF, BidirectedNetwork, Mode, Params, ReachBalls
from netform.cli import main
from netform.convergence import _strip_inplace
from netform.equilibrium import net_from_mask
from netform.model import ascending
from netform.serialize import format_k


#: Seconds one test may take; the slowest takes about 6.
LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Not an Exception, and not pytest's ``Failed``: hypothesis takes either
    for a failing example and shrinks it, running the spinning code again
    each time, while this one it lets through at once."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past ``LIMIT_S`` instead of hanging the suite;
    the next test still runs.  The alarm repeats, so code that catches the
    first expiry and spins on is stopped again.  Skipped where
    ``signal.setitimer`` is missing."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past the {LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict:
    """Environment for a child ``python -m netform`` that imports the same
    netform sources as this test run, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(netform.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src if not path else os.pathsep.join((src, path))}


def members(bits: int) -> set:
    """The vertices of a bitset, as a set."""
    return set(ascending(bits))


def oracle_live(net: BidirectedNetwork, mode: Mode, u: int, v: int) -> bool:
    if mode is Mode.DIRECTED:
        return net.has_speaking(u, v)
    return net.has_speaking(u, v) and net.has_listening(v, u)


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


def held_reach(net: BidirectedNetwork, params: Params, v: int,
               forward: bool = True) -> set:
    """v's speaking (forward) or listening reach as the paper counts it,
    without v, from the closed ball ``ReachBalls.ball``, the production
    kernel, holds."""
    return members(ReachBalls(net, params).ball(v, forward)[0] & ~(1 << v))


def strip_removables(net: BidirectedNetwork, params: Params):
    """A copy of net with removable speaking edges deleted one at a time,
    always the lexicographically first removable one, plus the deleted
    edges in order: ``convergence._strip_inplace`` on a copy."""
    out = net.copy()
    removed = _strip_inplace(ReachBalls(out, params))
    return out, [(m.u, m.v) for m in removed]


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


def census_rows(n: int, params: Params) -> list:
    """``netform census`` at ``params``, run in-process: its CSV rows as
    ``(mask, welfare, stable)``, the welfare a ``Fraction``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["census", "--n", str(n), "--k", str(format_k(params.k)),
                     "--cs", str(params.c_s), "--cl", str(params.c_l),
                     "--mode", params.mode.value]) == 0
    return [(int(row["bitmask"]), Fraction(row["welfare"]),
             row["stable"] == "1")
            for row in csv.DictReader(io.StringIO(out.getvalue()))]


def census_fold(n: int, params: Params) -> tuple:
    """The census CSV's optimum, its argmax masks in ascending order, and
    the worst and best stable welfare (``None`` when no row is stable):
    price of anarchy and stability are the last two over the first."""
    rows = census_rows(n, params)
    best = max(w for _, w, _ in rows)
    stable = [w for _, w, s in rows if s]
    return (best, [m for m, w, _ in rows if w == best],
            min(stable, default=None), max(stable, default=None))


def argmax_nets(n: int, params: Params) -> tuple:
    """The census CSV's optimum and the networks of its argmax masks, in
    ascending mask order."""
    best, argmax, _, _ = census_fold(n, params)
    return best, [net_from_mask(n, m, params.mode) for m in argmax]


def bi(k=INF, cs=Fraction(1, 2), cl=Fraction(1, 2)) -> Params:
    """Bidirected parameters, both costs 1/2 unless given."""
    return Params(k=k, c_s=cs, c_l=cl)


def di(k=INF, cs=Fraction(1)) -> Params:
    """Directed parameters, speaking cost 1 unless given."""
    return Params(k=k, c_s=cs, mode=Mode.DIRECTED)


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
