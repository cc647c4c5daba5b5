"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line (visible even under pytest capture)."""

import subprocess
import sys
import time
from fractions import Fraction as F

import conftest
from lemma_suite import bidirected_violations, directed_violations
from netform import (ALL_OTHERS, INF, BidirectedNetwork, Mode, Params,
                     agent_utility,
                     all_complete, brute_force_nash, check_symmetric,
                     construct_path, efficient_search, is_bi_pairwise_stable,
                     is_stable, never_readd_check, poa_pos, run,
                     validate_certificate, welfare)
from netform.equilibrium import iter_all_networks
from netform.generators import (balanced_flower, complete_net, cycle, empty,
                                kautz, lift, random_net, unbalanced_flower)
from netform.metrics import (StructureFamily, diameter,
                             has_open_and_closed_triangle, structure_search)


def report(cid: int, ok: bool, detail: str):
    line = f"[criterion {cid}] {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_stability_scan_matches_nash_oracle():
    started = time.perf_counter()
    points = (Params(k=INF, c_s=F(1, 2), c_l=F(1, 2)),
              Params(k=2, c_s=F(3, 2), c_l=F(3, 2)))
    checked = 0
    agree = True
    for params in points:
        for net in iter_all_networks(3, Mode.BIDIRECTED):
            checked += 1
            if is_stable(net, params).stable != brute_force_nash(net, params):
                agree = False
                break
    elapsed = time.perf_counter() - started
    report(1, agree and checked == 8192 and elapsed < 60,
           f"edge-scan vs Nash oracle on {checked} networks "
           f"(2 parameter points x 4096), 100% agreement, {elapsed:.1f}s")


def test_criterion_2_dynamics_converge_with_never_readd():
    runs = failures = 0
    for n in (6, 8, 10):
        for k in (2, INF):
            params = Params(k=k, c_s=F(1, 2), c_l=F(1, 2))
            for seed in range(100):
                start = random_net(n, 0.3, 0.3, seed)
                trace = run(start, params, seed=seed, max_steps=50 * n ** 6)
                check = never_readd_check(trace)
                runs += 1
                if not (trace.converged and check.ok and check.applicable):
                    failures += 1
    report(2, runs == 600 and failures == 0,
           f"{runs} runs (n in 6/8/10, k in 2/inf, 100 seeds): "
           f"100% converged within 50*n^6 steps, pair re-add ban held")


def test_criterion_3_certificates_replay_and_stabilize():
    total = bad = 0
    for n in (6, 10, 14):
        for c in (F(1), F(2), F(3)):
            params = Params(k=INF, c_s=c, mode=Mode.DIRECTED)
            for seed in range(100):
                start = random_net(n, 0.3, 0.0, seed)
                cert = construct_path(start, params, assert_lemmas=True)
                total += 1
                if not (validate_certificate(cert, start, params)
                        and is_stable(cert.final, params).stable
                        and all(ok for _, ok in cert.lemma_results)):
                    bad += 1
    report(3, total == 900 and bad == 0,
           f"{total} constructed paths (n in 6/10/14, c in 1/2/3): all "
           f"replay-validate, end stable, and pass every applicable check")


def test_criterion_4_flower_numbers():
    net, spec = balanced_flower(26, 10)
    p4 = Params(k=10, c_s=F(4), mode=Mode.DIRECTED)
    per_node = sum(agent_utility(net, p4, ALL_OTHERS, v) for v in range(26))
    formula = 26 * 25 - 4 * spec.q - 4 * 25  # n(n-1) - c*q - c*(n-1)
    ok = (len(net.speaking) == 30 and net.out_speak(0) == 5
          and diameter(net, Mode.DIRECTED) <= 10
          and welfare(net, p4) == 530 == per_node == formula)
    stable_ok = all(
        is_stable(net, Params(k=10, c_s=c, mode=Mode.DIRECTED)).stable
        for c in (F(1), F(2), F(3), F(7, 2)))
    unstable_ok = not is_stable(net, Params(k=10, c_s=F(30),
                                            mode=Mode.DIRECTED)).stable
    report(4, ok and stable_ok and unstable_ok,
           "flower(26,10): 30 edges, center degree 5, diameter <= 10, "
           "welfare 530 (formula == per-node sum), stable for c in "
           "{1,2,3,3.5}, unstable at c=30")


def test_criterion_5_kautz_numbers():
    net, spec = kautz(2, 4)
    ok = (spec.n == 24 and len(net.speaking) == 48
          and all(net.out_speak(v) == 2 for v in range(24))
          and diameter(net, Mode.DIRECTED) == 4)
    util_ok = True
    stable_ok = True
    for c in (F(1, 2), F(1)):
        params = Params(k=4, c_s=c, mode=Mode.DIRECTED)
        stable_ok &= is_stable(net, params).stable
        util_ok &= check_symmetric(net, params) and all(
            agent_utility(net, params, ALL_OTHERS, v) == 23 - c * 2
            for v in range(24))
    report(5, ok and util_ok and stable_ok,
           "kautz(2,4): 24 vertices, 48 edges, out-degree 2, diameter 4, "
           "symmetric, stable at k=4 for c in {1/2,1}, per-vertex utility "
           "(n-1) - c*d exactly")


def test_criterion_6_census_landscape():
    r = poa_pos(3, Params(k=INF, c_s=F(1), c_l=F(1)))
    anarchy_ok = r.poa == 0 and r.pos == 1

    eff = efficient_search(3, Params(k=INF, c_s=F(1, 2), c_l=F(1, 2)))
    cyc = cycle(3)
    orientations = {cyc.canonical(),
                    BidirectedNetwork(3, [(0, 2), (2, 1), (1, 0)],
                                      [(2, 0), (1, 2), (0, 1)]).canonical()}
    eff_ok = (any(net == cyc for net in eff.argmax_nets)
              and {net.canonical() for net in eff.argmax_nets} == orientations)

    # horizon-1 cost regimes, each exhaustive over the n=3 census
    hi = Params(k=1, c_s=F(3, 2), c_l=F(3, 2))
    lo = Params(k=1, c_s=F(1, 2), c_l=F(1, 2))
    unit = Params(k=1, c_s=F(1), c_l=F(1))
    regimes_ok = True
    for net in iter_all_networks(3, Mode.BIDIRECTED):
        is_empty = not net.speaking and not net.listening
        regimes_ok &= is_stable(net, hi).stable == is_empty
        regimes_ok &= bool(
            is_bi_pairwise_stable(net, lo).bi_pairwise) == (net == complete_net(3))
        regimes_ok &= is_stable(net, unit).stable == all_complete(net)
        regimes_ok &= (welfare(net, unit) == 0) == all_complete(net)
    regimes_ok &= efficient_search(3, hi).argmax_nets == [empty(3)]
    lo_eff = efficient_search(3, lo)
    regimes_ok &= (lo_eff.best_welfare == 6
                   and any(net == complete_net(3) for net in lo_eff.argmax_nets))
    regimes_ok &= efficient_search(3, unit).best_welfare == 0

    report(6, anarchy_ok and eff_ok and regimes_ok,
           "n=3 census: poa=0/pos=1 at unit costs; the two 3-cycle "
           "orientations are exactly the welfare argmaxes at c=1/2 "
           "(unique up to orientation); all three horizon-1 cost regimes "
           "verified exhaustively")


def _bidirected_suite_inputs():
    params_pool = (Params(k=INF, c_s=F(1, 2), c_l=F(1, 2)),
                   Params(k=2, c_s=F(1), c_l=F(1, 3)),
                   Params(k=3, c_s=F(3, 2), c_l=F(2)))
    nets = [cycle(n) for n in (3, 4, 5, 6, 8)]
    nets += [complete_net(n) for n in (3, 4, 5)]
    nets += [empty(n) for n in (2, 5)]
    nets += [kautz(2, 2, lifted=True)[0], kautz(2, 3, lifted=True)[0]]
    nets += [lift(balanced_flower(10, 4)[0])]
    nets += [random_net(n, ps, pl, seed) for n in (4, 5, 6)
             for ps, pl in ((0.3, 0.3), (0.6, 0.4)) for seed in range(3)]
    return [(net, p) for net in nets for p in params_pool]


def _directed_suite_inputs():
    costs = (F(1, 2), F(1), F(3, 2), F(2), F(3))
    nets = [balanced_flower(n, k)[0] for n, k in ((10, 4), (17, 6), (26, 10))]
    nets += [unbalanced_flower(8, 6), unbalanced_flower(23, 8)]
    nets += [kautz(2, 2)[0], kautz(2, 3)[0], kautz(2, 4)[0]]
    nets += [cycle(n, lifted=False) for n in (3, 5, 7)]
    nets += [complete_net(4, bidirected=False), empty(4)]
    nets += [random_net(n, p, 0.0, seed) for n in (5, 6, 7)
             for p in (0.2, 0.4) for seed in range(3)]
    return [(net, Params(k=INF, c_s=c, mode=Mode.DIRECTED))
            for net in nets for c in costs]


def test_criterion_7_invariant_suite_bulk():
    import random as _random
    violations = []
    checked = 0
    for net, params in _bidirected_suite_inputs():
        checked += 1
        violations += bidirected_violations(net, params)
    for net, params in _directed_suite_inputs():
        checked += 1
        violations += directed_violations(net, params)
    generator_cases = checked

    rng = _random.Random(20260823)
    bi_costs = (F(1, 3), F(1, 2), F(1), F(3, 2), F(2))
    for i in range(5000):
        n = rng.randrange(3, 7)
        net = random_net(n, rng.choice((0.2, 0.4, 0.6)),
                         rng.choice((0.2, 0.4, 0.6)), seed=rng.getrandbits(32))
        params = Params(k=rng.choice((1, 2, 3, INF)),
                        c_s=rng.choice(bi_costs), c_l=rng.choice(bi_costs))
        checked += 1
        violations += bidirected_violations(net, params)
    for i in range(5000):
        n = rng.randrange(3, 7)
        net = random_net(n, rng.choice((0.2, 0.4, 0.6)), 0.0,
                         seed=rng.getrandbits(32))
        params = Params(k=INF, c_s=rng.choice(bi_costs), mode=Mode.DIRECTED)
        checked += 1
        violations += directed_violations(net, params)

    report(7, checked == generator_cases + 10000 and not violations,
           f"invariant suite over {generator_cases} generator outputs and "
           f"10000 random networks: {len(violations)} violations")


def test_criterion_8_open_and_closed_triangle_exists():
    params = Params(k=2, c_s=F(3, 2), c_l=F(0), mode=Mode.DIRECTED)
    found = structure_search(StructureFamily.OPEN_CLOSED_TRIANGLE, params,
                             budget=10 ** 5)
    ok = (found is not None and is_stable(found, params).stable
          and has_open_and_closed_triangle(found, params.mode))
    report(8, ok,
           "stable network with both an open and a closed triangle found "
           "within the 100000-state budget at k=2, c_s=3/2, c_l=0")


def _pipeline(workdir):
    doc = workdir / "net.json"
    rnet = workdir / "rand.json"
    outs = []
    cmds = [
        ["generate", "kautz", "--d", "2", "--D", "4", "--k", "4",
         "--cs", "1/2", "--mode", "directed", "-o", str(doc)],
        ["generate", "random", "--n", "7", "--seed", "9", "--ps", "0.3",
         "--pl", "0.3", "--cs", "1/2", "--cl", "1/2", "-o", str(rnet)],
        ["generate", "random", "--n", "8", "--seed", "2", "--ps", "0.3",
         "--cs", "2", "--mode", "directed", "-o", str(workdir / "dnet.json")],
        ["run", "-i", str(rnet), "--seed", "4", "-o", str(workdir / "t.trace")],
        ["path", "-i", str(workdir / "dnet.json"), "--assert-lemmas",
         "-o", str(workdir / "k.cert")],
        ["census", "--n", "3", "--cs", "1/2", "--mode", "directed",
         "-o", str(workdir / "census.csv")],
        ["metrics", "-i", str(rnet), "-o", str(workdir / "m.json")],
        ["export-dot", "-i", str(rnet), "--annotate",
         "-o", str(workdir / "g.dot")],
    ]
    for cmd in cmds:
        proc = subprocess.run([sys.executable, "-m", "netform", *cmd],
                              capture_output=True, env=conftest.child_env())
        assert proc.returncode == 0, (cmd, proc.stderr)
    for path in sorted(workdir.iterdir()):
        outs.append((path.name, path.read_bytes()))
    return outs


def test_criterion_9_seeded_pipelines_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = _pipeline(a)
    second = _pipeline(b)
    report(9, first == second and len(first) == 8,
           "generate/run/path/census/metrics/export-dot pipelines are "
           "byte-identical across two separate executions")
