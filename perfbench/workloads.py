"""The benchmark's workloads: documents to generate and jobs to run on them.

Every input is a document made by ``netform generate`` from the benchmark
seed, or a census command whose costs the seed picks.  Each workload stresses
a different layer of netform (see ``layers.json``).  A pass runs every job of
one workload once.  The seed changes the random documents and so the work in
a pass; each pass therefore averages many documents, so that its time moves
by only a few percent from one seed to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Job:
    name: str  # unique within the workload; also names the output file
    argv: Tuple[str, ...]  # netform arguments without -i and -o
    doc: str  # name of the input document, "" for none
    check: str  # output check: trace, certificate, census, check, dot, metrics


@dataclass(frozen=True)
class Workload:
    name: str
    rate: str  # name of work_per_ref's unit of work per second in the report
    docs: Tuple[Tuple[str, Tuple[str, ...]], ...]  # (name, generate argv)
    jobs: Tuple[Job, ...]


def _random_docs(prefix: str, count: int, seed: int, args: List[str]):
    """``count`` seeded random documents; the generator seed of document i
    is derived from the benchmark seed, the group and i."""
    rng = random.Random(f"{prefix}:{seed}")
    return [(f"{prefix}-{i}", ("generate", "random", "--seed",
                               str(rng.getrandbits(31)), *args))
            for i in range(count)]


def _bi(n: int, k: str, p: str = "0.2") -> List[str]:
    return ["--n", str(n), "--ps", p, "--pl", p, "--k", k,
            "--cs", "1/2", "--cl", "1/2", "--mode", "bidirected"]


def _directed(n: int, p: str, cost: str) -> List[str]:
    return ["--n", str(n), "--ps", p, "--k", "inf", "--cs", cost,
            "--mode", "directed"]


def dynamics(seed: int, tiny: bool) -> Workload:
    # Write-heavy: the network changes every few steps and time goes to
    # step -> classify -> _bfs, with periodic find_witness scans on top.
    if tiny:
        docs = (_random_docs("bi-k3", 1, seed, _bi(6, "3"))
                + _random_docs("bi-kinf", 1, seed, _bi(6, "inf"))
                + _random_docs("dir", 1, seed, _directed(8, "0.2", "2")))
    else:
        docs = (_random_docs("bi-k3", 40, seed, _bi(16, "3"))
                + _random_docs("bi-kinf", 40, seed, _bi(16, "inf"))
                + _random_docs("dir", 12, seed, _directed(24, "0.2", "2")))
    jobs = [Job(f"run-{name}", ("run", "--seed", "3"), name, "trace")
            for name, _ in docs]
    return Workload("dynamics", "steps_per_s", tuple(docs),
                    tuple(jobs))


def inspect(seed: int, tiny: bool) -> Workload:
    # Read-only: full witness scans (2n(n-1) classify calls each) on fixed
    # structures plus a seeded random network; nothing is mutated.
    if tiny:
        docs = [("kautz-bi", ("generate", "kautz", "--d", "2", "--D", "2",
                              "--lifted", "--k", "2", "--cs", "1/2",
                              "--cl", "1/2", "--mode", "bidirected"))]
        docs += _random_docs("random-bi", 1, seed, _bi(6, "inf"))
    else:
        docs = [("kautz-bi", ("generate", "kautz", "--d", "2", "--D", "4",
                              "--lifted", "--k", "4", "--cs", "1/2",
                              "--cl", "1/2", "--mode", "bidirected")),
                ("kautz-dir", ("generate", "kautz", "--d", "3", "--D", "3",
                               "--k", "3", "--cs", "1", "--mode", "directed")),
                ("flower-dir", ("generate", "flower", "--n", "80", "--k", "10",
                                "--cs", "4", "--mode", "directed"))]
        # Dense enough that the live graph is one giant component for every
        # seed: near the percolation threshold the reach sizes, and so the
        # scan time, would change with the seed.
        docs += _random_docs("random-bi", 2, seed, _bi(48, "inf", "0.3"))
    jobs = []
    for name, _ in docs:
        jobs += [Job(f"check-{name}", ("check", "--bi-pairwise"), name, "check"),
                 Job(f"dot-{name}", ("export-dot", "--annotate"), name, "dot"),
                 Job(f"metrics-{name}", ("metrics",), name, "metrics")]
    return Workload("inspect", "pairs_per_s",
                    tuple(docs), tuple(jobs))


def path(seed: int, tiny: bool) -> Workload:
    # The only workload for convergence and scc: _find_addable and strip
    # classify sweeps, condense and lemma_checks, plus one validation scan.
    if tiny:
        docs = _random_docs("step7", 1, seed, _directed(8, "0.2", "3/2"))
    else:
        docs = (_random_docs("step7", 32, seed, _directed(24, "0.1", "3"))
                + _random_docs("step8", 12, seed, _directed(40, "0.1", "3/2"))
                + _random_docs("strip", 10, seed,
                               _directed(40, "0.15", "3/2")))
    jobs = [Job(f"path-{name}", ("path", "--assert-lemmas"), name,
                "certificate") for name, _ in docs]
    return Workload("path", "moves_per_s", tuple(docs), tuple(jobs))


_BI_COSTS = ("1/3", "1/2", "2/3", "1", "3/2")
_DIR_COSTS = ("1/3", "1/2", "2/3")


def census(seed: int, tiny: bool) -> Workload:
    # Many tiny networks: construction, Fraction utilities and CSV rows cost
    # about as much as BFS.  The seed picks the costs, which barely change
    # the work of a census.
    rng = random.Random(f"census:{seed}")
    n_bi, n_dir = ("2", "3") if tiny else ("3", "4")
    argvs = [("census", "--n", n_bi, "--k", "2", "--cs", rng.choice(_BI_COSTS),
              "--cl", rng.choice(_BI_COSTS), "--mode", "bidirected"),
             ("census", "--n", n_bi, "--k", "inf", "--cs", rng.choice(_BI_COSTS),
              "--cl", rng.choice(_BI_COSTS), "--mode", "bidirected"),
             ("census", "--n", n_dir, "--cs", rng.choice(_DIR_COSTS),
              "--mode", "directed")]
    jobs = [Job(f"census-{i}", argv, "", "census")
            for i, argv in enumerate(argvs)]
    return Workload("census", "networks_per_s", (),
                    tuple(jobs))


WORKLOADS: Dict[str, Callable[[int, bool], Workload]] = {
    "dynamics": dynamics,
    "inspect": inspect,
    "path": path,
    "census": census,
}
