"""netform benchmark: four workloads driven through ``netform.cli.main``.

    python3 perfbench/run.py --workload dynamics --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  The benchmark generates its documents
from ``--seed`` in fresh interpreters (the set-up, timed as ``setup_s``),
then calls ``netform.cli.main(argv)`` in this process for one job at a time:
a closed loop with one client, no threads.  A pass runs every job of the
workload once; passes repeat until ``--seconds`` of passes have been timed.

On a shared two-vCPU virtual machine the CPU speed was seen to drift by up
to 1.9x for minutes at a time, for netform and a plain Python loop alike.
So between jobs the benchmark times a fixed pure-Python reference loop that
does not use netform, and reports each pass in units of that loop
(``wall_ref``, ``work_per_ref``); the report also gives the seconds.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
untraced and then traced passes that give the per-layer metrics (see
``tracer.py``) and the tracing overhead.  Output checks run between passes,
outside the timed region; a failed job or check is counted, never fatal.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``--tiny`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, "_work")
SETUP_REPEATS = 5
clock = time.perf_counter

sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Counts that repeat exactly for a seed; two traced passes must agree on them.
EXACT = ("model.bfs.calls", "model.utility.calls", "model.network_new.calls",
         "dynamics.classify.calls", "dynamics.step.calls",
         "dynamics.step.fire_ratio", "dynamics.scan.calls",
         "dynamics.scan.classify_per_call", "equilibrium.is_stable.calls",
         "convergence.construct_path.classify_calls",
         "convergence.lemma_checks.calls", "convergence.condense.calls",
         "scc.condensation.calls", "serialize.emit.bytes", "cli.main.calls")


class SetupError(Exception):
    pass


# The reference loop allocates many small objects and reads them back.  On
# a busy host its time tracked the time of dynamics runs and certificate
# construction within a few percent, closer than arithmetic or a small
# breadth-first search did.
class _Cell:
    __slots__ = ("key", "group", "path")

    def __init__(self, key, group, path):
        self.key, self.group, self.path = key, group, path


def _reference_loop():
    cells = [_Cell(i, i & 7, (i,)) for i in range(4000)]
    return sum(c.key for c in cells)


def reference_s():
    """Seconds of the reference loop now: the fastest of three, so that one
    interrupt does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        _reference_loop()
        best = min(best, clock() - t0)
    return best


def layer_metrics(totals, nested, fired, out_bytes):
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    def t(layer):
        return totals[layer]

    def ratio(a, b):
        return a / b if b else 0.0

    bfs, step, scan = t("model.bfs"), t("dynamics.step"), t("dynamics.scan")
    return {
        "model.bfs.calls": (bfs.calls, "count"),
        "model.bfs.s": (bfs.s, "s"),
        "model.bfs.us_per_call": (ratio(bfs.s * 1e6, bfs.calls), "us"),
        "model.utility.calls": (t("model.utility").calls, "count"),
        "model.utility.s": (t("model.utility").s, "s"),
        "model.network_new.calls": (t("model.network_new").calls, "count"),
        "model.network_new.s": (t("model.network_new").s, "s"),
        "dynamics.classify.calls": (t("dynamics.classify").calls, "count"),
        "dynamics.classify.self_s": (t("dynamics.classify").self_s, "s"),
        "dynamics.step.calls": (step.calls, "count"),
        "dynamics.step.s": (step.s, "s"),
        "dynamics.step.fire_ratio": (ratio(fired, step.calls), "ratio"),
        "dynamics.scan.calls": (scan.calls, "count"),
        "dynamics.scan.s": (scan.s, "s"),
        "dynamics.scan.classify_per_call": (
            ratio(nested[("dynamics.classify", "dynamics.scan")], scan.calls),
            "count/scan"),
        "dynamics.run.s": (t("dynamics.run").s, "s"),
        "equilibrium.is_stable.calls": (t("equilibrium.is_stable").calls,
                                        "count"),
        "equilibrium.is_stable.s": (t("equilibrium.is_stable").s, "s"),
        "equilibrium.bi_pairwise.self_s": (t("equilibrium.bi_pairwise").self_s,
                                           "s"),
        "equilibrium.enumerate.s": (t("equilibrium.enumerate").s, "s"),
        "equilibrium.symmetric.s": (t("equilibrium.symmetric").s, "s"),
        "convergence.construct_path.s": (t("convergence.construct_path").s, "s"),
        "convergence.construct_path.classify_calls": (
            nested[("dynamics.classify", "convergence.construct_path")],
            "count"),
        "convergence.lemma_checks.calls": (t("convergence.lemma_checks").calls,
                                           "count"),
        "convergence.lemma_checks.s": (t("convergence.lemma_checks").s, "s"),
        "convergence.condense.calls": (t("convergence.condense").calls, "count"),
        "convergence.condense.s": (t("convergence.condense").s, "s"),
        "convergence.validate.s": (t("convergence.validate").s, "s"),
        "scc.condensation.calls": (t("scc.condensation").calls, "count"),
        "scc.condensation.s": (t("scc.condensation").s, "s"),
        "serialize.emit.s": (t("serialize.emit").s, "s"),
        "serialize.emit.bytes": (out_bytes, "bytes"),
        "serialize.parse.s": (t("serialize.parse").s, "s"),
        "metrics.metrics.s": (t("metrics.metrics").s, "s"),
        "generators.s": (t("generators").s, "s"),
        "cli.main.calls": (t("cli").calls, "count"),
        "cli.self_s": (t("cli").self_s, "s"),
    }


def setup(workload, docs_dir, repeats):
    """Generate the documents ``repeats`` times, each in a fresh interpreter
    that imports netform; return the wall time of each."""
    payload = json.dumps([[name, list(argv)] for name, argv in workload.docs])
    times, first = [], None
    for _ in range(repeats):
        shutil.rmtree(docs_dir, ignore_errors=True)
        os.makedirs(docs_dir)
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_docs.py"), docs_dir],
            input=payload, capture_output=True, text=True, timeout=120,
            cwd=ROOT)
        times.append(clock() - t0)
        if proc.returncode != 0:
            raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr}")
        digests = {name: _file_digest(os.path.join(docs_dir, name))
                   for name, _ in workload.docs}
        if first is not None and digests != first:
            raise SetupError("set-up generated different documents when "
                             "repeated")
        first = digests
    return times


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _job_argv(job, docs_dir, out_dir):
    argv = list(job.argv)
    if job.doc:
        argv += ["-i", os.path.join(docs_dir, job.doc)]
    return argv + ["-o", os.path.join(out_dir, job.name)]


def _call(cli, argv):
    try:
        return cli.main(argv)
    except Exception:  # a crashing job is a failed job, not a fatal one
        traceback.print_exc()
        return -1


def remove_work_root():
    try:
        os.rmdir(WORK_ROOT)
    except OSError:  # absent, or another run still uses it
        pass


def _summary(values, unit):
    return (f"median {statistics.median(values):.6g} {unit}, "
            f"min {min(values):.6g}, max {max(values):.6g}, n={len(values)}")


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, name, seed, tiny, tamper=None):
        self.workload = WORKLOADS[name](seed, tiny)
        self.seed, self.tiny = seed, tiny
        self.tamper = tamper  # called on the first pass's output directory
        self.attempted = 0
        self.failures = []  # one line per failed job execution or check
        self.walls, self.refs = [], []  # per pass: seconds, reference units
        self.ref_samples = []
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
        self.docs_dir = os.path.join(self.work, "docs")
        self.ref_dir = os.path.join(self.work, "ref")
        self.cur_dir = os.path.join(self.work, "cur")
        for d in (self.ref_dir, self.cur_dir):
            os.makedirs(d)
        self.ref_digests = None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        remove_work_root()

    def timed_pass(self, cli, tracer=None):
        """Run every job once, timing each job and the reference loop
        around it; outputs are compared with the first pass's outputs."""
        first = self.ref_digests is None
        out_dir = self.ref_dir if first else self.cur_dir
        wall = in_refs = 0.0
        before = reference_s()
        self.ref_samples.append(before)
        for job in self.workload.jobs:
            if tracer is not None:
                tracer.job = job.name
            t0 = clock()
            if _call(cli, _job_argv(job, self.docs_dir, out_dir)) != 0:
                self.failures.append(f"{job.name}: non-zero exit")
            if tracer is not None:
                tracer.end_job()
            seconds = clock() - t0
            after = reference_s()
            self.ref_samples.append(after)
            wall += seconds
            in_refs += seconds / ((before + after) / 2)
            before = after
        self.walls.append(wall)
        self.refs.append(in_refs)
        self.attempted += len(self.workload.jobs)
        if first:
            if self.tamper is not None:
                self.tamper(self.ref_dir)
            self.ref_digests = self._digests(self.ref_dir)
        else:
            cur = self._digests(self.cur_dir)
            self.failures += [f"{name}: output differs from the first pass"
                              for name, d in cur.items()
                              if d != self.ref_digests[name]]

    def timed_passes(self, budget, min_passes, one_pass):
        """Call ``one_pass`` until the next pass would take the timed total
        past ``budget`` seconds; return the slice of the new passes."""
        start = len(self.walls)
        while (len(self.walls) - start < min_passes
               or sum(self.walls) + statistics.median(self.walls[start:])
               <= budget):
            one_pass()
        return slice(start, len(self.walls))

    def _digests(self, out_dir):
        out = {}
        for job in self.workload.jobs:
            path = os.path.join(out_dir, job.name)
            out[job.name] = _file_digest(path) if os.path.exists(path) else None
        return out

    def out_bytes(self):
        return sum(os.path.getsize(os.path.join(self.ref_dir, job.name))
                   for job in self.workload.jobs
                   if os.path.exists(os.path.join(self.ref_dir, job.name)))

    def recorded_digests(self):
        """The digests recorded for this workload at the default seed, or
        None at any other seed."""
        if self.seed != DEFAULT_SEED:
            return None
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            table = json.load(fh)
        return table["tiny" if self.tiny else "full"].get(self.workload.name, {})

    def check_outputs(self, recorded):
        """Check the first pass's outputs, and their digests against
        ``recorded`` unless it is None; return the work units of a pass."""
        from checks import CheckError, check_output, read_doc
        docs = {name: read_doc(os.path.join(self.docs_dir, name))
                for name, _ in self.workload.docs}
        units = 0
        for job in self.workload.jobs:
            path = os.path.join(self.ref_dir, job.name)
            if not os.path.exists(path):
                continue  # already counted as a non-zero exit
            with open(path, "rb") as fh:
                data = fh.read()
            if recorded is not None and recorded.get(job.name) != \
                    self.ref_digests[job.name]:
                self.failures.append(f"{job.name}: sha256 differs from the "
                                     f"digest recorded at seed {DEFAULT_SEED}")
            try:
                units += check_output(job, data, docs.get(job.doc))
            except CheckError as exc:
                self.failures.append(f"{job.name}: {exc}")
        return units


def _end_to_end(runner, cli, seconds, setup_times, report):
    passes = runner.timed_passes(seconds, 2, lambda: runner.timed_pass(cli))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = runner.check_outputs(runner.recorded_digests())
    wall_s = statistics.median(runner.walls[passes])
    wall_ref = statistics.median(runner.refs[passes])
    report += [
        f"wall_s: {_summary(runner.walls[passes], 's')}",
        f"wall_ref: {_summary(runner.refs[passes], 'ref')}",
        f"ref_s (reference loop): {_summary(runner.ref_samples, 's')}",
        f"setup_s: {_summary(setup_times, 's')}",
        f"work per pass: {units}",
        f"{runner.workload.rate} = {units / wall_s:.6g} 1/s",
    ]
    return {"wall_ref": (wall_ref, "ref"),
            "work_per_ref": (units / wall_ref, "1/ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s")}


def _per_layer(runner, cli, seconds, report):
    from tracer import Tracer
    untraced = runner.timed_passes(seconds / 3, 1,
                                   lambda: runner.timed_pass(cli))
    runner.check_outputs(runner.recorded_digests())
    tracer = Tracer()
    gen_dir = os.path.join(runner.work, "generated")
    os.makedirs(gen_dir)
    passes = []

    def traced_pass():
        # The set-up commands run traced too, so that the generators show
        # up; they are not part of the pass's time.
        for name, argv in runner.workload.docs:
            tracer.job = f"generate:{name}"
            if _call(cli, [*argv, "-o", os.path.join(gen_dir, name)]) != 0:
                runner.failures.append(f"generate {name}: non-zero exit")
            tracer.end_job()
            runner.attempted += 1
        runner.timed_pass(cli, tracer)
        passes.append(layer_metrics(*tracer.take(), runner.out_bytes()))

    tracer.install()
    try:
        traced = runner.timed_passes(seconds, 2, traced_pass)
    finally:
        tracer.restore()
    metrics = {}
    for key, (value, unit) in passes[0].items():
        values = [p[key][0] for p in passes]
        if key not in EXACT:
            value = statistics.median(values)
        elif len(set(values)) > 1:
            runner.failures.append(f"{key} differs between traced passes: "
                                   f"{values}")
        metrics[key] = (value, unit)

    def median(values, s):
        return statistics.median(values[s])

    metrics["tracing.overhead_s"] = (
        median(runner.walls, traced) - median(runner.walls, untraced), "s")
    metrics["tracing.overhead_frac"] = (
        median(runner.refs, traced) / median(runner.refs, untraced) - 1,
        "ratio")
    report += [
        f"untraced wall_s: {_summary(runner.walls[untraced], 's')}",
        f"traced wall_s: {_summary(runner.walls[traced], 's')}",
        f"exact counts, compared across {len(passes)} traced passes: "
        + ", ".join(EXACT),
    ]
    return metrics


def run(name, seed, seconds, trace, tiny=False, tamper=None):
    """Run one workload; return the result object printed as the last line,
    plus human-readable report lines under the key "report"."""
    runner = Runner(name, seed, tiny, tamper)
    try:
        setup_times = setup(runner.workload, runner.docs_dir,
                            1 if trace else SETUP_REPEATS)
        sys.path.insert(0, SRC)
        from netform import cli
        report = []
        if trace:
            metrics = _per_layer(runner, cli, seconds, report)
        else:
            metrics = _end_to_end(runner, cli, seconds, setup_times, report)
        failed_frac = len(runner.failures) / runner.attempted
        report[:0] = [f"failed_frac = {failed_frac:.6g} "
                      f"({len(runner.failures)} of {runner.attempted} job runs)"]
        report[1:1] = [f"FAILED {line}" for line in runner.failures]
        return {
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "report": report,
        }
    finally:
        runner.close()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the workload (self-test)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "netform", "cli.py")):
        print(f"error: no netform sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.tiny)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}")
    for line in result.pop("report"):
        print(f"  {line}")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
