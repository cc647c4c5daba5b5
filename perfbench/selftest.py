"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, through the
benchmark's command line, and checks that each metric named in
BENCHMARK.json is printed by name with its unit and that no job fails.  Then
it corrupts one output byte of each workload and checks that the run counts
a failure, and that the benchmark refuses to run without netform's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import run
from workloads import DEFAULT_SEED


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _corrupt(out_dir):
    path = os.path.join(out_dir, sorted(os.listdir(out_dir))[0])
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 1
    with open(path, "wb") as fh:
        fh.write(data)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(run.ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed\n"
                                f"{proc.stdout}")
            for metric in spec[kind]:
                name, unit = metric["name"], metric["unit"]
                if result["metrics"].get(name, {}).get("unit") != unit:
                    problems.append(f"{where}: {name} [{unit}] not in result")
                if not any(ln.strip().startswith(f"{name} = ")
                           and ln.endswith(f" {unit}") for ln in lines):
                    problems.append(f"{where}: {name} [{unit}] not printed")

        result = run.run(workload, DEFAULT_SEED, 1, False, tiny=True,
                         tamper=_corrupt)
        if not result["failed"] / result["attempted"] > 0:
            problems.append(f"{workload}: a corrupted output was not counted")

    bare = os.path.join(run.WORK_ROOT, "bare")
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = _bench(bare, "census", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without netform sources the benchmark did not "
                            "exit non-zero without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        run.remove_work_root()

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
