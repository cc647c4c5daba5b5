"""Record the sha256 digest of every job output at the default seed.

    python3 perfbench/record_digests.py

Writes ``digests.json``, which ``run.py`` compares outputs with whenever it
runs at the default seed.  Re-record only when a change to netform is meant
to change its output bytes, and say so in that change.
"""

import json
import os
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    sys.path.insert(0, run.SRC)
    from netform import cli
    table = {}
    for size, tiny in (("full", False), ("tiny", True)):
        table[size] = {}
        for name in sorted(WORKLOADS):
            runner = run.Runner(name, DEFAULT_SEED, tiny)
            try:
                run.setup(runner.workload, runner.docs_dir, 1)
                runner.timed_pass(cli)
                runner.check_outputs(None)
                if runner.failures:
                    print("\n".join(runner.failures), file=sys.stderr)
                    return 1
                table[size][name] = runner.ref_digests
            finally:
                runner.close()
    with open(os.path.join(run.HERE, "digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
