"""Set-up step of the benchmark, run in a fresh interpreter.

Reads a JSON list of [file name, netform generate argv] from stdin, imports
netform from the checkout's ``src`` and writes each document into the
directory given as the only argument.  Exits non-zero if any command fails.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from netform import cli  # noqa: E402


def main() -> int:
    out_dir = sys.argv[1]
    for name, argv in json.load(sys.stdin):
        rc = cli.main([*argv, "-o", os.path.join(out_dir, name)])
        if rc != 0:
            print(f"generate {name} exited {rc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
