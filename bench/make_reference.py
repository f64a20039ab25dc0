"""Regenerate the stored reference outputs in bench/reference/.

Usage (from the repository root):  python3 bench/make_reference.py

Runs one pass of every workload, at both sizes, for the default seed and
stores what ``checks.summarize`` extracts: the seed-independent counts and
the numbers that runs of the default seed are compared against.  Only
regenerate when the program's outputs are meant to change, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import checks
from workloads import DEFAULT_SEED, SIZES, WORKLOADS, commands, make_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from xtcancel import cli  # noqa: E402


def main():
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for workload in WORKLOADS:
        for size in SIZES:
            with tempfile.TemporaryDirectory() as work:
                in_dir, out_dir = os.path.join(work, "in"), os.path.join(work, "out")
                os.makedirs(out_dir)
                params = make_inputs(workload, DEFAULT_SEED, in_dir, ROOT, size)
                for cmd in commands(workload, params, in_dir, out_dir):
                    rc = cli.main(list(cmd.argv))
                    if rc != 0:
                        raise SystemExit("%s %s: %s exited with %d" % (workload, size, cmd.name, rc))
                counts, values = checks.summarize(workload, out_dir)
            path = os.path.join(checks.REFERENCE_DIR, "%s-%s.json" % (workload, size))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": workload, "size": size, "seed": DEFAULT_SEED,
                           "counts": counts, "values": values}, fh, indent=1)
                fh.write("\n")
            print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
