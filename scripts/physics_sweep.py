"""Hold the seeded random links of tests/physics.py to the physics checks for
longer than the test suite does, and print how far each run is from its
settled period.

Each of the --count links drawn from --seed is held to what
tests/test_physics.py asserts: physics.identity_failures; on a matched link
(a full network, one segment), the stepper's stated error of the exact
modal delays (physics.matched_error); and sim's bytes the same as if on one
CPU and on two.  One line a link gives its settle gap, the largest distance
of the kept samples from the DFT-bin oracle's settled period
(physics.settle_gap), with error / bound for a matched link, then the
failures, if any.  A last line counts the failures and the settle gaps over
1e-9 V, 1 mV and 0.1 V.  The exit code is 1 when a link failed a check;
a settle gap alone is reported, not failed, as the fixed warmup does not
settle a link that rings.

    python3 scripts/physics_sweep.py --seed 2 --count 400
"""

import argparse
import contextlib
import os
import sys
import tempfile
from unittest import mock

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import physics  # noqa: E402

GAPS = (1e-9, 1e-3, 0.1)  # settle gaps counted in the last line, volts


def check(case, workdir):
    """(settle gap, matched error / bound or None, failure messages)."""
    failed = physics.identity_failures(case)
    ratio = None
    if case.matched:
        error, bound = physics.matched_error(case)
        ratio = float(np.max(error / bound))
        if not (error <= bound).all():
            failed.append("%s: matched error %s over bound %s" % (case.name, error, bound))
    outputs = []
    for cpus in (1, 2):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
            outputs.append(physics.sim_output(case, os.path.join(workdir, "%d.csv" % cpus)))
    if outputs[0] != outputs[1]:
        failed.append("%s: sim writes other bytes on two CPUs" % case.name)
    return physics.settle_gap(case), ratio, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description="Hold seeded random links to the physics "
                                                 "checks and print their settle gaps.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    gaps, failures = [], 0
    with tempfile.TemporaryDirectory() as workdir, open(os.devnull, "w") as devnull, \
            contextlib.redirect_stderr(devnull):  # sim's "wrote" lines
        for case in physics.links(args.seed, args.count):
            gap, ratio, failed = check(case, workdir)
            gaps.append(gap)
            failures += bool(failed)
            matched = "" if ratio is None else "  matched error/bound %.3f" % ratio
            print("%s  settle gap %.3g V%s" % (case.name, gap, matched))
            for line in failed:
                print("FAILED " + line)
    print("seed %d, %d links: %d failed; settle gap over %s"
          % (args.seed, args.count, failures,
             ", ".join("%g V in %d" % (g, sum(gap > g for gap in gaps)) for g in GAPS))
          + ", largest %.3g V" % max(gaps))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
