"""Run the seeded hostile-input mutator of tests/hostile.py for longer than
the test suite does.

In the documents family (the default) each case changes one value or key of
a fixture document and runs a CLI command that reads it, in this process.
A case fails when the command returns anything but 0, 2, 3, 4 or 5, or an
exception escapes it.  In the waves family each case mutates the waveform
CSV sim writes for link-pair or link-twelve and runs eye --waves --svg
--folded on it in small ranges, as if on one CPU and on three; it also
fails when the two runs differ in exit code, error stream, eye report, SVG
or folded CSV, or leave a process.
The script prints each failing case with its error, then one line counting
the (one-CPU) exit codes, and exits 1 when a case failed.  The process's
address space is capped at 2 GiB above what it maps at the start, so a case
that allocates without bound ends in MemoryError.

    python3 scripts/hostile_inputs.py --seed 7 --count 2000
    python3 scripts/hostile_inputs.py --family waves --seed 7 --count 300
"""

import argparse
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import hostile  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description="Run the seeded hostile-input mutator.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--family", choices=("documents", "waves"), default="documents")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir, hostile.address_space_limit(2 << 30):
        hostile.fixtures_in(workdir)
        if args.family == "waves":
            failed, codes = hostile.wave_failures(hostile.wave_cases(args.seed, args.count),
                                                  workdir)
        else:
            failed, codes = hostile.failures(hostile.cases(args.seed, args.count), workdir)
    for case, code, err in failed:
        print("FAILED %s: exit %s\n%s" % (case, code, err.rstrip()))
    print("seed %d, %d cases: %s; %d failed"
          % (args.seed, args.count,
             ", ".join("exit %s %d" % item for item in sorted(codes.items(), key=str)),
             len(failed)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
