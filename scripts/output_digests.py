"""Print the SHA-256 of every file the CLI writes for the shipped fixtures.

Runs each command (synth with --zc/--histogram on every bundle, the
inhomogeneous microstrip.json included, synth reduction of a network and of
a bundle, fom with --codes, also at levels off-centre about --vref, fom from
a network and sampled with --samples, sim and eye with --svg/--folded on
every link, and sweep in all three modes) on fixtures/ into a temporary
directory and prints one "sha256  name" line per output file.  Last come
sim and eye on a three-segment link that the script writes there:
link-twelve.json between two 0.5 mm uncoupled breakouts.
Two checkouts whose outputs are byte-identical print the same
lines, so a refactor of the output layer can be checked with diff:

    python3 scripts/output_digests.py > after.txt
"""

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from xtcancel import cli  # noqa: E402
from xtcancel.bundle import DEFAULT_VELOCITY, uncoupled_bundle  # noqa: E402
from xtcancel.textio import write_json  # noqa: E402

FIXTURES = os.path.join(ROOT, "fixtures")
BREAKOUT_LINK = "link-twelve-breakout.json"


def breakout_link():
    """link-twelve.json with a 0.5 mm uncoupled 50 ohm breakout at each end,
    as the sweep builds it.  The breakout bundle is inline; the fixtures the
    link names are given by absolute path, so the document reads from any
    directory."""
    with open(os.path.join(FIXTURES, "link-twelve.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    for seg in raw["segments"]:
        seg["bundle"] = os.path.join(FIXTURES, seg["bundle"])
    raw["termination"] = os.path.join(FIXTURES, raw["termination"])
    bundle = uncoupled_bundle(n=12, z0=50.0, velocity=DEFAULT_VELOCITY, name="breakout")
    breakout = {"bundle": bundle.to_dict(), "length_m": 0.0005}
    raw["segments"] = [breakout] + raw["segments"] + [breakout]
    return raw


def commands():
    """(argv, output file names) for every run, file names relative to the
    output directory."""
    runs = []
    for name in ("scalar", "pair", "six", "twelve", "microstrip"):
        runs.append((["synth", "--lc", "@%s.json" % name, "-o", "synth-%s.json" % name,
                      "--zc", "zc-%s.json" % name, "--histogram", "hist-%s.csv" % name],
                     ["synth-%s.json" % name, "zc-%s.json" % name, "hist-%s.csv" % name]))
    runs.append((["synth", "--net", "@twelve-network.json", "--cutoff-self", "500",
                  "-o", "reduced-twelve.json"], ["reduced-twelve.json"]))
    runs.append((["synth", "--lc", "@twelve.json", "--cutoff-self", "300", "--cutoff-cross", "600",
                  "-o", "reduced-lc-twelve.json"], ["reduced-lc-twelve.json"]))
    for name in ("pair", "twelve"):
        runs.append((["fom", "--lc", "@%s.json" % name, "-o", "fom-%s.json" % name,
                      "--codes", "codes-%s.csv" % name],
                     ["fom-%s.json" % name, "codes-%s.csv" % name]))
    # Levels off-centre about vref, so a change of the level map shows here.
    runs.append((["fom", "--lc", "@twelve.json", "--vref", "0.4", "--levels", "-0.2", "1.1",
                  "-o", "fom-odd-twelve.json", "--codes", "codes-odd-twelve.csv"],
                 ["fom-odd-twelve.json", "codes-odd-twelve.csv"]))
    runs.append((["fom", "--network", "@twelve-network.json", "-o", "fom-net-twelve.json"],
                 ["fom-net-twelve.json"]))
    runs.append((["fom", "--lc", "@twelve.json", "--samples", "5000", "--seed", "3",
                  "-o", "fom-sampled-twelve.json"], ["fom-sampled-twelve.json"]))
    for name in ("scalar", "pair", "twelve", "microstrip"):
        runs += sim_and_eye("@link-%s.json" % name, name)
    # The twelve-wire breakouts step in blocks of 601, 2 and 5 steps through
    # resistive drivers; the pair link's drivers are all pinned.
    for mode, link, values, out in (
            ("rs", "scalar", "0,1.67,25", "sweep-rs.csv"),
            ("cutoff", "pair", "inf,90/100", "sweep-cutoff.csv"),
            ("uncoupled", "pair", "0,0.0005", "sweep-uncoupled.csv"),
            ("uncoupled", "twelve", "0,0.0005,0.001", "sweep-uncoupled-twelve.csv")):
        runs.append((["sweep", "--mode", mode, "--link", "@link-%s.json" % link,
                      "--values", values, "-o", out], [out]))
    # A multi-segment link read from a file, written by main.
    runs += sim_and_eye(BREAKOUT_LINK, "twelve-breakout")
    return runs


def sim_and_eye(link, name):
    """The sim run on link and the eye run, with --svg and --folded, on its
    waveforms; the output files are named after name."""
    waves = "waves-%s.csv" % name
    outs = ["eye-%s.json" % name, "eye-%s.svg" % name, "folded-%s.csv" % name]
    return [(["sim", "--link", link, "-o", waves], [waves]),
            (["eye", "--waves", waves, "--link", link, "-o", outs[0],
              "--svg", outs[1], "--folded", outs[2]], outs)]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        write_json(os.path.join(tmp, BREAKOUT_LINK), breakout_link())
        for argv, outs in commands():
            # "@name" is a shipped fixture; any other file name lives in tmp.
            resolved = [os.path.join(FIXTURES, a[1:]) if a.startswith("@")
                        else os.path.join(tmp, a) if a.endswith((".json", ".csv", ".svg"))
                        else a for a in argv]
            code = cli.main(resolved)
            if code != 0:
                print("command failed with exit %d: %s" % (code, " ".join(argv)),
                      file=sys.stderr)
                return 1
            for out in outs:
                with open(os.path.join(tmp, out), "rb") as fh:
                    print("%s  %s" % (hashlib.sha256(fh.read()).hexdigest(), out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
