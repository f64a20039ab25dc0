"""The three benchmark workloads: seeded inputs and the CLI argv of one pass.

A workload writes its inputs into ``in_dir`` from the seed alone, so the same
seed always gives byte-identical inputs.  One pass is a fixed sequence of
``xtcancel`` commands that read those inputs and write into a pass's own
output directory.  ``size="smoke"`` shrinks every workload for the
benchmark's own tests; the timed benchmark always runs ``size="full"``.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("link-sim", "sweep-breakout", "synth-fom")
SIZES = ("full", "smoke")
DEFAULT_SEED = 1

# Homogeneous dielectric velocity of the generated synth-fom bundles (m/s).
VELOCITY = 1.5e8


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass and the output files it writes."""

    name: str                 # sim, eye, sweep, synth or fom
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # file names inside the pass output directory


def _params(workload, size):
    smoke = size == "smoke"
    if workload == "link-sim":
        return {"prbs_order": 5 if smoke else 9}
    if workload == "sweep-breakout":
        return {"prbs_order": 5 if smoke else 7, "values": "0,0.0005" if smoke else "0,0.0005,0.001"}
    if workload == "synth-fom":
        return {"n_wide": 24 if smoke else 64, "n_exact": 10 if smoke else 20,
                "samples": 2000 if smoke else 200000, "cutoff_self": 500.0}
    raise ValueError("unknown workload %r (expected one of %s)" % (workload, ", ".join(WORKLOADS)))


def _copy_fixture(root, name, in_dir):
    shutil.copyfile(os.path.join(root, "fixtures", name), os.path.join(in_dir, name))


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _twelve_wire_link(root, in_dir, prbs_order, lfsr_seed):
    """The shipped twelve-wire link (4 in, 16 Gb/s) with a chosen PRBS."""
    _copy_fixture(root, "twelve.json", in_dir)
    _copy_fixture(root, "twelve-network.json", in_dir)
    _write_json(os.path.join(in_dir, "link.json"), {
        "segments": [{"bundle": "twelve.json", "length_m": 0.1016}],
        "drivers": {"rs_ohms": 1.67, "v_low": 0.0, "v_high": 1.0, "rise_s": 1e-11},
        "termination": "twelve-network.json",
        "stimulus": {"data_rate": 16e9, "prbs_order": prbs_order,
                     "seed": lfsr_seed, "mode": "random"},
    })


def banded_admittance(rng, n):
    """A random banded M-matrix: a realizable Zc^-1 with three coupling bands.

    Bridges fall off with wire separation (about 220, 900 and 4000 ohm) and
    every wire has a 100-200 ohm self resistor, so the matrix is strictly
    diagonally dominant and its inverse is a valid impedance matrix.
    """
    y = np.zeros((n, n))
    for sep, g in ((1, 1 / 220.0), (2, 1 / 900.0), (3, 1 / 4000.0)):
        for i in range(n - sep):
            y[i, i + sep] = y[i + sep, i] = -g * (0.7 + 0.6 * rng.random())
    self_g = 1.0 / (100.0 + 100.0 * rng.random(n))
    y[np.diag_indices(n)] = self_g - y.sum(axis=1)
    return y


def homogeneous_bundle(y, velocity, name):
    """L = Zc/v and C = Zc^-1/v, the construction of lc_from_impedance.

    Done here in numpy so that the inputs do not depend on the program
    under test.
    """
    zc = np.linalg.inv(y)
    zc = 0.5 * (zc + zc.T)
    return {"n": y.shape[0], "L": (zc / velocity).tolist(), "C": (y / velocity).tolist(),
            "name": name}


def make_inputs(workload, seed, in_dir, root, size="full"):
    """Write the workload's input files for ``seed`` and return its parameters."""
    p = _params(workload, size)
    rng = np.random.default_rng(seed)
    os.makedirs(in_dir, exist_ok=True)
    if workload in ("link-sim", "sweep-breakout"):
        order = p["prbs_order"]
        p["lfsr_seed"] = int(rng.integers(1, 1 << order))
        _twelve_wire_link(root, in_dir, order, p["lfsr_seed"])
    else:
        for key, n in (("wide", p["n_wide"]), ("exact", p["n_exact"])):
            payload = homogeneous_bundle(banded_admittance(rng, n), VELOCITY, "banded-%d" % n)
            _write_json(os.path.join(in_dir, "bundle-%s.json" % key), payload)
        p["fom_seed"] = int(rng.integers(0, 1 << 31))
        _copy_fixture(root, "twelve.json", in_dir)
    p["seed"] = seed
    p["size"] = size
    return p


def commands(workload, p, in_dir, out_dir):
    """The commands of one pass, reading ``in_dir`` and writing ``out_dir``."""
    def i(name):
        return os.path.join(in_dir, name)

    def o(name):
        return os.path.join(out_dir, name)

    if workload == "link-sim":
        return (
            Command("sim", ("sim", "--link", i("link.json"), "-o", o("waves.csv")),
                    ("waves.csv",)),
            Command("eye", ("eye", "--waves", o("waves.csv"), "--link", i("link.json"),
                            "-o", o("eye.json"), "--svg", o("eye.svg"),
                            "--folded", o("folded.csv")),
                    ("eye.json", "eye.svg", "folded.csv")),
        )
    if workload == "sweep-breakout":
        return (
            Command("sweep", ("sweep", "--mode", "uncoupled", "--link", i("link.json"),
                              "--values", p["values"], "-o", o("sweep.csv")),
                    ("sweep.csv",)),
        )
    return (
        Command("synth", ("synth", "--lc", i("bundle-wide.json"), "-o", o("net-wide.json"),
                          "--zc", o("zc-wide.json"), "--histogram", o("hist-wide.csv")),
                ("net-wide.json", "zc-wide.json", "hist-wide.csv")),
        Command("synth", ("synth", "--lc", i("bundle-exact.json"), "-o", o("net-reduced.json"),
                          "--cutoff-self", repr(p["cutoff_self"])),
                ("net-reduced.json",)),
        Command("fom", ("fom", "--lc", i("bundle-exact.json"), "-o", o("fom-lc.json")),
                ("fom-lc.json",)),
        Command("fom", ("fom", "--network", o("net-reduced.json"), "-o", o("fom-net.json")),
                ("fom-net.json",)),
        Command("fom", ("fom", "--lc", i("bundle-wide.json"), "--samples", str(p["samples"]),
                        "--seed", str(p["fom_seed"]), "-o", o("fom-sampled.json")),
                ("fom-sampled.json",)),
        Command("fom", ("fom", "--lc", i("twelve.json"), "-o", o("fom-twelve.json"),
                        "--codes", o("codes-twelve.csv")),
                ("fom-twelve.json", "codes-twelve.csv")),
    )
