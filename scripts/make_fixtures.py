"""Write the JSON fixtures of fixtures/ from the designs in tests/designs.py.

Run from the repository root:  python3 scripts/make_fixtures.py

The committed files are the authority, not this script: the benchmark and
the tests read them as they are.  Rebuilt on another LAPACK, the bundles'
L/C can differ from the committed ones in the last digits (and the
twelve-wire network's ohms a little more); tests/test_bundle.py and
tests/test_termination.py hold the committed files to these builders within
a stated tolerance.  Write into a copy of the repository and compare before
replacing a committed file.
"""

import os
import sys

HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))

from designs import fixture_bundles, fixture_networks  # noqa: E402
from xtcancel.bundle import save_bundle  # noqa: E402
from xtcancel.termination import save_network  # noqa: E402
from xtcancel.textio import write_json  # noqa: E402

OUT = os.path.join(HERE, "..", "fixtures")


def main():
    os.makedirs(OUT, exist_ok=True)

    bundles = fixture_bundles()
    for fname, bundle in bundles.items():
        save_bundle(bundle, os.path.join(OUT, fname))
    for fname, net in fixture_networks(bundles).items():
        save_network(net, os.path.join(OUT, fname))

    write_json(os.path.join(OUT, "link-scalar.json"), {
        "segments": [{"bundle": "scalar.json", "length_m": 0.1016}],
        "drivers": {"rs_ohms": 0.0, "v_low": 0.0, "v_high": 1.0, "rise_s": 10e-12},
        "termination": "50ohm-scalar.json",
        "stimulus": {"data_rate": 16e9, "prbs_order": 7, "mode": "worst"},
    })

    write_json(os.path.join(OUT, "link-pair.json"), {
        "segments": [{"bundle": "pair.json", "length_m": 0.1016}],
        "drivers": {"rs_ohms": 0.0, "v_low": 0.0, "v_high": 1.0, "rise_s": 10e-12},
        "termination": "pair-network.json",
        "stimulus": {"data_rate": 16e9, "prbs_order": 7, "mode": "worst"},
    })

    write_json(os.path.join(OUT, "link-twelve.json"), {
        "segments": [{"bundle": "twelve.json", "length_m": 0.1016}],
        "drivers": {"rs_ohms": 1.67, "v_low": 0.0, "v_high": 1.0, "rise_s": 10e-12},
        "termination": "twelve-network.json",
        "stimulus": {"data_rate": 16e9, "prbs_order": 7, "mode": "random"},
    })

    # link-twelve's drivers and stimulus on the inhomogeneous bundle, whose
    # modes spread over 54 ps: the matched network leaves far-end crosstalk.
    write_json(os.path.join(OUT, "link-microstrip.json"), {
        "segments": [{"bundle": "microstrip.json", "length_m": 0.1016}],
        "drivers": {"rs_ohms": 1.67, "v_low": 0.0, "v_high": 1.0, "rise_s": 10e-12},
        "termination": "microstrip-network.json",
        "stimulus": {"data_rate": 16e9, "prbs_order": 7, "mode": "random"},
    })

    print("fixtures written to", os.path.abspath(OUT))


if __name__ == "__main__":
    main()
