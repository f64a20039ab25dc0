"""Print each layer's and each command's traced memory peak beside the
figure its pre-flight checks.

For one link, in this process and in order, the layers as sim and eye
--svg --folded run them:

- build_link + run_transient, against Engine.stepper_bytes(steps);
- read_waveform_csv of the waveforms sim writes, against
  mtlsim.waveform_read_bytes;
- eye_measure on the volts read, against eye.eye_bytes;
- render_eye_svg and write_folded_csv, the eye writers whose memory the
  pre-flight counts, against eye.eye_bytes with svg or folded.

Each peak is traced by tracemalloc from the layer's start, so what the
layers before it hold (the built link, the volts) is not in it, as it is
not in the layer's figure.  Forked writer workers (textio.on_cpus) are not
traced; the figures count one process, as the pre-flight does.

Then whole commands through cli.main, with the fork map held to this
process, so it computes every text itself:

- sim, against cli._sim_bytes: the stepper's figure, or the waveform
  CSV's write beside the volts;
- eye --svg --folded on sim's waveforms, from the built link on, against
  cli._eye_bytes with both writers;
- sweep --mode uncoupled --values 0,0.0005,0.001, against the figure its
  pre-flight admits: every point's step map held together plus the largest
  point's run (cli._sweep_run_bytes).

One line a layer or command, "NAME  peak P B  figure F B  R %"; the exit
code is 1 when a peak is over its figure.

    python3 scripts/peak_memory.py --link fixtures/link-twelve.json
"""

import argparse
import functools
import os
import sys
import tempfile
import tracemalloc
from unittest import mock

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from xtcancel import cli  # noqa: E402
from xtcancel.eye import eye_bytes, eye_measure, render_eye_svg, write_folded_csv  # noqa: E402
from xtcancel.mtlsim import (build_link, load_link, read_waveform_csv, run_transient,  # noqa: E402
                             waveform_read_bytes, write_waveform_csv)

SWEEP_VALUES = "0,0.0005,0.001"  # breakouts of none, 0.5 mm and 1 mm


def traced(run):
    """(run's result, its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def layers(link, workdir):
    """(layer, peak, figure) of every layer, in order."""
    spec = load_link(link)
    (engine, waves), peak = traced(lambda: built_and_run(spec))
    rows = [("build_link + run_transient", peak, engine.stepper_bytes(engine.steps))]
    waves_csv = os.path.join(workdir, "waves.csv")
    write_waveform_csv(waves, waves_csv)
    del waves
    waves, peak = traced(lambda: read_waveform_csv(waves_csv, engine))
    n, samples = waves.volts.shape
    rows.append(("read_waveform_csv", peak, waveform_read_bytes(n, samples)))
    rate = spec.stimulus.data_rate
    _, peak = traced(lambda: eye_measure(waves, engine.streams, rate))
    rows.append(("eye_measure", peak, eye_bytes(n, samples, waves.dt, rate)))
    _, peak = traced(lambda: render_eye_svg(waves, rate, os.path.join(workdir, "eye.svg")))
    rows.append(("render_eye_svg", peak, eye_bytes(n, samples, waves.dt, rate, svg=True)))
    _, peak = traced(lambda: write_folded_csv(waves, rate, os.path.join(workdir, "folded.csv")))
    rows.append(("write_folded_csv", peak, eye_bytes(n, samples, waves.dt, rate, folded=True)))
    return rows


def commands(link, workdir):
    """(command, peak, figure) of sim, eye --svg --folded and the sweep, in
    order, each run whole on one CPU."""
    spec = load_link(link)
    rate = spec.stimulus.data_rate
    path = functools.partial(os.path.join, workdir)

    def run(*argv):
        if cli.main(list(argv)) != 0:
            raise RuntimeError("%s exited with an error" % " ".join(argv))

    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}):
        _, peak = traced(lambda: run("sim", "--link", link, "-o", path("waves.csv")))
        engine = build_link(spec)
        rows = [("sim", peak, cli._sim_bytes(engine))]
        # eye's figure counts from the built link on: hand it one built here
        with mock.patch.object(cli, "build_link", lambda point: engine):
            _, peak = traced(lambda: run("eye", "--waves", path("waves.csv"), "--link", link,
                                         "-o", path("eye.json"), "--svg", path("eye.svg"),
                                         "--folded", path("folded.csv")))
        rows.append(("eye --svg --folded", peak,
                     cli._eye_bytes(engine, rate, svg=True, folded=True)))
        points = cli._sweep_points(spec, "uncoupled", [float(v) for v in SWEEP_VALUES.split(",")])
        engines = [build_link(point) for _, point in points]
        figure = (sum(e.step_map_bytes() for e in engines)
                  + max(cli._sweep_run_bytes(e) for e in engines))
        _, peak = traced(lambda: run("sweep", "--mode", "uncoupled", "--link", link,
                                     "--values", SWEEP_VALUES, "-o", path("sweep.csv")))
        rows.append(("sweep --mode uncoupled", peak, figure))
    return rows


def built_and_run(spec):
    """(the built link, its waveforms)."""
    engine = build_link(spec)
    return engine, run_transient(engine)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Trace each layer's memory peak against "
                                                 "its pre-flight figure.")
    parser.add_argument("--link", required=True, help="link JSON file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        rows = layers(args.link, workdir) + commands(args.link, workdir)
    for layer, peak, figure in rows:
        print("%-26s  peak %10d B  figure %10d B  %5.1f %%"
              % (layer, peak, figure, 100.0 * peak / figure))
    return 1 if any(peak > figure for _, peak, figure in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
