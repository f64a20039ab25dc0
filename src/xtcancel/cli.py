"""Command-line surface: network synthesis, figures of merit, simulation,
eye measurement, and parameter sweeps.

All commands write data to files only; anything informational goes to the
error stream.  Given the same inputs, every command produces
byte-identical output files.

Exit codes: 0 success, else the exit_code of the error type raised (errors.py):
2 bad input (a missing file too), 3 coupling not realizable as a passive
network, 4 bus wider than a cap, 5 simulation produced non-finite values.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .bundle import (BUNDLE_SCHEMA_VERSION, DEFAULT_VELOCITY, characteristic_impedance,
                     load_bundle, uncoupled_bundle)
from .errors import ValidationError, XtcancelError, check_memory
from .eye import (EYE_SCHEMA_VERSION, check_streams, eye_bytes, eye_measure, render_eye_svg,
                  svg_volts_range, write_eye_json, write_folded_csv)
from .fom import (DEFAULT_LEVELS, REPORT_SCHEMA_VERSION, bundle_fom, bundle_fom_sampled,
                  code_table, write_code_table_csv, write_report_json)
from .mtlsim import (LINK_SCHEMA_VERSION, Segment, build_link, load_link, read_waveform_csv,
                     run_transient, waveform_read_bytes, write_waveform_csv)
from .termination import (DEFAULT_VREF, NETWORK_SCHEMA_VERSION, load_network,
                          network_admittance, realize_network, reduce_network, save_network,
                          write_histogram_csv)
from .textio import chunk_bytes, write_csv, write_json

_VERSION_TEXT = ("xtcancel %s (schemas: bundle %d, network %d, report %d, link %d, eye %d)"
                 % (__version__, BUNDLE_SCHEMA_VERSION, NETWORK_SCHEMA_VERSION,
                    REPORT_SCHEMA_VERSION, LINK_SCHEMA_VERSION, EYE_SCHEMA_VERSION))


def _info(msg):
    print(msg, file=sys.stderr)


def cmd_synth(args):
    if args.cutoff_cross is not None and args.cutoff_self is None:  # before any file is read
        raise ValidationError("--cutoff-cross requires --cutoff-self")
    if args.net is not None:
        if args.zc:
            raise ValidationError("--zc needs --lc (no impedance in a network file)")
        net = load_network(args.net)
        if args.vref is not None:
            net = replace(net, vref=args.vref)
    else:
        basis, _ = characteristic_impedance(load_bundle(args.lc))
        net = realize_network(basis.zc, vref=DEFAULT_VREF if args.vref is None else args.vref)
        if args.zc:
            write_json(args.zc, {"n": basis.zc.shape[0], "zc": basis.zc.tolist()})
    if args.cutoff_self is not None:
        net = reduce_network(net, args.cutoff_self, args.cutoff_cross)
    save_network(net, args.output)
    if args.histogram:
        write_histogram_csv(net, args.histogram)
    _info("wrote %s (%d elements)" % (args.output, len(net.elements)))
    return 0


def cmd_fom(args):
    if args.seed is not None and args.samples is None:
        raise ValidationError("--seed seeds --samples; drop it or pass --samples")
    if args.network is not None:
        net = load_network(args.network)
        y, vref = network_admittance(net), net.vref
    else:
        basis, _ = characteristic_impedance(load_bundle(args.lc))
        y, vref = basis.yc, DEFAULT_VREF
    if args.vref is not None:
        vref = args.vref
    # Both before either is written, the table first: its cap is the lower.
    table = code_table(y, vref=vref, levels=args.levels) if args.codes else None
    if args.samples is not None:
        report = bundle_fom_sampled(y, vref=vref, levels=args.levels,
                                    samples=args.samples, seed=args.seed or 0)
    else:
        report = bundle_fom(y, vref=vref, levels=args.levels)
    write_report_json(report, args.output)
    if table is not None:
        write_code_table_csv(table, args.codes)
    _info("wrote %s (%d codes)" % (args.output, report.n_codes))
    return 0


def _sim_bytes(engine):
    """sim's memory: the run, or the CSV's times and one chunk's text beside the volts."""
    return engine.run_bytes(8 * engine.samples + chunk_bytes(engine.n + 1))


def cmd_sim(args):
    engine = build_link(load_link(args.link))
    check_memory(_sim_bytes(engine), "sim on %d samples of %d wires" % (engine.samples, engine.n),
                 "lower prbs_order or lengthen timestep_s")
    waves = engine.waveforms(run_transient(engine).volts)
    write_waveform_csv(waves, args.output)
    _info("wrote %s (%d wires, %d samples)" % (args.output, waves.n, waves.volts.shape[1]))
    return 0


def _eye_bytes(engine, rate, svg, folded):
    """An upper bound on eye's memory beyond the built link: the read holds
    its rows (the grid's and one more) beside one range's parse, then its
    volts, and the scan and the writers then run on the volts it returned."""
    n, samples = engine.n, engine.samples
    return max(waveform_read_bytes(n, samples),
               8 * samples * n + eye_bytes(n, samples, engine.dt, rate, svg, folded))


def cmd_eye(args):
    engine = build_link(load_link(args.link))
    rate = engine.spec.stimulus.data_rate
    # Checked before the file is read.
    check_streams(engine.streams)
    check_memory(_eye_bytes(engine, rate, svg=bool(args.svg), folded=bool(args.folded)),
                 "eye on %d samples of %d wires" % (engine.samples, engine.n),
                 "lower prbs_order, lengthen timestep_s or drop --svg/--folded")
    waves = read_waveform_csv(args.waves, engine)
    if args.svg:
        svg_volts_range(waves.volts)  # checked before any output is written
    report = eye_measure(waves, engine.streams, rate)
    write_eye_json(report, args.output)
    if args.svg:
        render_eye_svg(waves, rate, args.svg)
    if args.folded:
        write_folded_csv(waves, rate, args.folded)
    _info("wrote %s (min eye %g V)" % (args.output, report.min_v))
    return 0


def _parse_sweep_values(mode, text):
    """--values as numbers, or in cutoff mode as (self, cross) pairs with
    None for inf, the full network.  The points check the values."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValidationError("--values is empty")
    try:
        if mode != "cutoff":
            return [float(t) for t in tokens]
        pairs = [None if t == "inf" else tuple(map(float, t.split("/"))) for t in tokens]
    except ValueError:
        raise ValidationError("--values must be numbers, got %r" % text) from None
    if any(p is not None and len(p) != 2 for p in pairs):
        raise ValidationError("cutoff values look like SELF/CROSS ohms or inf, got %r" % text)
    return pairs


def _sweep_points(spec, mode, values):
    """(column value, LinkSpec) of every sweep point."""
    n = spec.termination.n
    if mode == "rs":
        return [(v, replace(spec, drivers=replace(spec.drivers, rs_ohms=(v,) * n)))
                for v in values]
    if mode == "cutoff":
        basis, _ = characteristic_impedance(spec.segments[-1].bundle)
        net = realize_network(basis.zc, vref=spec.termination.vref)
        return [(float("inf"), replace(spec, termination=net)) if v is None
                else (v[0], replace(spec, termination=reduce_network(net, *v))) for v in values]
    # uncoupled: plain 50 ohm breakout segments of the given length, both ends
    breakout = uncoupled_bundle(n=n, z0=50.0, velocity=DEFAULT_VELOCITY, name="breakout")
    points = []
    for length in values:
        if length == 0.0:
            points.append((0.0, spec))
            continue
        seg = Segment(bundle=breakout, length_m=length)
        points.append((length, replace(spec, segments=(seg,) + spec.segments + (seg,))))
    return points


def _sweep_bytes(engines):
    """A sweep's memory: its built links' step maps held together, and beyond
    its step map the largest point's run beside its eye's scan of the volts."""
    return (sum(e.step_map_bytes() for e in engines)
            + max(e.run_bytes(eye_bytes(e.n, e.samples, e.dt, e.spec.stimulus.data_rate))
                  - e.step_map_bytes() for e in engines))


def cmd_sweep(args):
    points = _sweep_points(load_link(args.link), args.mode,
                           _parse_sweep_values(args.mode, args.values))
    # Every point's link is built and its streams checked before any runs,
    # so a bad point is refused up front.  The built links hold their step
    # maps together, through the largest run.
    engines = []
    for _, point in points:
        engines.append(build_link(point))
        check_streams(engines[-1].streams)
        check_memory(_sweep_bytes(engines),
                     "holding %d of the sweep's %d links" % (len(engines), len(points)),
                     "sweep fewer values at a time")
    rows = []
    for (col, _), engine in zip(points, engines):
        # The eye reads the volts alone and no name holds a point's
        # waveforms: its currents are freed when the run returns and its
        # volts with its eye, so one point's run is all that is held beside
        # the step maps, as the pre-flight counts.
        report = eye_measure(engine.waveforms(run_transient(engine).volts), engine.streams,
                             engine.spec.stimulus.data_rate)
        for we in report.per_wire:
            rows.append((col, we.wire, we.eye_v, report.min_v, report.avg_v, report.max_v))
        _info("%s=%r: min eye %g V" % (args.mode, col, report.min_v))
    write_csv(args.output, ["value", "wire", "eye_v", "min_v", "avg_v", "max_v"], zip(*rows))
    _info("wrote %s (%d rows)" % (args.output, len(rows)))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="xtcancel",
        description="Crosstalk-cancelling termination synthesis and validation for "
                    "coupled transmission-line bundles.")
    p.add_argument("--version", action="version", version=_VERSION_TEXT)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="synthesize or reduce a termination network")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--lc", help="bundle (L/C matrices) JSON file")
    source.add_argument("--net", help="existing network JSON file (reduce only)")
    sp.add_argument("--vref", type=float,
                    help="termination rail voltage (default %g or --net's)" % DEFAULT_VREF)
    sp.add_argument("--cutoff-self", type=float, help="drop self resistors above this (ohm)")
    sp.add_argument("--cutoff-cross", type=float, help="drop bridges above this (ohm)")
    sp.add_argument("-o", "--output", required=True, help="network JSON output")
    sp.add_argument("--zc", help="also write the impedance matrix as JSON")
    sp.add_argument("--histogram", help="write conductance histogram CSV")
    sp.set_defaults(func=cmd_synth)

    fp = sub.add_parser("fom", help="switching-current and power figures of merit")
    source = fp.add_mutually_exclusive_group(required=True)
    source.add_argument("--lc", help="bundle JSON file")
    source.add_argument("--network", help="termination network JSON (admittance source)")
    fp.add_argument("--vref", type=float,
                    help="termination rail voltage (default %g or --network's)" % DEFAULT_VREF)
    fp.add_argument("--levels", nargs=2, type=float, metavar=("LOW", "HIGH"),
                    default=DEFAULT_LEVELS,
                    help="logic low and high voltages (default %g %g)" % DEFAULT_LEVELS)
    fp.add_argument("-o", "--output", required=True, help="report JSON output")
    codes = fp.add_mutually_exclusive_group()
    codes.add_argument("--codes", help="write the per-code current table CSV")
    codes.add_argument("--samples", type=int, help="Monte Carlo sample count (skips the cap)")
    fp.add_argument("--seed", type=int, help="sample seed")
    fp.set_defaults(func=cmd_fom)

    mp = sub.add_parser("sim", help="run the time-domain link simulation")
    mp.add_argument("--link", required=True, help="link JSON file")
    mp.add_argument("-o", "--output", required=True, help="waveform CSV output")
    mp.set_defaults(func=cmd_sim)

    ep = sub.add_parser("eye", help="measure eyes from a waveform file")
    ep.add_argument("--waves", required=True, help="waveform CSV from sim")
    ep.add_argument("--link", required=True, help="link JSON the waveforms came from")
    ep.add_argument("-o", "--output", required=True, help="eye report JSON output")
    ep.add_argument("--svg", help="render an eye diagram SVG")
    ep.add_argument("--folded", help="write folded samples CSV")
    ep.set_defaults(func=cmd_eye)

    wp = sub.add_parser("sweep", help="sweep a link parameter and record eyes")
    wp.add_argument("--mode", required=True, choices=("rs", "cutoff", "uncoupled"))
    wp.add_argument("--link", required=True, help="base link JSON file")
    wp.add_argument("--values", required=True,
                    help="comma list: ohms (rs), SELF/CROSS ohms or inf, the full network "
                         "(cutoff), meters (uncoupled)")
    wp.add_argument("-o", "--output", required=True, help="sweep CSV output")
    wp.set_defaults(func=cmd_sweep)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (XtcancelError, OSError) as exc:
        _info("error: %s" % exc)
        return getattr(exc, "exit_code", 2)  # an OSError is bad input: a missing file


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
