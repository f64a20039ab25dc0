"""Acceptance checks for the whole toolchain.

Each test covers one acceptance criterion end to end and prints a single
summary line, so a full run reads as a checklist:

    [ACCEPT 01] modal impedance identity ... PASS

Heavy twelve-wire transient runs are shared between criteria through a
module-level cache, keeping the suite well under the time budget.
"""

from dataclasses import replace

import numpy as np

from conftest import random_bundle
from designs import (fifty_ohm_network, pair_bundle, reference_termination, scalar_bundle,
                     simple_link, six_wire_bundle, twelve_wire_bundle)
from xtcancel.bundle import DEFAULT_VELOCITY, characteristic_impedance, uncoupled_bundle
from xtcancel.eye import eye_measure
from xtcancel.fom import bundle_fom, code_table
from xtcancel.mtlsim import LinkSpec, Segment, build_link, run_transient
from xtcancel.stimulus import prbs
from xtcancel.termination import network_admittance, realize_network, reduce_network

UI = 62.5e-12  # 16 Gb/s


def _verdict(capsys, idx, desc, checks):
    """Print the per-criterion line, then fail with the broken check names."""
    failed = [name for name, ok in checks if not ok]
    with capsys.disabled():
        print("[ACCEPT %02d] %s %s" % (idx, desc, "FAIL" if failed else "PASS"))
    assert not failed, "criterion %d failed checks: %s" % (idx, failed)


def _eyes(report):
    return np.array([w.eye_v for w in report.per_wire])


def _run_eyes(link):
    engine = build_link(link)
    waves = run_transient(engine)
    return _eyes(eye_measure(waves, engine.streams, link.stimulus.data_rate))


_TWELVE_NETS = {}
_TWELVE_EYES = {}


def _twelve_network(key):
    if not _TWELVE_NETS:
        basis, _ = characteristic_impedance(twelve_wire_bundle())
        full = realize_network(basis.zc)
        _TWELVE_NETS.update({
            "50ohm": fifty_ohm_network(12),
            "full": full,
            "red1": reduce_network(full, 500.0, 1000.0),
            "red2": reduce_network(full, 300.0, 600.0),
        })
    return _TWELVE_NETS[key]


def _twelve_eyes(term_key, mode, ends_m=0.0):
    """Per-wire eyes for the twelve-wire link at R_s = 1.67 ohm, cached."""
    cache_key = (term_key, mode, ends_m)
    if cache_key not in _TWELVE_EYES:
        link = simple_link(twelve_wire_bundle(), _twelve_network(term_key),
                           rs_ohms=1.67, mode=mode)
        if ends_m > 0.0:
            breakout = uncoupled_bundle(n=12, z0=50.0, velocity=DEFAULT_VELOCITY,
                                        name="breakout")
            seg = Segment(bundle=breakout, length_m=ends_m)
            link = replace(link, segments=(seg,) + link.segments + (seg,))
        _TWELVE_EYES[cache_key] = _run_eyes(link)
    return _TWELVE_EYES[cache_key]


def test_accept_01_modal_impedance_identity(capsys):
    # Zc * C * Zc == L on 100 random bundles (2..12 wires), and the scalar
    # 50 ohm line reproduces its impedance to machine precision.
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(100):
        bundle = random_bundle(rng, 2 + k % 11)
        basis, _ = characteristic_impedance(bundle)
        err = (np.linalg.norm(basis.zc @ bundle.C @ basis.zc - bundle.L)
               / np.linalg.norm(bundle.L))
        worst = max(worst, err)
    basis, _ = characteristic_impedance(scalar_bundle())
    scalar_err = abs(basis.zc[0, 0] - 50.0) / 50.0
    vel_err = abs(basis.velocities[0] - 2.0e8) / 2.0e8
    _verdict(capsys, 1, "modal impedance identity on random bundles", [
        ("identity<=1e-9 (worst %.3g)" % worst, worst <= 1e-9),
        ("scalar 50 ohm to 1e-12", scalar_err <= 1e-12),
        ("scalar velocity to 1e-12", vel_err <= 1e-12),
    ])


def test_accept_02_pair_network_and_cancellation(capsys):
    # coupled pair: synthesized resistor values, steady source currents at
    # R_s = 0, and a quiet victim while the neighbor toggles
    basis, _ = characteristic_impedance(pair_bundle())
    net = realize_network(basis.zc)
    selfs = [el.ohms for el in net.elements if el.kind == "self"]
    cross = [el.ohms for el in net.elements if el.kind == "cross"]
    self_ok = all(abs(r - 1.0 / 0.012) <= 1e-3 * (1.0 / 0.012) for r in selfs)
    cross_ok = (len(cross) == 1
                and abs(cross[0] - 1.0 / 0.0065) <= 1e-3 * (1.0 / 0.0065))

    def settled_currents(streams):
        link = simple_link(pair_bundle(), net, rs_ohms=0.0, streams=streams)
        waves = run_transient(build_link(link))
        return waves.source_currents[:, -1]

    i_same = settled_currents(((1,) * 16, (1,) * 16))
    i_diff = settled_currents(((1,) * 16, (0,) * 16))
    same_ok = np.allclose(i_same, [6.0e-3, 6.0e-3], rtol=5e-3, atol=0)
    diff_ok = np.allclose(i_diff, [12.5e-3, -12.5e-3], rtol=5e-3, atol=0)

    link = simple_link(pair_bundle(), net, rs_ohms=0.0,
                       streams=(tuple([1, 0] * 8), (0,) * 16))
    waves = run_transient(build_link(link))
    victim_p2p = float(waves.volts[1].max() - waves.volts[1].min())
    _verdict(capsys, 2, "pair termination values and crosstalk cancellation", [
        ("self resistors 83.33 ohm (0.1%)", self_ok),
        ("bridge resistor 153.85 ohm (0.1%)", cross_ok),
        ("(1,1) currents +6/+6 mA (0.5%)", same_ok),
        ("(1,0) currents +12.5/-12.5 mA (0.5%)", diff_ok),
        ("victim p2p %.3g V < 1%% of swing" % victim_p2p, victim_p2p < 0.01),
    ])


def test_accept_03_reference_network_reduction(capsys):
    table = reference_termination()
    keep_all = reduce_network(table, 60000.0, 120000.0)
    red1 = reduce_network(table, 500.0, 1000.0)
    red2 = reduce_network(table, 300.0, 600.0)
    selfs = sorted((el for el in table.elements if el.kind == "self"),
                   key=lambda el: el.ohms)
    lowest = selfs[:4]
    edge_wires = sorted(el.i for el in lowest) == [1, 2, 11, 12]
    edge_vals = all(abs(el.ohms - 110.85) < 0.02 for el in lowest)
    _verdict(capsys, 3, "reference termination dataset and reduction counts", [
        ("dataset has 66 elements", len(table.elements) == 66),
        ("60k/120k ohm cut keeps all 66", len(keep_all.elements) == 66),
        ("500/1000 ohm cut keeps 33", len(red1.elements) == 33),
        ("300/600 ohm cut keeps 26", len(red2.elements) == 26),
        ("four lowest selfs sit on wires 1,2,11,12", edge_wires),
        ("lowest selfs within 0.02 of 110.85 ohm", edge_vals),
    ])


def test_accept_04_uncoupled_figures_of_merit(capsys):
    # six independent 50 ohm wires, 0/1 V logic about a 0.5 V rail
    y = np.diag([0.02] * 6)
    rep = bundle_fom(y, vref=0.5, levels=(0.0, 1.0))

    # independent brute force with plain python loops
    worst_bundle = 0.0
    sum_bundle = 0.0
    worst_wire = 0.0
    sum_power = 0.0
    for c in range(64):
        ii = []
        for k in range(6):
            v = 1.0 if (c >> k) & 1 else 0.0
            ii.append(0.02 * (v - 0.5))
        bundle_i = abs(sum(ii))  # net current drawn through the rail
        worst_bundle = max(worst_bundle, bundle_i)
        sum_bundle += bundle_i
        worst_wire = max(worst_wire, max(abs(i) for i in ii))
        for k in range(6):
            v = 1.0 if (c >> k) & 1 else 0.0
            sum_power += ii[k] * (v - 0.5)
    brute = (sum_bundle / 64, worst_bundle, worst_wire, sum_power / 64)

    def rel(a, b):
        return abs(a - b) / abs(b)

    _verdict(capsys, 4, "uncoupled six-wire switching figures of merit", [
        ("max bundle current 60 mA", rel(rep.max_bundle_current, 0.060) <= 1e-12),
        ("max wire current 10 mA", rel(rep.max_wire_current, 0.010) <= 1e-12),
        ("avg bundle current 18.75 mA", rel(rep.avg_bundle_current, 0.01875) <= 1e-12),
        ("avg power 30 mW", rel(rep.avg_power, 0.030) <= 1e-12),
        ("matches brute force to 1e-12", all(
            rel(got, want) <= 1e-12 for got, want in
            zip((rep.avg_bundle_current, rep.max_bundle_current,
                 rep.max_wire_current, rep.avg_power), brute))),
    ])


def test_accept_05_network_admittance_consistency(capsys):
    # figures of merit computed from the modal admittance must match the ones
    # computed from the realized resistor network, and every per-code current
    # row must sum to what the self conductances alone would supply
    checks = []
    for bundle in (pair_bundle(), six_wire_bundle(), twelve_wire_bundle()):
        basis, _ = characteristic_impedance(bundle)
        y_modal = basis.mi.T @ basis.mi
        y_net = network_admittance(realize_network(basis.zc))
        a = bundle_fom(y_modal, vref=0.5, levels=(0.0, 1.0))
        b = bundle_fom(y_net, vref=0.5, levels=(0.0, 1.0))
        pairs = ((a.avg_bundle_current, b.avg_bundle_current),
                 (a.max_bundle_current, b.max_bundle_current),
                 (a.max_wire_current, b.max_wire_current),
                 (a.avg_power, b.avg_power))
        ok = all(abs(x - y) <= 1e-9 * max(abs(x), abs(y)) for x, y in pairs)
        checks.append(("%s admittance routes agree to 1e-9" % bundle.name, ok))

        n = bundle.n
        table = code_table(y_modal, vref=0.5, levels=(0.0, 1.0))
        bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        expected = (bits - 0.5) @ y_modal.sum(axis=0)
        sum_err = float(np.max(np.abs(table.sum(axis=1) - expected)))
        checks.append(("%s per-code current sums exact" % bundle.name,
                       sum_err <= 1e-12))
    _verdict(capsys, 5, "modal vs realized admittance figures of merit", checks)


def test_accept_06_source_resistance_divider(capsys):
    # matched scalar line: the received amplitude follows Zc / (Zc + Rs)
    eyes = []
    for rs in (0.0, 1.67, 10.0, 25.0, 50.0):
        link = simple_link(scalar_bundle(), fifty_ohm_network(1), rs_ohms=rs)
        eyes.append(float(_run_eyes(link)[0]))
    want = [50.0 / (50.0 + rs) for rs in (0.0, 1.67, 10.0, 25.0, 50.0)]
    divider_ok = all(abs(e - w) <= 0.01 * w for e, w in zip(eyes, want))
    monotone = all(eyes[k + 1] < eyes[k] for k in range(4))
    _verdict(capsys, 6, "eye tracks the source-resistance divider", [
        ("eyes within 1%% of divider (%s)" % ", ".join("%.4f" % e for e in eyes),
         divider_ok),
        ("strictly decreasing with Rs", monotone),
    ])


def test_accept_07_twelve_wire_cancellation(capsys):
    # plain 50 ohm terminations collapse under worst-case switching; the
    # full cancelling network holds every eye open on any pattern
    plain = {m: _twelve_eyes("50ohm", m) for m in ("worst", "best", "random")}
    full = {m: _twelve_eyes("full", m) for m in ("worst", "best", "random")}
    closed = int(np.sum(plain["worst"] <= 1e-12))
    order_ok = (np.all(plain["best"] >= plain["random"] - 1e-9)
                and np.all(plain["random"] >= plain["worst"] - 1e-9))
    full_open = all(np.all(full[m] > 0.0) for m in full)
    stack = np.stack([full[m] for m in ("worst", "best", "random")])
    spread = float(np.max(stack.max(axis=0) - stack.min(axis=0)))
    _verdict(capsys, 7, "twelve-wire worst-case crosstalk cancellation", [
        ("50ohm-only worst pattern closes >=1 eye (%d closed)" % closed,
         closed >= 1),
        ("50ohm-only pattern order best>=random>=worst", order_ok),
        ("full network: all 12 eyes open on every pattern", full_open),
        ("full network worst-pattern min eye %.3f >= 0.9"
         % float(full["worst"].min()), float(full["worst"].min()) >= 0.9),
        ("full network pattern spread %.3f V < 0.05 V" % spread, spread < 0.05),
    ])


def test_accept_08_uncoupled_end_segments(capsys):
    # adding plain 50 ohm breakout at both ends degrades the worst eye
    e0 = float(_twelve_eyes("full", "worst", 0.0).min())
    e5 = float(_twelve_eyes("full", "worst", 0.0005).min())
    e10 = float(_twelve_eyes("full", "worst", 0.001).min())
    _verdict(capsys, 8, "breakout segments shrink the worst eye monotonically", [
        ("0.5 mm <= bare (%.3f <= %.3f)" % (e5, e0), e5 <= e0 + 1e-9),
        ("1.0 mm <= 0.5 mm (%.3f <= %.3f)" % (e10, e5), e10 <= e5 + 1e-9),
        ("eyes stay open at 1.0 mm", e10 > 0.0),
    ])


def test_accept_09_reduced_networks_stay_close(capsys):
    # dropping high-ohm resistors must not move any eye more than 25%
    full = _twelve_eyes("full", "random")
    checks = []
    for key, label in (("red1", "500/1000"), ("red2", "300/600")):
        red = _twelve_eyes(key, "random")
        dev = float(np.max(np.abs(red - full) / full))
        checks.append(("%s ohm cut within 25%% of full (max %.1f%%)"
                       % (label, 100 * dev), dev <= 0.25))
    _verdict(capsys, 9, "reduced networks track the full network", checks)


def test_accept_10_simulator_self_consistency(capsys):
    # (a) a held code settles onto the dc operating point
    net = realize_network(characteristic_impedance(pair_bundle())[0].zc)
    tail = 112
    s1 = tuple([1, 0, 1, 1, 0, 0, 1, 0] + [1] * tail)
    s2 = tuple([0, 1, 1, 0, 1, 0, 0, 1] + [0] * tail)
    engine = build_link(simple_link(pair_bundle(), net, rs_ohms=1.67,
                                    streams=(s1, s2)))
    assert tail * UI > 10 * engine.total_delay_s
    waves = run_transient(engine)
    node_volts, _ = engine.solve_dc([1.0, 0.0])
    t_star = engine.nominal_delay_s + (8 + tail - 0.5) * UI
    m = int(round((t_star - waves.start_time) / waves.dt))
    settle_err = float(np.max(np.abs(waves.volts[:, m] + waves.vref
                                     - node_volts)))

    # (b) a diagonal bundle equals independent scalar runs exactly
    rows = (tuple(np.random.default_rng(5).integers(0, 2, 32)),
            tuple(np.random.default_rng(6).integers(0, 2, 32)),
            tuple(np.random.default_rng(7).integers(0, 2, 32)))
    waves3 = run_transient(build_link(simple_link(
        uncoupled_bundle(3), fifty_ohm_network(3), rs_ohms=1.67, streams=rows)))
    eq_err = 0.0
    for k in range(3):
        waves1 = run_transient(build_link(simple_link(
            scalar_bundle(), fifty_ohm_network(1), rs_ohms=1.67,
            streams=(rows[k],))))
        eq_err = max(eq_err, float(np.max(np.abs(waves3.volts[k]
                                                 - waves1.volts[0]))))

    # (c) splitting a segment in half leaves the waveforms in place
    bits = tuple(np.random.default_rng(13).integers(0, 2, 16))
    kw = dict(rs_ohms=1.67, rise_s=50e-12, timestep_s=UI / 512,
              streams=(bits, bits[::-1]))
    one = simple_link(pair_bundle(), net, **kw)
    two = replace(one, segments=(Segment(bundle=pair_bundle(), length_m=0.0508),
                                 Segment(bundle=pair_bundle(), length_m=0.0508)))
    wa = run_transient(build_link(one))
    wb = run_transient(build_link(two))
    m = min(wa.volts.shape[1], wb.volts.shape[1])
    split_err = float(np.max(np.abs(wa.volts[:, :m] - wb.volts[:, :m])))

    # (d) with delays on the time grid the split is exact to solver precision
    dt = UI / 64
    length = DEFAULT_VELOCITY * (1200 * dt)
    cbits = tuple(np.random.default_rng(11).integers(0, 2, 24))
    onec = simple_link(pair_bundle(), net, rs_ohms=1.67, length_m=length,
                       streams=(cbits, cbits[::-1]))
    twoc = replace(onec, segments=(
        Segment(bundle=pair_bundle(), length_m=length / 2),
        Segment(bundle=pair_bundle(), length_m=length / 2)))
    wa = run_transient(build_link(onec))
    wb = run_transient(build_link(twoc))
    m = min(wa.volts.shape[1], wb.volts.shape[1])
    commensurate_err = float(np.max(np.abs(wa.volts[:, :m] - wb.volts[:, :m])))

    _verdict(capsys, 10, "transient solver self-consistency", [
        ("held code settles to dc (err %.2g <= 1e-3)" % settle_err,
         settle_err <= 1e-3),
        ("uncoupled bundle == scalar runs (err %.2g <= 1e-12)" % eq_err,
         eq_err <= 1e-12),
        ("half-segment split error %.2g < 1e-3" % split_err, split_err < 1e-3),
        ("commensurate split error %.2g < 1e-9" % commensurate_err,
         commensurate_err < 1e-9),
    ])


def test_accept_11_prbs7_properties(capsys):
    s = prbs(7)
    bipolar = 2 * np.asarray(s, dtype=int) - 1
    autocorr_ok = all(int(bipolar @ np.roll(bipolar, lag)) == -1
                      for lag in range(1, 127))
    _verdict(capsys, 11, "PRBS7 sequence properties", [
        ("period 127", len(s) == 127),
        ("64 ones / 63 zeros", int(np.sum(s)) == 64),
        ("autocorrelation -1 at every nonzero lag", autocorr_ok),
    ])
