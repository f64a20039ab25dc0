"""A seeded generator of random valid links, for the identities that hold on
every link (tests/test_physics.py).

links(seed, count) draws every case from numpy's default_rng(seed) alone, so
a seed names the same links on every machine.  A case is one link:

- n from 1 to 8 wires;
- a banded M-matrix admittance at a random velocity, every mode at that
  velocity, or a microstrip bundle (designs.microstrip_bundle) whose modes
  travel at different speeds;
- the bundle's realized network, in 30 % of cases pruned of its bridges
  above their median ohms (every self resistor kept, so no wire floats);
- a driver resistance per wire from {0, 1.67, 50} ohm;
- 64, 80 or 100 steps a UI at 4-16 Gb/s, over 1-15 cm;
- in 40 % of cases, uncoupled breakouts of 0.3-3 mm and 30-80 ohm at both
  ends, never shorter than 1.05 timesteps of flight, so no case is refused
  for a step longer than a modal delay;
- PRBS5 in random mode, with a random LFSR seed.

Every link has a whole number of steps a UI, so the DFT-bin oracle of
tests/steady_state.py applies to each.

The checks a link is held to are here too, for the tests and for
scripts/physics_sweep.py: identity_failures, matched_error, sim_output and
settle_gap.
"""

from dataclasses import dataclass, replace
from unittest import mock

import numpy as np

from designs import microstrip_bundle, simple_link
from steady_state import periodic_steady_state, power_balance
from xtcancel import cli, eye, mtlsim
from xtcancel.bundle import (DEFAULT_VELOCITY, characteristic_impedance, lc_from_impedance,
                             uncoupled_bundle)
from xtcancel.eye import eye_measure
from xtcancel.mtlsim import Segment, build_link, run_transient
from xtcancel.termination import realize_network, reduce_network

DRIVER_OHMS = (0.0, 1.67, 50.0)
STEPS_PER_UI = (64, 80, 100)


@dataclass(frozen=True)
class Case:
    name: str  # what was drawn, for a failure message
    spec: object  # the LinkSpec
    matched: bool  # a full network at the end of the one segment


def banded_bundle(rng, n):
    """(bundle, description): a banded M-matrix admittance, 30-80 ohm to
    ground a wire and bridges of up to 30 % of that out to 1-3 neighbours,
    decaying with distance, as a homogeneous bundle at 1.2e8-2.5e8 m/s."""
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    ground = 1.0 / rng.uniform(30.0, 80.0, n)
    mutual = np.where((gap >= 1) & (gap <= rng.integers(1, 4)),
                      rng.uniform(0.0, 0.3, (n, n)) * np.sqrt(np.outer(ground, ground))
                      / np.maximum(gap, 1), 0.0)
    mutual = np.triu(mutual) + np.triu(mutual, 1).T
    y = np.diag(ground + mutual.sum(axis=1)) - mutual
    velocity = rng.uniform(1.2e8, 2.5e8)
    bundle = lc_from_impedance(np.linalg.inv(y), velocity, name="banded")
    return bundle, "banded %.3g m/s" % velocity


def links(seed, count):
    """count Cases drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(1, 9))
        if rng.random() < 0.5:
            bundle, what = banded_bundle(rng, n)
        else:
            es, em = rng.uniform(2.5, 4.5), rng.uniform(1.5, 3.5)
            bundle, what = microstrip_bundle(es, em, n=n), "microstrip %.2f/%.2f" % (es, em)
        net = realize_network(characteristic_impedance(bundle)[0].zc)
        pruned = n > 1 and rng.random() < 0.3
        if pruned:
            selfs = [el.ohms for el in net.elements if el.kind == "self"]
            cross = [el.ohms for el in net.elements if el.kind != "self"]
            net = reduce_network(net, max(selfs), float(np.median(cross)))
        rs = tuple(float(r) for r in rng.choice(DRIVER_OHMS, n))
        steps_per_ui = int(rng.choice(STEPS_PER_UI))
        rate = rng.uniform(4e9, 16e9)
        dt = 1.0 / rate / steps_per_ui
        length = rng.uniform(0.01, 0.15)
        spec = simple_link(bundle, net, length_m=length, data_rate=rate, rs_ohms=rs,
                           mode="random", seed=int(rng.integers(1, 32)), prbs_order=5,
                           timestep_s=dt)
        name = "case %d: n=%d %s%s, rs %s, %d steps/UI, %.3g Gb/s, %.3g cm" % (
            k, n, what, ", pruned" if pruned else "", rs, steps_per_ui, rate / 1e9, 100 * length)
        if rng.random() < 0.4:
            short = max(3e-4, 1.05 * DEFAULT_VELOCITY * dt)
            breakout_m, z0 = rng.uniform(short, 3e-3), rng.uniform(30.0, 80.0)
            end = Segment(bundle=uncoupled_bundle(n, z0=z0, velocity=DEFAULT_VELOCITY),
                          length_m=breakout_m)
            spec = replace(spec, segments=(end,) + spec.segments + (end,))
            name += ", %.2f mm %.0f ohm breakouts" % (1e3 * breakout_m, z0)
        out.append(Case(name=name, spec=spec, matched=len(spec.segments) == 1 and not pruned))
    return out


def _eyes(report):
    return [(w.eye_v, w.phase_ui) for w in report.per_wire]


def identity_failures(case):
    """What case's link breaks, as messages: run_transient bit-identical
    with windows of one pad and of _WINDOW_STEPS, eye_measure identical
    with one offset a chunk and with _SCAN_CELLS, the settled period's power
    balanced within 1e-12 relative, and a run held at its t=0 drive within
    1e-12 V of the DC state (a source current counted at 50 ohm)."""
    engine = build_link(case.spec)
    rate = case.spec.stimulus.data_rate
    waves = run_transient(engine)
    report = eye_measure(waves, engine.streams, rate)
    out = []
    with mock.patch.object(mtlsim, "_WINDOW_STEPS", 1):  # windows of one pad
        one = run_transient(engine)
    with mock.patch.object(eye, "_SCAN_CELLS", 1):  # one offset a chunk
        scanned = eye_measure(waves, engine.streams, rate)
    if not (np.array_equal(waves.volts, one.volts)
            and np.array_equal(waves.source_currents, one.source_currents)):
        out.append("windows of one pad step other bits")
    if _eyes(scanned) != _eyes(report):
        out.append("one offset a chunk scans other eyes")
    power_in, power_out, loss = power_balance(engine)
    if not abs(power_in - power_out - loss) <= 1e-12 * power_in:
        out.append("power in %r, out %r, delay loss %r" % (power_in, power_out, loss))
    # Held at its t=0 level the drive never moves the link from where the
    # run starts, so a run that starts at the DC state stays there.
    level = engine.drive(np.zeros(1))[0]
    engine.drive = lambda t: np.broadcast_to(level, (len(t), engine.n))
    held = run_transient(engine)
    v_dc, i_dc = engine.solve_dc(level)
    off = max(np.abs(held.volts - (v_dc - engine.vref)[:, None]).max(),
              np.abs(held.source_currents - i_dc[:, None]).max() * 50.0)
    if not off <= 1e-12:
        out.append("held at the t=0 drive, the run leaves its DC state by %r V" % off)
    return ["%s: %s" % (case.name, what) for what in out]


def matched_error(case):
    """(error, bound), per wire, of a matched case's run against the exact
    modal delays.  With its full network at the end of its one segment the
    link absorbs every wave, so the driver node holds
    v - vref = (I + Rs Yc)^-1 (e - vref), Rs the driver resistances, and
    mode k reaches the receiver exactly tau_k later: v_rx - vref =
    Mv x(t - tau) with x = Mi (I + Rs Yc)^-1 (e - vref).  The stepper reads
    each delay by linear interpolation between steps, which misses by at
    most s dt f (1 - f) where the drive's slope changes by s inside a step
    (f the delay's fraction of a step): the bound of
    tests/test_mtlsim.py's matched fixture links, with Rs per wire."""
    assert case.matched, "%s is not matched" % case.name
    engine = build_link(case.spec)
    waves = run_transient(engine)
    seg, d = engine.segments[0], case.spec.drivers
    assert engine.dt < d.rise_s  # one ramp corner at most inside a step
    rs = np.diag(d.rs_ohms)
    modal = seg.mi @ np.linalg.inv(np.eye(engine.n) + rs @ seg.yc)
    t = waves.times()
    x = np.array([(engine.drive(t - tau) - engine.vref) @ row for tau, row in zip(seg.tau, modal)])
    error = np.abs(waves.volts - seg.mvt.T @ x).max(axis=1)
    s = (d.v_high - d.v_low) / d.rise_s * (np.abs(seg.mvt.T) @ np.abs(modal).sum(axis=1))
    return error, s * engine.dt * np.max(seg.frac * (1.0 - seg.frac))


def sim_output(case, path):
    """The bytes `xtcancel sim` writes to path for case's link, on the CPUs
    os.sched_getaffinity gives."""
    with mock.patch.object(cli, "load_link", lambda link: case.spec):
        assert cli.main(["sim", "--link", case.name, "-o", str(path)]) == 0
    with open(path, "rb") as fh:
        return fh.read()


def settle_gap(case):
    """The largest distance, in volts, of the run's kept samples from the
    settled period of the DFT-bin oracle (tests/steady_state.py): how far
    the fixed warmup leaves the link from its periodic steady state."""
    engine = build_link(case.spec)
    volts = run_transient(engine).volts
    settled, _, _ = periodic_steady_state(engine)
    kept = np.arange(volts.shape[1]) % settled.shape[1]
    return float(np.max(np.abs(volts - settled[:, kept])))
