"""Seeded random links (tests/physics.py) held to what holds on every valid
link: the stepper's and the eye scan's working-set sizes change no bit, the
settled period balances power exactly, and a run starts at the DC state."""

import numpy as np

import physics
from steady_state import power_balance
from xtcancel import eye, mtlsim
from xtcancel.eye import eye_measure
from xtcancel.mtlsim import build_link, run_transient


def _eyes(report):
    return [(w.eye_v, w.phase_ui) for w in report.per_wire]


def _failures(case, monkeypatch):
    """What case's link breaks, as messages."""
    engine = build_link(case.spec)
    rate = case.spec.stimulus.data_rate
    waves = run_transient(engine)
    report = eye_measure(waves, engine.streams, rate)
    out = []
    with monkeypatch.context() as m:
        m.setattr(mtlsim, "_WINDOW_STEPS", 1)  # windows of one pad
        one = run_transient(engine)
        m.setattr(eye, "_SCAN_CELLS", 1)  # one offset a chunk
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


def test_random_links_hold_the_exact_identities(monkeypatch):
    """150 links of seed 5, a few seconds: run_transient bit-identical with
    windows of one pad and of _WINDOW_STEPS, eye_measure identical with one
    offset a chunk and with _SCAN_CELLS, the settled period's power balanced
    within 1e-12 relative, and a run held at its t=0 drive within 1e-12 V
    of the DC state (a source current counted at 50 ohm)."""
    cases = physics.links(5, 150)
    assert {c.spec.termination.n for c in cases} == set(range(1, 9))
    assert sum(len(c.spec.segments) == 3 for c in cases) > 40  # with breakouts
    failed = [line for case in cases for line in _failures(case, monkeypatch)]
    assert not failed, "\n".join(failed)
