"""The periodic steady state of the stepper's own discretization, solved one
DFT bin at a time with no warmup: an oracle for what run_transient settles to.

The stepper is a linear time-invariant discrete system.  With y[m] the row of
outgoing waves written at step m, the incident wave of history column c reads
the other end of its mode through d_c(z) = (1 - f_c) z^-i0_c + f_c z^-(i0_c+1),
and one step is y = M_e[:w] e + M_s[:w] s, with M_e and M_s the step map of
Engine._step_columns on identity columns and s the drive with a constant 1.
Over one period of N steps every bin z of the rfft therefore solves

    (I - M_e[:w] D(z) P) Y = M_s[:w] S(z),

P sending each column to the other end of its mode; the receiver volts and
source currents are M_e[w:] D(z) P Y + M_s[w:] S(z), back through the irfft,
as is Y itself, the settled outgoing waves.
"""

import numpy as np

_BINS = 256  # bins solved at once: (256, w, w) complex systems


def periodic_steady_state(engine):
    """(volts, source currents, waves): the settled receiver volts and source
    currents, each (n, N), and history rows, (N, w), at steps start_index ..
    start_index + N - 1, N the steps of one stream period.  Needs a whole
    number of steps a unit interval."""
    steps_per_ui = engine.ui / engine.dt
    assert abs(steps_per_ui - round(steps_per_ui)) < 1e-9, "no whole number of steps a UI"
    n, w = engine.n, engine.width
    period = round(steps_per_ui) * engine.streams.shape[1]
    cols = np.eye(w + n + 1)
    step = engine._step_columns(cols[:w], cols[w:w + n], cols[w + n])
    m_e, m_s = step[:, :w], step[:, w:]
    i0, frac = engine.i0, engine.frac
    other_end = np.where(np.arange(w) // n % 2 == 0, np.arange(w) + n, np.arange(w) - n)
    m_p = m_e[:w, other_end]  # M_e[:w] P: column c reads the other end of its mode
    diag = np.arange(w)

    src = engine.drive(engine.dt * (engine.start_index + np.arange(period)))
    s = np.fft.rfft(np.column_stack([src, np.ones(period)]), axis=0)  # (bins, n + 1)
    z_inv = np.exp(-2j * np.pi * np.arange(s.shape[0]) / period)[:, None]
    out = np.empty((s.shape[0], 2 * n), dtype=complex)
    waves = np.empty((s.shape[0], w), dtype=complex)
    for k in range(0, s.shape[0], _BINS):
        zk = z_inv[k:k + _BINS]
        delay = (1.0 - frac) * zk ** i0 + frac * zk ** (i0 + 1)  # (bins, w): d_c(z)
        # I - M_e[:w] D(z) P, built in place: column c of M_e[:w] D(z) lands
        # on column other_end(c).
        a = m_p * -delay[:, None, other_end]
        a[:, diag, diag] += 1.0
        rhs = s[k:k + _BINS] @ m_s[:w].T
        y = waves[k:k + _BINS] = np.linalg.solve(a, rhs[..., None])[..., 0]
        incident = delay * y[:, other_end]
        out[k:k + _BINS] = incident @ m_e[w:].T + s[k:k + _BINS] @ m_s[w:].T
    settled = np.fft.irfft(out, n=period, axis=0).T
    return settled[:n], settled[n:], np.fft.irfft(waves, n=period, axis=0)


def power_balance(engine):
    """(power in, power out, delay loss), each summed over one settled
    period of engine's link (periodic_steady_state).  Power in is what the
    drivers deliver, (e - Rs i) i; power out is what the termination and its
    rail take in at the receiver.  The loss is the energy the interpolated
    delays drop: E = (1 - f) w[t - i0] + f w[t - i0 - 1] gives
    sum E^2 = sum w^2 - f (1 - f) sum (w[t] - w[t - 1])^2 over a period, and
    a modal end takes in (w^2 - E^2) / 4.  Every node system conserves
    power, so power in = power out + loss exactly, to roundoff."""
    volts, currents, waves = periodic_steady_state(engine)
    drive = engine.drive(engine.dt * (engine.start_index + np.arange(waves.shape[0]))).T
    rs = np.asarray(engine.spec.drivers.rs_ohms)[:, None]
    power_in = np.sum((drive - rs * currents) * currents)
    v = volts + engine.vref  # the absolute receiver volts
    power_out = np.sum(v * (engine.y_net @ v - engine.svec[:, None] * engine.vref))
    dw = waves - np.roll(waves, 1, axis=0)  # cyclic: the period repeats
    loss = np.sum(engine.frac * (1.0 - engine.frac) * np.sum(dw * dw, axis=0)) / 4.0
    return power_in, power_out, loss
