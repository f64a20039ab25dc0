"""PRBS generation, per-wire pattern assignment, and driver waveforms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Feedback tap sets giving maximal-length sequences for a Fibonacci LFSR
# (taps XORed into the new low bit, output taken from the high bit).
_MAXIMAL_TAPS = {
    3: (3, 2), 4: (4, 3), 5: (5, 3), 6: (6, 5), 7: (7, 6),
    8: (8, 6, 5, 4), 9: (9, 5), 10: (10, 7), 11: (11, 9),
    12: (12, 6, 4, 1), 13: (13, 4, 3, 1), 14: (14, 5, 3, 1),
    15: (15, 14), 16: (16, 15, 13, 4), 17: (17, 14), 18: (18, 11),
    19: (19, 6, 2, 1), 20: (20, 17), 21: (21, 19), 22: (22, 21),
    23: (23, 18), 24: (24, 23, 22, 17), 25: (25, 22), 26: (26, 6, 2, 1),
    27: (27, 5, 2, 1), 28: (28, 25), 29: (29, 27), 30: (30, 6, 4, 1),
    31: (31, 28),
}

PATTERN_MODES = ("worst", "best", "random")

# Deterministic decorrelation stride for the "random" pattern mode: wire k
# starts k*17 bits into the period, which is distinct for every wire of any
# practical bus width against the prime periods involved.
_RANDOM_STRIDE = 17


def _prbs_period(order):
    if order not in _MAXIMAL_TAPS:
        raise ValidationError("prbs order must be in [3, 31], got %r" % (order,))
    return (1 << order) - 1


def prbs(order=7, seed=None):
    """One period of a maximal-length PRBS as a uint8 array.

    Args:
        order: register length in [3, 31]; the period is 2^order - 1.
        seed: initial register state in [1, 2^order - 1]; defaults to all
            ones.  Any nonzero seed yields the same cyclic sequence rotated.
    """
    mask = _prbs_period(order)
    if seed is None:
        seed = mask
    seed = int(seed)
    if not 1 <= seed <= mask:
        raise ValidationError("prbs seed must be in [1, %d], got %r" % (mask, seed))
    tap_mask = 0
    for t in _MAXIMAL_TAPS[order]:
        tap_mask |= 1 << (t - 1)
    period = mask
    out = np.empty(period, dtype=np.uint8)
    state = seed
    for m in range(period):
        out[m] = (state >> (order - 1)) & 1
        fb = (state & tap_mask).bit_count() & 1
        state = ((state << 1) & mask) | fb
    return out


@dataclass(frozen=True)
class StimulusSpec:
    """How each wire of the bus is driven.

    mode picks the default per-wire arrangement of one shared PRBS:
      worst  -- every wire carries the same stream (pseudo-even excitation)
      best   -- streams alternate inverted/non-inverted by wire index
                (pseudo-odd excitation)
      random -- wire k starts 17*k bits into the period (decorrelated)
    invert_mask / offsets override the mode defaults wire-by-wire, and
    streams replaces PRBS generation entirely with explicit bit rows.
    """

    data_rate: float               # bit/s
    prbs_order: int = 7
    seed: int | None = None        # LFSR initial state; None -> all ones
    mode: str = "random"
    invert_mask: tuple[int, ...] | None = None
    offsets: tuple[int, ...] | None = None
    streams: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if not self.data_rate > 0.0:
            raise ValidationError("data rate must be positive, got %r" % (self.data_rate,))
        if self.mode not in PATTERN_MODES:
            raise ValidationError("unknown stimulus mode %r (expected one of %s)"
                                  % (self.mode, "/".join(PATTERN_MODES)))

    @property
    def unit_interval(self):
        return 1.0 / self.data_rate


def stream_period(spec):
    """Bits in one period of spec's streams, found without generating them."""
    if spec.streams is not None:
        return len(spec.streams[0]) if spec.streams else 0
    return _prbs_period(spec.prbs_order)


def pattern_assign(spec, n):
    """Per-wire bit streams for an n-wire bus, shape (n, period), uint8."""
    if n < 1:
        raise ValidationError("need at least one wire")
    if spec.streams is not None:
        rows = [np.asarray(row, dtype=np.uint8) for row in spec.streams]
        if len(rows) != n:
            raise ValidationError("explicit streams cover %d wires, bus has %d" % (len(rows), n))
        period = rows[0].size
        if period < 1 or any(r.size != period for r in rows):
            raise ValidationError("explicit streams must share one nonzero period")
        streams = np.stack(rows)
        if not np.isin(streams, (0, 1)).all():
            raise ValidationError("explicit streams must be 0/1 bits")
        return streams

    base = prbs(spec.prbs_order, spec.seed)
    period = base.size
    if spec.mode == "worst":
        offsets = [0] * n
        inverts = [0] * n
    elif spec.mode == "best":
        offsets = [0] * n
        inverts = [k % 2 for k in range(n)]
    else:
        offsets = [(k * _RANDOM_STRIDE) % period for k in range(n)]
        inverts = [0] * n
    if spec.offsets is not None:
        if len(spec.offsets) != n:
            raise ValidationError("offsets cover %d wires, bus has %d" % (len(spec.offsets), n))
        offsets = [int(o) % period for o in spec.offsets]
    if spec.invert_mask is not None:
        if len(spec.invert_mask) != n:
            raise ValidationError("invert mask covers %d wires, bus has %d"
                                  % (len(spec.invert_mask), n))
        inverts = [1 if b else 0 for b in spec.invert_mask]
    streams = np.empty((n, period), dtype=np.uint8)
    for k in range(n):
        row = np.roll(base, -offsets[k])
        streams[k] = (1 - row) if inverts[k] else row
    return streams


@dataclass(frozen=True)
class SourceWaveform:
    """Trapezoidal NRZ drive: linear ramps of rise_time centered on bit edges.

    The stream is replayed cyclically.  Before t=0 the source rests at v_low,
    so a leading 1 bit ramps up through the t=0 boundary.  At every steady bit
    center the value equals that bit's level exactly.
    """

    bits: tuple[int, ...]
    data_rate: float
    rise_time: float
    v_low: float = 0.0
    v_high: float = 1.0

    def __post_init__(self):
        ui = 1.0 / self.data_rate
        if not 0.0 < self.rise_time < ui:
            raise ValidationError("rise time %g s must be inside (0, bit period %g s)"
                                  % (self.rise_time, ui))
        if not self.bits:
            raise ValidationError("waveform needs at least one bit")

    def at(self, t):
        """Evaluate the waveform at time(s) t (seconds)."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        ui = 1.0 / self.data_rate
        half = 0.5 * self.rise_time
        swing = self.v_high - self.v_low
        bits = np.asarray(self.bits, dtype=float)
        period = bits.size

        m = np.floor(t / ui).astype(np.int64)
        t_in = t - m * ui
        cur = bits[np.mod(m, period)]
        # Before the stream starts the line idles at v_low ("bit 0").
        prev = np.where(m <= 0, 0.0, bits[np.mod(m - 1, period)])
        nxt = bits[np.mod(m + 1, period)]

        v = self.v_low + cur * swing
        early = t_in < half
        if early.any():
            frac = (t_in + half) / self.rise_time
            ramp = self.v_low + (prev + (cur - prev) * frac) * swing
            v = np.where(early, ramp, v)
        late = t_in > ui - half
        if late.any():
            frac = (t_in - (ui - half)) / self.rise_time
            ramp = self.v_low + (cur + (nxt - cur) * frac) * swing
            v = np.where(late, ramp, v)
        v = np.where(t < 0.0, self.v_low, v)
        return float(v[0]) if scalar else v


def source_waveform(bits, data_rate, rise_time, levels=(0.0, 1.0)):
    """Build a SourceWaveform from a bit sequence."""
    bits = tuple(int(b) for b in np.asarray(bits).ravel())
    if any(b not in (0, 1) for b in bits):
        raise ValidationError("bits must be 0/1")
    return SourceWaveform(bits=bits, data_rate=float(data_rate), rise_time=float(rise_time),
                          v_low=float(levels[0]), v_high=float(levels[1]))
