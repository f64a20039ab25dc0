"""PRBS generation, per-wire pattern assignment, and the drive of every wire."""

from __future__ import annotations

import math
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
    # Bit k of the output is the XOR of bits k - t over the taps t, and, since
    # p(x)^(2^j) = p(x^(2^j)) over GF(2), also of bits k - t*2^j.  So once
    # order*2^j bits exist, the next min(taps)*2^j follow from them at once.
    taps = _MAXIMAL_TAPS[order]
    out = np.empty(mask, dtype=np.uint8)
    out[:order] = [(seed >> (order - 1 - i)) & 1 for i in range(order)]
    done = order
    while done < mask:
        scale = 1 << ((done // order).bit_length() - 1)  # largest 2^j with order*2^j <= done
        block = out[done:done + min(taps) * scale]
        np.copyto(block, out[done - taps[0] * scale:][:block.size])
        for t in taps[1:]:
            block ^= out[done - t * scale:][:block.size]
        done += block.size
    return out


@dataclass(frozen=True)
class StimulusSpec:
    """How each wire of the bus is driven.

    mode picks the per-wire arrangement of one shared PRBS:
      worst  -- every wire carries the same stream (pseudo-even excitation)
      best   -- streams alternate inverted/non-inverted by wire index
                (pseudo-odd excitation)
      random -- wire k starts 17*k bits into the period (decorrelated)
    Every other arrangement is spelled as streams: explicit bit rows that
    replace PRBS generation entirely, so they refuse a seed.
    """

    data_rate: float               # bit/s
    prbs_order: int = 7
    seed: int | None = None        # LFSR initial state; None -> all ones
    mode: str = "random"
    streams: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if not (self.data_rate > 0.0 and math.isfinite(self.data_rate)):
            raise ValidationError("data rate must be finite and positive, got %r"
                                  % (self.data_rate,))
        if self.mode not in PATTERN_MODES:
            raise ValidationError("unknown stimulus mode %r (expected one of %s)"
                                  % (self.mode, "/".join(PATTERN_MODES)))
        if self.streams is not None and self.seed is not None:
            raise ValidationError("explicit streams replace the PRBS; drop seed")

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
        if len(spec.streams) != n:
            raise ValidationError("explicit streams cover %d wires, bus has %d"
                                  % (len(spec.streams), n))
        try:
            streams = np.array(spec.streams)
        except ValueError:  # ragged rows
            streams = np.empty((n, 0))
        if streams.ndim != 2 or streams.shape[1] < 1:
            raise ValidationError("explicit streams must share one nonzero period")
        if not np.isin(streams, (0, 1)).all():
            raise ValidationError("explicit streams must be 0/1 bits")
        return streams.astype(np.uint8)

    base = prbs(spec.prbs_order, spec.seed)
    period = base.size
    wires = np.arange(n)
    offsets = wires * _RANDOM_STRIDE if spec.mode == "random" else np.zeros(n, np.int64)
    inverts = wires % 2 == 1 if spec.mode == "best" else np.zeros(n, bool)
    # Row k is the base rotated left by offsets[k]: np.roll(base, -offsets[k]).
    at = (offsets[:, None] + np.arange(period)) % period
    return base[at] ^ inverts[:, None]


def drive_levels(streams, t, data_rate, rise_s, v_low, v_high):
    """Trapezoidal NRZ drive of every wire at times t, shape (len(t), n).

    Each row of streams is replayed cyclically, with linear ramps of rise_s
    centered on the bit edges.  Before t=0 a wire rests at v_low, so a leading
    1 bit ramps up through the t=0 boundary.  At every steady bit center the
    value equals that bit's level exactly.
    """
    bits = np.asarray(streams, dtype=float).T  # (period, n)
    period = bits.shape[0]
    t = np.asarray(t, dtype=float)
    ui = 1.0 / data_rate
    half = 0.5 * rise_s
    swing = v_high - v_low

    m = np.floor(t / ui).astype(np.int64)
    t_in = t - m * ui
    v = bits[np.mod(m, period)]  # the current bits, scaled to volts at the end
    # Ramps from the previous bit (a 0 before the stream starts) and to the
    # next bit: a ramp from a to b is a + (b - a) f, built in b's array.
    early, late = t_in < half, t_in > ui - half
    me = m[early]
    prev = np.where((me <= 0)[:, None], 0.0, bits[np.mod(me - 1, period)])
    for rows, a, b, shift in ((early, prev, v[early], half),
                              (late, v[late], bits[np.mod(m[late] + 1, period)], half - ui)):
        b -= a
        b *= ((t_in[rows] + shift) / rise_s)[:, None]
        b += a
        v[rows] = b
    v *= swing
    v += v_low
    v[t < 0.0] = v_low
    return v
