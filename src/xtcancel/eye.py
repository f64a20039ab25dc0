"""Vertical eye measurement and eye-diagram rendering.

The eye is measured per wire directly from sampled receiver waveforms: for a
grid of candidate sampling offsets spanning one unit interval around the
link latency, every bit of the stream is sampled at its nominal center plus
the offset, samples are split by the transmitted bit, and the vertical eye
is min(one samples) - max(zero samples), clamped at zero.  Each wire keeps
the offset that maximizes its eye (the earliest one, among offsets whose eyes
agree within 1e-12 V).  No interpolation: a sample is the waveform point
nearest the requested time, which is conservative by at most half a timestep
of edge position.

The offsets are scanned in one pass over (wire, offset, bit) arrays, a chunk
of offsets at a time.  Each offset masks the bits outside its own range, so
its eyes are the min and max over the same samples as a scan of that offset
alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateStreamError, ValidationError
from .textio import formatted, two_decimals, write_csv_blocks, write_json, write_texts

EYE_SCHEMA_VERSION = 1

# Offsets whose eyes agree within this are a tie, broken by the earliest
# offset: eyes are flat over most of a clean UI, so a strict argmax would let
# last-digit roundoff move the reported phase by a large part of a UI.
_PHASE_TIE_V = 1e-12

# Wire-offset-bit cells the offset scan holds at once.  Every offset of a
# PRBS7 twelve-wire link fits in one chunk; a longer stream is scanned a
# chunk of offsets at a time (4 chunks at PRBS9), so its temporaries (about
# 17 B a cell) stay near 2.2 MB whatever its length.
_SCAN_CELLS = 1 << 17

# Bytes a sample costs each writer at its peak: traced at up to 86.5 and 136
# on link-twelve at PRBS7-11, plus 15 and 18 %.  The SVG holds every sample's
# x digits (a byte matrix) and one wire's y digits, records and polylines,
# with the floats they are computed from; the folded CSV holds every
# sample's phase text and the floats behind it.  A forked worker of the
# writer (textio.on_cpus) holds up to as much: its own result, and the pages
# of the shared phase texts it copies by touching their reference counts (it
# only reads the x digits, which copies none).  eye_bytes counts one
# process; on_cpus forks only the workers whose figures fit the budget
# beside the volts.
_SVG_SAMPLE_BYTES = 100
_FOLDED_SAMPLE_BYTES = 160

_SVG_SIZE = (860, 460)  # width, height in px
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
            "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78")


class WireEye:
    """Vertical eye for one wire at its best sampling phase."""

    def __init__(self, wire, eye_v, phase_ui):
        self.wire = wire
        self.eye_v = eye_v
        self.phase_ui = phase_ui

    def to_dict(self):
        return {"wire": self.wire, "eye_v": self.eye_v, "phase_ui": self.phase_ui}


class EyeReport:
    def __init__(self, per_wire, data_rate):
        self.per_wire = tuple(per_wire)
        self.data_rate = data_rate
        eyes = [w.eye_v for w in self.per_wire]
        self.min_v = min(eyes)
        self.avg_v = sum(eyes) / len(eyes)
        self.max_v = max(eyes)

    def to_dict(self):
        return {
            "data_rate_hz": self.data_rate,
            "per_wire": [w.to_dict() for w in self.per_wire],
            "min_v": self.min_v,
            "avg_v": self.avg_v,
            "max_v": self.max_v,
        }


def check_streams(streams):
    """streams as a 2-d array; a flat row, a wire with no eye, is refused."""
    streams = np.asarray(streams)
    if streams.ndim != 2:
        raise ValidationError("streams must be a 2-d bit array")
    flat = streams.min(axis=1) == streams.max(axis=1)
    if flat.any():
        raise DegenerateStreamError(int(flat.argmax()) + 1)
    return streams


def eye_measure(waves, streams, data_rate):
    """Measure the vertical eye of every wire.

    streams holds the transmitted bit pattern (one row per wire, one shared
    period); waves.volts must already be relative to the slicer reference.
    The sampling-offset search is centered on the link's nominal flight time
    carried on the waveforms.
    """
    streams = check_streams(streams)
    n, samples = waves.volts.shape
    if streams.shape[0] != n:
        raise ValidationError("streams cover %d wires, waveforms %d" % (streams.shape[0], n))
    ui = 1.0 / float(data_rate)
    period = streams.shape[1]
    span = (samples - 1) * waves.dt
    if span < (period + 1) * ui:
        raise ValidationError(
            "waveform span %g s is too short to sample a %d-bit period at %g b/s"
            % (span, period, data_rate))
    # A NaN or inf would make every eye of its wire nan; min and max, which
    # the span check leaves two samples or more, find one without a
    # temporary the size of volts.
    finite = np.isfinite(waves.volts.min(axis=1)) & np.isfinite(waves.volts.max(axis=1))
    if not finite.all():
        w = int(np.argmin(finite))
        m = int(np.argmin(np.isfinite(waves.volts[w])))
        raise ValidationError("wire %d's waveform is not finite at sample %d: %r V"
                              % (w + 1, m, float(waves.volts[w, m])))

    t0 = waves.start_time
    t_last = t0 + span
    k_cand = max(int(round(ui / waves.dt)), 1)
    offsets = waves.nominal_delay_s - 0.5 * ui + waves.dt * np.arange(k_cand)
    # Each offset's first and last bit sampled on the waveform: whatever the
    # offset, the span's period + 1 UI hold a full period of them after both
    # bounds' rounding, so every wire's ones and zeros, each indexed in range.
    b_lo = np.ceil((t0 - offsets) / ui - 0.5).astype(np.int64)
    b_hi = np.floor((t_last - offsets) / ui - 0.5).astype(np.int64)
    eyes = np.empty((k_cand, n))  # eyes[k, w]: wire w's eye at offset k
    # Every bit of some offset; each offset masks the bits outside its own range.
    bits = np.arange(b_lo.min(), b_hi.max() + 1)
    labels = streams[:, bits % period][:, None]  # (wire, 1, bit)
    ones, zeros = labels == 1, labels == 0
    centers = (bits + 0.5) * ui
    chunk = max(1, _SCAN_CELLS // (n * bits.size))
    for k in range(0, k_cand, chunk):
        ks = slice(k, k + chunk)
        idx = np.round((offsets[ks, None] + centers - t0) / waves.dt).astype(np.int64)
        keep = (bits >= b_lo[ks, None]) & (bits <= b_hi[ks, None])
        # (wire, offset, bit); take copies a strided volts, but
        # run_transient and read_waveform_csv return one C row a wire
        vals = waves.volts.take(idx, axis=1, mode="clip")
        eyes[ks] = (np.where(keep & ones, vals, np.inf).min(axis=2)
                    - np.where(keep & zeros, vals, -np.inf).max(axis=2)).T
    best = eyes.max(axis=0)
    best_off = offsets[np.argmax(eyes >= best - _PHASE_TIE_V, axis=0)]
    per_wire = [WireEye(wire=w + 1, eye_v=max(float(best[w]), 0.0),
                        phase_ui=float((float(best_off[w]) % ui) / ui))
                for w in range(n)]
    return EyeReport(per_wire, data_rate=float(data_rate))


def eye_bytes(n, samples, dt, data_rate, svg=False, folded=False):
    """An upper bound on the memory that eye_measure and the requested
    writers hold besides the waveforms, one after another, plus 64 KiB for
    small arrays.  The scan holds its per-bit labels and masks, its
    per-offset eyes, and one chunk of offsets: per offset-bit pair the sample
    indices, their mask and up to three float temporaries, and per wire a
    gathered sample, one masked copy of it and its mask.  A writer is
    counted at its per-sample figure for this process alone: the SVG's
    byte matrices of digits, the folded CSV's phase texts."""
    ui = 1.0 / float(data_rate)
    k_cand = max(int(round(ui / dt)), 1)
    bits = int((samples - 1) * dt / ui) + 3
    pairs = min(k_cand, max(1, _SCAN_CELLS // (n * bits))) * bits
    scan = pairs * (17 * n + 33) + bits * (10 * n + 32) + k_cand * (24 * n + 40)
    writer = max(svg * _SVG_SAMPLE_BYTES, folded * _FOLDED_SAMPLE_BYTES) * samples
    return max(scan, writer) + (1 << 16)


def fold_phases(waves, data_rate):
    """Phase (in UI, folded to a two-UI window from the nominal flight time)
    of every waveform sample."""
    ui = 1.0 / float(data_rate)
    return ((waves.times() - waves.nominal_delay_s) % (2.0 * ui)) / ui


def write_folded_csv(waves, data_rate, path):
    """Folded samples as CSV: wire,phase_ui,volts (phase in a two-UI window)."""
    phases = formatted(fold_phases(waves, data_rate))
    n = waves.volts.shape[0]
    # Wire by wire, so no column repeats a value for every sample of every
    # wire; the wire column is a view of one value of the smallest integer
    # type that holds n.
    wire_type = np.min_scalar_type(n)
    write_csv_blocks(path, ["wire", "phase_ui", "volts"],
                     [[np.broadcast_to(wire_type.type(w + 1), phases.size), phases, waves.volts[w]]
                      for w in range(n)],
                     _FOLDED_SAMPLE_BYTES * phases.size, waves.volts.nbytes)


def write_eye_json(report, path):
    write_json(path, report.to_dict())


def svg_volts_range(volts):
    """(lowest, highest) volts of the SVG's y axis: the span of volts
    widened by 5 % of it each way, or 0.05 V below and 1.05 V above a flat
    waveform's level.  A range that is not a finite, positive number of
    volts (a NaN or inf sample, or a span past the largest float) raises
    ValidationError naming the span."""
    vmin, vmax = float(volts.min()), float(volts.max())
    top = vmax if vmax > vmin else vmin + 1.0
    pad = 0.05 * (top - vmin)
    vlo, vhi = vmin - pad, top + pad
    if not 0.0 < vhi - vlo < math.inf:
        raise ValidationError("the waveforms span %r to %r V, which no finite eye-diagram "
                              "scale covers" % (vmin, vmax))
    return vlo, vhi


def render_eye_svg(waves, data_rate, path):
    """Self-contained SVG eye diagram (two-UI fold, one color per wire).

    Output is deterministic: fixed size, palette and formatting, no timestamps.
    Coordinates are printed as "%.2f" (textio.two_decimals): the x digits
    once, then through textio.on_cpus each wire's polylines as one bytes
    result, its records " x,y" stacked as bytes with their NULs dropped and
    cut at the runs of rising phase.  Volts without a finite scale (a NaN
    or inf sample, or a span past the largest float) raise ValidationError
    before the file is opened (svg_volts_range).
    """
    vlo, vhi = svg_volts_range(waves.volts)
    phases = fold_phases(waves, data_rate)
    n, samples = waves.volts.shape

    width, height = _SVG_SIZE
    left, right, top, bottom = 60, 20, 20, 40
    pw = width - left - right
    ph = height - top - bottom

    def xpix(phase):
        return left + pw * (phase / 2.0)

    def ypix(v):
        return top + ph * (1.0 - (v - vlo) / (vhi - vlo))

    parts = []
    parts.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
                 'viewBox="0 0 %d %d">' % (width, height, width, height))
    parts.append('<rect x="0" y="0" width="%d" height="%d" fill="#ffffff"/>' % (width, height))
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                 'stroke="#444444" stroke-width="1"/>' % (left, top, pw, ph))
    # reference level and UI boundary
    y0 = ypix(0.0)
    if top <= y0 <= top + ph:
        parts.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="#999999" '
                     'stroke-dasharray="4,4" stroke-width="1"/>'
                     % (left, y0, left + pw, y0))
    xmid = xpix(1.0)
    parts.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="#cccccc" '
                 'stroke-width="1"/>' % (xmid, top, xmid, top + ph))
    # axis labels
    parts.append('<text x="%d" y="%d" font-family="monospace" font-size="12" '
                 'fill="#333333">phase (UI)</text>' % (left + pw // 2 - 30, height - 12))
    parts.append('<text x="%d" y="%d" font-family="monospace" font-size="12" '
                 'fill="#333333">%.3f V</text>' % (6, int(top) + 12, vhi))
    parts.append('<text x="%d" y="%d" font-family="monospace" font-size="12" '
                 'fill="#333333">%.3f V</text>' % (6, int(top + ph), vlo))

    # A polyline per run of rising phase; a run of one point draws nothing.
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(phases) < 0) + 1, [samples]))
    drawn = np.diff(bounds) > 1
    firsts, ends = bounds[:-1][drawn], bounds[1:][drawn]
    xs = two_decimals(xpix(phases))
    head = b'<polyline points="'

    def polylines(w):  # a wire's bytes: holding every polyline would hold most of the file
        tail = ('" fill="none" stroke="%s" stroke-width="1" stroke-opacity="0.55"/>\n'
                % _PALETTE[w % len(_PALETTE)]).encode()
        ys = two_decimals(ypix(waves.volts[w]))
        # one record a sample, " x,y"; without its NULs, a span's points are
        # the text from its first record's space to its last record's end
        wx = xs.shape[1]
        records = np.empty((samples, wx + 2 + ys.shape[1]), dtype=np.uint8)
        records[:, 0] = ord(" ")
        records[:, 1:wx + 1] = xs
        records[:, wx + 1] = ord(",")
        records[:, wx + 2:] = ys
        text = records[records != 0]
        starts = np.append(np.flatnonzero(text == ord(" ")), text.size)
        text = text.tobytes()
        return b"".join(head + text[lo + 1:hi] + tail
                        for lo, hi in zip(starts[firsts].tolist(), starts[ends].tolist()))

    with open(path, "wb") as fh:
        fh.write("".join(part + "\n" for part in parts).encode())
        write_texts(fh, polylines, n, _SVG_SAMPLE_BYTES * samples, waves.volts.nbytes)
        fh.write(b"</svg>\n")
