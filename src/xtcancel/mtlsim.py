"""Time-domain simulation of cascaded lossless coupled-line segments.

Each segment is decomposed into independent modes (see the bundle module);
with the normalization used there every modal line has unit characteristic
impedance, so its two ends obey the method-of-characteristics relations

    u_near(t) = j_near(t) + E_near(t),   E_near(t) = w_far(t - tau)
    u_far(t)  = j_far(t)  + E_far(t),    E_far(t)  = w_near(t - tau)

with w = u + j, u the modal voltage, j the modal current into the line, and
tau the modal one-way delay.  Back in wire coordinates each segment end is a
Norton equivalent (conductance Zc^-1, injection Zc^-1 Mv E = Mi^T E), so the
driver bank, each inter-segment junction, the termination network and the DC
operating point are each one small nodal system A v = g e + injection, with
e the drive behind conductances g, inverted once.  A wire driven through zero
source resistance is handled exactly as in modified nodal analysis: its row
of A is the identity row and reads v = e.

History is read with linear interpolation at t - tau, so modal delays need
not be timestep multiples; every modal delay must be at least one timestep
for the explicit update to stay causal.

Blocked stepping.  Write tau = (i0 + frac) dt; Engine.i0 and Engine.frac
hold them for every history column, the link's one delay table.  The
incident waves of step m read history rows m - i0 and m - i0 - 1, and the
shortest delay B = min i0 is at least one step, so every step of a block
m .. m + B - 1 reads only rows written before the block.  The B steps are
therefore independent of one another and run as one batch; the blocking
approximates nothing.  The link is linear, so one step is an affine map,
computed once from the node solves,

    y = H[gather] @ step_e + [src, 1] @ step_s

History H has one row per step and 2n columns per segment: segment k owns
columns 2nk .. 2nk+n-1 (waves leaving its near end, per mode) and the next n
(waves leaving its far end).  The incident waves share that layout; the wave
arriving at an end is gathered from the other end's column at rows m - i0 and
m - i0 - 1, so step_e stacks the interpolation weights (1 - frac) and frac
times the wave part of the map.
y holds the new history row, then the receiver volts relative to vref, then
the source currents; its constant (svec vref at the receiver, -vref in the
volts) rides on a column of ones appended to the drive, Engine.drive(t).
Each part of the map is an array of its own size: step_e is filled in place
(in Fortran order, the layout np.dot rounds with) and step_s copied out of
the step columns, which are freed with the identity before the gather is
built.

run_transient keeps all three in one window of pad + W rows whose rows are
the steps' y, so the gather indices step over 2n (S + 1) columns a row for S
segments.  W is a whole number of blocks and at least pad.  Every window is
alike: its first pad rows are the last pad rows of the one before (before
the first, Engine.start_waves: the DC state of the t=0 drive), and it steps
whole blocks.  The drive part [src, 1] @ step_s reads no history, so it is
written into the window's rows first; a block is then one unbuffered gather
(its indices are checked once, at build), one product and one in-place add.
The run's steps are then checked for non-finite receiver volts and their
kept volts and source currents copied out; the last window's at most B - 1
steps past the run are discarded.  A check never changed what the loop
computes, only where it stopped, so the first non-finite row is the step a
check after every block would report.  The run holds the returned waveforms
and one window, not a row for every step, and Engine refuses a link whose
stepper_bytes is over errors.MEMORY_BUDGET_BYTES before any PRBS or step
map exists.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bundle import CouplingMatrices, bundle_from_dict, characteristic_impedance, load_bundle
from .errors import (SimulationDivergedError, ValidationError, check_memory, converted, document,
                     integer, number)
from .stimulus import StimulusSpec, drive_levels, pattern_assign, stream_period
from .termination import (TerminationNetwork, load_network, network_admittance,
                          network_from_dict, self_conductances)
from .textio import range_bytes, read_csv_rows, read_json, write_csv

LINK_SCHEMA_VERSION = 2

TIMESTEPS_PER_UI = 64  # default dt = unit interval / 64, or finer to step inside rise_s
WARMUP_FLIGHTS = 2     # discard 2x total delay ...
WARMUP_EXTRA_UI = 8    # ... plus 8 unit intervals

# Steps per run_transient history window, before rounding up to whole blocks
# and to at least pad.  The window holds pad + steps rows: 1.2 MB on
# link-twelve with 0.5 mm breakouts, against 3.6 MB at 4096 steps, in the
# same time.  A larger window saves only per-window overhead.
_WINDOW_STEPS = 1 << 10


@dataclass(frozen=True)
class DriverBank:
    """Per-wire trapezoidal sources behind series resistances (0 allowed)."""

    rs_ohms: tuple[float, ...]
    v_low: float = 0.0
    v_high: float = 1.0
    rise_s: float = 10e-12

    def __post_init__(self):
        for r in self.rs_ohms:
            if not (r >= 0.0 and math.isfinite(r)) or (r and math.isinf(1.0 / r)):
                raise ValidationError("driver resistance must be finite and >= 0, and 0 or large "
                                      "enough for a finite conductance, got %r" % (r,))
        if not all(map(math.isfinite, (self.v_low, self.v_high, self.v_high - self.v_low))):
            raise ValidationError("driver v_low %r, v_high %r and their difference must be finite"
                                  % (self.v_low, self.v_high))
        if not self.v_high > self.v_low:
            raise ValidationError("driver v_high must exceed v_low")
        if not (self.rise_s > 0.0 and math.isfinite(self.rise_s)):
            raise ValidationError("driver rise time must be positive")


@dataclass(frozen=True)
class Segment:
    bundle: CouplingMatrices
    length_m: float

    def __post_init__(self):
        if not (self.length_m > 0.0 and math.isfinite(self.length_m)):
            raise ValidationError("segment length must be positive, got %r" % (self.length_m,))


@dataclass(frozen=True)
class LinkSpec:
    segments: tuple[Segment, ...]
    drivers: DriverBank
    termination: TerminationNetwork
    stimulus: StimulusSpec
    timestep_s: float | None = None
    duration_s: float | None = None


@dataclass
class Waveforms:
    """Receiver-node samples, reported relative to the reference voltage."""

    dt: float
    start_time: float
    vref: float
    volts: np.ndarray  # (n, samples): v_node - vref
    nominal_delay_s: float
    source_currents: np.ndarray | None = None  # (n, samples) driver currents; CSVs have none

    @property
    def n(self):
        return self.volts.shape[0]

    def times(self):
        return self.start_time + self.dt * np.arange(self.volts.shape[1])


class _SegmentState:
    """Per-segment precomputation: modal transforms and delay bookkeeping."""

    def __init__(self, segment, dt):
        basis, _ = characteristic_impedance(segment.bundle)
        self.n = segment.bundle.n
        self.mi = basis.mi
        self.mit = basis.mi.T           # = Zc^-1 Mv, the Norton injection map
        self.mvt = basis.mv.T
        self.yc = basis.yc              # = Zc^-1
        self.tau = segment.length_m * np.sqrt(basis.mode_vals)
        # The warmup steps twice the longest delay, at 2n words a step: refused
        # over the budget before the delay in steps is cast to int64.
        longest = float(self.tau.max())
        check_memory(32.0 * self.n * longest / dt,  # a Python float: inf, not a warning
                     "the warmup of a %g s modal delay at a %g s timestep" % (longest, dt),
                     "lengthen timestep_s or shorten the %g m segment" % segment.length_m)
        d = self.tau / dt
        self.i0 = np.floor(d).astype(np.int64)
        self.frac = d - self.i0
        if int(self.i0.min()) < 1:
            raise ValidationError(
                "timestep %g s exceeds a modal delay (min %g s) of a %g m segment; "
                "shorten the timestep or lengthen the segment"
                % (dt, float(self.tau.min()), segment.length_m))


class _NodeSolve:
    """One nodal system A v = g e + injection, inverted once.

    Modified nodal analysis: a pinned node (a zero-ohm source) has its row of
    A replaced by the identity row and reads v = e, so its injection is
    dropped; a free node sees drive e through conductance g.
    """

    def __init__(self, a, g, pinned, what):
        a = np.where(pinned[:, None], np.eye(g.size), a)
        if not np.isfinite(a).all():  # finite conductances whose sum overflows
            raise ValidationError("%s nodal system has non-finite conductances: its "
                                  "resistances are too small" % what)
        # Rows scaled to unit max: a pinned row and the row of a driver behind
        # a tiny resistance differ in scale, not in rank.
        cond = np.linalg.cond(a / np.abs(a).max(axis=1, keepdims=True))
        if not np.isfinite(cond) or cond > 1e14:
            raise ValidationError("%s nodal system is singular (cond %.3g)" % (what, cond))
        self.inv = np.linalg.inv(a)
        self.g = np.where(pinned, 1.0, g)
        self.free = (~pinned).astype(float)

    def solve(self, e, injection):
        """Node volts for injections, (n,) or a column block (n, k), and drives e
        that broadcast against them."""
        g, free = self.g, self.free
        if np.ndim(injection) == 2:
            g, free = g[:, None], free[:, None]
        return self.inv @ (g * e + free * injection)


class Engine:
    """A link compiled for time stepping; build with build_link()."""

    def __init__(self, spec):
        n = spec.termination.n
        for seg in spec.segments:
            if seg.bundle.n != n:
                raise ValidationError("segment bundle has %d wires, termination has %d"
                                      % (seg.bundle.n, n))
        if len(spec.drivers.rs_ohms) != n:
            raise ValidationError("driver bank covers %d wires, bus has %d"
                                  % (len(spec.drivers.rs_ohms), n))
        if not spec.segments:
            raise ValidationError("link needs at least one segment")

        self.spec = spec
        self.n = n
        self.ui = spec.stimulus.unit_interval
        rise = spec.drivers.rise_s
        self.dt = spec.timestep_s
        if self.dt is None:
            # UI/K, K the smallest whole number >= TIMESTEPS_PER_UI whose step is
            # no longer than the rise time as computed, so checked after the
            # ceil.  (A float: a rise too short for any grid reads K = inf.)
            k = max(TIMESTEPS_PER_UI, float(np.ceil(self.ui / rise)))
            # A run keeps one UI at least, 16n bytes a step, so a rise whose
            # grid cannot hold that is refused here, by its name.
            check_memory(16.0 * n * k,
                         "stepping inside a %g s rise_s (%.3g steps a UI)" % (rise, k),
                         "lengthen rise_s")
            self.dt = self.ui / (k + 1.0 if self.ui / k > rise else k)
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValidationError("timestep must be positive, got %r" % (self.dt,))
        if not rise < self.ui:
            raise ValidationError("rise time %g s must be inside (0, bit period %g s)"
                                  % (rise, self.ui))

        self.segments = [_SegmentState(seg, self.dt) for seg in spec.segments]
        if self.dt > rise:
            # The drive ramp would fall between samples.  (Checked after the
            # segments, which name a step longer than a modal delay.)
            raise ValidationError("timestep_s %g s is longer than rise_s %g s" % (self.dt, rise))
        self.total_delay_s = float(sum(s.tau.max() for s in self.segments))
        self.nominal_delay_s = float(sum(s.tau.mean() for s in self.segments))
        self.warmup_s = WARMUP_FLIGHTS * self.total_delay_s + WARMUP_EXTRA_UI * self.ui
        # The first step kept in the waveforms: the grid run_transient returns
        # and read_waveform_csv checks a waveform file against.
        self.start_index = int(math.ceil(self.warmup_s / self.dt - 1e-9))
        # The link-wide delay table: per history column, near then far end of
        # each segment, the whole steps i0 and the fraction frac of a step.
        self.i0 = np.concatenate([np.tile(s.i0, 2) for s in self.segments])
        self.frac = np.concatenate([np.tile(s.frac, 2) for s in self.segments])
        self.width = self.i0.size
        self.pad = int(self.i0.max()) + 1
        self.block = int(self.i0.min())

        window = self.warmup_s + self.nominal_delay_s + stream_period(spec.stimulus) * self.ui
        if spec.duration_s is None:
            self.duration_s = window + 2.0 * self.ui
        else:
            self.duration_s = float(spec.duration_s)
            if not math.isfinite(self.duration_s):
                raise ValidationError("duration_s must be finite, got %r" % (self.duration_s,))
            if self.duration_s < window:
                raise ValidationError(
                    "duration %g s is shorter than warmup + latency + one stream period (%g s)"
                    % (self.duration_s, window))
        self.steps = int(round(self.duration_s / self.dt)) + 1
        self.samples = self.steps - self.start_index
        # The pre-flight, before any stream exists.
        check_memory(self.stepper_bytes(self.steps), "a link of %d timesteps" % self.steps,
                     "lower prbs_order, lengthen timestep_s or shorten duration_s "
                     "or the segment list")

        self.streams = pattern_assign(spec.stimulus, n)

        # The node systems, inverted once: the driver, each junction and the
        # receiver, whose termination pulls towards vref through svec.
        rs = np.asarray(spec.drivers.rs_ohms, dtype=float)
        pinned = rs == 0.0
        g = np.divide(1.0, rs, out=np.zeros(n), where=~pinned)
        self.y_net = network_admittance(spec.termination)
        self.svec = self_conductances(spec.termination)
        self.vref = spec.termination.vref
        segs, unpinned = self.segments, np.zeros(n, dtype=bool)
        self.nodes = [_NodeSolve(np.diag(g) + segs[0].yc, g, pinned, "driver")]
        for k in range(len(segs) - 1):
            self.nodes.append(_NodeSolve(segs[k].yc + segs[k + 1].yc, np.zeros(n), unpinned,
                                         "junction %d" % (k + 1)))
        self.nodes.append(_NodeSolve(self.y_net + segs[-1].yc, self.svec, unpinned, "receiver"))
        self.dc = _NodeSolve(np.diag(g) + self.y_net, g, pinned, "DC")

        # The step map: one step of the link is affine in the incident waves
        # and the drive, so the node solves run once, on identity columns.
        # Each part gets an array of its own size, and the identity and the
        # step columns are freed before the gather is built.
        w = self.width
        eye = np.eye(w + n + 1)
        step = self._step_columns(eye[:w], eye[w:w + n], eye[w + n])
        del eye
        self.step_s = np.asfortranarray(step[:, w:].T)
        # Fortran order: the layout np.dot has always been given, so the
        # products round as before.
        self.step_e = np.empty((2 * w, w + 2 * n), order="F")
        np.multiply((1.0 - self.frac)[:, None], step[:, :w].T, out=self.step_e[:w])
        np.multiply(self.frac[:, None], step[:, :w].T, out=self.step_e[w:])
        del step
        self.gather = _block_gather(self.i0, n, self.pad, self.block)
        # The history row before t=0: every line starts at the DC state of the
        # t=0 drive, so the startup transient is only the difference from it.
        v_dc, i_dc = self.solve_dc(self.drive(np.zeros(1))[0])
        self.start_waves = np.concatenate([s.mi @ v_dc + end * (s.mvt @ i_dc)
                                           for s in segs for end in (1.0, -1.0)])  # near, far

    def _step_columns(self, e, src, one):
        """One step for column blocks of incident waves e (width, k), drives
        src (n, k) and constant weights one (k,); returns the (width + 2n, k)
        new history rows, receiver volts and source currents."""
        n = self.n
        segs = self.segments
        e_near = [e[2 * n * k:2 * n * k + n] for k in range(len(segs))]
        e_far = [e[2 * n * k + n:2 * n * (k + 1)] for k in range(len(segs))]
        inj = ([segs[0].mit @ e_near[0]]
               + [segs[k].mit @ e_far[k] + segs[k + 1].mit @ e_near[k + 1]
                  for k in range(len(segs) - 1)]
               + [segs[-1].mit @ e_far[-1]])
        drives = [src] + [0.0] * (len(segs) - 1) + [self.vref * one]
        nodes = [s.solve(d, j) for s, d, j in zip(self.nodes, drives, inj)]
        out = np.empty((self.width + 2 * n, one.size))
        rows = out.reshape(-1, n, one.size)  # n rows at a time, written in place
        for k, s in enumerate(segs):
            rows[2 * k] = 2.0 * s.mi @ nodes[k] - e_near[k]
            rows[2 * k + 1] = 2.0 * s.mi @ nodes[k + 1] - e_far[k]
        rows[-2] = nodes[-1] - self.vref * one
        rows[-1] = segs[0].yc @ nodes[0] - inj[0]
        return out

    def window_steps(self):
        """Steps of one run_transient window: _WINDOW_STEPS rounded up to
        whole blocks and to at least pad, so every window, the last too,
        steps whole blocks and its last pad rows hold all the history the
        next one reads."""
        return -(-max(_WINDOW_STEPS, self.pad) // self.block) * self.block

    def step_map_bytes(self):
        """The memory the built link holds for its step map: step_e (2w x
        (w + 2n) words), step_s ((n + 1) x (w + 2n)) and the gather indices
        (B x 2w).  The width w is 2n a segment, so the map grows as the
        square of the segment count."""
        w, n = self.width, self.n
        return 8 * (2 * w * (w + 2 * n) + (n + 1) * (w + 2 * n) + self.block * 2 * w)

    def stepper_bytes(self, steps):
        """An upper bound on the memory of building the link and a run of
        steps: the step map (step_map_bytes), the returned volts and
        currents (2n words a step) and one window, plus 64 KiB for small
        arrays.

        Building the step map adds the identity (k x k words, k = w + n + 1)
        and, while the node solves run on it, the step columns ((w + 2n) x
        k) and the solves' node volts and injections (as large again); step_e
        and step_s are then taken from the step columns, which are freed, with
        the identity, before the gather is built.  A window is its history
        rows, its drive, and the larger of drive_levels' temporaries and the
        block buffers with the finiteness check."""
        w, n, block, size = self.width, self.n, self.block, self.window_steps()
        k = w + n + 1  # the identity's columns
        build = k * k + 2 * (w + 2 * n) * k
        window = (self.pad + size) * (w + 2 * n) + size * (n + 1) + max(
            # drive_levels' result, its ramps (two arrays of at most every
            # step's rows) and its times, bit indices, masks and phases
            size * (3 * n + 6),
            block * (3 * w + 2 * n) + size * n)
        return self.step_map_bytes() + 8 * (2 * n * steps + build + window) + (1 << 16)

    def drive(self, t):
        """The drivers' source levels at times t, shape (len(t), n):
        drive_levels with this link's streams, data rate, rise time and
        levels."""
        d = self.spec.drivers
        return drive_levels(self.streams, t, self.spec.stimulus.data_rate, d.rise_s,
                            d.v_low, d.v_high)

    def waveforms(self, volts, source_currents=None):
        """volts (n, samples), relative to vref, on run_transient's grid."""
        return Waveforms(dt=self.dt, start_time=self.start_index * self.dt, vref=self.vref,
                         volts=volts, source_currents=source_currents,
                         nominal_delay_s=self.nominal_delay_s)

    def solve_dc(self, e):
        """DC operating point for drive levels e, with the lines as ideal
        connections; returns (node volts, source currents)."""
        if np.shape(e) != (self.n,):
            raise ValidationError("drive has shape %s, bus has %d wires" % (np.shape(e), self.n))
        v = self.dc.solve(e, self.svec * self.vref)
        i = self.y_net @ v - self.svec * self.vref
        return v, i


def build_link(spec):
    return Engine(spec)


def run_transient(engine):
    """Step the link for its duration and return post-warmup receiver waveforms."""
    dt, steps, start_index = engine.dt, engine.steps, engine.start_index
    n, w, pad, block = engine.n, engine.width, engine.pad, engine.block
    size = engine.window_steps()
    # One row per step of the window: history, receiver volts, source currents.
    win = np.empty((pad + size, w + 2 * n))
    drive = np.ones((size, n + 1))  # the last column weights the map's constant
    volts = np.empty((n, engine.samples))  # C-ordered: one wire a row
    currents = np.empty_like(volts)
    gather = engine.gather[:block]
    waves = np.empty(gather.shape)
    y = np.empty((block, win.shape[1]))
    win[size:, :w] = engine.start_waves  # the history before t=0
    for c0 in range(0, steps, size):
        c = min(size, steps - c0)
        whole = -(-c // block) * block  # whole blocks; steps past the run are discarded
        win[:pad] = win[size:]  # the history the window's steps read
        drive[:whole, :n] = engine.drive(dt * np.arange(c0, c0 + whole))
        # The drive part of the window's steps, written into their rows; the
        # blocks add the wave part.
        np.matmul(drive[:whole], engine.step_s, out=win[pad:pad + whole])
        _step_blocks(win, pad, whole, engine.step_e, gather, waves, y)
        finite = np.isfinite(win[pad:pad + c, w:w + n]).all(axis=1)
        if not finite.all():
            raise SimulationDivergedError(c0 + int(finite.argmin()), "receiver node voltages")
        if c0 + c > start_index:
            lo = max(start_index - c0, 0)
            at = c0 + lo - start_index
            volts[:, at:at + c - lo] = win[pad + lo:pad + c, w:w + n].T
            currents[:, at:at + c - lo] = win[pad + lo:pad + c, w + n:].T
    return engine.waveforms(volts, currents)


def _block_gather(i0, n, pad, block):
    """Flat indices of one block's incident waves in run_transient's window,
    whose rows are y (len(i0) + 2n wide): row pad + m - i0 then the row before
    it, each read from the other end of the mode.

    The blocks gather with mode="clip", which does not check, so an index
    outside the pad + block rows a block may read is refused here, once."""
    w = i0.size
    cols = np.arange(w)
    other_end = np.where(cols // n % 2 == 0, cols + n, cols - n)
    stride = w + 2 * n
    gather = np.empty((block, 2 * w), dtype=np.int64)  # filled in place
    at = gather[:, :w]
    np.subtract(pad + np.arange(block)[:, None], i0, out=at)
    at *= stride
    at += other_end
    np.subtract(at, stride, out=gather[:, w:])
    if gather.min() < 0 or gather.max() >= (pad + block) * stride:
        raise RuntimeError("a block of %d steps would gather outside the %d window rows "
                           "it may read" % (block, pad + block))
    return gather


def _step_blocks(win, pad, stop, step_e, gather, waves, y):
    """Add the wave part to window rows pad .. pad + stop - 1, a block of
    len(gather) steps at a time; stop is whole blocks."""
    flat, row, block = win.reshape(-1), win.shape[1], gather.shape[0]
    blocks = win[pad:pad + stop].reshape(-1, block, row)
    dot, add = np.dot, np.add
    for m, rows in zip(range(0, stop * row, block * row), blocks):
        # "clip" fills waves in place; "raise" would buffer it on every block.
        # Every index was checked at build (_block_gather).
        flat[m:].take(gather, out=waves, mode="clip")
        dot(waves, step_e, out=y)
        add(rows, y, out=rows)


def write_waveform_csv(waves, path):
    """Waveform CSV: time_s,w1..wn with voltages relative to the reference."""
    write_csv(path, ["time_s"] + ["w%d" % (k + 1) for k in range(waves.n)],
              [waves.times(), *waves.volts])


def read_waveform_csv(path, engine):
    """Read a waveform CSV into engine's Waveforms, refusing a file that is
    not on the grid engine's sim writes: its wire count, timestep, start time
    and sample count.  Another link with the same timing passes.
    No more than one row past the grid is kept; the checked times are
    dropped.  The rows are parsed in byte ranges on every CPU this process
    may run on (textio.read_csv_rows), with the same volts and the same
    refusals as one process."""
    samples = engine.samples
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cols = fh.readline().strip().split(",")
            if cols[0] != "time_s" or len(cols) < 2:
                raise ValidationError("waveform CSV must start with time_s,w1,... header")
            if len(cols) - 1 != engine.n:
                raise ValidationError("waveform file has %d wires, link has %d"
                                      % (len(cols) - 1, engine.n))
            data = read_csv_rows(fh, len(cols), samples + 1)
        except ValidationError:
            raise
        except ValueError as exc:  # text that is not UTF-8, or a row that is not numbers
            raise ValidationError("waveform CSV: %s" % exc) from None
    _check_waveform(data, cols, engine, samples)
    # a copy, so the result does not keep the whole rows array alive
    return engine.waveforms(data[:, 1:].T.copy())


def _check_waveform(data, cols, engine, samples):
    """Refuse parsed rows that are malformed or off engine's grid; the
    checks' temporaries are freed on return, before the caller's copy."""
    if len(data) and data.shape[1] != len(cols):
        raise ValidationError("waveform CSV row has %d fields, expected %d"
                              % (data.shape[1], len(cols)))
    if len(data) < 2:
        raise ValidationError("waveform CSV needs at least two samples")
    bad = ~np.isfinite(data)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValidationError("waveform CSV has a non-finite %s sample in data row %d"
                              % (cols[col], row + 1))
    dts = np.diff(data[:, 0])
    if float(np.abs(dts - dts[0]).max()) > 1e-6 * abs(float(dts[0])):
        raise ValidationError("waveform CSV is not uniformly sampled")
    dt, step = engine.dt, float(dts[0])
    if abs(step - dt) > 1e-9 * dt:
        raise ValidationError("waveform file has a %r s timestep, link has %r s" % (step, dt))
    start = engine.start_index * dt
    if abs(float(data[0, 0]) - start) > 1e-9 * dt:
        raise ValidationError("waveform file starts at %r s, link's waveforms start at %r s"
                              % (float(data[0, 0]), start))
    if len(data) > samples:
        raise ValidationError("waveform file has more than %d samples, link's waveforms have %d"
                              % (samples, samples))
    if len(data) < samples:
        raise ValidationError("waveform file has %d samples, link's waveforms have %d"
                              % (len(data), samples))


def waveform_read_bytes(n, samples):
    """An upper bound on read_waveform_csv's traced memory for samples rows
    of n wires: the rows array (one row past the grid), beside first one
    range's parse (textio.range_bytes) and then the volts copied out of it,
    plus 64 KiB for the header's read buffers and small arrays.  The checks'
    masks and time differences are freed before the copy and are smaller
    than it.  Every other process parses one range at a time."""
    return (8 * (n + 1) * (samples + 1) + max(range_bytes(n + 1), 8 * n * samples)
            + (1 << 16))


def _bit_rows(rows, field):
    return tuple(tuple(integer(v, field) for v in converted(list, row, field))
                 for row in converted(list, rows, field))


def _optional(raw, key, convert):
    """convert(raw[key], key), or None when the field is absent or null."""
    return None if raw.get(key) is None else convert(raw[key], key)


def link_from_dict(raw, base_dir="."):
    """Build a LinkSpec from a parsed link JSON document.

    "bundle" and "termination" entries may be inline objects or paths
    relative to the link file's directory.
    """
    raw = document(raw, "link document", ("segments", "drivers", "termination", "stimulus"),
                   ("timestep_s", "duration_s"))
    if not isinstance(raw["segments"], list) or not raw["segments"]:
        raise ValidationError("link needs a non-empty segments list")
    segments = []
    for entry in raw["segments"]:
        entry = document(entry, "segment", ("bundle", "length_m"))
        ref = entry["bundle"]
        bundle = (load_bundle(os.path.join(base_dir, ref)) if isinstance(ref, str)
                  else bundle_from_dict(ref))
        segments.append(Segment(bundle=bundle, length_m=number(entry["length_m"], "length_m")))

    drv = document(raw["drivers"], "drivers", (), ("rs_ohms", "v_low", "v_high", "rise_s"))
    rs = drv.get("rs_ohms", 0.0)
    rs_ohms = (tuple(number(r, "rs_ohms") for r in rs) if isinstance(rs, (list, tuple))
               else (number(rs, "rs_ohms"),) * segments[0].bundle.n)
    drivers = DriverBank(rs_ohms=rs_ohms, **{k: number(drv[k], k)
                                             for k in ("v_low", "v_high", "rise_s") if k in drv})

    ref = raw["termination"]
    termination = (load_network(os.path.join(base_dir, ref)) if isinstance(ref, str)
                   else network_from_dict(ref))

    stim_raw = document(raw["stimulus"], "stimulus", ("data_rate",),
                        ("prbs_order", "seed", "mode", "streams"))
    # Only the PRBS fields the document gives, so StimulusSpec owns their
    # defaults; next to explicit streams, which replace the PRBS, every one
    # given is named (a null seed, as for StimulusSpec, is none).
    prbs = {k: stim_raw[k] for k in ("prbs_order", "mode") if k in stim_raw}
    seed = _optional(stim_raw, "seed", integer)
    given = list(prbs) + ["seed"] * (seed is not None)
    if stim_raw.get("streams") is not None and given:
        raise ValidationError("explicit streams replace the PRBS; drop %s" % ", ".join(given))
    if "prbs_order" in prbs:
        prbs["prbs_order"] = integer(prbs["prbs_order"], "prbs_order")
    stimulus = StimulusSpec(
        data_rate=number(stim_raw["data_rate"], "data_rate"),
        seed=seed,
        streams=_optional(stim_raw, "streams", _bit_rows),
        **prbs,
    )

    return LinkSpec(segments=tuple(segments),
                    drivers=drivers,
                    termination=termination,
                    stimulus=stimulus,
                    timestep_s=_optional(raw, "timestep_s", number),
                    duration_s=_optional(raw, "duration_s", number))


def load_link(path):
    return link_from_dict(read_json(path), base_dir=os.path.dirname(os.path.abspath(path)))
