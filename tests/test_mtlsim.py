"""Time-domain link simulator tests: oracles, invariants, and file formats."""

import contextlib
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_child
from designs import (FOUR_INCHES_M, fifty_ohm_network, graded_bundles, microstrip_bundle,
                     pair_bundle, scalar_bundle, simple_link)
from steady_state import periodic_steady_state
from xtcancel.bundle import DEFAULT_VELOCITY, characteristic_impedance, uncoupled_bundle
from xtcancel.errors import SimulationDivergedError, ValidationError
from xtcancel import mtlsim, textio
from xtcancel.mtlsim import (DriverBank, LinkSpec, Segment, _block_gather, _NodeSolve,
                             build_link, link_from_dict, load_link, run_transient,
                             read_waveform_csv, write_waveform_csv)
from xtcancel.stimulus import StimulusSpec
from xtcancel.termination import network_admittance, realize_network, self_conductances

UI = 62.5e-12  # 16 Gb/s
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def full_pair_network():
    basis, _ = characteristic_impedance(pair_bundle())
    return realize_network(basis.zc)


def center_samples(waves, data_rate, latency):
    """Sample each wire at bit centers; returns (bit_index, volts[n, bits])."""
    t = waves.times()
    ui = 1.0 / data_rate
    first = int(np.ceil((t[0] - latency) / ui + 0.75))
    centers = latency + (first - 0.5 + np.arange(1, 40)) * ui
    centers = centers[centers <= t[-1]]
    idx = np.round((centers - t[0]) / waves.dt).astype(int)
    bits = (first - 1 + np.arange(1, 40))[: idx.size]
    return bits, waves.volts[:, idx]


def reference_transient(engine):
    """The per-step stepper: every step solves the tx, junction and rx nodes
    in turn.  Returns post-warmup (volts, source currents), each (n, samples)."""
    dt = engine.dt
    steps = int(round(engine.duration_s / dt)) + 1
    start = int(math.ceil(engine.warmup_s / dt - 1e-9))
    src = engine.drive(dt * np.arange(steps)).T
    v0, i0 = engine.solve_dc(src[:, 0])
    segs = engine.segments
    pad = max(int(s.i0.max()) for s in segs) + 2
    hist_near = [np.tile(s.mi @ v0 + s.mvt @ i0, (pad + steps, 1)) for s in segs]
    hist_far = [np.tile(s.mi @ v0 - s.mvt @ i0, (pad + steps, 1)) for s in segs]
    volts = np.empty((engine.n, steps))
    src_cur = np.empty((engine.n, steps))
    for m in range(steps):
        e_near, e_far = [], []
        for k, s in enumerate(segs):
            row, modes, om = pad + m - s.i0, np.arange(s.n), 1.0 - s.frac
            e_near.append(hist_far[k][row, modes] * om + hist_far[k][row - 1, modes] * s.frac)
            e_far.append(hist_near[k][row, modes] * om + hist_near[k][row - 1, modes] * s.frac)
        inj_tx = segs[0].mit @ e_near[0]
        nodes = [engine.nodes[0].solve(src[:, m], inj_tx)]
        for k in range(len(segs) - 1):
            nodes.append(engine.nodes[k + 1].solve(
                0.0, segs[k].mit @ e_far[k] + segs[k + 1].mit @ e_near[k + 1]))
        nodes.append(engine.nodes[-1].solve(engine.vref, segs[-1].mit @ e_far[-1]))
        if not np.isfinite(nodes[-1]).all():
            raise SimulationDivergedError(m, "receiver node voltages")
        for k, s in enumerate(segs):
            hist_near[k][pad + m] = 2.0 * s.mi @ nodes[k] - e_near[k]
            hist_far[k][pad + m] = 2.0 * s.mi @ nodes[k + 1] - e_far[k]
        volts[:, m] = nodes[-1] - engine.vref
        src_cur[:, m] = segs[0].yc @ nodes[0] - inj_tx
    return volts[:, start:], src_cur[:, start:]


def breakout_link(spec, length_m):
    """spec with uncoupled 50 ohm breakouts of length_m at both ends."""
    breakout = Segment(bundle=uncoupled_bundle(spec.termination.n, z0=50.0,
                                               velocity=DEFAULT_VELOCITY), length_m=length_m)
    return replace(spec, segments=(breakout,) + spec.segments + (breakout,))


def _equivalence_links():
    """Links for the stepper oracle, each with its block size min(i0)."""
    twelve = load_link(FIXTURES / "link-twelve.json")
    bits = tuple(np.random.default_rng(17).integers(0, 2, 24))
    pair = simple_link(pair_bundle(), full_pair_network(), streams=(bits, bits[::-1]))
    half = Segment(bundle=pair_bundle(), length_m=0.0508)
    return {
        "twelve": (twelve, 601),
        "twelve-breakout-0.5mm": (breakout_link(twelve, 0.0005), 2),
        # a breakout delay of exactly one timestep
        "pair-breakout-1-step": (breakout_link(pair, DEFAULT_VELOCITY * UI / 64), 1),
        "pair-all-pinned": (load_link(FIXTURES / "link-pair.json"), 601),
        "pair-mixed-drivers": (replace(pair, drivers=replace(pair.drivers,
                                                             rs_ohms=(0.0, 25.0))), 601),
        "pair-two-halves": (replace(pair, segments=(half, half)), 300),
    }


@pytest.mark.parametrize("name", sorted(_equivalence_links()))
def test_blocked_stepper_matches_per_step_reference(name):
    spec, block = _equivalence_links()[name]
    engine = build_link(spec)
    assert engine.block == block
    if name == "twelve":
        steps = int(round(engine.duration_s / engine.dt)) + 1
        assert steps % block != 0  # the last block steps past the run
    if name == "pair-breakout-1-step":
        assert engine.segments[0].frac.max() == 0.0
    if name == "pair-two-halves":
        assert all(s.frac.min() > 0.0 for s in engine.segments)
    waves = run_transient(engine)
    volts, src_cur = reference_transient(engine)
    assert waves.volts.shape == volts.shape
    assert np.max(np.abs(waves.volts - volts)) <= 1e-12
    assert np.max(np.abs(waves.source_currents - src_cur)) <= 1e-12


def buffered_step_blocks(win, pad, stop, step_e, gather, waves, y):
    """The block loop before its gathers were unbuffered: take's default
    mode="raise" and np.matmul."""
    flat, row, block = win.reshape(-1), win.shape[1], gather.shape[0]
    for m in range(0, stop, block):
        flat[m * row:].take(gather, out=waves)
        np.matmul(waves, step_e, out=y)
        rows = win[pad + m:pad + m + block]
        np.add(rows, y, out=rows)


@pytest.mark.parametrize("name", sorted(_equivalence_links()))
def test_blocked_stepper_bit_identical_to_buffered_loop(name, monkeypatch):
    """np.dot and the unbuffered gather change no bit: blocks of 1, 2 and
    601 steps, and a last block past the run (twelve)."""
    engine = build_link(_equivalence_links()[name][0])
    waves = run_transient(engine)
    monkeypatch.setattr(mtlsim, "_step_blocks", buffered_step_blocks)
    ref = run_transient(engine)
    assert np.array_equal(waves.volts, ref.volts)
    assert np.array_equal(waves.source_currents, ref.source_currents)


@pytest.mark.parametrize("name", sorted(_equivalence_links()))
def test_window_size_changes_no_bit(name, monkeypatch):
    """Windows of one pad (_WINDOW_STEPS 1), a few blocks and the whole run
    step the same rows: a window only moves where history is copied."""
    engine = build_link(_equivalence_links()[name][0])
    waves = run_transient(engine)
    for steps in (1, 7, 65536):
        monkeypatch.setattr(mtlsim, "_WINDOW_STEPS", steps)
        if steps == 65536:
            assert engine.window_steps() >= engine.steps  # one window
        ref = run_transient(engine)
        assert np.array_equal(waves.volts, ref.volts)
        assert np.array_equal(waves.source_currents, ref.source_currents)


def graded_link(name):
    """The link "graded<k>": trial k of graded_bundles() through
    realize_network, at PRBS5 on one segment.  "graded<k>-split" splits the
    segment at 37 %/63 %, a junction of equal segments that reflects nothing."""
    trial, _, split = name[len("graded"):].partition("-")
    bundle = graded_bundles()[int(trial)][1]
    spec = simple_link(bundle, realize_network(characteristic_impedance(bundle)[0].zc),
                       mode="random", prbs_order=5)
    if split:
        spec = replace(spec, segments=tuple(Segment(bundle=bundle, length_m=f * FOUR_INCHES_M)
                                            for f in (0.37, 0.63)))
    return spec


@pytest.mark.parametrize("rs", [0.0, 1.67])
@pytest.mark.parametrize("name", ["twelve", "pair", "scalar"] + [
    "graded%d%s" % (k, split) for k in range(0, 27, 3) for split in ("", "-split")])
def test_matched_link_is_a_resistor_to_its_driver(name, rs):
    """A termination of Zc^-1 absorbs every mode, so the line's input is Yc at
    every frequency and the source current at every sample is
    (I + Yc Rs)^-1 Yc (e - vref), with no delay and no interpolation."""
    spec = (graded_link(name) if name.startswith("graded")
            else load_link(FIXTURES / ("link-%s.json" % name)))
    spec = replace(spec, drivers=replace(spec.drivers, rs_ohms=(rs,) * spec.termination.n))
    engine = build_link(spec)
    waves = run_transient(engine)
    e = engine.drive(waves.times()).T
    yc = engine.segments[0].yc
    pred = np.linalg.solve(np.eye(engine.n) + yc * rs, yc @ (e - engine.vref))
    assert np.max(np.abs(waves.source_currents - pred)) <= 1e-11 * np.max(np.abs(pred))


def _prbs5(name):
    """link-<name>.json at PRBS5, or "microstrip<es>-<em>": microstrip_bundle
    through realize_network on one 0.1016 m segment, in random mode."""
    if not name.startswith("microstrip"):
        spec = load_link(FIXTURES / ("link-%s.json" % name))
        return replace(spec, stimulus=replace(spec.stimulus, prbs_order=5))
    es, em = map(float, name[len("microstrip"):].split("-"))
    bundle = microstrip_bundle(es, em)
    return simple_link(bundle, realize_network(characteristic_impedance(bundle)[0].zc),
                       mode="random", prbs_order=5)


@pytest.mark.parametrize("rs", [0.0, 1.67])
@pytest.mark.parametrize("name", ["twelve", "pair", "scalar", "microstrip3.4-2.6",
                                  "microstrip3.8-2.2"])
def test_matched_link_is_a_modal_delay_line(name, rs):
    """A termination of Zc^-1 absorbs every mode, so the receiver sees each
    mode of the driver node volts delayed by the stepper's delay D_k (weight
    1 - f_k at i0_k steps, f_k at i0_k + 1): v_rx - vref = Mv D_k[Mi (v_drv -
    vref)], with v_drv = e - Rs i.  The microstrip modes travel at different
    speeds, so what they leave at the receiver is modal dispersion, which no
    resistive termination removes."""
    spec = _prbs5(name)
    spec = replace(spec, drivers=replace(spec.drivers, rs_ohms=(rs,) * spec.termination.n))
    engine = build_link(spec)
    waves = run_transient(engine)
    e = engine.drive(waves.times()).T
    seg = engine.segments[0]
    if name.startswith("microstrip"):  # the modes do arrive apart (28 and 54 ps)
        assert np.ptp(seg.tau) > 25e-12
    modes = seg.mi @ (e - rs * waves.source_currents - engine.vref)
    m = np.arange(int(seg.i0.max()) + 1, waves.volts.shape[1])  # samples whose input was kept
    at = m - seg.i0[:, None]
    rows = np.arange(engine.n)[:, None]
    delayed = (1.0 - seg.frac[:, None]) * modes[rows, at] + seg.frac[:, None] * modes[rows, at - 1]
    pred = seg.mvt.T @ delayed
    assert np.max(np.abs(waves.volts[:, m] - pred)) <= 1e-11 * np.max(np.abs(pred))


@pytest.mark.parametrize("rs", [0.0, 1.67])
@pytest.mark.parametrize("name", ["twelve", "pair", "scalar", "microstrip"])
def test_stepper_within_its_stated_error_of_exact_modal_delays(name, rs):
    """On a matched link the source current is (I + Rs Yc)^-1 Yc (e - vref)
    at every instant, so mode k leaves the driver as the k-th row of
    Mi (I + Rs Yc)^-1 (e - vref) and reaches the receiver exactly tau_k
    later: v_rx - vref = Mv x(t - tau).  drive_levels gives e at any time.
    The stepper reads each delay by linear interpolation between steps,
    which is exact where the drive is straight; where the slope changes by
    s inside a step it misses by at most s dt f (1 - f), f the delay's
    fraction of a step.  Every wire's ramp corners fall at the same
    instants, one at most inside a step (dt < rise_s), and change its slope
    by 0 or +-swing / rise_s, so wire i's slope changes by at most
    swing / rise_s * sum_k |Mv[i, k]| sum_j |(Mi (I + Rs Yc)^-1)[k, j]|.
    At PRBS5 and UI/64 the largest error is 5.6-9.5 mV."""
    spec = load_link(FIXTURES / ("link-%s.json" % name))
    spec = replace(spec, stimulus=replace(spec.stimulus, prbs_order=5),
                   drivers=replace(spec.drivers, rs_ohms=(rs,) * spec.termination.n))
    engine = build_link(spec)
    waves = run_transient(engine)
    seg, d = engine.segments[0], spec.drivers
    assert engine.dt < d.rise_s
    modal = seg.mi @ np.linalg.inv(np.eye(engine.n) + rs * seg.yc)
    t = waves.times()
    x = np.array([(engine.drive(t - tau) - engine.vref) @ row for tau, row in zip(seg.tau, modal)])
    error = np.abs(waves.volts - seg.mvt.T @ x).max(axis=1)
    s = (d.v_high - d.v_low) / d.rise_s * (np.abs(seg.mvt.T) @ np.abs(modal).sum(axis=1))
    bound = s * engine.dt * np.max(seg.frac * (1.0 - seg.frac))
    assert (error <= bound).all()
    assert error.max() > 5e-3  # the corners fall between steps


@pytest.mark.parametrize("breakout_m, periods", [(0.0, 0), (0.0005, 60), (0.001, 60)],
                         ids=["twelve", "breakout-0.5mm", "breakout-1mm"])
def test_run_reaches_the_periodic_steady_state(breakout_m, periods):
    """run_transient against the per-bin solve of its own discretization.
    link-twelve as shipped is matched: every kept sample is settled.  The
    breakout links at PRBS5 reflect at both ends and ring (the 1 mm ring
    decays by e every 85 bits or so), so they run 60 stream periods (1860
    bits) longer and their last period is held to the oracle."""
    spec = load_link(FIXTURES / "link-twelve.json")
    if breakout_m:
        spec = breakout_link(replace(spec, stimulus=replace(spec.stimulus, prbs_order=5)),
                             breakout_m)
    engine = build_link(spec)
    if periods:
        longer = engine.duration_s + periods * engine.streams.shape[1] * engine.ui
        engine = build_link(replace(spec, duration_s=longer))
    volts, _, _ = periodic_steady_state(engine)
    period, samples = volts.shape[1], engine.samples
    kept = np.arange(samples - period if periods else 0, samples)
    assert np.max(np.abs(run_transient(engine).volts[:, kept] - volts[:, kept % period])) <= 1e-9


@pytest.mark.parametrize("steps_per_ui", [64, 256])
@pytest.mark.parametrize("name", ["twelve", "pair", "scalar", "microstrip", "twelve-breakout-1mm"])
def test_settled_period_balances_power_exactly(name, steps_per_ui):
    """Over one settled period the power in at the drivers, less the power
    into the termination and its rail, is the energy the interpolated delays
    drop: E = (1 - f) w[t - i0] + f w[t - i0 - 1] gives
    sum E^2 = sum w^2 - f (1 - f) sum (w[t] - w[t - 1])^2 over a period, and
    a modal end takes in (w^2 - E^2) / 4.  Every node system conserves power,
    so the identity is exact; without the loss term the balance misses by
    1e-5 to 1e-3.  link-pair's 0 ohm drivers are pinned rows, link-microstrip's
    modes have unequal velocities, and the breakout link has junctions."""
    spec = load_link(FIXTURES / ("link-%s.json" % name.split("-")[0]))
    spec = replace(spec, stimulus=replace(spec.stimulus, prbs_order=5),
                   timestep_s=spec.stimulus.unit_interval / steps_per_ui)
    if name.endswith("breakout-1mm"):
        spec = breakout_link(spec, 0.001)
    engine = build_link(spec)
    volts, currents, waves = periodic_steady_state(engine)
    drive = engine.drive(engine.dt * (engine.start_index + np.arange(waves.shape[0]))).T
    rs = np.asarray(spec.drivers.rs_ohms)[:, None]
    power_in = np.sum((drive - rs * currents) * currents)
    v = volts + engine.vref  # the absolute receiver volts
    power_term = np.sum(v * (engine.y_net @ v - engine.svec[:, None] * engine.vref))
    dw = waves - np.roll(waves, 1, axis=0)  # cyclic: the period repeats
    loss = np.sum(engine.frac * (1.0 - engine.frac) * np.sum(dw * dw, axis=0)) / 4.0
    assert abs(power_in - power_term - loss) <= 1e-12 * power_in


def test_gather_outside_a_blocks_rows_is_refused():
    """The blocks gather with mode="clip", which would silently read the
    window's first cell for an index before it and its last cell for one
    past it; the indices are checked at build instead."""
    engine = build_link(breakout_link(load_link(FIXTURES / "link-twelve.json"), 0.0005))
    i0, n, pad, block = engine.i0, engine.n, engine.pad, engine.block
    assert np.array_equal(_block_gather(i0, n, pad, block), engine.gather)
    with pytest.raises(RuntimeError, match=r"a block of 2 steps would gather outside the "
                                           r"\d+ window rows it may read"):
        _block_gather(i0, n, pad - 1, block)  # one history row short: reads row -1
    ahead = i0.copy()
    ahead[0] = -1  # a delay that reads one row past the block
    with pytest.raises(RuntimeError, match="would gather outside"):
        _block_gather(ahead, n, pad, block)


def test_divergence_reports_first_bad_step_inside_a_block():
    engine = build_link(breakout_link(load_link(FIXTURES / "link-twelve.json"), 0.0005))
    n, block = engine.n, engine.block
    delay = int(engine.segments[1].i0[0])
    # the far-end history of the middle segment's first mode turns infinite
    # from step 0 on; its near end first reads it one delay later
    engine.step_s[-1, 3 * n] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(SimulationDivergedError) as blocked:
        run_transient(engine)
    assert blocked.value.step == delay
    assert delay % block != 0  # inside a block, not at its start
    engine.block = 1  # one step per block is the per-step loop
    with np.errstate(invalid="ignore"), pytest.raises(SimulationDivergedError) as per_step:
        run_transient(engine)
    assert per_step.value.step == delay


def _warmup_refusal(delay, dt, gb, length):
    return re.escape("the warmup of a %s s modal delay at a %s s timestep needs about %s GB of "
                     "memory, over the 1.07 GB budget; lengthen timestep_s or shorten the %s m "
                     "segment" % (delay, dt, gb, length))


@pytest.mark.parametrize("change, message, bound", [
    ({"prbs_order": 23}, r"a link of \d+ timesteps needs about [\d.]+ GB of memory, over the "
                         r"1\.07 GB budget; lower prbs_order, lengthen timestep_s or shorten "
                         r"duration_s", 2**20),
    ({"timestep_s": 1e-16}, _warmup_refusal("5.86994e-10", "1e-16", "2.25", "0.1016"), 2**20),
    # tau / dt overflows a float (a denormal timestep) or int64 (a huge
    # length): refused before the cast, without a warning
    ({"timestep_s": 1e-320}, _warmup_refusal("5.86994e-10", "9.99989e-321", "inf", "0.1016"),
     2**20),
    ({"length_m": 1e300}, _warmup_refusal("5.7775e+291", "9.76563e-13", "2.27e+297", "1e+300"),
     2**20),
    # the step map, 2w x (w + 2n) words and more with w = 2n x 500, would
    # hold about 2.4 GB and need 3.5 GB to build; up to the pre-flight the
    # segments hold 2.9 MB
    ({"segments": 500}, re.escape(
        "a link of 910392 timesteps needs about 6.7 GB of memory, over the 1.07 GB budget; "
        "lower prbs_order, lengthen timestep_s or shorten duration_s or the segment list"),
     2**22),
], ids=["prbs23", "timestep-1e-16", "timestep-1e-320", "length-1e300", "segments-500"])
def test_oversized_link_rejected_before_allocation(change, message, bound):
    spec = load_link(FIXTURES / "link-twelve.json")
    if "prbs_order" in change:
        spec = replace(spec, stimulus=replace(spec.stimulus, **change))
    elif "length_m" in change:
        spec = replace(spec, segments=(replace(spec.segments[0], **change),))
    elif "segments" in change:
        spec = replace(spec, segments=spec.segments * change["segments"])
    else:
        spec = replace(spec, **change)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                build_link(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("name", ["twelve", "twelve-breakout-0.5mm", "pair",
                                  "scalar-breakout-0.5mm", "twelve-x20"])
def test_stepper_peak_within_preflight_estimate(name):
    """The pre-flight's figure bounds the traced peak of building the link,
    step map included, and running it."""
    twelve = load_link(FIXTURES / "link-twelve.json")
    spec = {"twelve": twelve, "twelve-breakout-0.5mm": breakout_link(twelve, 0.0005),
            "pair": load_link(FIXTURES / "link-pair.json"),
            # the peak is the output rows and the drive, as estimated, so the
            # 64 KiB allowance for small arrays is what keeps it under
            "scalar-breakout-0.5mm": breakout_link(load_link(FIXTURES / "link-scalar.json"),
                                                   0.0005),
            # w = 480, where the step map's w^2 words no longer fit in the allowance
            "twelve-x20": replace(twelve, segments=twelve.segments * 20)}[name]
    tracemalloc.start()
    try:
        engine = build_link(spec)
        run_transient(engine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= engine.stepper_bytes(engine.steps)


def test_step_map_is_held_at_its_own_size():
    """On link-twelve's segment repeated 40 times (w = 960) the built link
    holds step_e, step_s and the gather, each an array of its own: no view
    keeps the step columns alive, and the identity is freed before the
    gather is built."""
    twelve = load_link(FIXTURES / "link-twelve.json")
    spec = replace(twelve, segments=twelve.segments * 40)
    tracemalloc.start()
    try:
        engine = build_link(spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 26e6
    assert peak < 36e6
    assert held <= engine.step_map_bytes() + 2**20
    for part in (engine.step_e, engine.step_s, engine.gather):
        assert part.flags.owndata
    assert engine.step_s.shape == (engine.n + 1, engine.width + 2 * engine.n)
    assert engine.step_e.flags.f_contiguous  # the layout np.dot rounds with


@pytest.mark.parametrize("name", ["twelve", "pair", "scalar"])
def test_each_extra_step_adds_only_its_returned_samples(name):
    """The pre-flight budgets one window plus the returned volts and source
    currents, two float64s per wire a step."""
    engine = build_link(load_link(FIXTURES / ("link-%s.json" % name)))
    for steps in (0, 1, 4096, engine.steps, 10**7):
        assert engine.stepper_bytes(steps + 1) - engine.stepper_bytes(steps) == 16 * engine.n


def test_stepper_holds_one_window_not_every_step():
    twelve = load_link(FIXTURES / "link-twelve.json")
    engine = build_link(replace(twelve, stimulus=replace(twelve.stimulus, prbs_order=9)))
    tracemalloc.start()
    try:
        waves = run_transient(engine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # stepper_bytes(0) is the pre-flight's figure for one window: all it
    # budgets beyond the returned samples
    assert peak <= waves.volts.nbytes + waves.source_currents.nbytes + engine.stepper_bytes(0)
    assert engine.steps > 4 * engine.window_steps()


def test_matched_line_delay_and_flatness():
    # R_s = 0, matched 50 ohm termination: received = source delayed by tau
    link = simple_link(scalar_bundle(), fifty_ohm_network(1), rs_ohms=0.0,
                       mode="worst", streams=((1, 0, 1, 1, 0, 0, 1, 0),) )
    engine = build_link(link)
    tau = 0.1016 / 2.0e8
    assert engine.total_delay_s == pytest.approx(tau, rel=1e-12)
    waves = run_transient(engine)
    bits, v = center_samples(waves, 16e9, tau)
    stream = np.array([1, 0, 1, 1, 0, 0, 1, 0])
    want = stream[bits % 8] - 0.5
    # steady plateaus are exact: no reflection residue at bit centers
    assert np.max(np.abs(v[0] - want)) < 1e-9


def test_matched_divider_exact():
    link = simple_link(scalar_bundle(), fifty_ohm_network(1), rs_ohms=50.0,
                       mode="worst", streams=((1, 0, 1, 1, 0, 0, 1, 0),))
    waves = run_transient(build_link(link))
    bits, v = center_samples(waves, 16e9, 0.1016 / 2.0e8)
    stream = np.array([1, 0, 1, 1, 0, 0, 1, 0])
    want = 0.5 * (stream[bits % 8] - 0.5)  # amplitude halves: Zc/(Zc+Rs)
    assert np.max(np.abs(v[0] - want)) < 1e-9


def test_dc_solve_oracles():
    link = simple_link(scalar_bundle(), fifty_ohm_network(1), rs_ohms=0.0)
    engine = build_link(link)
    node_volts, _ = engine.solve_dc([1.0])
    assert node_volts[0] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError, match="drive has shape"):
        engine.solve_dc([1.0, 0.0])  # all pinned: no solve would notice

    link = simple_link(scalar_bundle(), fifty_ohm_network(1), rs_ohms=50.0)
    node_volts, _ = build_link(link).solve_dc([1.0])
    assert node_volts[0] == pytest.approx(0.75, abs=1e-12)  # vref + (e-vref)/2

    link = simple_link(pair_bundle(), full_pair_network(), rs_ohms=0.0)
    _, source_currents = build_link(link).solve_dc([1.0, 0.0])
    assert np.allclose(source_currents, [12.5e-3, -12.5e-3], atol=1e-12)
    _, source_currents = build_link(link).solve_dc([1.0, 1.0])
    assert np.allclose(source_currents, [6.0e-3, 6.0e-3], atol=1e-12)


def test_dc_solve_mixed_pinned_and_free():
    # wire 1 is pinned at its drive; wire 2 sees its drive through 25 ohm, so
    # its row of the nodal system, with v1 known, is one equation in v2
    net = full_pair_network()
    engine = build_link(simple_link(pair_bundle(), net, rs_ohms=(0.0, 25.0)))
    y, s = network_admittance(net), self_conductances(net)
    g2 = 1.0 / 25.0
    for e in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.3, -0.7]):
        node_volts, source_currents = engine.solve_dc(e)
        v2 = (g2 * e[1] + s[1] * net.vref - y[1, 0] * e[0]) / (g2 + y[1, 1])
        assert abs(node_volts[0] - e[0]) <= 1e-12
        assert abs(node_volts[1] - v2) <= 1e-12
        assert abs(source_currents[1] - g2 * (e[1] - v2)) <= 1e-12


def test_singular_node_system_is_named():
    with pytest.raises(ValidationError, match="junction 1 nodal system is singular"):
        _NodeSolve(np.ones((2, 2)), np.zeros(2), np.zeros(2, dtype=bool), "junction 1")


def test_transient_settles_to_dc():
    # long constant tail after a few transitions, then compare with solve_dc
    tail = 112
    s1 = tuple([1, 0, 1, 1, 0, 0, 1, 0] + [1] * tail)
    s2 = tuple([0, 1, 1, 0, 1, 0, 0, 1] + [0] * tail)
    link = simple_link(pair_bundle(), full_pair_network(), rs_ohms=1.67,
                       streams=(s1, s2))
    engine = build_link(link)
    assert tail * UI > 10 * engine.total_delay_s
    waves = run_transient(engine)
    node_volts, source_currents = engine.solve_dc([1.0, 0.0])
    # sample the center of the last tail bit as seen at the receiver: the
    # (1, 0) code has then been applied for more than ten line flights
    t_star = engine.nominal_delay_s + (8 + tail - 0.5) * UI
    m = int(round((t_star - waves.start_time) / waves.dt))
    got = waves.volts[:, m] + waves.vref
    assert np.max(np.abs(got - node_volts)) < 1e-3  # 0.1% of 1 V swing
    assert np.max(np.abs(waves.source_currents[:, m] - source_currents)) < 1e-6


def test_victim_isolation_and_source_currents():
    # full cancelling network, R_s = 0: aggressor toggles, victim stays quiet
    s1 = tuple([1, 0] * 16)
    s2 = tuple([0, 0] * 16)
    link = simple_link(pair_bundle(), full_pair_network(), rs_ohms=0.0,
                       streams=(s1, s2))
    engine = build_link(link)
    waves = run_transient(engine)
    swing = 1.0
    victim = waves.volts[1]
    assert victim.max() - victim.min() < 0.01 * swing
    # source currents at bit centers: (1,0) -> +-12.5 mA, (0,0) -> -6 mA both
    tau = engine.total_delay_s
    bits, _ = center_samples(waves, 16e9, 0.0)
    t = waves.times()
    idx = np.round((bits * UI + 0.5 * UI - t[0]) / waves.dt).astype(int)
    keep = (idx >= 0) & (idx < waves.source_currents.shape[1])
    for b, m in zip(bits[keep], idx[keep]):
        i1, i2 = waves.source_currents[:, m]
        if b % 2 == 0:  # code (1, 0)
            assert abs(i1 - 12.5e-3) < 0.005 * 12.5e-3
            assert abs(i2 + 12.5e-3) < 0.005 * 12.5e-3
        else:           # code (0, 0)
            assert abs(i1 + 6.0e-3) < 0.005 * 6.0e-3
            assert abs(i2 + 6.0e-3) < 0.005 * 6.0e-3


def test_mode_purity_on_symmetric_pair():
    bits = tuple(int(b) for b in np.random.default_rng(3).integers(0, 2, 16))
    worst = simple_link(pair_bundle(), full_pair_network(), rs_ohms=1.67,
                        streams=(bits, bits))  # pure even-mode drive
    waves = run_transient(build_link(worst))
    assert np.max(np.abs(waves.volts[0] - waves.volts[1])) <= 1e-9
    inverted = tuple(1 - b for b in bits)
    best = simple_link(pair_bundle(), full_pair_network(), rs_ohms=1.67,
                       streams=(bits, inverted))  # pure odd-mode drive
    waves = run_transient(build_link(best))
    assert np.max(np.abs(waves.volts[0] + waves.volts[1])) <= 1e-9


def test_uncoupled_equivalence_exact():
    # diagonal L/C: the 3-wire run must equal three scalar runs sample for sample
    rows = (tuple(np.random.default_rng(5).integers(0, 2, 32)),
            tuple(np.random.default_rng(6).integers(0, 2, 32)),
            tuple(np.random.default_rng(7).integers(0, 2, 32)))
    link3 = simple_link(uncoupled_bundle(3), fifty_ohm_network(3), rs_ohms=1.67,
                        streams=rows)
    waves3 = run_transient(build_link(link3))
    for k in range(3):
        link1 = simple_link(scalar_bundle(), fifty_ohm_network(1), rs_ohms=1.67,
                            streams=(rows[k],))
        waves1 = run_transient(build_link(link1))
        assert waves1.volts.shape == (1, waves3.volts.shape[1])
        assert np.max(np.abs(waves3.volts[k] - waves1.volts[0])) <= 1e-12


def test_segment_split_commensurate_delay_is_exact():
    # length chosen so the one-way delay is exactly 1200 timesteps: history
    # lookups hit grid points and splitting the segment changes nothing
    dt = UI / 64
    length = DEFAULT_VELOCITY * (1200 * dt)
    bits = tuple(np.random.default_rng(11).integers(0, 2, 24))
    one = simple_link(pair_bundle(), full_pair_network(), rs_ohms=1.67,
                      length_m=length, streams=(bits, bits[::-1]))
    two = LinkSpec(segments=(Segment(bundle=pair_bundle(), length_m=length / 2),
                             Segment(bundle=pair_bundle(), length_m=length / 2)),
                   drivers=one.drivers, termination=one.termination,
                   stimulus=one.stimulus)
    wa = run_transient(build_link(one))
    wb = run_transient(build_link(two))
    m = min(wa.volts.shape[1], wb.volts.shape[1])
    assert np.max(np.abs(wa.volts[:, :m] - wb.volts[:, :m])) < 1e-9


def test_segment_split_generic_small_error():
    # incommensurate delays exercise history interpolation; a gentle edge and
    # a fine timestep keep the corner rounding far below 0.1% of the swing
    bits = tuple(np.random.default_rng(13).integers(0, 2, 16))
    kw = dict(rs_ohms=1.67, rise_s=50e-12, timestep_s=UI / 512,
              streams=(bits, bits[::-1]))
    one = simple_link(pair_bundle(), full_pair_network(), **kw)
    two = LinkSpec(segments=(Segment(bundle=pair_bundle(), length_m=0.0508),
                             Segment(bundle=pair_bundle(), length_m=0.0508)),
                   drivers=one.drivers, termination=one.termination,
                   stimulus=one.stimulus, timestep_s=UI / 512)
    wa = run_transient(build_link(one))
    wb = run_transient(build_link(two))
    m = min(wa.volts.shape[1], wb.volts.shape[1])
    assert np.max(np.abs(wa.volts[:, :m] - wb.volts[:, :m])) < 1e-3


def test_wire_count_mismatch_errors():
    stim = StimulusSpec(data_rate=16e9, mode="worst")
    with pytest.raises(ValidationError):
        build_link(LinkSpec(
            segments=(Segment(bundle=pair_bundle(), length_m=0.1),
                      Segment(bundle=uncoupled_bundle(3), length_m=0.1)),
            drivers=DriverBank(rs_ohms=(0.0, 0.0)),
            termination=fifty_ohm_network(2), stimulus=stim))
    with pytest.raises(ValidationError):
        build_link(LinkSpec(
            segments=(Segment(bundle=pair_bundle(), length_m=0.1),),
            drivers=DriverBank(rs_ohms=(0.0, 0.0, 0.0)),
            termination=fifty_ohm_network(2), stimulus=stim))
    with pytest.raises(ValidationError, match="link needs at least one segment"):
        build_link(LinkSpec(segments=(), drivers=DriverBank(rs_ohms=(0.0, 0.0)),
                            termination=fifty_ohm_network(2), stimulus=stim))


def test_timestep_and_duration_validation():
    link = simple_link(scalar_bundle(), fifty_ohm_network(1),
                       timestep_s=1e-9)  # one step is longer than the flight
    with pytest.raises(ValidationError):
        build_link(link)
    with pytest.raises(ValidationError):
        build_link(simple_link(scalar_bundle(), fifty_ohm_network(1),
                               duration_s=1e-12))
    for duration in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="duration_s must be finite, got %s"
                                                  % duration):
            build_link(simple_link(scalar_bundle(), fifty_ohm_network(1),
                                   duration_s=duration))
    with pytest.raises(ValidationError):
        Segment(bundle=scalar_bundle(), length_m=0.0)
    with pytest.raises(ValidationError):
        DriverBank(rs_ohms=(-1.0,))


@pytest.mark.parametrize("data_rate, rise_s, steps_per_ui", [
    (16e9, 10e-12, 64),
    (1e9, 10e-12, 101),
    # a rise one ulp under 1 ns / 90: UI / rise reads 90.0, but the step
    # 1 ns / 90 is above the rise, so the ceil is checked
    (1e9, float(np.nextafter(1e-9 / 90, 0.0)), 91),
], ids=["16G", "1G", "1G-ulp"])
def test_default_grid_steps_inside_the_rise_time(data_rate, rise_s, steps_per_ui):
    """Without timestep_s the step is UI/K, K the smallest whole number >= 64
    whose step is no longer than rise_s, so the one ramp check passes on every
    default grid.  At 1 Gb/s, UI/64 is 15.6 ps, over a 10 ps rise."""
    engine = build_link(simple_link(scalar_bundle(), fifty_ohm_network(1), data_rate=data_rate,
                                    rise_s=rise_s))
    ui = 1.0 / data_rate
    assert engine.dt == ui / steps_per_ui
    assert engine.dt <= rise_s
    assert steps_per_ui == mtlsim.TIMESTEPS_PER_UI or ui / (steps_per_ui - 1) > rise_s


@pytest.mark.parametrize("levels, message", [
    ((-math.inf, 1.0), "driver v_low -inf, v_high 1.0 and their difference must be finite"),
    ((0.0, math.inf), "driver v_low 0.0, v_high inf and their difference must be finite"),
    ((-1e308, 1e308), "driver v_low -1e\\+308, v_high 1e\\+308 and their difference must"),
], ids=["v_low", "v_high", "swing"])
def test_driver_levels_must_be_finite(levels, message):
    with pytest.raises(ValidationError, match=message):
        DriverBank(rs_ohms=(0.0,), v_low=levels[0], v_high=levels[1])


def test_waveform_csv_roundtrip(tmp_path):
    link = simple_link(pair_bundle(), full_pair_network(), rs_ohms=1.67,
                       streams=((1, 0, 1, 1, 0, 0, 1, 0),
                                (0, 1, 0, 0, 1, 1, 0, 1)))
    engine = build_link(link)
    waves = run_transient(engine)
    path = tmp_path / "waves.csv"
    write_waveform_csv(waves, path)
    header = path.read_text().splitlines()[0]
    assert header == "time_s,w1,w2"
    back = read_waveform_csv(path, engine)
    assert np.array_equal(back.volts, waves.volts)  # repr round-trips doubles
    # the engine's grid, which the checked time column holds bit for bit
    assert (back.dt, back.start_time, back.vref, back.nominal_delay_s) \
        == (waves.dt, waves.start_time, waves.vref, waves.nominal_delay_s)
    t = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0)
    assert np.array_equal(t, back.times())
    # the volts own their samples, so they do not hold the parse buffer
    assert back.volts.base is None
    assert back.source_currents is None


def scalar_engine():
    return build_link(load_link(FIXTURES / "link-scalar.json"))


# Files read_waveform_csv refuses on a one-wire link before the grid checks,
# and a part of each refusal (None: any ValidationError).
VALIDATION_FILES = {
    "bad-header": ("volt,w1\n0.0,0.1\n1.0,0.2\n", None),
    "ragged": ("time_s,w1\n0.0,0.1\n1.0\n", None),
    "uneven": ("time_s,w1\n0.0,0.1\n1.0,0.2\n3.0,0.3\n", None),
    "inf": ("time_s,w1\n0.0,0.1\n1.0,inf\n2.0,0.3\n", "non-finite w1 sample in data row 2"),
    "abc": ("time_s,w1\n0.0,0.1\n1.0,abc\n2.0,0.3\n",
            "waveform CSV: could not convert string 'abc' to float64"),
}


def test_waveform_csv_validation(tmp_path):
    engine = scalar_engine()
    path = tmp_path / "w.csv"
    for text, reason in VALIDATION_FILES.values():
        path.write_text(text)
        with pytest.raises(ValidationError, match=reason):
            read_waveform_csv(path, engine)


def _second(rows, text):
    return rows[:1] + [text] + rows[1:]


# Edits of the data rows sim writes for a one-wire link, and the start of
# the refusal (None: read as written).  numpy's row numbers are left out of
# the match: it counts a conversion's row from 0 and a width change's from 1.
FORMAT_CASES = {
    "blank-lines": (lambda rows: ["\n" + r for r in rows], None),
    "padded": (lambda rows: [" %s ,\t%s " % tuple(r.split(",")) for r in rows], None),
    "hash-field": (lambda rows: _second(rows, "#" + rows[1]), "could not convert string '#"),
    "hash-line": (lambda rows: _second(rows, "# note"),
                  "the number of columns changed from 2 to 1 at row "),
    "underscore": (lambda rows: _second(rows, rows[1].split(",")[0] + ",1_0"),
                   "could not convert string '1_0' to float64 at row "),
    "trailing-comma": (lambda rows: [r + "," for r in rows],
                       "could not convert string '' to float64 at row "),
    "space-line": (lambda rows: _second(rows, "   "),
                   "the number of columns changed from 2 to 1 at row "),
    "non-ascii-digit": (lambda rows: _second(rows, rows[1].split(",")[0] + ",\u0661"),
                        "could not convert string '\u0661' to float64 at row "),
    "extra-column": (lambda rows: [r + ",0.5" for r in rows], "row has 3 fields, expected 2"),
    "header-only": (lambda rows: [], "needs at least two samples"),
}


@pytest.mark.parametrize("edit,refusal", FORMAT_CASES.values(), ids=FORMAT_CASES.keys())
def test_waveform_csv_format(tmp_path, edit, refusal):
    """read_waveform_csv reads numpy's decimal floats, padded or between
    blank lines, and refuses anything else with the reason, never warning."""
    engine = scalar_engine()
    path = tmp_path / "w.csv"
    write_waveform_csv(run_transient(engine), path)
    header, *rows = path.read_text().splitlines()
    expected = read_waveform_csv(path, engine)
    path.write_text("\n".join([header] + edit(rows)) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refusal is None:
            assert np.array_equal(read_waveform_csv(path, engine).volts, expected.volts)
        else:
            with pytest.raises(ValidationError) as err:
                read_waveform_csv(path, engine)
            assert str(err.value).startswith("waveform CSV")
            assert refusal in str(err.value)


def test_waveform_read_peak_within_estimate(tmp_path, cpus):
    """read_waveform_csv's traced peak on the twelve-wire link stays within
    waveform_read_bytes: the rows array beside one range's parse (every
    k-th range is parsed here), then the volts, on one to three CPUs."""
    engine = build_link(load_link(FIXTURES / "link-twelve.json"))
    path = tmp_path / "waves.csv"
    write_waveform_csv(run_transient(engine), path)
    cpus.forks.clear()
    for k in (1, 2, 3):
        cpus(k)
        tracemalloc.start()
        try:
            volts = read_waveform_csv(path, engine).volts
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert volts.shape == (engine.n, engine.samples)
        assert peak <= mtlsim.waveform_read_bytes(*volts.shape)
    assert len(cpus.forks) == 3  # three 1 MiB ranges: one fork on two CPUs, two on three
    assert_no_child()


def short_scalar_engine():
    """A one-wire link of four bits: 905 samples, a 33 kB waveform file."""
    return build_link(simple_link(scalar_bundle(), fifty_ohm_network(1), streams=((1, 0, 1, 1),)))


def one_process_rows(fh, width, rows):
    """How read_waveform_csv parsed the rows in one process, before the
    ranges: the reference of the tests below."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, max_rows=rows)


def read_outcome(path, engine):
    """read_waveform_csv's volts, or the text of its refusal; it must not warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read_waveform_csv(path, engine).volts
        except ValidationError as exc:
            return str(exc)


def one_process_outcome(path, engine, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(mtlsim, "read_csv_rows", one_process_rows)
        return read_outcome(path, engine)


def same_outcome(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(a, b)


# Range sizes for the tests below, from a data row's text: a few bytes, so
# most ranges hold no line start, and about one row.
SPANS = {"few-bytes": lambda row: 9, "one-row": lambda row: len(row) + 1}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("span", SPANS)
def test_waveform_read_in_ranges_matches_one_process(tmp_path, monkeypatch, cpus, span, k):
    """Every FORMAT_CASES edit and every VALIDATION_FILES file reads, in
    small ranges on one to three CPUs, as one process reads it: the same
    volts, or the same refusal, numpy's row numbers included."""
    engine = short_scalar_engine()
    path = tmp_path / "w.csv"
    write_waveform_csv(run_transient(engine), path)
    header, *rows = path.read_text().splitlines()
    texts = {name: "\n".join([header] + edit(rows)) + "\n"
             for name, (edit, _) in FORMAT_CASES.items()}
    texts.update((name, text) for name, (text, _) in VALIDATION_FILES.items())
    expected = {}
    for name, text in texts.items():
        path.write_text(text, encoding="utf-8")
        expected[name] = one_process_outcome(path, engine, monkeypatch)
    monkeypatch.setattr(textio, "_RANGE_BYTES", SPANS[span](rows[0]))
    cpus(k)
    for name, text in texts.items():
        path.write_text(text, encoding="utf-8")
        assert same_outcome(read_outcome(path, engine), expected[name]), name
        assert_no_child()
    assert isinstance(expected["padded"], np.ndarray) and isinstance(expected["hash-line"], str)
    assert (len(cpus.forks) > 0) == (k > 1)


def blank_lines_on_edges(lines, start, span):
    """lines, each ending in a newline, with blank lines put in so that one
    begins at each offset start + j * span that a line would cover; the
    text, and how many blank lines begin on such an offset."""
    out, pos, edge, hits = [], start, start, 0
    for line in lines:
        while edge < pos:
            edge += span
        if edge < pos + len(line):
            out.append("\n" * (edge - pos + 1))
            pos, hits = edge + 1, hits + 1
        out.append(line)
        pos += len(line)
    return "".join(out), hits


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("span", SPANS)
def test_waveform_read_in_ranges_takes_every_line_ending(tmp_path, monkeypatch, cpus, span, k):
    """CRLF and CR line endings, and blank lines that begin on a range's
    first byte, read the volts of the file as sim wrote it."""
    engine = short_scalar_engine()
    path = tmp_path / "w.csv"
    write_waveform_csv(run_transient(engine), path)
    header, *rows = path.read_text().splitlines()
    expected = read_waveform_csv(path, engine).volts
    size = SPANS[span](rows[0])
    monkeypatch.setattr(textio, "_RANGE_BYTES", size)
    cpus(k)
    start = len(header) + 1
    lines = [r + "\n" for r in rows]
    blanks, hits = blank_lines_on_edges(lines, start, size)
    assert hits > 0
    bodies = {"crlf": "".join(lines).replace("\n", "\r\n"),
              "cr": "".join(lines).replace("\n", "\r"),
              "blank-on-edges": blanks}
    for name, body in bodies.items():
        newline = {"crlf": "\r\n", "cr": "\r"}.get(name, "\n")
        data = (header + newline + body).encode()
        path.write_bytes(data)
        edges = range(start + (newline == "\r\n"), len(data), size)
        if name == "crlf":  # some \r\n is cut in two by a range's first byte
            assert any(data[e - 1:e + 1] == b"\r\n" for e in edges)
        assert same_outcome(read_outcome(path, engine), expected), name
        assert_no_child()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_waveform_read_stops_at_the_row_past_the_grid(tmp_path, monkeypatch, cpus, k):
    """A file three times longer than the grid is read no further than the
    range that holds its row past the grid: the map is closed there, and
    every worker is killed and reaped."""
    engine = short_scalar_engine()
    path = tmp_path / "w.csv"
    write_waveform_csv(run_transient(engine), path)
    header, *rows = path.read_text().splitlines()
    volts = [row.split(",")[1] for row in rows]
    t0 = engine.start_index * engine.dt
    longer = ["%r,%s" % (t0 + m * engine.dt, volts[m % len(rows)]) for m in range(3 * len(rows))]
    path.write_text("\n".join([header] + longer) + "\n")
    monkeypatch.setattr(textio, "_RANGE_BYTES", len(rows[0]) + 1)
    counts, sent = [], []
    real = textio.on_cpus

    def counted(compute, count, *budget):
        counts.append(count)
        with contextlib.closing(real(compute, count, *budget)) as results:
            for data in results:
                sent.append(len(data))
                yield data

    monkeypatch.setattr(textio, "on_cpus", counted)
    cpus(k)
    refusal = read_outcome(path, engine)
    assert refusal == one_process_outcome(path, engine, monkeypatch)
    assert refusal.endswith("more than %d samples, link's waveforms have %d"
                            % (engine.samples, engine.samples))
    assert sum(sent) >= 16 * (engine.samples + 1) and len(sent) < counts[0] / 2
    assert len(cpus.forks) == k - 1 and sorted(cpus.kills) == sorted(cpus.forks)
    assert_no_child()


def test_link_json_loading(tmp_path):
    spec = load_link(FIXTURES / "link-pair.json")
    assert spec.termination.n == 2
    assert spec.drivers.rs_ohms == (0.0, 0.0)
    assert spec.stimulus.mode == "worst"
    with pytest.raises(ValidationError):
        link_from_dict({"segments": []})
    term = {"n": 1, "vref": 0.5,
            "elements": [{"kind": "self", "i": 1, "j": None, "ohms": 50.0}]}
    with pytest.raises(ValidationError):
        link_from_dict({"segments": [{"bundle": {"n": 1, "L": [[2.5e-7]],
                                                 "C": [[1e-10]], "name": "s"},
                                      "length_m": 0.1}],
                        "drivers": {}, "termination": term,
                        "stimulus": {}})  # stimulus missing data_rate
    # malformed field values name the field instead of escaping as bare
    # ValueError/TypeError
    for part, key, value in (("segment", "length_m", "abc"),
                             ("segment", "length_m", None),
                             ("stimulus", "prbs_order", "seven"),
                             ("drivers", "rs_ohms", [1, "x"]),
                             ("stimulus", "streams", [["a", 0, 1]]),
                             # non-integer numbers are rejected, not truncated
                             ("stimulus", "prbs_order", 7.9),
                             ("stimulus", "seed", 3.5),
                             ("stimulus", "streams", [[0.5, 1]]),
                             ("stimulus", "streams", [[0, 1.7]]),
                             # true and quoted numbers are not numbers
                             ("segment", "length_m", True),
                             ("stimulus", "seed", True),
                             ("drivers", "rs_ohms", True),
                             ("drivers", "rs_ohms", "25"),
                             ("stimulus", "streams", [[True, 0]])):
        doc = {"segments": [{"bundle": {"n": 1, "L": [[2.5e-7]], "C": [[1e-10]]},
                             "length_m": 0.1}],
               "drivers": {}, "termination": term, "stimulus": {"data_rate": 16e9}}
        (doc["segments"][0] if part == "segment" else doc[part])[key] = value
        with pytest.raises(ValidationError, match="bad %s" % key):
            link_from_dict(doc)
    # a misspelt key is refused, not ignored
    for part, key in (("link document", "duraton_s"), ("segment", "lenght_m"),
                      ("drivers", "rs_ohm"), ("stimulus", "prbs_ordr"),
                      # per-wire overrides are spelled as explicit streams
                      ("stimulus", "offsets"), ("stimulus", "invert_mask")):
        doc = {"segments": [{"bundle": {"n": 1, "L": [[2.5e-7]], "C": [[1e-10]]},
                             "length_m": 0.1}],
               "drivers": {}, "termination": term, "stimulus": {"data_rate": 16e9}}
        owner = (doc if part == "link document" else doc["segments"][0] if part == "segment"
                 else doc[part])
        owner[key] = 9
        with pytest.raises(ValidationError, match=r"%s has unknown field\(s\): %s$" % (part, key)):
            link_from_dict(doc)


def test_run_transient_duration_override():
    link = simple_link(scalar_bundle(), fifty_ohm_network(1), rs_ohms=0.0)
    engine = build_link(link)
    waves = run_transient(build_link(replace(link, duration_s=engine.duration_s + 20 * UI)))
    longer = waves.volts.shape[1]
    base = run_transient(engine).volts.shape[1]
    assert longer > base
