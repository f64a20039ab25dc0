"""Vertical eye measurement and rendering tests."""

import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from designs import fifty_ohm_network, pair_bundle, scalar_bundle, simple_link
from xtcancel.errors import DegenerateStreamError, ValidationError
from xtcancel.eye import (_SCAN_CELLS, eye_bytes, eye_measure, fold_phases, render_eye_svg,
                          write_eye_json, write_folded_csv)
from xtcancel.mtlsim import Waveforms, build_link, load_link, run_transient
from xtcancel.textio import _CHUNK_CELLS, formatted

UI = 62.5e-12
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def square_waves(unit, reps=4, data_rate=16e9, steps=64, amplitude=0.5,
                 offset=0.0):
    """Ideal square wave: `unit` bit pattern repeated `reps` times.

    Returns (waves, streams) where streams holds one period of the pattern,
    so the waveform span comfortably exceeds period + 1 unit intervals.
    """
    unit = np.asarray(unit)
    bits = np.tile(unit, reps)
    ui = 1.0 / data_rate
    dt = ui / steps
    volts = (np.repeat(2.0 * bits - 1.0, steps) * amplitude + offset)[None, :]
    waves = Waveforms(dt=dt, start_time=0.0, vref=0.5, volts=volts,
                      source_currents=np.zeros_like(volts),
                      nominal_delay_s=0.0)
    return waves, unit[None, :]


def reference_eye_measure(waves, streams, data_rate):
    """The per-wire, per-offset scan eye_measure replaced: [(eye_v, phase_ui)]."""
    n, samples = waves.volts.shape
    ui = 1.0 / float(data_rate)
    period = streams.shape[1]
    hint = waves.nominal_delay_s
    t0 = waves.start_time
    t_last = t0 + (samples - 1) * waves.dt
    offsets = hint - 0.5 * ui + waves.dt * np.arange(max(int(round(ui / waves.dt)), 1))
    out = []
    for w in range(n):
        eyes = np.full(offsets.size, -np.inf)
        for k, o in enumerate(offsets):
            b_lo = int(np.ceil((t0 - o) / ui - 0.5))
            b_hi = int(np.floor((t_last - o) / ui - 0.5))
            if b_hi - b_lo + 1 < period:
                continue
            bits = np.arange(b_lo, b_hi + 1)
            idx = np.round((o + (bits + 0.5) * ui - t0) / waves.dt).astype(np.int64)
            keep = (idx >= 0) & (idx < samples)
            vals = waves.volts[w, idx[keep]]
            labels = streams[w, bits[keep] % period]
            ones = vals[labels == 1]
            zeros = vals[labels == 0]
            if ones.size == 0 or zeros.size == 0:
                continue
            eyes[k] = ones.min() - zeros.max()
        best_eye = float(eyes.max())
        best_off = float(offsets[int(np.argmax(eyes >= best_eye - 1e-12))])
        out.append((max(best_eye, 0.0), float((best_off % ui) / ui)))
    return out


def test_eye_measure_matches_per_wire_reference():
    link = simple_link(pair_bundle(), fifty_ohm_network(2), rs_ohms=1.67, mode="random")
    engine = build_link(link)
    waves = run_transient(engine)
    rng = np.random.default_rng(5)
    units = rng.integers(0, 2, (3, 16))
    units[:, 0], units[:, 1] = 0, 1
    square, _ = square_waves(units[0], reps=3)
    square = Waveforms(dt=square.dt, start_time=0.0, vref=0.5, nominal_delay_s=0.0,
                       volts=np.concatenate([square_waves(u, reps=3)[0].volts
                                             for u in units])
                       + 0.05 * np.sin(0.37 * np.arange(square.volts.shape[1])))
    # Bits centered on the UI marks, sampled from a quarter step before them,
    # and a first sample that would shrink the eye: bit 0's sampling time
    # falls before the first sample, so no offset samples it there.
    edge, unit = square_waves([1, 0, 1, 1, 0, 0, 1, 0])
    volts = np.roll(edge.volts, -32, axis=1)
    volts[0, 0] = 0.1
    edge = replace(edge, volts=volts, nominal_delay_s=-0.25 * edge.dt)
    # the third case moves the offset grid by a nonzero nominal delay
    cases = [(waves, engine.streams), (square, units),
             (replace(square, nominal_delay_s=0.3 * UI), units), (edge, unit)]
    # Seeded moves of the time axis: a start time up to 1 ms, and a nominal
    # delay moved by a fraction of a step and by -1, 0 or +1 us, so each
    # offset's bit bounds round at other places.  eye_measure takes a full
    # period on the waveform from its span check alone; the reference checks
    # both for every offset.  The cut copies span one step over period + 1 UI,
    # the least that check passes.
    cut = [(replace(wv, volts=wv.volts[:, :(s.shape[1] + 1) * 64 + 2]), s)
           for wv, s in ((square, units), (edge, unit))]
    rng = np.random.default_rng(31)
    for wv, streams in ((square, units), (edge, unit), *cut) * 4:
        delay = rng.choice([-1e-6, 0.0, 1e-6]) + rng.uniform(-1.0, 1.0) * wv.dt
        cases.append((replace(wv, start_time=rng.uniform(0.0, 1e-3), nominal_delay_s=delay),
                      streams))
    for wv, streams in cases:
        got = eye_measure(wv, streams, 16e9).per_wire
        assert [(w.eye_v, w.phase_ui) for w in got] \
            == reference_eye_measure(wv, np.asarray(streams), 16e9)


def test_offset_scan_in_chunks_matches_reference_and_holds_one_chunk():
    """A stream long enough that the offsets span several chunks: the eyes of
    the one-offset-at-a-time scan, and a traced peak that grows with one
    chunk, not with every wire's samples."""
    rng = np.random.default_rng(29)
    units = rng.integers(0, 2, (4, 2101))
    units[:, 0], units[:, 1] = 0, 1
    volts = np.concatenate([square_waves(u, reps=4)[0].volts for u in units])
    waves = Waveforms(dt=UI / 64, start_time=0.0, vref=0.5, nominal_delay_s=0.2 * UI,
                      volts=volts + 0.05 * np.sin(0.37 * np.arange(volts.shape[1])))
    n, samples = waves.volts.shape
    assert n * samples > 3 * _SCAN_CELLS  # at least four chunks of offsets
    tracemalloc.start()
    try:
        got = eye_measure(waves, units, 16e9).per_wire
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(w.eye_v, w.phase_ui) for w in got] == reference_eye_measure(waves, units, 16e9)
    assert peak <= eye_bytes(n, samples, waves.dt, 16e9)
    assert peak <= 3 * waves.volts[0].nbytes


def test_square_wave_eye_is_full_swing():
    waves, streams = square_waves([1, 0, 1, 1, 0, 0, 1, 0])
    report = eye_measure(waves, streams, 16e9)
    assert report.per_wire[0].eye_v == pytest.approx(1.0, abs=1e-12)
    assert report.min_v == report.avg_v == report.max_v == report.per_wire[0].eye_v


def test_flat_waveform_eye_clamped_to_zero():
    waves, streams = square_waves([1, 0, 1, 0], reps=8, amplitude=0.0)
    report = eye_measure(waves, streams, 16e9)
    assert report.per_wire[0].eye_v == 0.0


def test_matched_divider_eye():
    # single matched line behind 1.67 ohm: eye = 50 / 51.67 of the swing
    link = simple_link(scalar_bundle(), fifty_ohm_network(1), rs_ohms=1.67,
                       mode="worst", seed=None)
    engine = build_link(link)
    waves = run_transient(engine)
    report = eye_measure(waves, engine.streams, 16e9)
    assert report.per_wire[0].eye_v == pytest.approx(50.0 / 51.67, rel=0.01)


def test_degenerate_stream_error():
    waves, _ = square_waves([1, 0, 1, 0], reps=8)
    ones = np.ones((1, 8), dtype=int)
    with pytest.raises(DegenerateStreamError) as info:
        eye_measure(waves, ones, 16e9)
    assert info.value.wire == 1
    # streams that are not one row a wire
    with pytest.raises(ValidationError, match="streams must be a 2-d bit array"):
        eye_measure(waves, [1, 0, 1, 0], 16e9)
    with pytest.raises(ValidationError, match="streams cover 2 wires, waveforms 1"):
        eye_measure(waves, [[1, 0, 1, 0], [0, 1, 0, 1]], 16e9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_volts_error(bad):
    """A NaN or inf sample is refused naming its wire and sample; without
    the check every eye of its wire read nan."""
    one, streams = square_waves([1, 0, 1, 1, 0, 0, 1, 0])
    volts = np.concatenate([one.volts, one.volts])
    volts[1, 77] = bad
    waves = Waveforms(dt=one.dt, start_time=one.start_time, vref=one.vref, volts=volts,
                      nominal_delay_s=one.nominal_delay_s)
    with pytest.raises(ValidationError) as info:
        eye_measure(waves, np.concatenate([streams, streams]), 16e9)
    assert str(info.value) == "wire 2's waveform is not finite at sample 77: %r V" % bad


def test_span_too_short_error():
    waves, _ = square_waves([1, 0, 1, 0], reps=1)
    # four bits of samples cannot cover a 32-bit stream period plus one UI
    stream = np.resize([1, 0, 1, 0], (1, 32))
    with pytest.raises(ValidationError, match="too short"):
        eye_measure(waves, stream, 16e9)
    # no sample at all: the same refusal, before anything reduces the volts
    empty = replace(waves, volts=waves.volts[:, :0])
    with pytest.raises(ValidationError, match="waveform span -.* is too short"):
        eye_measure(empty, stream, 16e9)


def test_phase_stable_against_roundoff():
    # the square wave's eye is flat over most offsets; last-digit noise on the
    # samples must not move the reported sampling phase along that plateau
    waves, streams = square_waves([1, 0, 1, 1, 0, 0, 1, 0])
    clean = eye_measure(waves, streams, 16e9).per_wire[0]
    rng = np.random.default_rng(23)
    for _ in range(5):
        noise = rng.uniform(-1e-14, 1e-14, size=waves.volts.shape)
        noisy = Waveforms(dt=waves.dt, start_time=0.0, vref=0.5,
                          volts=waves.volts + noise, nominal_delay_s=0.0)
        got = eye_measure(noisy, streams, 16e9).per_wire[0]
        assert got.phase_ui == clean.phase_ui
        assert got.eye_v == pytest.approx(clean.eye_v, abs=1e-13)


def test_amplitude_and_offset_equivariance():
    rng = np.random.default_rng(19)
    unit = rng.integers(0, 2, 16)
    unit[0], unit[1] = 0, 1  # never degenerate
    base, streams = square_waves(unit, reps=3)
    noisy = base.volts + 0.05 * np.sin(np.arange(base.volts.shape[1]) * 0.37)
    baseline = None
    for alpha in (1.0, 2.5):
        for shift in (0.0, -0.3):
            waves = Waveforms(dt=base.dt, start_time=0.0, vref=0.5,
                              volts=alpha * noisy + shift,
                              source_currents=np.zeros_like(noisy),
                              nominal_delay_s=0.0)
            rep = eye_measure(waves, streams, 16e9)
            if baseline is None:
                baseline = rep.per_wire[0].eye_v
                assert baseline > 0.0
            else:
                assert rep.per_wire[0].eye_v == pytest.approx(alpha * baseline,
                                                              rel=1e-12)


def test_pattern_ordering_on_plain_termination():
    # without cancellation the coupled pair rewards the odd-mode pattern
    eyes = {}
    for mode in ("best", "random", "worst"):
        link = simple_link(pair_bundle(), fifty_ohm_network(2), rs_ohms=1.67,
                           mode=mode)
        engine = build_link(link)
        waves = run_transient(engine)
        rep = eye_measure(waves, engine.streams, 16e9)
        eyes[mode] = [w.eye_v for w in rep.per_wire]
    for k in range(2):
        assert eyes["best"][k] >= eyes["random"][k] - 1e-9
        assert eyes["random"][k] >= eyes["worst"][k] - 1e-9


def test_folded_csv(tmp_path):
    waves, _ = square_waves([1, 0, 1, 1, 0, 0, 1, 0])
    path = tmp_path / "folded.csv"
    write_folded_csv(waves, 16e9, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "wire,phase_ui,volts"
    assert len(lines) == 1 + waves.volts.shape[1]
    phases = fold_phases(waves, 16e9)
    assert phases.min() >= 0.0 and phases.max() < 2.0


def test_folded_csv_holds_the_phase_text_and_one_chunk(tmp_path, cpus):
    """Wire by wire, the folded writer copies neither the waveforms nor the
    phase column once per wire, on the host's CPUs and on one."""
    twelve = load_link(FIXTURES / "link-twelve.json")
    spec = replace(twelve, stimulus=replace(twelve.stimulus, prbs_order=9))
    waves = run_transient(build_link(spec))
    rate = spec.stimulus.data_rate
    for one_cpu in (False, True):
        if one_cpu:
            cpus(1)
        tracemalloc.start()
        try:
            text = formatted(fold_phases(waves, rate))
            phase_text, _ = tracemalloc.get_traced_memory()
            del text
            tracemalloc.reset_peak()
            write_folded_csv(waves, rate, tmp_path / "folded.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a chunk's cells: each one's str, list slot and share of the joined rows
        assert peak <= phase_text + 256 * _CHUNK_CELLS
        # and the share of eye's memory pre-flight it is held to
        assert peak <= eye_bytes(*waves.volts.shape, waves.dt, rate, folded=True)


def test_eye_json(tmp_path):
    waves, streams = square_waves([1, 0, 1, 1, 0, 0, 1, 0])
    report = eye_measure(waves, streams, 16e9)
    path = tmp_path / "eye.json"
    write_eye_json(report, path)
    data = json.loads(path.read_text())
    assert data["data_rate_hz"] == 16e9
    assert data["per_wire"][0]["wire"] == 1
    assert 0.0 <= data["per_wire"][0]["phase_ui"] < 1.0
    assert data["min_v"] <= data["avg_v"] <= data["max_v"]


def test_svg_deterministic_and_well_formed(tmp_path):
    link = simple_link(pair_bundle(), fifty_ohm_network(2), rs_ohms=1.67,
                       streams=((1, 0, 1, 1, 0, 0, 1, 0),
                                (0, 1, 0, 0, 1, 1, 0, 1)))
    waves = run_transient(build_link(link))
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    render_eye_svg(waves, 16e9, a)
    render_eye_svg(waves, 16e9, b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "polyline" in text
    # flat waveforms: the volts axis spans 1 V above them instead of none
    flat, _ = square_waves([1, 0, 1, 0], amplitude=0.0)
    render_eye_svg(flat, 16e9, a)
    text = a.read_text()
    assert ">1.050 V<" in text and ">-0.050 V<" in text and "polyline" in text


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_svg_of_volts_past_any_finite_scale_error(tmp_path, bad):
    """A NaN or inf sample, or finite samples that span more than the
    largest float, leave the volts axis no finite scale: the SVG is
    refused naming the span, not drawn with nan coordinates."""
    waves, _ = square_waves([1, 0, 1, 0])
    waves.volts[0, 5] = bad
    waves.volts[0, 6] = -1e308
    path = tmp_path / "e.svg"
    with pytest.raises(ValidationError, match="which no finite eye-diagram scale covers"):
        render_eye_svg(waves, 16e9, path)
    assert not path.exists()
