"""PRBS generation, pattern assignment, and drive waveform tests."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from designs import fifty_ohm_network, scalar_bundle, simple_link
from xtcancel.errors import ValidationError
from xtcancel.mtlsim import build_link, load_link
from xtcancel.stimulus import (_MAXIMAL_TAPS, StimulusSpec, drive_levels, pattern_assign,
                               prbs)


def lfsr_reference(order, taps, seed, count):
    """Independent Fibonacci LFSR: MSB out, tap parity into the LSB."""
    state = seed
    out = []
    for _ in range(count):
        out.append((state >> (order - 1)) & 1)
        fb = 0
        for t in taps:
            fb ^= (state >> (t - 1)) & 1
        state = ((state << 1) | fb) & ((1 << order) - 1)
    return out


def test_prbs7_period_and_balance():
    seq = prbs(7)
    assert seq.size == 127
    assert int(seq.sum()) == 64
    assert int((1 - seq).sum()) == 63


def test_prbs3_known_sequence():
    assert prbs(3, 0b111).tolist() == [1, 1, 1, 0, 0, 1, 0]
    assert prbs(3, 0b111).tolist() == lfsr_reference(3, (3, 2), 0b111, 7)


def test_prbs7_matches_reference_lfsr():
    assert prbs(7).tolist() == lfsr_reference(7, (7, 6), (1 << 7) - 1, 127)


def test_prbs_maximal_length_small_orders():
    for order in range(3, 15):
        seq = prbs(order)
        period = (1 << order) - 1
        assert seq.size == period
        assert int(seq.sum()) == 1 << (order - 1)
        # every length-`order` window appears exactly once except all-zeros
        windows = set()
        bits = seq.tolist()
        for k in range(period):
            w = tuple(bits[(k + m) % period] for m in range(order))
            windows.add(w)
        assert len(windows) == period
        assert (0,) * order not in windows


def test_prbs_matches_reference_lfsr_every_order():
    for order in range(3, 17):
        taps = _MAXIMAL_TAPS[order]
        period = (1 << order) - 1
        for seed in (period, 1, 0b1010101 & period or 1):
            assert prbs(order, seed).tolist() == lfsr_reference(order, taps, seed, period), \
                (order, seed)


def test_prbs23_full_period_satisfies_tap_recurrence():
    seq = prbs(23)
    assert seq.size == (1 << 23) - 1
    assert int(seq.sum()) == 1 << 22
    # s[k] = s[k - 23] ^ s[k - 18], cyclically over the whole period
    assert np.array_equal(seq, np.roll(seq, 23) ^ np.roll(seq, 18))
    assert seq[:100_000].tolist() == lfsr_reference(23, (23, 18), (1 << 23) - 1, 100_000)


def test_prbs_autocorrelation():
    seq = prbs(7).astype(int)
    s = 2 * seq - 1
    for lag in range(1, 127):
        assert int(np.dot(s, np.roll(s, lag))) == -1


def test_prbs_seed_rotates_sequence():
    base = prbs(7)
    other = prbs(7, seed=0b1010101)
    assert other.size == 127
    # same cycle, different phase: some rotation matches exactly
    hits = [k for k in range(127) if np.array_equal(np.roll(base, k), other)]
    assert len(hits) == 1


def test_prbs_validation():
    with pytest.raises(ValidationError):
        prbs(7, seed=0)
    with pytest.raises(ValidationError):
        prbs(2)
    with pytest.raises(ValidationError):
        prbs(32)


def test_pattern_worst_and_best():
    spec = StimulusSpec(data_rate=16e9, mode="worst")
    streams = pattern_assign(spec, 4)
    assert streams.shape == (4, 127)
    for k in range(1, 4):
        assert np.array_equal(streams[k], streams[0])
    spec = StimulusSpec(data_rate=16e9, mode="best")
    streams = pattern_assign(spec, 4)
    assert np.array_equal(streams[1], 1 - streams[0])
    assert np.array_equal(streams[2], streams[0])
    assert np.array_equal(streams[3], 1 - streams[0])


def test_pattern_random_offsets():
    spec = StimulusSpec(data_rate=16e9, mode="random")
    streams = pattern_assign(spec, 3)
    base = prbs(7)
    for k in range(3):
        assert np.array_equal(streams[k], np.roll(base, -17 * k))
    again = pattern_assign(spec, 3)
    assert np.array_equal(streams, again)


def test_pattern_explicit_streams():
    spec = StimulusSpec(data_rate=16e9, streams=((1, 0, 1, 1), (0, 0, 1, 0)))
    streams = pattern_assign(spec, 2)
    assert np.array_equal(streams, [[1, 0, 1, 1], [0, 0, 1, 0]])
    with pytest.raises(ValidationError):  # wrong wire count
        pattern_assign(spec, 3)
    with pytest.raises(ValidationError):  # ragged rows
        pattern_assign(StimulusSpec(data_rate=16e9, streams=((1, 0), (1,))), 2)
    with pytest.raises(ValidationError):  # non-bit values
        pattern_assign(StimulusSpec(data_rate=16e9, streams=((2, 0),)), 1)
    with pytest.raises(ValidationError):  # empty stream
        pattern_assign(StimulusSpec(data_rate=16e9, streams=((),)), 1)
    with pytest.raises(ValidationError):  # negative bit, not an overflow
        pattern_assign(StimulusSpec(data_rate=16e9, streams=((-1, 0),)), 1)
    with pytest.raises(ValidationError, match="need at least one wire"):
        pattern_assign(StimulusSpec(data_rate=16e9), 0)


def test_stimulus_spec_validation():
    with pytest.raises(ValidationError):
        StimulusSpec(data_rate=0.0)
    with pytest.raises(ValidationError, match="data rate must be finite and positive, got inf"):
        StimulusSpec(data_rate=float("inf"))
    with pytest.raises(ValidationError):
        StimulusSpec(data_rate=16e9, mode="typical")
    # explicit streams replace the PRBS, so a seed that would shape it is refused
    with pytest.raises(ValidationError, match="explicit streams replace the PRBS; drop seed$"):
        StimulusSpec(data_rate=16e9, streams=((0, 1, 1),), seed=5)
    assert StimulusSpec(data_rate=16e9).unit_interval == pytest.approx(62.5e-12)


def drive(bits, t, levels=(0.0, 1.0), rise_s=10e-12):
    """drive_levels of a one-wire stream at 16 Gb/s, as a 1-d array over t."""
    return drive_levels(np.asarray(bits)[None, :], np.atleast_1d(t), 16e9, rise_s,
                        levels[0], levels[1])[:, 0]


def test_source_waveform_bit_centers():
    ui = 62.5e-12
    bits = [1, 0, 1, 1, 0]
    v = drive(bits, (np.arange(5) + 0.5) * ui)
    for k, bit in enumerate(bits):
        assert v[k] == pytest.approx(float(bit), abs=1e-15)


def test_source_waveform_constant_zero():
    t = np.linspace(-1e-10, 1e-9, 500)
    assert np.array_equal(drive([0, 0, 0], t), np.zeros(500))


def test_source_waveform_bounds_and_continuity():
    t = np.linspace(0.0, 8 * 62.5e-12, 4001)
    v = drive([1, 0, 0, 1, 1, 0, 1, 0], t)
    assert v.min() >= 0.0 and v.max() <= 1.0
    dt = t[1] - t[0]
    max_slope = 1.0 / 10e-12  # swing / rise time
    assert np.max(np.abs(np.diff(v))) <= max_slope * dt * 1.0001


def test_source_waveform_idles_low_before_start():
    v = drive([1, 1], [-1e-9, 0.0])
    assert v[0] == 0.0
    # leading 1 ramps through t=0: halfway up the edge at t=0
    assert v[1] == pytest.approx(0.5, abs=1e-12)


def test_source_waveform_alternating_period():
    ui = 62.5e-12
    t = np.linspace(0.0, 2 * ui, 257)
    v = drive([1, 0], t)
    assert np.allclose(drive([1, 0], t + 2 * ui), v, atol=1e-9)  # cyclic, 125 ps period


def test_source_waveform_levels():
    ui = 62.5e-12
    v = drive([1, 0], [0.5 * ui, 1.5 * ui], levels=(-0.4, 0.4))
    assert v[0] == pytest.approx(0.4, abs=1e-15)
    assert v[1] == pytest.approx(-0.4, abs=1e-15)


def test_source_waveform_wires_are_independent():
    # every wire of one call equals its own one-wire drive
    streams = np.array([[1, 0, 0, 1, 1], [0, 1, 1, 0, 1], [1, 1, 0, 0, 0]])
    t = np.linspace(-1e-11, 12 * 62.5e-12, 3001)
    v = drive_levels(streams, t, 16e9, 10e-12, 0.1, 0.9)
    assert v.shape == (t.size, 3)
    for k, row in enumerate(streams):
        assert np.array_equal(v[:, k], drive(row, t, levels=(0.1, 0.9)))


def test_source_waveform_validation():
    # the rise time must be shorter than a bit period
    link = simple_link(scalar_bundle(), fifty_ohm_network(1), rise_s=62.5e-12)
    with pytest.raises(ValidationError, match="rise time"):
        build_link(link)


def test_drive_levels_peak_within_twice_its_result():
    # the drive is built in its own array: the ramps' rows and a few words a
    # step of times and indices are all it holds besides its result
    engine = build_link(load_link(Path(__file__).resolve().parent.parent
                                  / "fixtures" / "link-twelve.json"))
    d = engine.spec.drivers
    t = engine.dt * np.arange(engine.steps)
    tracemalloc.start()
    try:
        v = drive_levels(engine.streams, t, engine.spec.stimulus.data_rate, d.rise_s,
                         d.v_low, d.v_high)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * v.nbytes
