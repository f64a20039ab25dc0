"""Byte oracle for the output layer.

The reference_* functions below are the per-value writers the package used
before every CSV went through textio.write_csv and the SVG writer worked on
whole arrays.  They are kept as the specification of the file formats: the
package writers must produce the same bytes.
"""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_child
from xtcancel import cli, textio
from xtcancel.bundle import characteristic_impedance, load_bundle
from xtcancel.eye import (_FOLDED_SAMPLE_BYTES, _SVG_SAMPLE_BYTES, eye_measure, fold_phases,
                          render_eye_svg, svg_volts_range, write_folded_csv)
from xtcancel.fom import code_table, write_code_table_csv
from xtcancel.mtlsim import (Waveforms, build_link, load_link, run_transient,
                             write_waveform_csv)
from xtcancel.termination import (conductance_histogram, network_admittance,
                                  realize_network, write_histogram_csv)
from xtcancel.textio import _CHUNK_CELLS, formatted, write_csv, write_texts

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SWEEP_HEADER = ["value", "wire", "eye_v", "min_v", "avg_v", "max_v"]
EDGE_VALUES = [-0.0, 5e-324, 1e300, -1e300, float("inf"), 0.1, 1.0 / 3.0, 2.5e-12]

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
            "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78")


def reference_waveform_csv(waves, path):
    t = waves.times()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time_s," + ",".join("w%d" % (k + 1) for k in range(waves.n)) + "\n")
        for m in range(t.size):
            fh.write("%r,%s\n" % (float(t[m]),
                                  ",".join(repr(float(v)) for v in waves.volts[:, m])))


def reference_folded_csv(waves, data_rate, path):
    phases = fold_phases(waves, data_rate)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("wire,phase_ui,volts\n")
        for w in range(waves.volts.shape[0]):
            row = waves.volts[w]
            for m in range(phases.size):
                fh.write("%d,%r,%r\n" % (w + 1, float(phases[m]), float(row[m])))


def reference_code_table_csv(table, path):
    n = table.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("code," + ",".join("i%d" % (k + 1) for k in range(n)) + "\n")
        for c in range(table.shape[0]):
            fh.write("%d,%s\n" % (c, ",".join(repr(float(v)) for v in table[c])))


def reference_histogram_csv(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("siemens,count\n")
        for center, count in rows:
            fh.write("%r,%d\n" % (center, count))


def reference_sweep_csv(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value,wire,eye_v,min_v,avg_v,max_v\n")
        for col, wire, eye_v, mn, av, mx in rows:
            fh.write("%r,%d,%r,%r,%r,%r\n" % (col, wire, eye_v, mn, av, mx))


def reference_eye_svg(waves, data_rate, path, width=860, height=460):
    phases = fold_phases(waves, data_rate)
    n, samples = waves.volts.shape
    vmin = float(waves.volts.min())
    vmax = float(waves.volts.max())
    if vmax <= vmin:
        vmax = vmin + 1.0
    pad = 0.05 * (vmax - vmin)
    vlo, vhi = vmin - pad, vmax + pad

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
    y0 = ypix(0.0)
    if top <= y0 <= top + ph:
        parts.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="#999999" '
                     'stroke-dasharray="4,4" stroke-width="1"/>'
                     % (left, y0, left + pw, y0))
    xmid = xpix(1.0)
    parts.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="#cccccc" '
                 'stroke-width="1"/>' % (xmid, top, xmid, top + ph))
    parts.append('<text x="%d" y="%d" font-family="monospace" font-size="12" '
                 'fill="#333333">phase (UI)</text>' % (left + pw // 2 - 30, height - 12))
    parts.append('<text x="%d" y="%d" font-family="monospace" font-size="12" '
                 'fill="#333333">%.3f V</text>' % (6, int(top) + 12, vhi))
    parts.append('<text x="%d" y="%d" font-family="monospace" font-size="12" '
                 'fill="#333333">%.3f V</text>' % (6, int(top + ph), vlo))

    for w in range(n):
        color = _PALETTE[w % len(_PALETTE)]
        row = waves.volts[w]
        segs = []
        cur = []
        prev_phase = None
        for m in range(samples):
            p = float(phases[m])
            if prev_phase is not None and p < prev_phase:
                if len(cur) > 1:
                    segs.append(cur)
                cur = []
            cur.append((xpix(p), ypix(float(row[m]))))
            prev_phase = p
        if len(cur) > 1:
            segs.append(cur)
        for seg in segs:
            pts = " ".join("%.2f,%.2f" % (x, y) for x, y in seg)
            parts.append('<polyline points="%s" fill="none" stroke="%s" '
                         'stroke-width="1" stroke-opacity="0.55"/>' % (pts, color))

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def same_bytes(tmp_path, write, reference):
    """Run both writers (each takes the output path) and compare the files."""
    got, want = tmp_path / "got", tmp_path / "want"
    write(got)
    reference(want)
    assert got.read_bytes() == want.read_bytes()


@pytest.fixture(scope="module")
def pair_link_waves():
    """The shipped pair link: 8857 samples per wire, so every CSV spans
    several row chunks; volts is the stepper's transposed view."""
    engine = build_link(load_link(FIXTURES / "link-pair.json"))
    return run_transient(engine), engine.spec.stimulus.data_rate


def edge_waves():
    """Three wires of edge values, with a fold that wraps after the first
    sample (a one-point span) and then about every third sample."""
    ui = 1.0 / 16e9
    volts = np.array([EDGE_VALUES[:4] * 3, EDGE_VALUES[4:] * 3, [0.25, -0.5, 0.0] * 4])
    return Waveforms(dt=0.7 * ui, start_time=0.0, vref=0.5, volts=volts,
                     nominal_delay_s=0.1 * ui), 16e9


def test_waveform_and_folded_csv_match_reference(tmp_path, pair_link_waves):
    for waves, rate in (pair_link_waves, edge_waves()):
        same_bytes(tmp_path, lambda p: write_waveform_csv(waves, p),
                   lambda p: reference_waveform_csv(waves, p))
        same_bytes(tmp_path, lambda p: write_folded_csv(waves, rate, p),
                   lambda p: reference_folded_csv(waves, rate, p))


def test_eye_svg_matches_reference(tmp_path, pair_link_waves):
    waves, rate = edge_waves()
    waves.volts[1] = [0.3, 0.1, -0.2, 0.4] * 3  # no inf: the SVG scales to the data
    phases = fold_phases(waves, rate)
    assert phases[1] < phases[0]  # the first span is one point and draws nothing
    for waves, rate in (pair_link_waves, (waves, rate)):
        same_bytes(tmp_path, lambda p: render_eye_svg(waves, rate, p),
                   lambda p: reference_eye_svg(waves, rate, p))


def test_code_table_and_histogram_csv_match_reference(tmp_path):
    bundle = load_bundle(FIXTURES / "twelve.json")
    net = realize_network(characteristic_impedance(bundle)[0].zc)
    table = code_table(network_admittance(net))
    same_bytes(tmp_path, lambda p: write_code_table_csv(table, p),
               lambda p: reference_code_table_csv(table, p))
    edges = np.array([EDGE_VALUES, EDGE_VALUES[::-1]]).T
    same_bytes(tmp_path, lambda p: write_code_table_csv(edges, p),
               lambda p: reference_code_table_csv(edges, p))
    same_bytes(tmp_path, lambda p: write_histogram_csv(net, p),
               lambda p: reference_histogram_csv(conductance_histogram(net), p))


def test_sweep_csv_matches_reference(tmp_path):
    spec = load_link(FIXTURES / "link-pair.json")
    rows = []
    # None is the full network, value inf
    for col, point in cli._sweep_points(spec, "cutoff", [None, (90.0, 100.0)]):
        engine = build_link(point)
        report = eye_measure(run_transient(engine), engine.streams,
                             point.stimulus.data_rate)
        rows += [(col, we.wire, we.eye_v, report.min_v, report.avg_v, report.max_v)
                 for we in report.per_wire]
    got = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--mode", "cutoff", "--link", str(FIXTURES / "link-pair.json"),
                     "--values", "inf,90/100", "-o", str(got)]) == 0
    want = tmp_path / "want.csv"
    reference_sweep_csv(rows, want)
    assert got.read_bytes() == want.read_bytes()
    assert got.read_text().splitlines()[1].startswith("inf,1,")
    # edge values and integer columns through the one writer
    edge_rows = [(v, w + 1, -v, 5e-324, 1e300, -0.0) for w, v in enumerate(EDGE_VALUES)]
    same_bytes(tmp_path, lambda p: write_csv(p, SWEEP_HEADER, zip(*edge_rows)),
               lambda p: reference_sweep_csv(edge_rows, p))


def run_table():
    """Columns of runs: signed zeros side by side, a run of NaNs (two bit
    patterns), a run across the row-chunk boundary, an all-equal column.
    The code table CSV adds a code column, so a chunk holds
    _CHUNK_CELLS // 5 rows."""
    chunk = _CHUNK_CELLS // 5
    rows = chunk + 10
    zeros = np.zeros(rows)
    zeros[1::2] = -0.0  # 0.0, -0.0, 0.0, ...
    zeros[100:110] = -0.0  # then -0.0 runs that meet 0.0 on both sides
    nans = np.full(rows, 0.25)
    nans[3:40] = np.nan
    nans[20:30] = -np.nan
    across = np.full(rows, 1.0 / 3.0)
    across[chunk - 5:chunk + 5] = 0.1
    return np.array([zeros, nans, across, np.full(rows, 2.5e-12)]).T


def test_runs_of_equal_values_match_reference(tmp_path):
    table = run_table()
    assert np.signbit(table[:4, 0]).tolist() == [False, True, False, True]
    for rows in (table, table[:1], table[::-1]):
        same_bytes(tmp_path, lambda p: write_code_table_csv(rows, p),
                   lambda p: reference_code_table_csv(rows, p))


def reference_csv(path, header, columns, fmts):
    """Row by row, each value printed with its column's % format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f % v for f, v in zip(fmts, row)) + "\n")


def test_integer_columns_match_percent_d(tmp_path):
    i64 = np.iinfo(np.int64)
    signed = np.array([i64.min, i64.min, i64.max, -1, -1, 0, 0, 0, 5, i64.max], dtype=np.int64)
    unsigned = np.array([2**64 - 1] * 3 + [0, 1, 1, 2**63, 2**63, 7, 2**64 - 1],
                        dtype=np.uint64)
    small = np.array([-128, -128, 127, 0, 0, -1, 1, 1, 1, -128], dtype=np.int8)
    columns = [signed, unsigned, small, np.repeat(np.arange(-2, 3, dtype=np.int32), 2)]
    fmts = ["%d"] * len(columns)
    same_bytes(tmp_path, lambda p: write_csv(p, ["a", "b", "c", "d"], columns),
               lambda p: reference_csv(p, ["a", "b", "c", "d"],
                                       [c.tolist() for c in columns], fmts))
    assert formatted(unsigned, str)[0] == "18446744073709551615"
    assert formatted(signed, str)[0] == "-9223372036854775808"


@pytest.mark.parametrize("width", [3, 13])
def test_runs_across_cell_sized_chunks(tmp_path, width):
    """Integer and float runs that start before a chunk boundary and end
    after it, in tables as wide as the folded CSV and the twelve-wire
    waveform CSV."""
    chunk = _CHUNK_CELLS // width
    rows = 2 * chunk + 3
    wire = np.repeat(np.arange(1, 4), [chunk - 2, chunk + 1, 4])
    columns = [wire]
    for k in range(1, width):
        col = np.full(rows, 0.5 * k)
        col[chunk - 7 + k:chunk + 5 + k] = -0.0
        col[2 * chunk - 1:] = 1.0 / (k + 2)
        columns.append(col)
    header = ["c%d" % k for k in range(width)]
    fmts = ["%d"] + ["%r"] * (width - 1)
    same_bytes(tmp_path, lambda p: write_csv(p, header, columns),
               lambda p: reference_csv(p, header, [c.tolist() for c in columns], fmts))


def test_columns_of_unequal_length_rejected(tmp_path):
    with pytest.raises(ValueError, match="a 3, b 2"):
        write_csv(tmp_path / "x.csv", ["a", "b"], [np.arange(3), np.array([0.5, 0.25])])
    # every column is named, not only the ones before the short one
    with pytest.raises(ValueError, match="a 3, b 2, c 3$"):
        write_csv(tmp_path / "x.csv", ["a", "b", "c"],
                  [np.arange(3), np.array([0.5, 0.25]), np.arange(3)])


@pytest.mark.parametrize("header", [["a"], ["a", "b", "c"]])
def test_header_naming_another_column_count_rejected(tmp_path, header):
    with pytest.raises(ValueError, match="CSV header names %d columns" % len(header)):
        write_csv(tmp_path / "x.csv", header, [np.arange(2), np.array([0.5, 0.25])])


def test_object_column_is_written_as_given(tmp_path):
    text = np.array(["a", "a", "0.1", "-0.0", "-0.0"], dtype=object)
    floats = np.array([-0.0, 0.0, 0.0, np.nan, np.nan])

    def reference(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,s,v\n")
            for k, (s, v) in enumerate(zip(text, floats)):
                fh.write("%d,%s,%r\n" % (k, s, float(v)))

    same_bytes(tmp_path, lambda p: write_csv(p, ["k", "s", "v"], [np.arange(5), text, floats]),
               reference)


def settled_waves():
    """Three wires of 1800 samples that hold their level for many samples,
    as a matched line does."""
    ui = 1.0 / 16e9
    steps = np.repeat([0.0, 1.0, -0.0, 0.5, 0.5 + 1e-15, 1.0], 300)
    volts = np.array([steps, steps[::-1], np.roll(steps, 137)])
    return Waveforms(dt=ui / 64, start_time=0.0, vref=0.5, volts=volts,
                     nominal_delay_s=3.3 * ui)


def test_settled_waveform_outputs_match_reference(tmp_path):
    """Settled waveforms through every waveform writer."""
    waves = settled_waves()
    rate = 16e9
    same_bytes(tmp_path, lambda p: write_waveform_csv(waves, p),
               lambda p: reference_waveform_csv(waves, p))
    same_bytes(tmp_path, lambda p: write_folded_csv(waves, rate, p),
               lambda p: reference_folded_csv(waves, rate, p))
    same_bytes(tmp_path, lambda p: render_eye_svg(waves, rate, p),
               lambda p: reference_eye_svg(waves, rate, p))


def _half_hundredths():
    """Every (k + 0.5) / 100 for k below 10**5, and both float neighbours
    of each."""
    half = (np.arange(10 ** 5) + 0.5) / 100
    return np.concatenate([half, np.nextafter(half, np.inf), np.nextafter(half, -np.inf)])


@pytest.mark.parametrize("values", [
    _half_hundredths(),
    [0.125, 2.675, 1.005, 0.0, -0.0, -0.001, -0.005, 5e-324, 2 ** 31 / 100,
     np.nextafter(2 ** 31 / 100, 0), 1e300, np.nan, np.inf, -np.inf],
    np.random.default_rng(29).uniform(0.0, 1000.0, 200_000),
    []], ids=["half-hundredths", "edges", "uniform", "empty"])
def test_two_decimals_is_percent_2f(values):
    """Each row is "%.2f" % v right-aligned after NULs, as wide as the
    longest text: ties and their neighbours, values that are not easy (a
    sign bit, 2**31 hundredths or more, not finite), and plain ones."""
    values = np.asarray(values, dtype=np.float64)
    texts = ["%.2f" % v for v in values.tolist()]
    got = textio.two_decimals(values)
    width = max(map(len, texts), default=got.shape[1])
    want = "".join(text.rjust(width, "\0") for text in texts).encode()
    assert got.dtype == np.uint8 and got.shape == (values.size, width)
    assert got.tobytes() == want


def tie_waves(dt_ulps):
    """Three wires whose SVG coordinates lie on half-hundredths of a pixel
    and beside them.  At 2**30 b/s with 64 samples a UI and no delay, every
    phase is a multiple of 1/64 and x = 60 + 390 phase exactly, a tie every
    eighth sample; a timestep dt_ulps ulps off moves x a few ulps off the
    ties.  The volts span [0, 1], and the others are chosen so that their y
    pixels are the floats of half-hundredths (exact ties where the half is
    an odd eighth) or one ulp beside them."""
    ui = 2.0 ** -30
    dt = ui / 64
    for _ in range(abs(dt_ulps)):
        dt = np.nextafter(dt, np.sign(dt_ulps) * np.inf)
    vlo, vhi = svg_volts_range(np.array([0.0, 1.0]))
    targets = np.arange(39, 401) + (np.arange(362) % 100 + 0.5) / 100  # inside [0, 1] V
    guess = vlo + (1.0 - (targets - 20) / 400) * (vhi - vlo)
    volts = guess[:, None] + np.arange(-8, 9) * np.spacing(guess)[:, None]
    y = 20 + 400 * (1.0 - (volts - vlo) / (vhi - vlo))
    tie = y == targets[:, None]
    beside = (y == np.nextafter(targets, 0)[:, None]) | (y == np.nextafter(targets, 999)[:, None])
    assert tie.sum() > 100 and beside.sum() > 100
    chosen = np.concatenate([[0.0, 1.0], volts[tie | beside]])
    assert 0.0 <= chosen.min() and chosen.max() <= 1.0  # the scale stays svg_volts_range([0, 1])
    rows = np.array([np.resize(np.roll(chosen, 7 * w), 64 * 12) for w in range(3)])
    rows[:, :2] = [0.0, 1.0]
    return Waveforms(dt=dt, start_time=0.0, vref=0.5, volts=rows, nominal_delay_s=0.0), 2.0 ** 30


@pytest.mark.parametrize("k", [1, 2, 3])
def test_eye_svg_of_pixels_on_and_beside_ties_matches_reference(tmp_path, cpus, k):
    cpus(k)
    for dt_ulps in (0, 1, -1):
        waves, rate = tie_waves(dt_ulps)
        hundredths = (60 + 780 * (fold_phases(waves, rate) / 2.0)) * 100 % 1
        near = np.abs(hundredths - 0.5) < 1e-9
        assert near.sum() == hundredths.size // 8
        assert (near == (hundredths == 0.5)).all() == (dt_ulps == 0)
        same_bytes(tmp_path, lambda p: render_eye_svg(waves, rate, p),
                   lambda p: reference_eye_svg(waves, rate, p))
    assert len(cpus.forks) == 3 * (k - 1)
    assert_no_child()


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_worker_count_follows_the_cpus_and_the_platform(cpus, monkeypatch, missing):
    cpus(3)
    assert [textio.worker_count(c) for c in (0, 1, 2, 3, 50)] == [1, 1, 2, 3, 3]
    # as many as fit the budget beside what the caller holds, and never none
    budget = textio.MEMORY_BUDGET_BYTES
    assert [textio.worker_count(50, budget // w, held) for w, held in
            ((4, 0), (2, 0), (2, budget // 2), (1, 0), (1, budget // 2))] == [3, 2, 1, 1, 1]
    monkeypatch.delattr(os, missing)
    assert textio.worker_count(50) == 1
    write_csv(os.devnull, ["a"], [np.arange(3 * _CHUNK_CELLS)])
    assert cpus.forks == []


@pytest.mark.parametrize("link", sorted(p.name for p in FIXTURES.glob("link-*.json")))
def test_sim_and_eye_write_the_same_bytes_on_one_two_and_three_cpus(tmp_path, cpus, link):
    files = {}
    for k in (1, 2, 3):
        cpus(k)
        out = tmp_path / str(k)
        out.mkdir()
        waves = str(out / "waves.csv")
        assert cli.main(["sim", "--link", str(FIXTURES / link), "-o", waves]) == 0
        assert_no_child()
        assert cli.main(["eye", "--waves", waves, "--link", str(FIXTURES / link),
                         "-o", str(out / "eye.json"), "--svg", str(out / "eye.svg"),
                         "--folded", str(out / "folded.csv")]) == 0
        assert_no_child()
        files[k] = {p.name: p.read_bytes() for p in out.iterdir()}
        # sim and the folded CSV fork k - 1 workers each, the SVG as many as
        # it has wires beyond the first, and the read as many as it has
        # ranges beyond the first, each up to k - 1
        wires = load_link(FIXTURES / link).termination.n
        body = os.path.getsize(waves) - len(files[k]["waves.csv"].split(b"\n", 1)[0]) - 1
        ranges = -(-body // textio._RANGE_BYTES)
        assert len(cpus.forks) == (k - 1) * 2 + min(k, wires) - 1 + min(k, ranges) - 1
        cpus.forks.clear()
    assert files[2] == files[1] and files[3] == files[1]


@pytest.mark.parametrize("k", [2, 3])
def test_code_table_in_chunks_on_several_cpus_matches_reference(tmp_path, cpus, k):
    """The twelve-wire code table is 4096 rows of 13 cells: seven chunks,
    which two or three workers do not share evenly."""
    bundle = load_bundle(FIXTURES / "twelve.json")
    table = code_table(network_admittance(realize_network(characteristic_impedance(bundle)[0].zc)))
    assert table.size + table.shape[0] > 6 * _CHUNK_CELLS
    cpus(k)
    same_bytes(tmp_path, lambda p: write_code_table_csv(table, p),
               lambda p: reference_code_table_csv(table, p))
    assert len(cpus.forks) == k - 1
    assert_no_child()


@pytest.mark.parametrize("fits, forks", [(1, 0), (2, 2)])
def test_eye_writers_fork_only_the_workers_that_fit_the_budget(
        tmp_path, cpus, monkeypatch, fits, forks):
    """Each eye writer's process holds up to its per-sample figure for every
    sample beside the volts.  With room for one of its own figures, neither
    writer forks on three CPUs; with room for two, each forks one worker.
    The bytes stay the same."""
    waves, rate = settled_waves(), 16e9
    samples = waves.volts.shape[1]
    cpus(3)
    for figure, write, reference in ((_SVG_SAMPLE_BYTES, render_eye_svg, reference_eye_svg),
                                     (_FOLDED_SAMPLE_BYTES, write_folded_csv,
                                      reference_folded_csv)):
        monkeypatch.setattr(textio, "MEMORY_BUDGET_BYTES",
                            waves.volts.nbytes + fits * figure * samples)
        same_bytes(tmp_path, lambda p: write(waves, rate, p),
                   lambda p: reference(waves, rate, p))
    assert len(cpus.forks) == forks
    assert_no_child()


def _texts_up_to(path, k, text_of, count=9):
    """write_texts(text_of) into path on k CPUs: what it raises, and the
    bytes it wrote first."""
    with open(path, "wb") as fh:
        with pytest.raises(BaseException) as raised:
            write_texts(fh, text_of, count)
    assert_no_child()
    return raised, path.read_bytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_an_exception_in_a_worker_is_raised_by_the_writer(tmp_path, cpus, k):
    """Text 5 is a worker's on two and three CPUs: its exception is raised
    when text 5 is due, after texts 0-4, as in one process, as a
    RuntimeError naming its type and message."""
    cpus(k)

    def text_of(i):
        if i == 5:
            raise ZeroDivisionError("no 5")
        return b"%d\n" % i

    raised, written = _texts_up_to(tmp_path / "t", k, text_of)
    if k == 1:
        assert raised.type is ZeroDivisionError and str(raised.value) == "no 5"
    else:
        assert raised.type is RuntimeError and str(raised.value) == "ZeroDivisionError: no 5"
    assert written == b"0\n1\n2\n3\n4\n"


def test_a_worker_that_dies_makes_the_writer_raise(tmp_path, cpus):
    cpus(2)
    parent = os.getpid()
    raised, written = _texts_up_to(
        tmp_path / "t", 2, lambda i: os._exit(3) if os.getpid() != parent and i == 3 else b"%d" % i)
    assert raised.type is RuntimeError
    assert str(raised.value) == "the worker process computing text 3 ended before sending it"
    assert written == b"012"


def test_an_interrupt_or_a_failed_write_ends_every_worker(tmp_path, cpus):
    """Workers still computing (here, sleeping) are killed and reaped at
    once, whether the caller's own text or the file write raises."""
    cpus(3)
    parent = os.getpid()

    def text_of(i):
        if os.getpid() != parent:
            time.sleep(60)
        if i == 0 and fail:
            raise KeyboardInterrupt
        return b"%d" % i

    start = time.monotonic()
    fail = True
    raised, written = _texts_up_to(tmp_path / "t", 3, text_of)
    assert raised.type is KeyboardInterrupt and written == b""

    class FullDisk:
        def write(self, data):
            raise OSError(28, "No space left on device")

    fail = False
    with pytest.raises(OSError, match="No space left"):
        write_texts(FullDisk(), text_of, 9)
    assert_no_child()
    assert time.monotonic() - start < 30


# The reader: read_csv_rows against the one-process np.loadtxt it replaces.

def universal_line_starts(data):
    """Where each line of data begins, as bytes.splitlines splits it (\n,
    \r\n or \r, as universal newlines do), and len(data)."""
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def test_line_start_reads_a_carriage_return_across_blocks(tmp_path):
    """_line_start scans 4096-byte blocks, and a \r that ends a block may
    begin a \r\n: from every offset, the next line start is the one
    bytes.splitlines gives.  The lines are longer than a block, so some
    offsets see a \r\n or a lone \r as their block's last byte."""
    rng = np.random.default_rng(5)
    body = bytearray(rng.integers(ord("0"), ord("9") + 1, 14000, dtype=np.uint8).tobytes())
    body[4095:4097] = b"\r\n"
    body[6000:6002] = b"\rx"
    body[11000:11002] = b"\r\n"
    body[12500] = ord("\n")
    for tail in (b"", b"\r"):
        data = bytes(body) + tail
        path = tmp_path / "t"
        path.write_bytes(data)
        starts = universal_line_starts(data)
        with open(path, "rb") as fh:
            for pos in range(1, len(data) + 1):
                expected = min(s for s in starts + [len(data)] if s >= pos)
                assert textio._line_start(fh.fileno(), pos, len(data)) == expected, pos


def one_process_csv(path, width, rows):
    """What np.loadtxt makes of path after its first line: the rows, or the
    text of the ValueError it raises (as read_csv_rows's caller sees it)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            fh.readline()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, max_rows=rows)
        except ValueError as exc:
            return str(exc)


def ranged_csv(path, width, rows):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            fh.readline()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return textio.read_csv_rows(fh, width, rows)
        except ValueError as exc:
            return str(exc)


def random_csv(rng, width):
    """A header and rows of width floats with mixed line endings, blank lines,
    padding, and perhaps one flaw: a word, a short or long row, a blank-looking
    line of spaces, a byte that is not UTF-8, or a digit that is not ASCII."""
    ends = [b"\n", b"\r\n", b"\r"]
    lines = [b"h" + b",h" * (width - 1)]
    for _ in range(int(rng.integers(0, 60))):
        values = [repr(float(v)) for v in rng.normal(size=width) * 10.0 ** rng.integers(-12, 3)]
        lines.append(",".join(values).encode())
        if rng.random() < 0.1:
            lines[-1] = b" " + lines[-1].replace(b",", b" ,\t") + b" "
        if rng.random() < 0.2:
            lines.append(b"")
    flaws = [b"abc", b"1" + b",1" * width, b"1" + b",1" * (width - 2), b"   ", b"1,\xff",
             "1,\u0661".encode(), None, None]
    flaw = flaws[int(rng.integers(0, len(flaws)))]
    if flaw is not None:
        lines.insert(int(rng.integers(1, len(lines) + 1)), flaw)
    return b"".join(line + ends[int(rng.integers(0, 3))] for line in lines), flaw is not None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_csv_rows_in_ranges_match_one_process(tmp_path, monkeypatch, cpus, k):
    """Seeded random texts, in ranges of 1 to 64 bytes, give loadtxt's rows
    up to max_rows, or its ValueError's text, numpy's row number included.
    A text without a flaw is read by the ranges alone, without the
    one-process parse that words a refusal."""
    rng = np.random.default_rng(k)
    cpus(k)
    path = tmp_path / "t.csv"
    refused = 0
    for _ in range(40):
        width = int(rng.integers(1, 5))
        data, flawed = random_csv(rng, width)
        path.write_bytes(data)
        rows = int(rng.integers(1, 70))
        expected = one_process_csv(path, width, rows)
        monkeypatch.setattr(textio, "_RANGE_BYTES", int(rng.integers(1, 65)))
        got = ranged_csv(path, width, rows)
        if isinstance(expected, str):
            refused += 1
            assert got == expected
        else:
            assert isinstance(got, np.ndarray) and got.shape[1:] == expected.shape[1:]
            assert np.array_equal(got, expected)
        if not flawed:
            with open(path, "rb") as fh, warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                ranged = textio._rows_in_ranges(fh.fileno(), len(data), width, rows)
            assert np.array_equal(ranged, expected)
        assert_no_child()
    assert 0 < refused < 40


def test_csv_rows_of_another_width_are_read_as_one_process_reads_them(tmp_path):
    """Two rows of three values are six float64s, which would pass for three
    rows of two: a range of rows of another width is parsed again in one
    process, which keeps their width."""
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n1,2,3\n4,5,6\n")
    assert np.array_equal(ranged_csv(path, 2, 5), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_csv_rows_without_offsets_are_read_in_one_process(tmp_path, monkeypatch, cpus):
    """A pipe has no offsets to read ranges at, and some platforms have no
    os.pread: loadtxt reads the rows here, forking nothing."""
    cpus(3)
    text = b"a,b\r\n1,2\r\n\n3,4\r5,6\n"
    read_end, write_end = os.pipe()
    os.write(write_end, text)
    os.close(write_end)
    path = tmp_path / "t.csv"
    path.write_bytes(text)

    def rows(source):
        with open(source, "r", encoding="utf-8") as fh:
            fh.readline()
            return textio.read_csv_rows(fh, 2, 2)

    assert np.array_equal(rows(read_end), [[1.0, 2.0], [3.0, 4.0]])
    monkeypatch.delattr(os, "pread")
    assert np.array_equal(rows(path), [[1.0, 2.0], [3.0, 4.0]])
    assert cpus.forks == []


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_byte_that_is_not_utf8_far_into_the_text(tmp_path, monkeypatch, cpus, k):
    """Past the header's first 8 KiB decoding a range fails in whichever
    process parses it; the refusal is fh's own, and rows before the byte
    read as one process reads them."""
    cpus(k)
    monkeypatch.setattr(textio, "_RANGE_BYTES", 1000)
    lines = [b"a,b"] + [("%d,%r" % (i, i / 7)).encode() for i in range(3000)]
    lines[2500] = b"1,\xff"
    path = tmp_path / "t.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    refusal = one_process_csv(path, 2, 3000)
    assert "can't decode byte 0xff" in refusal
    assert ranged_csv(path, 2, 3000) == refusal
    assert np.array_equal(ranged_csv(path, 2, 100), one_process_csv(path, 2, 100))
    assert_no_child()
