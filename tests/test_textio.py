"""Byte oracle for the output layer.

The reference_* functions below are the per-value writers the package used
before every CSV went through textio.write_csv and the SVG writer worked on
whole arrays.  They are kept as the specification of the file formats: the
package writers must produce the same bytes.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_child
from xtcancel import cli, textio
from xtcancel.bundle import characteristic_impedance, load_bundle
from xtcancel.eye import (_FOLDED_SAMPLE_BYTES, _SVG_SAMPLE_BYTES, eye_measure, fold_phases,
                          render_eye_svg, write_folded_csv)
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
        # sim and the folded CSV fork k - 1 workers each, and the SVG as
        # many as it has wires beyond the first, up to k - 1
        wires = load_link(FIXTURES / link).termination.n
        assert len(cpus.forks) == (k - 1) * 2 + min(k, wires) - 1
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


@pytest.mark.parametrize("svg_fits, forks", [(1, 0), (2, 2)])
def test_eye_writers_fork_only_the_workers_that_fit_the_budget(
        tmp_path, cpus, monkeypatch, svg_fits, forks):
    """Each eye writer's process holds up to its per-sample figure for every
    sample beside the volts.  With room for one SVG figure, which the folded
    CSV's figure fits once, neither writer forks on three CPUs; with room for
    two, which the folded CSV's figure fits twice, each forks one worker.
    The bytes stay the same."""
    waves, rate = settled_waves(), 16e9
    samples = waves.volts.shape[1]
    monkeypatch.setattr(textio, "MEMORY_BUDGET_BYTES",
                        waves.volts.nbytes + svg_fits * _SVG_SAMPLE_BYTES * samples)
    assert _FOLDED_SAMPLE_BYTES <= _SVG_SAMPLE_BYTES < 2 * _FOLDED_SAMPLE_BYTES
    assert 2 * _SVG_SAMPLE_BYTES < 3 * _FOLDED_SAMPLE_BYTES
    cpus(3)
    same_bytes(tmp_path, lambda p: render_eye_svg(waves, rate, p),
               lambda p: reference_eye_svg(waves, rate, p))
    same_bytes(tmp_path, lambda p: write_folded_csv(waves, rate, p),
               lambda p: reference_folded_csv(waves, rate, p))
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
        return "%d\n" % i

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
        tmp_path / "t", 2, lambda i: os._exit(3) if os.getpid() != parent and i == 3 else "%d" % i)
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
        return "%d" % i

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
