"""End-to-end command-line tests: flows, file outputs, and exit codes."""

import importlib.util
import inspect
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from designs import non_realizable_bundle, reference_termination
from xtcancel import cli, errors
from xtcancel.bundle import characteristic_impedance, load_bundle, save_bundle, uncoupled_bundle
from xtcancel.errors import MEMORY_BUDGET_BYTES, SimulationDivergedError
from xtcancel.eye import eye_measure, fold_phases, write_eye_json
from xtcancel.fom import bundle_fom, code_table, write_code_table_csv, write_report_json
from xtcancel.mtlsim import build_link, load_link, run_transient
from xtcancel.stimulus import pattern_assign
from xtcancel.termination import load_network, save_network
from xtcancel.textio import write_csv

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fx(name):
    return str(FIXTURES / name)


def test_version(capsys):
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("xtcancel ")
    assert "schemas" in out


def test_synth_full_network(tmp_path):
    out = tmp_path / "net.json"
    zc = tmp_path / "zc.json"
    hist = tmp_path / "hist.csv"
    code = cli.main(["synth", "--lc", fx("six.json"), "-o", str(out),
                     "--zc", str(zc), "--histogram", str(hist)])
    assert code == 0
    net = load_network(out)
    assert len(net.elements) == 21  # 6 self + 15 cross
    zdata = json.loads(zc.read_text())
    assert zdata["n"] == 6
    z = np.array(zdata["zc"])
    assert np.array_equal(z, z.T)
    assert hist.read_text().splitlines()[0] == "siemens,count"


@pytest.mark.filterwarnings("error")
def test_histogram_of_a_huge_conductance(tmp_path):
    """A 1e-300 ohm element puts the top edges near 1e300 S, where the
    product of two edges overflowed: the top centers were written as inf,
    with a RuntimeWarning.  Every center is now finite and inside its bin."""
    raw = json.loads(Path(fx("pair-network.json")).read_text())
    raw["elements"][2]["ohms"] = 1e-300
    net = tmp_path / "net.json"
    net.write_text(json.dumps(raw))
    hist = tmp_path / "hist.csv"
    assert cli.main(["synth", "--net", str(net), "-o", str(tmp_path / "out.json"),
                     "--histogram", str(hist)]) == 0
    table = np.loadtxt(hist, delimiter=",", skiprows=1)
    edges = np.geomspace(1.0 / 83.33333333333339, 1e300, len(table) + 1)
    assert np.isfinite(table[:, 0]).all()
    assert (edges[:-1] <= table[:, 0]).all() and (table[:, 0] <= edges[1:]).all()
    assert table[:, 1].sum() == 3


def test_synth_reduce_existing_network(tmp_path):
    src = tmp_path / "table.json"
    save_network(reference_termination(), src)
    explicit = tmp_path / "explicit.json"
    implied = tmp_path / "implied.json"
    assert cli.main(["synth", "--net", str(src), "--cutoff-self", "500",
                     "--cutoff-cross", "1000", "-o", str(explicit)]) == 0
    assert len(load_network(explicit).elements) == 33
    # omitting --cutoff-cross doubles the self cutoff
    assert cli.main(["synth", "--net", str(src), "--cutoff-self", "500",
                     "-o", str(implied)]) == 0
    assert implied.read_bytes() == explicit.read_bytes()


def test_synth_vref_rereferences_network(tmp_path):
    src = tmp_path / "table.json"
    save_network(replace(reference_termination(), vref=0.75), src)
    kept, moved = tmp_path / "kept.json", tmp_path / "moved.json"
    assert cli.main(["synth", "--net", str(src), "-o", str(kept)]) == 0
    assert cli.main(["synth", "--net", str(src), "--vref", "0.9", "-o", str(moved)]) == 0
    assert load_network(kept).vref == 0.75
    assert load_network(moved).vref == 0.9
    assert load_network(moved).elements == load_network(src).elements


def test_synth_flag_validation(tmp_path):
    out = str(tmp_path / "x.json")
    assert cli.main(["synth", "--lc", fx("six.json"), "--net", fx("pair-network.json"),
                     "-o", out]) == 2
    assert cli.main(["synth", "--net", fx("pair-network.json"), "--zc",
                     str(tmp_path / "z.json"), "-o", out]) == 2
    assert cli.main(["synth", "--lc", fx("six.json"), "--cutoff-cross", "100",
                     "-o", out]) == 2
    assert cli.main(["synth", "-o", out]) == 2


@pytest.mark.parametrize("sources", [
    ["--lc", fx("six.json"), "--network", fx("pair-network.json")], []], ids=["both", "neither"])
def test_fom_conflicting_or_missing_source_exit_2(tmp_path, capsys, sources):
    """Two admittance sources, or none, exit 2 from the parser: fom used to
    score the network and ignore --lc."""
    out = tmp_path / "o.json"
    assert cli.main(["fom", *sources, "-o", str(out)]) == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


def test_fom_levels_take_a_negative_low_level(tmp_path):
    """--levels LOW HIGH reads a negative low level as a number (the digest
    script's odd-level run): its files are the in-process report and table.
    The default levels are 0 1."""
    rep, codes = tmp_path / "rep.json", tmp_path / "codes.csv"
    assert cli.main(["fom", "--lc", fx("twelve.json"), "--vref", "0.4", "--levels", "-0.2",
                     "1.1", "-o", str(rep), "--codes", str(codes)]) == 0
    y = characteristic_impedance(load_bundle(fx("twelve.json")))[0].yc
    want_rep, want_codes = tmp_path / "want.json", tmp_path / "want.csv"
    write_report_json(bundle_fom(y, vref=0.4, levels=(-0.2, 1.1)), want_rep)
    write_code_table_csv(code_table(y, vref=0.4, levels=(-0.2, 1.1)), want_codes)
    assert rep.read_bytes() == want_rep.read_bytes()
    assert codes.read_bytes() == want_codes.read_bytes()
    plain = tmp_path / "plain.json"
    assert cli.main(["fom", "--lc", fx("twelve.json"), "-o", str(plain)]) == 0
    assert cli.main(["fom", "--lc", fx("twelve.json"), "--levels", "0", "1",
                     "-o", str(rep)]) == 0
    assert rep.read_bytes() == plain.read_bytes()


def test_synth_non_realizable_exit_3(tmp_path):
    src = tmp_path / "bad.json"
    save_bundle(non_realizable_bundle(), src)
    assert cli.main(["synth", "--lc", str(src), "-o", str(tmp_path / "n.json")]) == 3


def test_fom_report_and_codes(tmp_path):
    rep = tmp_path / "rep.json"
    codes = tmp_path / "codes.csv"
    assert cli.main(["fom", "--lc", fx("pair.json"), "-o", str(rep),
                     "--codes", str(codes)]) == 0
    data = json.loads(rep.read_text())
    assert data["n_codes"] == 4 and data["sampled"] is False
    assert data["avg_bundle_current_a"] == pytest.approx(6.0e-3, rel=1e-9)
    assert data["max_wire_current_a"] == pytest.approx(12.5e-3, rel=1e-9)
    assert data["avg_power_w"] == pytest.approx(9.25e-3, rel=1e-9)
    lines = codes.read_text().splitlines()
    assert lines[0] == "code,i1,i2" and len(lines) == 5


def test_fom_from_network_file(tmp_path):
    rep = tmp_path / "rep.json"
    assert cli.main(["fom", "--network", fx("twelve-50ohm.json"),
                     "-o", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["n_codes"] == 4096
    assert data["max_bundle_current_a"] == pytest.approx(0.120, rel=1e-9)
    assert data["max_wire_current_a"] == pytest.approx(10.0e-3, rel=1e-9)


def test_fom_cap_and_sampling(tmp_path, capsys):
    wide = tmp_path / "wide.json"
    save_bundle(uncoupled_bundle(41), wide)
    rep = tmp_path / "rep.json"
    assert cli.main(["fom", "--lc", str(wide), "-o", str(rep)]) == 4
    assert "pass --samples N" in capsys.readouterr().err  # the report's remedy
    # with --codes the table, whose cap is the lower, refuses first
    assert cli.main(["fom", "--lc", str(wide), "-o", str(rep),
                     "--codes", str(tmp_path / "c.csv")]) == 4
    err = capsys.readouterr().err
    assert "error: code table capped at 20 wires (got 41)" in err and "--samples" not in err
    assert cli.main(["fom", "--lc", str(wide), "-o", str(rep),
                     "--samples", "400", "--seed", "3"]) == 0
    data = json.loads(rep.read_text())
    assert data["sampled"] is True and data["samples"] == 400
    assert data["max_wire_current_a"] == pytest.approx(10.0e-3, rel=1e-6)
    # exhaustive code table cannot combine with sampling
    assert cli.main(["fom", "--lc", str(wide), "-o", str(rep),
                     "--samples", "400", "--codes", str(tmp_path / "c.csv")]) == 2
    # 21 wires: past the code table's cap, inside the exact report's
    mid = tmp_path / "mid.json"
    save_bundle(uncoupled_bundle(21), mid)
    mid_rep = tmp_path / "mid-rep.json"
    capsys.readouterr()
    assert cli.main(["fom", "--lc", str(mid), "-o", str(mid_rep),
                     "--codes", str(tmp_path / "c.csv")]) == 4
    # no sampled table exists, so the table's message names no remedy
    err = capsys.readouterr().err
    assert "error: code table capped at 20 wires (got 21)" in err and "--samples" not in err
    assert not mid_rep.exists() and not (tmp_path / "c.csv").exists()
    assert cli.main(["fom", "--lc", str(mid), "-o", str(mid_rep)]) == 0
    data = json.loads(mid_rep.read_text())
    assert data["n_codes"] == 1 << 21
    assert data["max_bundle_current_a"] == pytest.approx(21 * 10.0e-3, rel=1e-9)


def test_fom_seed_needs_samples(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    assert cli.main(["fom", "--lc", fx("pair.json"), "--seed", "3", "-o", str(rep)]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "--samples" in err
    assert not rep.exists()


def test_fom_samples_over_budget_exit_2(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    assert cli.main(["fom", "--lc", fx("pair.json"), "--samples", "1000000000000000",
                     "-o", str(rep)]) == 2
    err = capsys.readouterr().err
    assert "error: drawing 1000000000000000 samples needs about" in err and "GB budget" in err
    assert not rep.exists()


def test_fom_negative_seed_exit_2(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    assert cli.main(["fom", "--lc", fx("pair.json"), "--samples", "100", "--seed", "-1",
                     "-o", str(rep)]) == 2
    assert "error: sample seed must be >= 0, got -1" in capsys.readouterr().err
    assert not rep.exists()


def test_sim_eye_flow(tmp_path):
    waves = tmp_path / "waves.csv"
    assert cli.main(["sim", "--link", fx("link-scalar.json"), "-o", str(waves)]) == 0
    header = waves.read_text().splitlines()[0]
    assert header == "time_s,w1"
    eye = tmp_path / "eye.json"
    svg = tmp_path / "eye.svg"
    folded = tmp_path / "folded.csv"
    assert cli.main(["eye", "--waves", str(waves), "--link", fx("link-scalar.json"),
                     "-o", str(eye), "--svg", str(svg), "--folded", str(folded)]) == 0
    data = json.loads(eye.read_text())
    # ideal source, matched line: full 1 V eye
    assert data["min_v"] == pytest.approx(1.0, abs=1e-9)
    assert svg.read_text().startswith("<svg")
    assert folded.read_text().splitlines()[0] == "wire,phase_ui,volts"


def _sim_then_eye(tmp_path, link, *flags):
    """Run sim on link, then eye on the file it wrote; returns the file."""
    waves = tmp_path / "waves.csv"
    assert cli.main(["sim", "--link", link, "-o", str(waves)]) == 0
    assert cli.main(["eye", "--waves", str(waves), "--link", link,
                     "-o", str(tmp_path / "eye.json"), *flags]) == 0
    return waves


@pytest.mark.parametrize("name", ["twelve", "scalar"])
def test_eye_of_sim_file_is_the_in_process_eye(tmp_path, name):
    """eye reads back the Waveforms sim stepped, on the engine's grid, so
    its report is the one measured in-process, byte for byte."""
    link = fx("link-%s.json" % name)
    _sim_then_eye(tmp_path, link)
    engine = build_link(load_link(link))
    in_process = tmp_path / "in-process.json"
    write_eye_json(eye_measure(run_transient(engine), engine.streams,
                               engine.spec.stimulus.data_rate), in_process)
    assert (tmp_path / "eye.json").read_bytes() == in_process.read_bytes()


@pytest.mark.parametrize("name", ["twelve", "scalar"])
def test_folded_phases_fold_the_file_time_column(tmp_path, name):
    link = fx("link-%s.json" % name)
    folded = tmp_path / "folded.csv"
    waves = _sim_then_eye(tmp_path, link, "--folded", str(folded))
    engine = build_link(load_link(link))
    t = np.loadtxt(waves, delimiter=",", skiprows=1, usecols=0)
    column = SimpleNamespace(times=lambda: t, nominal_delay_s=engine.nominal_delay_s)
    want = fold_phases(column, engine.spec.stimulus.data_rate)
    phases = np.loadtxt(folded, delimiter=",", skiprows=1, usecols=1)
    assert np.array_equal(phases, np.tile(want, engine.n))


def test_sim_deterministic_and_seeded(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["sim", "--link", fx("link-pair.json"), "-o", str(a)]) == 0
    assert cli.main(["sim", "--link", fx("link-pair.json"), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    raw = json.loads(Path(fx("link-pair.json")).read_text())
    raw["stimulus"]["seed"] = 9
    c = tmp_path / "c.csv"
    assert cli.main(["sim", "--link", _link_in(tmp_path, raw), "-o", str(c)]) == 0
    assert c.read_bytes() != a.read_bytes()


@pytest.mark.parametrize("command", ["sim", "eye", "sweep"])
def test_seed_flag_is_refused(tmp_path, capsys, command):
    """The link document is the one owner of the stimulus seed: a --seed on
    the command line could make eye score sim's waves against other streams."""
    waves = tmp_path / "waves.csv"
    if command == "eye":
        assert cli.main(["sim", "--link", fx("link-pair.json"), "-o", str(waves)]) == 0
    out = tmp_path / "out"
    argv = {"sim": ["sim", "--link", fx("link-pair.json")],
            "eye": ["eye", "--waves", str(waves), "--link", fx("link-pair.json")],
            "sweep": ["sweep", "--mode", "rs", "--link", fx("link-pair.json"),
                      "--values", "0"]}[command]
    assert cli.main(argv + ["--seed", "9", "-o", str(out)]) == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, mode", [("link-twelve.json", "random"),
                                        ("link-pair.json", "worst")], ids=["twelve", "pair"])
def test_mode_spelled_as_streams_gives_identical_waves(tmp_path, name, mode):
    """Explicit streams spell every arrangement: a mode's streams, given
    bit for bit, make sim write the mode's bytes."""
    spec = load_link(fx(name))
    assert spec.stimulus.mode == mode
    raw = json.loads(Path(fx(name)).read_text())
    del raw["stimulus"]["prbs_order"], raw["stimulus"]["mode"]
    raw["stimulus"]["streams"] = pattern_assign(spec.stimulus, spec.termination.n).tolist()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sim", "--link", fx(name), "-o", str(a)]) == 0
    assert cli.main(["sim", "--link", _link_in(tmp_path, raw), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rs(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--mode", "rs", "--link", fx("link-scalar.json"),
                     "--values", "0,25", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "value,wire,eye_v,min_v,avg_v,max_v"
    assert len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][0]) == 0.0 and float(rows[1][0]) == 25.0
    assert float(rows[0][2]) > float(rows[1][2])  # eye shrinks with source R
    assert float(rows[1][2]) == pytest.approx(50.0 / 75.0, rel=0.01)


def test_sweep_cutoff(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--mode", "cutoff", "--link", fx("link-pair.json"),
                     "--values", "inf,90/100", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # 2 cutoff points x 2 wires
    full = [float(line.split(",")[2]) for line in lines[1:3]]
    cut = [float(line.split(",")[2]) for line in lines[3:5]]
    assert min(full) > 0.95  # full cancellation at rs = 0
    assert all(v > 0.0 for v in cut)
    assert lines[1].split(",")[0] == "inf"


def test_sweep_uncoupled(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--mode", "uncoupled", "--link", fx("link-pair.json"),
                     "--values", "0,0.002", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    base = min(float(line.split(",")[2]) for line in lines[1:3])
    far = min(float(line.split(",")[2]) for line in lines[3:5])
    assert far <= base + 1e-12


def test_sweep_value_validation(tmp_path):
    out = str(tmp_path / "s.csv")
    assert cli.main(["sweep", "--mode", "rs", "--link", fx("link-scalar.json"),
                     "--values", "", "-o", out]) == 2
    assert cli.main(["sweep", "--mode", "rs", "--link", fx("link-scalar.json"),
                     "--values", "1,abc", "-o", out]) == 2
    assert cli.main(["sweep", "--mode", "cutoff", "--link", fx("link-pair.json"),
                     "--values", "500", "-o", out]) == 2
    assert cli.main(["sweep", "--mode", "cutoff", "--link", fx("link-pair.json"),
                     "--values", "abc/1", "-o", out]) == 2


@pytest.mark.parametrize("mode, link, values", [
    ("cutoff", "link-pair.json", "inf,-5/10"),
    ("cutoff", "link-pair.json", "inf,none"),
    # a 10 um breakout is shorter than one timestep, which build_link refuses
    ("uncoupled", "link-twelve.json", "0.001,0.00001"),
], ids=["inf,-5/10", "inf,none", "uncoupled-timestep"])
def test_sweep_refuses_a_bad_point_before_running_any(tmp_path, capsys, mode, link, values):
    """Every point's engine is built before the first runs: a bad last value
    costs no simulation.  inf is the one spelling of the full network."""
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--mode", mode, "--link", fx(link),
                     "--values", values, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "min eye" not in err
    assert not out.exists()


def test_sweep_budgets_the_links_it_holds_together(tmp_path, capsys, monkeypatch):
    """Each of the three links fits the budget alone, but their step maps,
    held together, and the largest run do not: refused before the first run."""
    values = [0.0, 0.0005, 0.001]
    points = cli._sweep_points(load_link(fx("link-twelve.json")), "uncoupled", values)
    engines = [build_link(point) for _, point in points]
    monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES",
                        max(e.stepper_bytes(e.steps) for e in engines))
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--mode", "uncoupled", "--link", fx("link-twelve.json"),
                     "--values", "0,0.0005,0.001", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"error: holding 2 of the sweep's 3 links needs about [\d.]+ GB of "
                     r"memory, over the [\d.]+ GB budget; sweep fewer values at a time", err)
    assert "min eye" not in err
    assert not out.exists()


def test_sweep_budgets_each_points_eye(tmp_path, capsys, monkeypatch):
    """link-twelve at PRBS9: the stepper's run needs 10.6 MB beyond the step
    map, the eye measured on its volts and currents 14.5 MB.  Under a 12 MB
    budget the point is refused before it runs."""
    monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", 12_000_000)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--mode", "rs", "--link", _twelve_at(tmp_path, 9),
                     "--values", "1.67", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: holding 1 of the sweep's 1 links needs about 0.0148 GB" in err
    assert "min eye" not in err
    assert not out.exists()


def test_exit_code_2_on_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["synth", "--lc", str(bad), "-o", str(tmp_path / "o.json")]) == 2
    # nesting past the parser's recursion limit, and an integer past int's
    # digit limit: refused by the JSON reader, naming the file
    raw = json.loads(Path(fx("pair.json")).read_text())
    for text, message in (
            ("[" * 100000, "maximum recursion depth exceeded"),
            (json.dumps(raw).replace('"n": 2', '"n": 1' + "0" * 5000),
             "an integer of 5001 digits is over the 4300-digit limit\n")):
        bad.write_text(text)
        assert cli.main(["synth", "--lc", str(bad), "-o", str(tmp_path / "o.json")]) == 2
        assert "error: %s: %s" % (bad, message) in capsys.readouterr().err
    assert cli.main(["sim", "--link", str(tmp_path / "missing.json"),
                     "-o", str(tmp_path / "w.csv")]) == 2
    assert cli.main(["fom", "--lc", fx("pair.json"), "-o", str(tmp_path / "r.json"),
                     "--levels", "1"]) == 2
    assert cli.main(["sim", "--no-such-flag"]) == 2
    assert cli.main(["frobnicate"]) == 2
    # malformed bundle fields: a non-numeric n, a ragged or non-numeric L
    for field, value in (("n", "two"), ("L", [[2.5e-7, 1e-8], [1e-8]]), ("L", "abc")):
        raw = json.loads(Path(fx("pair.json")).read_text())
        raw[field] = value
        bad.write_text(json.dumps(raw))
        assert cli.main(["synth", "--lc", str(bad), "-o", str(tmp_path / "o.json")]) == 2
    capsys.readouterr()
    assert cli.main(["fom", "--lc", fx("pair.json"), "--samples", "1",
                     "-o", str(tmp_path / "r.json")]) == 2
    assert "error: need at least 2 samples" in capsys.readouterr().err
    # link fields out of range: driver levels, rise time, timestep, segments
    for owner, field, value, message in (
            ("drivers", "v_high", 0.0, "driver v_high must exceed v_low"),
            ("drivers", "rise_s", 0.0, "driver rise time must be positive"),
            (None, "timestep_s", 0.0, "timestep must be positive, got 0.0"),
            # no default grid steps inside a 1e-320 s rise (UI / rise is inf) or
            # holds one UI inside a 1e-300 s one; the refusal names rise_s
            ("drivers", "rise_s", 1e-320, "stepping inside a 9.99989e-321 s rise_s (inf steps "
                                          "a UI) needs about inf GB of memory"),
            ("drivers", "rise_s", 1e-300, "stepping inside a 1e-300 s rise_s (6.25e+289 steps "
                                          "a UI) needs about 1e+282 GB of memory"),
            (None, "segments", {}, "link needs a non-empty segments list")):
        raw = json.loads(Path(fx("link-scalar.json")).read_text())
        (raw[owner] if owner else raw)[field] = value
        link = _link_in(tmp_path, raw)
        assert cli.main(["sim", "--link", link, "-o", str(tmp_path / "w.csv")]) == 2
        assert "error: " + message in capsys.readouterr().err
    # networks: no wires, a bridge listed twice
    for edit, message in ((lambda net: net.update(n=0), "network needs at least one wire"),
                          (lambda net: net["elements"].append(net["elements"][2]),
                           "duplicate cross element on pair (1, 2)")):
        raw = json.loads(Path(fx("pair-network.json")).read_text())
        edit(raw)
        bad.write_text(json.dumps(raw))
        assert cli.main(["synth", "--net", str(bad), "-o", str(tmp_path / "o.json")]) == 2
        assert "error: " + message in capsys.readouterr().err
    assert not any((tmp_path / name).exists() for name in ("o.json", "r.json", "w.csv"))


@pytest.mark.parametrize("n, gb", [(10**9, "8e+09"), (20000, "3.2")])
def test_network_too_wide_to_hold_exit_2_before_allocation(tmp_path, capsys, n, gb):
    """A network's n is refused on its n x n admittance when it is read,
    before floating_wires or network_admittance builds n of anything."""
    net = tmp_path / "wide.json"
    net.write_text(json.dumps({"n": n, "vref": 0.5,
                               "elements": [{"kind": "self", "i": 1, "ohms": 50.0}]}))
    for argv in (["synth", "--net", str(net)], ["fom", "--network", str(net)]):
        assert cli.main(argv + ["-o", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == (
            "error: the admittance of a %d-wire network needs about %s GB of memory, over "
            "the 1.07 GB budget; terminate fewer wires\n" % (n, gb))
    assert not (tmp_path / "o.json").exists()


def test_non_finite_bundle_exit_2(tmp_path, capsys):
    raw = json.loads(Path(fx("pair.json")).read_text())
    raw["L"][0][1] = raw["L"][1][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(raw))  # json writes the value as NaN
    assert cli.main(["synth", "--lc", str(bad), "-o", str(tmp_path / "o.json")]) == 2
    assert "error: inductance matrix has non-finite entries" in capsys.readouterr().err


def test_bool_in_bundle_matrix_exit_2(tmp_path, capsys):
    raw = json.loads(Path(fx("pair.json")).read_text())
    raw["C"][0][0] = True
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(raw))
    assert cli.main(["synth", "--lc", str(bad), "-o", str(tmp_path / "o.json")]) == 2
    assert "error: bad capacitance matrix: True is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fom", "--lc", fx("pair.json"), "--vref", "inf"],
     "error: vref inf and levels (0.0, 1.0) must be finite"),
    (["fom", "--lc", fx("pair.json"), "--levels", "nan", "1"],
     "error: vref 0.5 and levels (nan, 1.0) must be finite"),
    (["synth", "--lc", fx("pair.json"), "--vref", "nan"],
     "error: network vref must be finite, got nan"),
], ids=["fom-vref", "fom-levels", "synth-vref"])
def test_non_finite_voltage_flag_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "o.json"
    assert cli.main(argv + ["-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("vref", math.nan, "network vref must be finite, got nan"),
    ("duration_s", math.nan, "duration_s must be finite, got nan"),
    ("duration_s", math.inf, "duration_s must be finite, got inf"),
    ("data_rate", math.inf, "data rate must be finite and positive, got inf"),
], ids=["vref", "duration-nan", "duration-inf", "data-rate-inf"])
def test_non_finite_link_number_exit_2(tmp_path, capsys, field, value, message):
    raw = json.loads(Path(fx("link-scalar.json")).read_text())
    raw["segments"][0]["bundle"] = fx("scalar.json")
    raw["termination"] = json.loads(Path(fx("50ohm-scalar.json")).read_text())
    owner = {"vref": raw["termination"], "duration_s": raw, "data_rate": raw["stimulus"]}[field]
    owner[field] = value
    link = tmp_path / "link.json"
    link.write_text(json.dumps(raw))  # json writes the value as NaN or Infinity
    assert cli.main(["sim", "--link", str(link), "-o", str(tmp_path / "w.csv")]) == 2
    assert "error: " + message in capsys.readouterr().err


def _link_in(tmp_path, raw):
    """Write raw, a document read from fixtures/, to tmp_path with its file
    references made absolute."""
    for entry in raw["segments"]:
        entry["bundle"] = fx(entry["bundle"])
    raw["termination"] = fx(raw["termination"])
    link = tmp_path / "link.json"
    link.write_text(json.dumps(raw))
    return str(link)


@pytest.mark.filterwarnings("error")
def test_resistance_without_a_finite_conductance_exit_2(tmp_path, capsys):
    """A subnormal resistance's conductance overflows, and so can the sum of
    two finite ones; sim ended in a LinAlgError from the nodal solve.  The
    overflowing sum is refused by name, without numpy's RuntimeWarning."""
    raw = json.loads(Path(fx("link-pair.json")).read_text())
    raw["drivers"]["rs_ohms"] = 1e-320
    link = _link_in(tmp_path, raw)
    assert cli.main(["sim", "--link", link, "-o", str(tmp_path / "w.csv")]) == 2
    assert ("error: driver resistance must be finite and >= 0, and 0 or large enough for a "
            "finite conductance, got 1e-320") in capsys.readouterr().err
    net = tmp_path / "net.json"
    for ohms, message in (((83.3, 83.3, 1e-320), "or one too small for a finite conductance"),
                          ((1e-308, 83.3, 1e-308), "error: receiver nodal system has non-finite "
                                                   "conductances: its resistances are too small")):
        raw = json.loads(Path(fx("pair-network.json")).read_text())
        for element, value in zip(raw["elements"], ohms):
            element["ohms"] = value
        net.write_text(json.dumps(raw))
        raw = json.loads(Path(fx("link-pair.json")).read_text())
        raw["termination"] = str(net)
        link = _link_in(tmp_path, raw)
        assert cli.main(["sim", "--link", link, "-o", str(tmp_path / "w.csv")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "w.csv").exists()


def test_misspelt_link_field_exit_2(tmp_path, capsys):
    """A link whose misspelt keys were ignored ran PRBS7 through 0 ohm drivers."""
    raw = json.loads(Path(fx("link-scalar.json")).read_text())
    del raw["drivers"]["rs_ohms"]
    raw["drivers"]["rs_ohm"] = 50
    raw["stimulus"]["prbs_ordr"] = 9
    waves = tmp_path / "w.csv"
    assert cli.main(["sim", "--link", _link_in(tmp_path, raw), "-o", str(waves)]) == 2
    assert "error: drivers has unknown field(s): rs_ohm" in capsys.readouterr().err
    assert not waves.exists()


@pytest.mark.parametrize("field, value", [("offsets", [0, 5]), ("invert_mask", [0, 1])],
                         ids=["offsets", "invert_mask"])
def test_per_wire_override_field_exit_2(tmp_path, capsys, field, value):
    """Per-wire offsets and inversions are spelled as explicit streams; the
    old override fields are refused by name, not ignored."""
    raw = json.loads(Path(fx("link-pair.json")).read_text())
    raw["stimulus"][field] = value
    waves = tmp_path / "w.csv"
    assert cli.main(["sim", "--link", _link_in(tmp_path, raw), "-o", str(waves)]) == 2
    assert "error: stimulus has unknown field(s): %s" % field in capsys.readouterr().err
    assert not waves.exists()


@pytest.mark.parametrize("fields, named", [
    ({"prbs_order": 9}, "prbs_order"),
    ({"mode": "best"}, "mode"),
    ({"seed": 9}, "seed"),
    ({"mode": "best", "seed": 9}, "mode, seed"),
], ids=["prbs_order", "mode", "seed", "mode+seed"])
def test_seed_on_explicit_streams_exit_2(tmp_path, capsys, fields, named):
    """Explicit streams replace the PRBS: the PRBS fields next to them in the
    document are refused, not ignored, and named in one message."""
    raw = json.loads(Path(fx("link-scalar.json")).read_text())
    del raw["stimulus"]["prbs_order"], raw["stimulus"]["mode"]
    raw["stimulus"]["streams"] = [[0, 1, 1, 0, 1]]
    waves = tmp_path / "w.csv"
    assert cli.main(["sim", "--link", _link_in(tmp_path, raw), "-o", str(waves)]) == 0
    raw["stimulus"].update(fields)
    assert cli.main(["sim", "--link", _link_in(tmp_path, raw), "-o", str(waves)]) == 2
    assert "error: explicit streams replace the PRBS; drop %s\n" % named \
        in capsys.readouterr().err


def test_eye_wire_mismatch_exit_2(tmp_path, capsys):
    waves = tmp_path / "waves.csv"
    assert cli.main(["sim", "--link", fx("link-scalar.json"), "-o", str(waves)]) == 0
    assert cli.main(["eye", "--waves", str(waves), "--link", fx("link-pair.json"),
                     "-o", str(tmp_path / "e.json")]) == 2
    # the header check's own message, not wrapped as a parse error
    assert "error: waveform file has 1 wires, link has 2\n" in capsys.readouterr().err


def _resized(raw, length_m=None, **fields):
    if length_m is not None:
        raw["segments"][0]["length_m"] = length_m
    raw.update(fields)
    return raw


@pytest.mark.parametrize("change, message", [
    ({"length_m": 0.2}, "waveform file starts at 1.6748046875e-09 s, "
                        "link's waveforms start at 2.8115234375000003e-09 s"),
    ({"timestep_s": 7.8125e-13},
     "waveform file has a 9.765625000000734e-13 s timestep, link has 7.8125e-13 s"),
    ({"duration_s": 1.1e-8}, "waveform file has 8857 samples, link's waveforms have 9550"),
], ids=["length", "timestep", "duration"])
def test_eye_rejects_waves_of_another_link(tmp_path, capsys, change, message):
    waves = tmp_path / "waves.csv"
    assert cli.main(["sim", "--link", fx("link-pair.json"), "-o", str(waves)]) == 0
    # sim writes the grid its link's engine names, start time bit for bit
    engine = build_link(load_link(fx("link-pair.json")))
    t = np.loadtxt(waves, delimiter=",", skiprows=1, usecols=0)
    assert t[0] == engine.start_index * engine.dt
    assert t.size == engine.samples
    raw = json.loads(Path(fx("link-pair.json")).read_text())
    link = _link_in(tmp_path, _resized(raw, **change))
    out = tmp_path / "e.json"
    assert cli.main(["eye", "--waves", str(waves), "--link", link, "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _twelve_at(tmp_path, prbs_order):
    """link-twelve.json at another PRBS order, written to tmp_path."""
    raw = json.loads(Path(fx("link-twelve.json")).read_text())
    raw["stimulus"]["prbs_order"] = prbs_order
    return _link_in(tmp_path, raw)


def test_eye_over_memory_budget_exit_2_before_reading(tmp_path, capsys, cpus):
    """sim admits link-twelve at PRBS16, a 4.2M-row waveform file.  eye
    reads and copies it within the budget, and so draws its SVG, but with
    --folded it needs more: then it refuses before opening the file.  The
    figure counts one process, so the CPU count does not change it."""
    link = _twelve_at(tmp_path, 16)
    engine = build_link(load_link(link))
    assert engine.stepper_bytes(engine.steps) <= MEMORY_BUDGET_BYTES
    out = tmp_path / "e.json"
    argv = ["eye", "--waves", str(tmp_path / "absent.csv"), "--link", link, "-o", str(out)]
    for writer in ([], ["--svg", str(tmp_path / "e.svg")]):
        assert cli.main(argv + writer) == 2
        assert "No such file" in capsys.readouterr().err  # past the pre-flight
    for k in (1, 2, 64):
        cpus(k)
        assert cli.main(argv + ["--folded", str(tmp_path / "f.csv")]) == 2
        assert ("error: eye on 4194969 samples of 12 wires needs about 1.07 GB of memory, "
                "over the 1.07 GB budget; lower prbs_order, lengthen timestep_s or drop "
                "--svg/--folded") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", [1, 2, 64])
def test_eye_with_writers_at_prbs15_passes_the_pre_flight_on_any_cpu_count(
        tmp_path, capsys, cpus, k):
    """link-twelve at PRBS15 (2.1M samples) with --svg and --folded is
    admitted whatever the CPU count: the writers fork only the workers that
    fit the budget, so the pre-flight counts one process."""
    cpus(k)
    link = _twelve_at(tmp_path, 15)
    for writer in ("--svg", "--folded"):
        assert cli.main(["eye", "--waves", str(tmp_path / "absent.csv"), "--link", link,
                         "-o", str(tmp_path / "e.json"), writer, str(tmp_path / "out")]) == 2
        assert "No such file" in capsys.readouterr().err  # past the pre-flight


def test_eye_refuses_a_longer_file_within_estimate(tmp_path, capsys, monkeypatch):
    """A file on link-twelve's grid with four times its samples is refused
    on its sample count, after parsing one row past the grid: within the
    pre-flight's figure, from the built link on."""
    link = fx("link-twelve.json")
    engine = build_link(load_link(link))
    samples = engine.samples
    t = (engine.start_index + np.arange(4 * samples)) * engine.dt
    waves = tmp_path / "long.csv"
    write_csv(waves, ["time_s"] + ["w%d" % (k + 1) for k in range(engine.n)],
              [t] + [np.zeros(t.size)] * engine.n)
    monkeypatch.setattr(cli, "build_link", lambda spec: engine)
    out = tmp_path / "e.json"
    tracemalloc.start()
    try:
        assert cli.main(["eye", "--waves", str(waves), "--link", link, "-o", str(out)]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cli._eye_bytes(engine, 16e9, svg=False, folded=False)
    assert ("error: waveform file has more than %d samples, link's waveforms have %d"
            % (samples, samples)) in capsys.readouterr().err
    assert not out.exists()


def test_eye_peak_within_estimate(tmp_path, monkeypatch):
    """The pre-flight's figure bounds the traced peak of eye --svg on the
    PRBS9 link, from the built link on.  (The folded CSV's share is held to
    its bound in test_eye.py; tracing both writers here takes seconds.)"""
    link = _twelve_at(tmp_path, 9)
    waves = tmp_path / "w.csv"
    assert cli.main(["sim", "--link", link, "-o", str(waves)]) == 0
    engine = build_link(load_link(link))
    monkeypatch.setattr(cli, "build_link", lambda spec: engine)
    tracemalloc.start()
    try:
        assert cli.main(["eye", "--waves", str(waves), "--link", link,
                         "-o", str(tmp_path / "e.json"), "--svg", str(tmp_path / "e.svg")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cli._eye_bytes(engine, 16e9, svg=True, folded=False)


def test_eye_non_finite_sample_exit_2(tmp_path, capsys):
    waves = tmp_path / "waves.csv"
    assert cli.main(["sim", "--link", fx("link-pair.json"), "-o", str(waves)]) == 0
    lines = waves.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = "nan"
    lines[5] = ",".join(cells)
    waves.write_text("\n".join(lines) + "\n")
    assert cli.main(["eye", "--waves", str(waves), "--link", fx("link-pair.json"),
                     "-o", str(tmp_path / "e.json")]) == 2
    assert "error: waveform CSV has a non-finite w2 sample in data row 5" \
        in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_eye_svg_of_volts_past_any_finite_scale_exit_2(tmp_path, capsys):
    """Finite samples of 1e308 and -1e308 V span more than the largest
    float: eye --svg drew 140 nan coordinates and inf V axis labels, with
    numpy's RuntimeWarning, and exited 0.  It now exits 2 naming the span,
    before it writes any output."""
    waves = tmp_path / "waves.csv"
    assert cli.main(["sim", "--link", fx("link-pair.json"), "-o", str(waves)]) == 0
    lines = waves.read_text().splitlines()
    for row, volts in ((1, "1e308"), (2, "-1e308")):
        cells = lines[row].split(",")
        cells[1] = volts  # w1
        lines[row] = ",".join(cells)
    waves.write_text("\n".join(lines) + "\n")
    out, svg = tmp_path / "e.json", tmp_path / "e.svg"
    assert cli.main(["eye", "--waves", str(waves), "--link", fx("link-pair.json"),
                     "-o", str(out), "--svg", str(svg)]) == 2
    assert ("error: the waveforms span -1e+308 to 1e+308 V, which no finite eye-diagram "
            "scale covers") in capsys.readouterr().err
    assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("name", ["waves", "header", "link"])
def test_non_utf8_input_exit_2(tmp_path, capsys, name):
    """A 0xff byte in a waveform data row or header line, or in a link file,
    is bad input, not a crash."""
    link = Path(_link_in(tmp_path, json.loads(Path(fx("link-pair.json")).read_text())))
    waves = tmp_path / "waves.csv"
    assert cli.main(["sim", "--link", str(link), "-o", str(waves)]) == 0
    path = link if name == "link" else waves
    data = path.read_bytes()
    at = (len(data) // 2 if name == "link" else len("time_s,") if name == "header"
          else data.index(b"\n", len(data) // 2) + 1)  # the start of a data row
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    out = tmp_path / "e.json"
    assert cli.main(["eye", "--waves", str(waves), "--link", str(link), "-o", str(out)]) == 2
    assert "can't decode byte 0xff" in capsys.readouterr().err
    assert not out.exists()


def test_timestep_longer_than_rise_exit_2(tmp_path, capsys):
    raw = json.loads(Path(fx("link-scalar.json")).read_text())
    for timestep, code in ((2e-11, 2), (1e-11, 0)):  # rise_s is 1e-11
        raw["timestep_s"] = timestep
        link = _link_in(tmp_path, raw)  # the references, once absolute, stay so
        assert cli.main(["sim", "--link", link, "-o", str(tmp_path / "w.csv")]) == code
    err = capsys.readouterr().err
    assert "error: timestep_s 2e-11 s is longer than rise_s 1e-11 s" in err


def test_exit_code_5_on_divergence(tmp_path, monkeypatch):
    def blow_up(engine):
        raise SimulationDivergedError(41, "receiver node voltages")

    monkeypatch.setattr(cli, "run_transient", blow_up)
    assert cli.main(["sim", "--link", fx("link-scalar.json"),
                     "-o", str(tmp_path / "w.csv")]) == 5


# Every error type of errors.py and a phrase of the README's exit-code row
# that its exit_code must select.
_ERROR_ROWS = [("XtcancelError", "bad input"), ("ValidationError", "bad input"),
               ("NonPhysicalBundleError", "bad input"), ("IsolatedWireError", "bad input"),
               ("DegenerateStreamError", "bad input"),
               ("NonRealizableCouplingError", "not realizable"),
               ("EnumerationCapError", "too wide"), ("SimulationDivergedError", "non-finite")]


@pytest.mark.parametrize("name, meaning", _ERROR_ROWS, ids=[name for name, _ in _ERROR_ROWS])
def test_error_exit_code_is_its_readme_row(name, meaning):
    """cli.main exits with the raised type's exit_code; the README's table
    says what each code means."""
    types = {n for n, t in inspect.getmembers(errors, inspect.isclass)
             if issubclass(t, errors.XtcancelError)}
    assert types == {n for n, _ in _ERROR_ROWS}
    readme = (FIXTURES.parent / "README.md").read_text()
    rows = dict(re.findall(r"^\| (\d) \| (.*) \|$", readme, re.M))
    assert meaning in rows[str(getattr(errors, name).exit_code)]


def test_output_digests_script_runs_and_repeats(capsys):
    """scripts/output_digests.py runs every fixture command to exit 0 and
    prints one digest line per output, the same lines twice."""
    path = FIXTURES.parent / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    names = [out for _, outs in script.commands() for out in outs]
    runs = []
    for _ in range(2):
        assert script.main() == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert [re.fullmatch(r"[0-9a-f]{64}  (\S+)", line).group(1) for line in runs[0]] == names
    assert runs[1] == runs[0]
