"""Seeded random links (tests/physics.py) held to what holds on every valid
link: the stepper's and the eye scan's working-set sizes change no bit, the
settled period balances power exactly, a run starts at the DC state, a
matched link stays within the stepper's stated error of the exact modal
delays, and sim writes the same bytes on one CPU and on two."""

import importlib.util
import re
from pathlib import Path

import numpy as np

import physics
from xtcancel import textio


def test_random_links_hold_the_exact_identities():
    """150 links of seed 5, a few seconds: run_transient bit-identical with
    windows of one pad and of _WINDOW_STEPS, eye_measure identical with one
    offset a chunk and with _SCAN_CELLS, the settled period's power balanced
    within 1e-12 relative, and a run held at its t=0 drive within 1e-12 V
    of the DC state (a source current counted at 50 ohm)."""
    cases = physics.links(5, 150)
    assert {c.spec.termination.n for c in cases} == set(range(1, 9))
    assert sum(len(c.spec.segments) == 3 for c in cases) > 40  # with breakouts
    failed = [line for case in cases for line in physics.identity_failures(case)]
    assert not failed, "\n".join(failed)


def test_matched_random_links_within_the_stepper_error_of_exact_modal_delays():
    """Every matched link of seed 5 (a full network, one segment), banded
    and microstrip, with 0, 1.67 and 50 ohm drivers mixed on one link, stays
    within s dt f (1 - f) of the exact modal delays on every wire
    (physics.matched_error)."""
    cases = [c for c in physics.links(5, 150) if c.matched]
    assert len(cases) > 40
    assert {c.spec.termination.n for c in cases} == set(range(1, 9))
    failed, largest = [], 0.0
    for case in cases:
        error, bound = physics.matched_error(case)
        largest = max(largest, float(np.max(error)))
        if not (error <= bound).all():
            failed.append("%s: error %s over bound %s" % (case.name, error, bound))
    assert not failed, "\n".join(failed)
    assert largest > 1e-3  # the ramp corners fall between steps


def test_sim_writes_the_same_bytes_on_one_cpu_and_on_two(tmp_path, cpus):
    """sim on the first 50 links of seed 5, as if on one CPU and then on
    two: the same bytes, written by this process alone on one CPU and with
    a forked worker on two wherever the CSV is more than one chunk
    (textio._CHUNK_CELLS cells)."""
    differ, forked = [], 0
    for k, case in enumerate(physics.links(5, 50)):
        before = len(cpus.forks)
        cpus(1)
        one = physics.sim_output(case, tmp_path / ("one-%d.csv" % k))
        assert len(cpus.forks) == before
        cpus(2)
        two = physics.sim_output(case, tmp_path / ("two-%d.csv" % k))
        samples, columns = one.count(b"\n") - 1, case.spec.termination.n + 1
        assert (len(cpus.forks) > before) == (samples > textio._CHUNK_CELLS // columns)
        forked += len(cpus.forks) > before
        if one != two:
            differ.append(case.name)
    assert not differ, "\n".join(differ)
    assert forked > 30


def test_physics_sweep_script_prints_a_settle_gap_a_link(capsys):
    """scripts/physics_sweep.py on 12 links of seed 5 holds each to the
    checks above, prints its settle gap, with error / bound on a matched
    link, and ends with the count line."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "physics_sweep.py"
    spec = importlib.util.spec_from_file_location("physics_sweep", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--seed", "5", "--count", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cases = physics.links(5, 12)
    assert len(lines) == len(cases) + 1
    for case, line in zip(cases, lines):
        matched = r"  matched error/bound [\d.]+" if case.matched else ""
        assert re.fullmatch(re.escape(case.name) + r"  settle gap \S+ V" + matched, line), line
    assert re.fullmatch(r"seed 5, 12 links: 0 failed; settle gap over 1e-09 V in \d+, "
                        r"0\.001 V in \d+, 0\.1 V in \d+, largest \S+ V", lines[-1])
