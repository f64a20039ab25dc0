"""Switching-current and power figure-of-merit tests."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import xtcancel
from conftest import assert_no_child, random_bundle
from xtcancel import errors, textio
from xtcancel.bundle import characteristic_impedance, uncoupled_bundle
from xtcancel.errors import EnumerationCapError, ValidationError
from xtcancel.fom import (_SAMPLE_ROWS, ENUMERATION_CAP, EXACT_FOM_CAP, SAMPLE_CAP, bundle_fom,
                          bundle_fom_sampled, code_table, sampled_fom_bytes,
                          write_code_table_csv, write_report_json)
from xtcancel.termination import network_admittance, realize_network

PAIR_Y = np.array([[0.0185, -0.0065], [-0.0065, 0.0185]])


def brute_force_fom(y, vref, levels):
    """Independent reference: plain python loop over all codes."""
    n = y.shape[0]
    v_low, v_high = levels
    sum_abs_bundle = 0.0
    max_bundle = 0.0
    max_wire = 0.0
    sum_power = 0.0
    for c in range(1 << n):
        v = np.array([v_high if (c >> k) & 1 else v_low for k in range(n)]) - vref
        i = y @ v
        sum_abs_bundle += abs(i.sum())
        max_bundle = max(max_bundle, abs(i.sum()))
        max_wire = max(max_wire, np.abs(i).max())
        sum_power += float(v @ y @ v)
    total = 1 << n
    return sum_abs_bundle / total, max_bundle, max_wire, sum_power / total


def code_of(bits):
    """The code_table row of a bit pattern: bit k (LSB) is wire k+1."""
    return sum(b << k for k, b in enumerate(bits))


def test_wire_currents_pair_oracle():
    table = code_table(PAIR_Y, vref=0.5)
    i_same = table[code_of((1, 1))]
    assert np.allclose(i_same, [6.0e-3, 6.0e-3], atol=1e-15)
    i_diff = table[code_of((1, 0))]
    assert np.allclose(i_diff, [12.5e-3, -12.5e-3], atol=1e-15)
    # complementing every bit negates the currents
    i_comp = table[code_of((0, 0))]
    assert np.allclose(i_comp, -i_same, atol=0)


def test_uncoupled_six_wire_currents():
    table = code_table(np.diag([0.02] * 6), vref=0.5)
    for bits in ((1, 1, 1, 1, 1, 1), (1, 0, 1, 0, 1, 0), (0, 0, 0, 1, 0, 0)):
        i = table[code_of(bits)]
        assert np.allclose(np.abs(i), 10.0e-3, atol=1e-15)


def test_uncoupled_six_wire_fom():
    y = np.diag([0.02] * 6)
    rep = bundle_fom(y, vref=0.5, levels=(0.0, 1.0))
    assert rep.n_codes == 64
    assert rep.max_bundle_current == pytest.approx(60.0e-3, rel=1e-12)
    assert rep.max_wire_current == pytest.approx(10.0e-3, rel=1e-12)
    assert rep.avg_bundle_current == pytest.approx(18.75e-3, rel=1e-12)
    assert rep.avg_power == pytest.approx(30.0e-3, rel=1e-12)
    brute = brute_force_fom(y, 0.5, (0.0, 1.0))
    assert rep.avg_bundle_current == pytest.approx(brute[0], rel=1e-12)
    assert rep.max_bundle_current == pytest.approx(brute[1], rel=1e-12)
    assert rep.max_wire_current == pytest.approx(brute[2], rel=1e-12)
    assert rep.avg_power == pytest.approx(brute[3], rel=1e-12)


def test_pair_fom_oracle():
    rep = bundle_fom(PAIR_Y, vref=0.5, levels=(0.0, 1.0))
    assert rep.avg_bundle_current == pytest.approx(6.0e-3, rel=1e-12)
    assert rep.max_bundle_current == pytest.approx(12.0e-3, rel=1e-12)
    assert rep.max_wire_current == pytest.approx(12.5e-3, rel=1e-12)
    assert rep.avg_power == pytest.approx(9.25e-3, rel=1e-12)
    assert rep.n_codes == 4


def test_zero_matrix_fom():
    rep = bundle_fom(np.zeros((3, 3)))
    assert (rep.avg_bundle_current, rep.max_bundle_current,
            rep.max_wire_current, rep.avg_power) == (0.0, 0.0, 0.0, 0.0)


def test_random_matches_brute_force():
    rng = np.random.default_rng(31)
    cases = []
    for n in (1, 3, 5, 8):
        b = random_bundle(rng, n)
        basis, _ = characteristic_impedance(b)
        cases.append((basis.mi.T @ basis.mi, 0.4, (-0.2, 1.1)))
    # symmetric indefinite Y whose row sums take both signs
    indefinite = [np.array([[0.03, -0.01], [-0.01, -0.02]])]
    m = rng.normal(size=(7, 7)) * 1e-2
    indefinite.append(m + m.T)
    for y in indefinite:
        rows = y.sum(axis=1)
        assert rows.min() < 0.0 < rows.max() and np.linalg.eigvalsh(y).min() < 0.0
        cases.append((y, 0.4, (-0.2, 1.1)))
    # vref at the low level and Y 1 > 0: every code sum is >= 0
    assert cases[2][0].sum(axis=1).min() > 0.0
    cases.append((cases[2][0], 0.0, (0.0, 1.0)))
    for y, vref, levels in cases:
        rep = bundle_fom(y, vref=vref, levels=levels)
        brute = brute_force_fom(y, vref, levels)
        assert rep.avg_bundle_current == pytest.approx(brute[0], rel=1e-12)
        assert rep.max_bundle_current == pytest.approx(brute[1], rel=1e-12)
        assert rep.max_wire_current == pytest.approx(brute[2], rel=1e-12)
        assert rep.avg_power == pytest.approx(brute[3], rel=1e-12)


def test_level_swap_symmetry():
    rng = np.random.default_rng(17)
    b = random_bundle(rng, 5)
    basis, _ = characteristic_impedance(b)
    y = basis.mi.T @ basis.mi
    a = bundle_fom(y, vref=0.5, levels=(0.0, 1.0))
    s = bundle_fom(y, vref=0.5, levels=(1.0, 0.0))
    assert a.avg_bundle_current == pytest.approx(s.avg_bundle_current, rel=1e-12)
    assert a.max_bundle_current == pytest.approx(s.max_bundle_current, rel=1e-12)
    assert a.max_wire_current == pytest.approx(s.max_wire_current, rel=1e-12)
    assert a.avg_power == pytest.approx(s.avg_power, rel=1e-12)


def test_per_code_sum_identity():
    basis, _ = characteristic_impedance(uncoupled_bundle(4))
    net = realize_network(basis.zc)
    y = network_admittance(net)
    g_self = np.array([1.0 / el.ohms if el.kind == "self" else 0.0
                       for el in sorted(net.elements, key=lambda e: e.i)
                       if el.kind == "self"])
    table = code_table(y, vref=0.5, levels=(0.0, 1.0))
    n = 4
    codes = np.arange(1 << n)
    volts = ((codes[:, None] >> np.arange(n)) & 1).astype(float) - 0.5
    supply = volts @ g_self
    assert np.max(np.abs(table.sum(axis=1) - supply)) <= 1e-15


def test_exact_fom_and_code_table_match_full_enumeration():
    # n=15: the report in closed form and the table by doubling, against
    # every code's currents from one matrix product
    rng = np.random.default_rng(23)
    g = np.abs(rng.normal(size=(15, 15))) * 1e-3
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 0.0)
    y = np.diag(g.sum(axis=1) + 1e-3) - g
    rep = bundle_fom(y, vref=0.5, levels=(0.0, 1.0))
    codes = np.arange(1 << 15)
    volts = ((codes[:, None] >> np.arange(15)) & 1).astype(float) - 0.5
    cur = volts @ y
    bundle = cur.sum(axis=1)
    power = np.einsum("ij,ij->i", volts @ y, volts)
    assert np.max(np.abs(code_table(y) - cur)) <= 1e-15 * np.abs(cur).max()
    assert rep.avg_bundle_current == pytest.approx(np.abs(bundle).mean(), rel=1e-12)
    assert rep.max_bundle_current == pytest.approx(np.abs(bundle).max(), rel=1e-12)
    assert rep.max_wire_current == pytest.approx(np.abs(cur).max(), rel=1e-12)
    assert rep.avg_power == pytest.approx(power.mean(), rel=1e-12)


def test_enumeration_cap():
    y = np.eye(ENUMERATION_CAP + 1) * 0.02
    with pytest.raises(EnumerationCapError, match="code table capped at 20 wires"):
        code_table(y)


def test_exact_fom_cap():
    assert bundle_fom(np.eye(EXACT_FOM_CAP) * 0.02).n_codes == 1 << EXACT_FOM_CAP
    with pytest.raises(EnumerationCapError, match="exact figures of merit capped at 40 wires"):
        bundle_fom(np.eye(EXACT_FOM_CAP + 1) * 0.02)


def test_exact_fom_above_enumeration_cap():
    # n=22: past the code table's cap.  The reference enumerates every code
    # with numpy in blocks (brute_force_fom's loop would take minutes here).
    n = 22
    rng = np.random.default_rng(5)
    g = np.abs(rng.normal(size=(n, n))) * 1e-3
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 0.0)
    y = np.diag(g.sum(axis=1) + 1e-3) - g
    vref, (v_low, v_high) = 0.4, (-0.2, 1.1)
    rep = bundle_fom(y, vref=vref, levels=(v_low, v_high))
    sum_abs_bundle = max_bundle = max_wire = sum_power = 0.0
    for start in range(0, 1 << n, 1 << 16):
        codes = np.arange(start, start + (1 << 16))
        v = np.where((codes[:, None] >> np.arange(n)) & 1, v_high, v_low) - vref
        cur = v @ y
        bundle = np.abs(cur.sum(axis=1))
        sum_abs_bundle += bundle.sum()
        max_bundle = max(max_bundle, bundle.max())
        max_wire = max(max_wire, np.abs(cur).max())
        sum_power += np.einsum("ij,ij->", cur, v)
    assert rep.n_codes == 1 << n
    assert rep.avg_bundle_current == pytest.approx(sum_abs_bundle / (1 << n), rel=1e-12)
    assert rep.max_bundle_current == pytest.approx(max_bundle, rel=1e-12)
    assert rep.max_wire_current == pytest.approx(max_wire, rel=1e-12)
    assert rep.avg_power == pytest.approx(sum_power / (1 << n), rel=1e-12)


def test_sampled_fom():
    y = np.eye(24) * 0.02
    a = bundle_fom_sampled(y, samples=4000, seed=42)
    b = bundle_fom_sampled(y, samples=4000, seed=42)
    assert a == b  # same seed, identical report
    c = bundle_fom_sampled(y, samples=4000, seed=43)
    assert c != a
    assert a.n_codes == 1 << 24 and a.samples == 4000
    assert a.avg_bundle_current_stderr > 0.0
    assert a.max_wire_current == pytest.approx(10.0e-3, rel=1e-9)
    # sample max never exceeds the analytic bundle max
    assert a.max_bundle_current <= 24 * 10.0e-3 + 1e-15


def dense_admittance(n):
    """A dense termination-style admittance seeded by n: a symmetric
    M-matrix."""
    rng = np.random.default_rng(n)
    g = np.abs(rng.normal(size=(n, n))) * 1e-3
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 0.0)
    return np.diag(g.sum(axis=1) + 1e-3) - g


def sampled_chunks(y, vref, levels, samples, seed):
    """The bundle and power values of every chunk of the sampler's partition,
    with codes from Generator.integers.  BLAS may round x @ y differently
    for another number of rows."""
    n = y.shape[0]
    v_low, v_high = levels
    rng = np.random.default_rng(seed)
    for start in range(0, samples, _SAMPLE_ROWS):
        bits = rng.integers(0, 2, size=(min(_SAMPLE_ROWS, samples - start), n)).astype(float)
        x = v_low + bits * (v_high - v_low) - vref
        cur = x @ y
        yield np.abs(cur.sum(axis=1)), (x * cur).sum(axis=1), float(np.abs(cur).max())


def sampled_fom_oracle(y, vref, levels, samples, seed):
    """The sampled report from each chunk's count, mean and sum of squared
    deviations, merged in chunk order by the pairwise update."""
    merged = {"bundle": (0, 0.0, 0.0), "power": (0, 0.0, 0.0)}
    max_bundle = max_wire = 0.0
    for bundle, power, top_wire in sampled_chunks(y, vref, levels, samples, seed):
        for name, values in (("bundle", bundle), ("power", power)):
            count, mean, m2 = merged[name]
            b_count, b_mean = float(values.size), float(values.mean())
            b_m2 = float(np.square(values - b_mean).sum())
            total, delta = count + b_count, b_mean - mean
            merged[name] = (total, mean + delta * (b_count / total),
                            m2 + b_m2 + delta * delta * (count * b_count / total))
        max_bundle, max_wire = max(max_bundle, float(bundle.max())), max(max_wire, top_wire)
    (_, bundle_mean, bundle_m2), (_, power_mean, power_m2) = merged["bundle"], merged["power"]
    k = samples - 1
    return (bundle_mean, np.sqrt(bundle_m2 / k) / np.sqrt(samples), max_bundle, max_wire,
            power_mean, np.sqrt(power_m2 / k) / np.sqrt(samples))


def full_array_fom(y, vref, levels, samples, seed):
    """The sampled report reduced from whole per-sample arrays by numpy's
    mean, max and std(ddof=1)."""
    chunks = list(sampled_chunks(y, vref, levels, samples, seed))
    bundle, power = (np.concatenate([chunk[i] for chunk in chunks]) for i in (0, 1))
    k = np.sqrt(samples)
    return (bundle.mean(), bundle.std(ddof=1) / k, bundle.max(),
            max(chunk[2] for chunk in chunks), power.mean(), power.std(ddof=1) / k)


@pytest.mark.parametrize("n,samples", [(3, 2), (24, 4000), (20, 3 * (1 << 14) + 77),
                                       (7, 2 * _SAMPLE_ROWS + 3), (64, 5 * _SAMPLE_ROWS + 1)],
                         ids=["tiny", "one-partial-chunk", "partial-last-chunk", "odd-draws",
                              "wide"])
def test_sampled_fom_matches_per_chunk_oracle(n, samples, cpus):
    """On one, two and three CPUs: a single chunk forks nothing, and the
    chunks of a longer draw are shared, the last one partial or of an odd
    number of 32-bit halves.  A whole draw reads every result, so no worker
    is killed."""
    y = dense_admittance(n)
    oracle = sampled_fom_oracle(y, 0.4, (-0.2, 1.1), samples, 9)
    reports = []
    for k in (1, 2, 3):
        cpus(k)
        rep = bundle_fom_sampled(y, vref=0.4, levels=(-0.2, 1.1), samples=samples, seed=9)
        assert (rep.avg_bundle_current, rep.avg_bundle_current_stderr, rep.max_bundle_current,
                rep.max_wire_current, rep.avg_power, rep.avg_power_stderr) == oracle
        reports.append(rep)
        assert len(cpus.forks) == min(k, -(-samples // _SAMPLE_ROWS)) - 1
        cpus.forks.clear()
        assert_no_child()
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert cpus.kills == []


@pytest.mark.parametrize("y, vref, levels, samples", [
    (dense_admittance(64), 0.4, (-0.2, 1.1), 5 * _SAMPLE_ROWS + 1),
    (dense_admittance(20), 0.5, (0.0, 1.0), 3 * (1 << 14) + 77),
    (0.02 * np.eye(40), 0.5, (0.0, 1.0), 20000),
], ids=["wide", "many-chunks", "constant-power"])
def test_sampled_fom_within_full_array_reduction(y, vref, levels, samples):
    """Merged chunk by chunk, every average is within 1e-12 relative of
    numpy's reduction of the whole per-sample arrays, a standard error
    within 1e-12 of its average, and the maxima are the same.  Where every
    code draws the same power, its standard error is finite and >= 0."""
    rep = bundle_fom_sampled(y, vref=vref, levels=levels, samples=samples, seed=5)
    avg_b, se_b, max_b, max_w, avg_p, se_p = full_array_fom(y, vref, levels, samples, 5)
    assert rep.max_bundle_current == max_b and rep.max_wire_current == max_w
    assert rep.avg_bundle_current == pytest.approx(avg_b, rel=1e-12, abs=0)
    assert rep.avg_power == pytest.approx(avg_p, rel=1e-12, abs=0)
    assert abs(rep.avg_bundle_current_stderr - se_b) <= 1e-12 * abs(avg_b)
    assert abs(rep.avg_power_stderr - se_p) <= 1e-12 * abs(avg_p)
    assert math.isfinite(rep.avg_power_stderr) and rep.avg_power_stderr >= 0.0


def test_an_exception_drawing_a_chunk_in_a_worker_is_raised(cpus, monkeypatch):
    """Chunk 1 of three is the worker's on two CPUs: what it raises reaches
    the caller as a RuntimeError naming its type and message, and the worker
    is reaped."""
    parent, matmul = os.getpid(), np.matmul

    def failing_in_a_worker(*args, **kwargs):
        if os.getpid() != parent:
            raise FloatingPointError("no chunk here")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", failing_in_a_worker)
    cpus(2)
    with pytest.raises(RuntimeError, match="^FloatingPointError: no chunk here$"):
        bundle_fom_sampled(dense_admittance(7), samples=3 * _SAMPLE_ROWS, seed=4)
    assert len(cpus.forks) == 1
    assert_no_child()


def test_sampled_fom_forks_only_the_workers_whose_chunks_fit(cpus, monkeypatch):
    """The memory check counts one chunk in one process, so a bus is
    admitted or refused alike on any CPU count; then a worker is forked for
    each further chunk that fits the budget, with the same report."""
    n, samples = 7, 5 * _SAMPLE_ROWS
    y = dense_admittance(n)
    cpus(1)
    one = bundle_fom_sampled(y, samples=samples, seed=2)
    chunk = sampled_fom_bytes(n)
    for budget, forks in ((chunk, 0), (2 * chunk - 1, 0), (2 * chunk, 1), (6 * chunk, 2)):
        monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", budget)
        monkeypatch.setattr(textio, "MEMORY_BUDGET_BYTES", budget)
        cpus(3)
        assert bundle_fom_sampled(y, samples=samples, seed=2) == one
        assert len(cpus.forks) == forks
        cpus.forks.clear()
    monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", chunk - 1)
    monkeypatch.setattr(textio, "MEMORY_BUDGET_BYTES", chunk - 1)
    for k in (1, 3):
        cpus(k)
        with pytest.raises(ValidationError, match="drawing codes of %d wires needs about" % n):
            bundle_fom_sampled(y, samples=samples, seed=2)
    assert cpus.forks == []
    assert_no_child()


def test_sampled_fom_forks_after_threaded_blas(tmp_path):
    """numpy's OpenBLAS stops its threads at a fork, so a worker's chunk
    products run after the parent's threaded ones.  fom --samples with two
    BLAS threads, after a threaded product, on two CPUs ends and writes the
    one-CPU bytes."""
    src = str(Path(xtcancel.__file__).resolve().parent.parent)
    script = ("import os, sys; import numpy as np\n"
              "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
              "a = np.ones((600, 600)); a @ a\n"
              "from xtcancel import cli\n"
              "sys.exit(cli.main(sys.argv[2:]))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    twelve = str(Path(__file__).resolve().parent.parent / "fixtures" / "twelve.json")
    written = []
    for k in (1, 2):
        out = tmp_path / ("%d.json" % k)
        run = subprocess.run([sys.executable, "-c", script, str(k), "fom", "--lc", twelve,
                              "--samples", "5000", "--seed", "3", "-o", str(out)],
                             env=env, timeout=60, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        written.append(out.read_bytes())
    assert written[1] == written[0]


def test_sampled_fom_peak_within_estimate(cpus):
    """One chunk's figure bounds the caller's traced peak on one, two and
    three CPUs.  numpy.random is imported first, untraced: its modules,
    about 0.75 MB, are loaded once a process, not by a draw."""
    n, samples = 64, 200000
    y = 0.02 * np.eye(n) - 0.001 * (np.eye(n, k=1) + np.eye(n, k=-1))
    np.random.default_rng(1)
    for k in (1, 2, 3):
        cpus(k)
        tracemalloc.start()
        try:
            bundle_fom_sampled(y, samples=samples, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= sampled_fom_bytes(n)
    assert_no_child()


def test_sampled_fom_over_cap_fails_before_allocating():
    for samples in (SAMPLE_CAP + 1, 10 ** 15):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"^drawing %d samples is over the cap of "
                                                      r"67108864; draw fewer samples$" % samples):
                bundle_fom_sampled(PAIR_Y, samples=samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_sampled_tracks_exact_on_small_bus():
    exact = bundle_fom(PAIR_Y)
    est = bundle_fom_sampled(PAIR_Y, samples=20000, seed=7)
    assert abs(est.avg_bundle_current - exact.avg_bundle_current) \
        <= 5 * est.avg_bundle_current_stderr + 1e-12
    assert abs(est.avg_power - exact.avg_power) <= 5 * est.avg_power_stderr + 1e-12


def test_code_table_shapes_and_symmetry():
    t1 = code_table(np.array([[0.02]]), vref=0.5)
    assert t1.shape == (2, 1)
    assert np.allclose(t1[:, 0], [-10.0e-3, 10.0e-3], atol=1e-15)
    t6 = code_table(np.diag([0.02] * 6), vref=0.5)
    assert t6.shape == (64, 6)
    t12 = code_table(np.eye(12) * 0.02, vref=0.5)
    assert t12.shape == (4096, 12)
    # complement code rows are exact negations when the levels sit
    # symmetrically about vref, on a diagonal and on a dense random Y
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6))
    dense = code_table(m + m.T, vref=0.5)
    for c in (0, 5, 31):
        assert np.array_equal(t6[c], -t6[63 - c])
        assert np.array_equal(dense[c], -dense[63 - c])
    # with vref off-centre they are not: all low reads -8 mA, all high +12 mA
    t3 = code_table(np.eye(3) * 0.02, vref=0.4, levels=(0.0, 1.0))
    assert np.allclose(t3[0], -0.008, rtol=1e-15, atol=0)
    assert np.allclose(t3[7], 0.012, rtol=1e-15, atol=0)


def test_code_table_holds_only_the_table():
    """The table is built in place: its peak is the table and 128 KiB."""
    n = 16
    m = np.random.default_rng(8).normal(size=(n, n))
    y = m + m.T
    tracemalloc.start()
    try:
        code_table(y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (1 << n) * n + (1 << 17)


def test_logic_code_validation():
    with pytest.raises(ValidationError):
        bundle_fom(np.array([[1.0, 0.5], [0.4, 1.0]]))  # not symmetric


def test_admittance_rejects_non_finite():
    for bad in (np.nan, np.inf):
        y = PAIR_Y.copy()
        y[1, 1] = bad
        with pytest.raises(ValidationError, match="admittance matrix has non-finite entries"):
            bundle_fom(y)


def test_fom_rejects_non_finite_voltages():
    y = 0.02 * np.eye(2)
    for vref, levels in ((np.inf, (0.0, 1.0)), (np.nan, (0.0, 1.0)), (0.5, (0.0, np.nan)),
                         (0.5, (-np.inf, 1.0))):
        for fom in (bundle_fom, bundle_fom_sampled, code_table):
            with pytest.raises(ValidationError, match="must be finite"):
                fom(y, vref=vref, levels=levels)


def test_csv_and_json_outputs(tmp_path):
    y = PAIR_Y
    table = code_table(y, vref=0.5)
    csv_path = tmp_path / "codes.csv"
    write_code_table_csv(table, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "code,i1,i2"
    assert len(lines) == 5
    assert lines[1].startswith("0,")
    rep = bundle_fom(y)
    json_path = tmp_path / "rep.json"
    write_report_json(rep, json_path)
    data = json.loads(json_path.read_text())
    assert data["n_codes"] == 4 and data["sampled"] is False
    assert data["max_wire_current_a"] == pytest.approx(12.5e-3, rel=1e-12)
    assert set(data) >= {"avg_bundle_current_a", "max_bundle_current_a",
                         "avg_power_w", "n_codes", "sampled"}


def test_report_documents_key_order(tmp_path):
    """One report type writes both documents; the exact one leaves out the
    fields only sampling has, and neither document's keys move."""
    path = tmp_path / "rep.json"
    write_report_json(bundle_fom(PAIR_Y), path)
    assert list(json.loads(path.read_text())) == [
        "avg_bundle_current_a", "max_bundle_current_a", "max_wire_current_a", "avg_power_w",
        "n_codes", "sampled"]
    write_report_json(bundle_fom_sampled(PAIR_Y, samples=100, seed=5), path)
    data = json.loads(path.read_text())
    assert list(data) == [
        "avg_bundle_current_a", "avg_bundle_current_stderr_a", "max_bundle_current_a",
        "max_wire_current_a", "avg_power_w", "avg_power_stderr_w", "n_codes", "samples",
        "seed", "sampled"]
    assert (data["samples"], data["seed"], data["sampled"]) == (100, 5, True)
