"""Output checks of one benchmark pass.

Every check is tied to the command (its index in the pass) whose output it
reads, so a failed check counts as a failed operation of that command.
Checks that hold for every seed are independent recomputations: finite
values and expected counts, the eye report against ``eye_measure`` on the
parsed waveforms, ``Zc C Zc = L``, realizability, and the closed forms of
the figures of merit.  For the reference seed the numbers are also compared
with the stored reference outputs in ``reference/``, within stated
tolerances rather than byte for byte.

``summarize`` extracts what the reference files store; ``make_reference.py``
and the checks share it.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Tolerances.  Reference values: 1e-9 V absolute on waveforms and eyes
# (1 V swing), 1e-9 relative on synthesis and figure-of-merit numbers; a
# stepper or solver exact to ~1e-15 passes and a wrong eye does not.
REF_VOLTS_ABS = 1e-9
REF_REL = 1e-9
EYE_RECOMPUTE_ABS = 1e-12   # eye report vs eye_measure on the parsed waveforms
ZC_RESIDUAL_REL = 1e-9      # max|Zc C Zc - L| / max|L|
FOM_CLOSED_FORM_REL = 1e-12
WAVE_DECIMATION = 257       # reference keeps every 257th waveform row
SAMPLED_SIGMAS = 6.0        # sampled averages within 6 standard errors

_ERRORS = (OSError, ValueError, KeyError, TypeError, IndexError)


class Checker:
    """Collects failed checks per command and the worst deviation seen."""

    def __init__(self):
        self.failures = {}  # command index -> [message]
        self.max_dev = 0.0  # largest deviation / tolerance over all checks

    def fail(self, op, msg):
        self.failures.setdefault(op, []).append(msg)

    def require(self, op, cond, msg):
        if not cond:
            self.fail(op, msg)

    def close(self, op, what, got, want, tol, rel=False):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.fail(op, "%s: shape %s, expected %s" % (what, got.shape, want.shape))
            return
        if not (np.isfinite(got).all() and np.isfinite(want).all()):
            self.fail(op, "%s: non-finite value" % what)
            return
        dev = float(np.abs(got - want).max()) if got.size else 0.0
        if rel:
            scale = float(np.abs(want).max()) if want.size else 0.0
            dev = dev / scale if scale > 0.0 else dev
        self.max_dev = max(self.max_dev, dev / tol)
        if dev > tol:
            self.fail(op, "%s: deviation %.3g exceeds tolerance %.3g" % (what, dev, tol))


# -- parsing ------------------------------------------------------------------

def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path, header):
    """Numeric CSV body as a 2-d array, after checking the header line."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError("%s: header %r, expected %r"
                             % (os.path.basename(path), first, header))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not np.isfinite(data).all():
        raise ValueError("%s: non-finite value" % os.path.basename(path))
    return data


def _wave_header(n):
    return "time_s," + ",".join("w%d" % (k + 1) for k in range(n))


def _read_waves(out_dir, n=12):
    data = _read_csv(os.path.join(out_dir, "waves.csv"), _wave_header(n))
    return data[:, 0], data[:, 1:].T


def _svg_polylines(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        raise ValueError("eye.svg is not a complete SVG document")
    lines = re.findall(r'<polyline points="([^"]*)"', text)
    coords = np.array(" ".join(lines).replace(",", " ").split(), dtype=float).reshape(-1, 2)
    return len(lines), coords


def line_admittance(L, C):
    """Zc^-1 = L^-1/2 (L^1/2 C L^1/2)^1/2 L^-1/2, the SPD solution of Y L Y = C."""
    w, v = np.linalg.eigh(0.5 * (L + L.T))
    l_half = (v * np.sqrt(w)) @ v.T
    l_ihalf = (v / np.sqrt(w)) @ v.T
    mw, mv = np.linalg.eigh(l_half @ C @ l_half)
    y = l_ihalf @ ((mv * np.sqrt(mw)) @ mv.T) @ l_ihalf
    return 0.5 * (y + y.T)


def network_admittance(raw):
    """Nodal admittance of a network JSON document, from its elements."""
    n = int(raw["n"])
    y = np.zeros((n, n))
    for el in raw["elements"]:
        g = 1.0 / float(el["ohms"])
        i = int(el["i"]) - 1
        if el["kind"] == "self":
            y[i, i] += g
        else:
            j = int(el["j"]) - 1
            y[i, i] += g
            y[j, j] += g
            y[i, j] -= g
            y[j, i] -= g
    return y


def network_elements(y, self_cutoff, cross_cutoff):
    """{(kind, i, j): ohms} that realize admittance y, within the cutoffs."""
    n = y.shape[0]
    out = {}
    for i in range(n):
        r = 1.0 / float(y[i].sum())
        if r <= self_cutoff:
            out[("self", i + 1, None)] = r
        for j in range(i + 1, n):
            if y[i, j] < -1e-12:
                r = -1.0 / float(y[i, j])
                if r <= cross_cutoff:
                    out[("cross", i + 1, j + 1)] = r
    return out


def fom_closed_forms(y, vref=0.5, levels=(0.0, 1.0)):
    """Exact average power and maxima of the figures of merit.

    Bits are independent two-level variables: x_k has mean mu and variance
    swing^2/4, so E[x^T Y x] = mu^T Y mu + trace(Y) swing^2/4, and the maxima
    of the separable linear forms sum |coefficient| * max|x_k|.
    """
    lo, hi = levels
    swing = hi - lo
    n = y.shape[0]
    mu = np.full(n, 0.5 * (lo + hi) - vref)
    amp = np.maximum(abs(lo - vref), abs(hi - vref))
    col = y.sum(axis=0)
    return {"avg_power_w": float(mu @ y @ mu + np.trace(y) * swing ** 2 / 4.0),
            "max_bundle_current_a": float(np.abs(col).sum() * amp),
            "max_wire_current_a": float((np.abs(y).sum(axis=1) * amp).max())}


# -- summaries (what the reference files store) ---------------------------------

def summarize(workload, out_dir):
    """(counts, values) of one pass's outputs.

    Counts do not depend on the seed and are checked on every run; values
    are compared only for the reference seed.
    """
    if workload == "link-sim":
        t, volts = _read_waves(out_dir)
        eye = _read_json(os.path.join(out_dir, "eye.json"))
        n_lines, coords = _svg_polylines(os.path.join(out_dir, "eye.svg"))
        counts = {"waveform_rows": int(t.size), "svg_polylines": n_lines,
                  "svg_points": int(coords.shape[0])}
        values = {"eye_v": [w["eye_v"] for w in eye["per_wire"]],
                  "waves": volts[:, ::WAVE_DECIMATION].tolist()}
        return counts, values
    if workload == "sweep-breakout":
        data = _read_csv(os.path.join(out_dir, "sweep.csv"), "value,wire,eye_v,min_v,avg_v,max_v")
        return {"rows": int(data.shape[0])}, {"rows": data.tolist()}
    hist = _read_csv(os.path.join(out_dir, "hist-wide.csv"), "siemens,count")
    zc = np.array(_read_json(os.path.join(out_dir, "zc-wide.json"))["zc"])
    with open(os.path.join(out_dir, "codes-twelve.csv"), encoding="utf-8") as fh:
        codes = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    counts = {"hist_rows": int(hist.shape[0]), "code_rows": int(codes.shape[0]),
              "wide_elements": len(_read_json(os.path.join(out_dir, "net-wide.json"))["elements"])}
    values = {"zc_diag": np.diag(zc).tolist(), "zc_row0": zc[0].tolist(),
              "hist_siemens": hist[:, 0].tolist(),
              "reduced_elements": len(_read_json(
                  os.path.join(out_dir, "net-reduced.json"))["elements"]),
              "code_abs_sum": float(np.abs(codes[:, 1:]).sum())}
    for name in ("fom-lc", "fom-net", "fom-sampled", "fom-twelve"):
        report = _read_json(os.path.join(out_dir, name + ".json"))
        values[name] = {k: v for k, v in report.items() if isinstance(v, float)}
    return counts, values


def load_reference(workload, size):
    path = os.path.join(REFERENCE_DIR, "%s-%s.json" % (workload, size))
    if not os.path.exists(path):
        return None
    return _read_json(path)


# -- per-workload checks ----------------------------------------------------------

def _check_link_sim(ck, p, in_dir, out_dir, counts):
    import xtcancel.eye as eye_mod
    import xtcancel.mtlsim as mtlsim

    sim, eye = 0, 1
    try:
        t, volts = _read_waves(out_dir)
        dt = np.diff(t)
        ck.require(sim, t.size == counts["waveform_rows"],
                   "waves.csv has %d rows, expected %d" % (t.size, counts["waveform_rows"]))
        ck.require(sim, float(np.abs(dt - dt[0]).max()) <= 1e-6 * dt[0],
                   "waves.csv is not uniformly sampled")
    except _ERRORS as exc:
        ck.fail(sim, "waves.csv unreadable: %s" % exc)
        ck.fail(eye, "eye outputs not checkable without the waveforms")
        return
    n, samples = volts.shape
    try:
        report = _read_json(os.path.join(out_dir, "eye.json"))
        eyes = np.array([w["eye_v"] for w in report["per_wire"]], dtype=float)
        phases = np.array([w["phase_ui"] for w in report["per_wire"]], dtype=float)
        ck.require(eye, eyes.size == n and np.isfinite(eyes).all()
                   and (eyes >= 0).all() and (eyes <= 1.0).all(),
                   "eye.json has %d eyes, or one outside [0, 1] V" % eyes.size)
        ck.close(eye, "eye.json min/avg/max", [report["min_v"], report["avg_v"], report["max_v"]],
                 [eyes.min(), eyes.mean(), eyes.max()], 1e-15)
        engine = mtlsim.build_link(mtlsim.load_link(os.path.join(in_dir, "link.json")))
        waves = mtlsim.Waveforms(dt=float(t[1] - t[0]), start_time=float(t[0]),
                                 vref=engine.vref, volts=volts,
                                 source_currents=np.zeros_like(volts),
                                 nominal_delay_s=engine.nominal_delay_s)
        again = eye_mod.eye_measure(waves, engine.streams, engine.spec.stimulus.data_rate)
        ck.close(eye, "eye.json vs eye_measure", eyes, [w.eye_v for w in again.per_wire],
                 EYE_RECOMPUTE_ABS)
        ck.close(eye, "eye.json phases vs eye_measure", phases,
                 [w.phase_ui for w in again.per_wire], EYE_RECOMPUTE_ABS)
    except _ERRORS as exc:
        ck.fail(eye, "eye.json: %s" % exc)
    try:
        folded = _read_csv(os.path.join(out_dir, "folded.csv"), "wire,phase_ui,volts")
        ck.require(eye, folded.shape == (n * samples, 3),
                   "folded.csv has %d rows, expected %d" % (folded.shape[0], n * samples))
        if folded.shape == (n * samples, 3):
            ck.close(eye, "folded.csv wires", folded[:, 0], np.repeat(np.arange(1, n + 1), samples), 0.5)
            ck.close(eye, "folded.csv volts", folded[:, 2], volts.ravel(), 1e-15)
            ck.require(eye, ((folded[:, 1] >= 0) & (folded[:, 1] < 2)).all(),
                       "folded.csv phase outside [0, 2) UI")
    except _ERRORS as exc:
        ck.fail(eye, "folded.csv: %s" % exc)
    try:
        n_lines, coords = _svg_polylines(os.path.join(out_dir, "eye.svg"))
        ck.require(eye, n_lines == counts["svg_polylines"] and coords.shape[0] == counts["svg_points"],
                   "eye.svg has %d polylines / %d points, expected %d / %d"
                   % (n_lines, coords.shape[0], counts["svg_polylines"], counts["svg_points"]))
        ck.require(eye, np.isfinite(coords).all() and (coords >= 0).all()
                   and (coords[:, 0] <= 860).all() and (coords[:, 1] <= 460).all(),
                   "eye.svg has a point outside the drawing")
    except _ERRORS as exc:
        ck.fail(eye, "eye.svg: %s" % exc)


def _check_sweep(ck, p, in_dir, out_dir, counts):
    values = [float(v) for v in p["values"].split(",")]
    try:
        data = _read_csv(os.path.join(out_dir, "sweep.csv"), "value,wire,eye_v,min_v,avg_v,max_v")
    except _ERRORS as exc:
        ck.fail(0, "sweep.csv: %s" % exc)
        return
    n = 12
    if data.shape[0] != len(values) * n or data.shape[0] != counts["rows"]:
        ck.fail(0, "sweep.csv has %d rows, expected %d" % (data.shape[0], len(values) * n))
        return
    for k, value in enumerate(values):
        block = data[k * n:(k + 1) * n]
        eyes = block[:, 2]
        ck.close(0, "sweep.csv value column", block[:, 0], np.full(n, value), 1e-15)
        ck.close(0, "sweep.csv wire column", block[:, 1], np.arange(1, n + 1), 0.5)
        ck.require(0, ((eyes >= 0) & (eyes <= 1.0)).all(), "sweep eye outside [0, 1] V")
        summary = np.tile([eyes.min(), eyes.mean(), eyes.max()], (n, 1))
        ck.close(0, "sweep.csv min/avg/max at %r" % value, block[:, 3:6], summary, 1e-15)


def _check_synth_fom(ck, p, in_dir, out_dir, counts):
    synth_wide, synth_reduced, fom_lc, fom_net, fom_sampled, fom_twelve = range(6)
    bundles = {}
    for key in ("wide", "exact"):
        raw = _read_json(os.path.join(in_dir, "bundle-%s.json" % key))
        bundles[key] = (np.array(raw["L"]), np.array(raw["C"]))

    L, C = bundles["wide"]
    try:
        zc = np.array(_read_json(os.path.join(out_dir, "zc-wide.json"))["zc"], dtype=float)
        ck.close(synth_wide, "Zc C Zc = L", (zc @ C @ zc - L) / np.abs(L).max(),
                 np.zeros_like(L), ZC_RESIDUAL_REL)
        y = np.linalg.inv(zc)
        off = y - np.diag(np.diag(y))
        ck.require(synth_wide, off.max() <= 1e-12 and (y.sum(axis=1) > 0).all(),
                   "Zc^-1 is not realizable (positive off-diagonal or row sum <= 0)")
        net = _read_json(os.path.join(out_dir, "net-wide.json"))
        ck.require(synth_wide, len(net["elements"]) == counts["wide_elements"],
                   "net-wide.json has %d elements, expected %d"
                   % (len(net["elements"]), counts["wide_elements"]))
        ck.close(synth_wide, "network admittance vs Zc^-1", network_admittance(net), y,
                 ZC_RESIDUAL_REL, rel=True)
        hist = _read_csv(os.path.join(out_dir, "hist-wide.csv"), "siemens,count")
        ck.require(synth_wide, hist.shape[0] == counts["hist_rows"]
                   and int(hist[:, 1].sum()) == len(net["elements"])
                   and (np.diff(hist[:, 0]) > 0).all(),
                   "hist-wide.csv rows, counts or bin order are wrong")
    except _ERRORS as exc:
        ck.fail(synth_wide, "synth outputs: %s" % exc)

    L, C = bundles["exact"]
    y_exact = line_admittance(L, C)
    try:
        net = _read_json(os.path.join(out_dir, "net-reduced.json"))
        cut = p["cutoff_self"]
        got = {(el["kind"], el["i"], el.get("j")): el["ohms"] for el in net["elements"]}
        want = network_elements(y_exact, cut, 2.0 * cut)
        if set(got) != set(want):
            ck.fail(synth_reduced, "net-reduced.json keeps %d elements, expected %d"
                    % (len(got), len(want)))
        else:
            keys = sorted(want, key=str)
            ck.close(synth_reduced, "reduced network ohms", [got[k] for k in keys],
                     [want[k] for k in keys], REF_REL, rel=True)
    except _ERRORS as exc:
        ck.fail(synth_reduced, "net-reduced.json: %s" % exc)

    def exact_report(op, name, y):
        try:
            report = _read_json(os.path.join(out_dir, name))
        except _ERRORS as exc:
            ck.fail(op, "%s: %s" % (name, exc))
            return None
        ck.require(op, report.get("n_codes") == 1 << y.shape[0],
                   "%s: n_codes %r, expected 2^%d" % (name, report.get("n_codes"), y.shape[0]))
        closed = fom_closed_forms(y)
        if report.get("sampled") is False:
            for key, want in closed.items():
                ck.close(op, "%s %s closed form" % (name, key), report.get(key, np.nan), want,
                         FOM_CLOSED_FORM_REL, rel=True)
        ck.require(op, 0 <= report.get("avg_bundle_current_a", -1)
                   <= report.get("max_bundle_current_a", -1) * (1 + 1e-12),
                   "%s: average bundle current outside [0, max]" % name)
        return report, closed

    exact_report(fom_lc, "fom-lc.json", y_exact)
    try:
        y_net = network_admittance(_read_json(os.path.join(out_dir, "net-reduced.json")))
        exact_report(fom_net, "fom-net.json", y_net)
    except _ERRORS as exc:
        ck.fail(fom_net, "fom-net.json not checkable: %s" % exc)

    got = exact_report(fom_sampled, "fom-sampled.json", line_admittance(*bundles["wide"]))
    if got is not None:
        report, closed = got
        ck.require(fom_sampled, report.get("sampled") is True
                   and report.get("samples") == p["samples"] and report.get("seed") == p["fom_seed"],
                   "fom-sampled.json: sampled/samples/seed fields are wrong")
        stderr = report.get("avg_power_stderr_w", np.nan)
        ck.close(fom_sampled, "sampled avg power vs exact", report.get("avg_power_w", np.nan),
                 closed["avg_power_w"], SAMPLED_SIGMAS * stderr + 1e-12 * closed["avg_power_w"])
        for key in ("max_bundle_current_a", "max_wire_current_a"):
            ck.require(fom_sampled, report.get(key, np.inf) <= closed[key] * (1 + 1e-12),
                       "fom-sampled.json: sample %s exceeds the exact maximum" % key)

    raw = _read_json(os.path.join(in_dir, "twelve.json"))
    y12 = line_admittance(np.array(raw["L"]), np.array(raw["C"]))
    exact_report(fom_twelve, "fom-twelve.json", y12)
    try:
        n = y12.shape[0]
        codes = _read_csv(os.path.join(out_dir, "codes-twelve.csv"),
                          "code," + ",".join("i%d" % (k + 1) for k in range(n)))
        ck.require(fom_twelve, codes.shape == (counts["code_rows"], n + 1),
                   "codes-twelve.csv has shape %s" % (codes.shape,))
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        ck.close(fom_twelve, "code table vs Y x", codes, np.column_stack(
            [np.arange(1 << n), (bits - 0.5) @ y12]), FOM_CLOSED_FORM_REL, rel=True)
    except _ERRORS as exc:
        ck.fail(fom_twelve, "codes-twelve.csv: %s" % exc)


_CHECKS = {"link-sim": _check_link_sim, "sweep-breakout": _check_sweep,
           "synth-fom": _check_synth_fom}

# Reference values are compared per command: which command wrote each value.
_VALUE_OWNER = {
    "link-sim": {"eye_v": 1, "waves": 0},
    "sweep-breakout": {"rows": 0},
    "synth-fom": {"zc_diag": 0, "zc_row0": 0, "hist_siemens": 0, "reduced_elements": 1,
                  "fom-lc": 2, "fom-net": 3, "fom-sampled": 4, "fom-twelve": 5,
                  "code_abs_sum": 5},
}


def _compare_reference(ck, workload, values, ref_values):
    rel = workload == "synth-fom"
    for key, op in _VALUE_OWNER[workload].items():
        got, want = values[key], ref_values[key]
        if isinstance(want, dict):
            keys = sorted(want)
            if sorted(got) != keys:
                ck.fail(op, "reference %s: fields differ" % key)
                continue
            got, want = [got[k] for k in keys], [want[k] for k in keys]
        ck.close(op, "reference %s" % key, got, want, REF_REL if rel else REF_VOLTS_ABS, rel=rel)


def check_outputs(workload, p, in_dir, out_dir):
    """Check one pass's outputs; returns the Checker with failures per command."""
    ck = Checker()
    ref = load_reference(workload, p["size"])
    if ref is None:
        ck.fail(0, "no reference file for %s (%s)" % (workload, p["size"]))
        return ck
    _CHECKS[workload](ck, p, in_dir, out_dir, ref["counts"])
    if p["seed"] == ref["seed"]:
        try:
            counts, values = summarize(workload, out_dir)
        except _ERRORS as exc:
            ck.fail(0, "outputs not summarizable: %s" % exc)
            return ck
        for key, want in ref["counts"].items():
            ck.require(0, counts.get(key) == want,
                       "reference count %s: %r, expected %r" % (key, counts.get(key), want))
        _compare_reference(ck, workload, values, ref["values"])
    return ck
