"""Per-layer tracing of xtcancel from outside the package.

Each traced function is replaced, in every ``xtcancel`` module that holds it,
by a wrapper that records a span (pass, name, start, end, parent).  Because
the CLI and the layers look functions up in their own module namespace,
patching ``xtcancel.cli.run_transient``, ``xtcancel.mtlsim.characteristic_impedance``
and ``xtcancel.bundle.symmetric_eig`` makes spans nest cli -> mtlsim -> bundle
without editing the package.  Spans stay in memory and are written out once,
at the end.  A function that no longer exists is reported as absent and its
metrics read 0, as do the metrics of a layer the workload never calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

import numpy as np

CLI_COMMANDS = ("synth", "fom", "sim", "eye", "sweep")

# (layer, function) pairs that get a span.  cli.cmd_<name> spans are named
# cli.<name>; every other span is <layer>.<function>.
TRACED = (
    ("bundle", "characteristic_impedance"), ("bundle", "symmetric_eig"),
    ("termination", "realize_network"), ("termination", "reduce_network"),
    ("fom", "bundle_fom"), ("fom", "bundle_fom_sampled"), ("fom", "code_table"),
    ("fom", "write_code_table_csv"),
    ("stimulus", "pattern_assign"), ("stimulus", "prbs"),
    ("mtlsim", "load_link"), ("mtlsim", "build_link"), ("mtlsim", "run_transient"),
    ("mtlsim", "write_waveform_csv"), ("mtlsim", "read_waveform_csv"),
    ("eye", "eye_measure"), ("eye", "write_folded_csv"), ("eye", "render_eye_svg"),
) + tuple(("cli", "cmd_" + c) for c in CLI_COMMANDS)

# The per-layer metrics of a traced run, with units.  Times and counts are
# per pass (median over the traced passes).
PER_LAYER = (
    ("bundle.characteristic_impedance.calls", "count"),
    ("bundle.characteristic_impedance.total_s", "s"),
    ("bundle.symmetric_eig.calls", "count"),
    ("bundle.symmetric_eig.total_s", "s"),
    ("bundle.max_n", "wires"),
    ("bundle.zc_residual", "ratio"),
    ("termination.realize_network.calls", "count"),
    ("termination.realize_network.total_s", "s"),
    ("termination.reduce_network.total_s", "s"),
    ("termination.elements_kept_ratio", "ratio"),
    ("fom.bundle_fom.total_s", "s"),
    ("fom.codes_scored", "count"),
    ("fom.ns_per_code", "ns"),
    ("fom.bundle_fom_sampled.total_s", "s"),
    ("fom.bundle_fom_sampled.samples", "count"),
    ("fom.code_table.total_s", "s"),
    ("fom.write_code_table_csv.total_s", "s"),
    ("fom.write_code_table_csv.bytes", "B"),
    ("stimulus.pattern_assign.total_s", "s"),
    ("stimulus.prbs.calls", "count"),
    ("stimulus.period_bits", "bits"),
    ("mtlsim.load_link.total_s", "s"),
    ("mtlsim.build_link.calls", "count"),
    ("mtlsim.build_link.self_s", "s"),
    ("mtlsim.run_transient.calls", "count"),
    ("mtlsim.run_transient.total_s", "s"),
    ("mtlsim.steps", "count"),
    ("mtlsim.us_per_step", "us"),
    ("mtlsim.min_delay_steps", "steps"),
    ("mtlsim.segments", "count"),
    ("mtlsim.write_waveform_csv.total_s", "s"),
    ("mtlsim.write_waveform_csv.bytes", "B"),
    ("mtlsim.read_waveform_csv.total_s", "s"),
    ("eye.eye_measure.total_s", "s"),
    ("eye.eye_measure.offsets_scanned", "count"),
    ("eye.write_folded_csv.total_s", "s"),
    ("eye.write_folded_csv.bytes", "B"),
    ("eye.render_eye_svg.total_s", "s"),
    ("eye.render_eye_svg.bytes", "B"),
) + tuple(("cli.%s.%s" % (c, stat), "s") for c in CLI_COMMANDS for stat in ("total_s", "self_s")) + (
    ("cli.nonzero_exits", "count"),
    ("check.max_dev", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

# Errors a probe can meet when the package's internals change shape; the
# probe's count is then reported as absent rather than crashing the run.
_PROBE_ERRORS = (AttributeError, KeyError, TypeError, IndexError, OSError)


def span_name(layer, func):
    return "cli." + func[len("cmd_"):] if layer == "cli" else layer + "." + func


def _file_bytes(key):
    def probe(tr, a, result):
        tr.add(key, os.path.getsize(a["path"]))
    return probe


def _characteristic_impedance(tr, a, result):
    bundle = a["bundle"]
    tr.max("bundle.max_n", bundle.n)
    tr.residual_inputs.append((bundle.L, bundle.C, result[0].zc))


def _reduce_network(tr, a, result):
    tr.add("termination.elements_full", len(a["net"].elements))
    tr.add("termination.elements_kept", len(result.elements))


def _run_transient(tr, a, result):
    # Total steps = warm-up steps dropped before start_time + samples kept.
    tr.add("mtlsim.steps", result.volts.shape[1] + int(round(result.start_time / result.dt)))
    segs = a["engine"].segments
    tr.add("mtlsim.segments", len(segs))
    tr.min("mtlsim.min_delay_steps", min(int(s.i0.min()) for s in segs))


def _eye_measure(tr, a, result):
    waves = a["waves"]
    k_cand = max(int(round(1.0 / float(a["data_rate"]) / waves.dt)), 1)
    tr.add("eye.eye_measure.offsets_scanned", waves.volts.shape[0] * k_cand)


_PROBES = {
    "bundle.characteristic_impedance": _characteristic_impedance,
    "termination.reduce_network": _reduce_network,
    "fom.bundle_fom": lambda tr, a, r: tr.add("fom.codes_scored", r.n_codes),
    "fom.bundle_fom_sampled": lambda tr, a, r: tr.add("fom.bundle_fom_sampled.samples", r.samples),
    "fom.write_code_table_csv": _file_bytes("fom.write_code_table_csv.bytes"),
    "stimulus.pattern_assign": lambda tr, a, r: tr.max("stimulus.period_bits", r.shape[1]),
    "mtlsim.run_transient": _run_transient,
    "mtlsim.write_waveform_csv": _file_bytes("mtlsim.write_waveform_csv.bytes"),
    "eye.eye_measure": _eye_measure,
    "eye.write_folded_csv": _file_bytes("eye.write_folded_csv.bytes"),
    "eye.render_eye_svg": _file_bytes("eye.render_eye_svg.bytes"),
}


class Tracer:
    """Span recorder for the traced passes of one benchmark run."""

    def __init__(self):
        self.spans = []            # [pass, name, start, end, parent index or -1]
        self.pass_counts = []      # one dict of counts per traced pass
        self.residual_inputs = []  # (L, C, Zc) of the current pass
        self.absent = set()        # span or count names that could not be traced
        self._stack = []
        self._patches = []         # (module, attribute, original)
        self._pass = -1

    # -- wrapping -----------------------------------------------------------

    def install(self, layers, namespaces):
        """Wrap every TRACED function of ``layers`` (layer name -> module).

        Each function is replaced in every module of ``namespaces`` that
        holds the same object, so callers pick up the wrapper.
        """
        for layer, func in TRACED:
            name = span_name(layer, func)
            orig = getattr(layers.get(layer), func, None)
            if not callable(orig):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, orig, _PROBES.get(name))
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _wrap(self, name, fn, probe):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([self._pass, name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][2:4] = [start, end]
            if probe is not None:
                try:
                    probe(self, sig.bind(*args, **kwargs).arguments, result)
                except _PROBE_ERRORS:
                    self.absent.add(name + " (probe)")
            return result

        return wrapper

    # -- counts ---------------------------------------------------------------

    def begin_pass(self):
        self._pass += 1
        self.pass_counts.append({})
        self.residual_inputs = []

    def end_pass(self):
        worst = 0.0
        for L, C, zc in self.residual_inputs:
            worst = max(worst, float(np.abs(zc @ C @ zc - L).max() / np.abs(L).max()))
        if self.residual_inputs:
            self.max("bundle.zc_residual", worst)
        self.residual_inputs = []

    def add(self, key, value):
        counts = self.pass_counts[-1]
        counts[key] = counts.get(key, 0) + value

    def max(self, key, value):
        counts = self.pass_counts[-1]
        counts[key] = max(counts.get(key, value), value)

    def min(self, key, value):
        counts = self.pass_counts[-1]
        counts[key] = min(counts.get(key, value), value)

    # -- results --------------------------------------------------------------

    def pass_metrics(self):
        """Per-pass dicts of calls, total_s, self_s and counts."""
        child = [0.0] * len(self.spans)
        for pas, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = [dict(c) for c in self.pass_counts]
        for idx, (pas, name, start, end, parent) in enumerate(self.spans):
            m = out[pas]
            m[name + ".calls"] = m.get(name + ".calls", 0) + 1
            m[name + ".total_s"] = m.get(name + ".total_s", 0.0) + (end - start)
            m[name + ".self_s"] = m.get(name + ".self_s", 0.0) + (end - start - child[idx])
        for m in out:
            kept, full = m.get("termination.elements_kept"), m.get("termination.elements_full")
            if full:
                m["termination.elements_kept_ratio"] = kept / full
            if m.get("fom.codes_scored"):
                m["fom.ns_per_code"] = 1e9 * m["fom.bundle_fom.total_s"] / m["fom.codes_scored"]
            if m.get("mtlsim.steps"):
                m["mtlsim.us_per_step"] = 1e6 * m["mtlsim.run_transient.total_s"] / m["mtlsim.steps"]
        return out

    def per_layer(self):
        """Median over the traced passes of every PER_LAYER metric it records.

        Metrics of layers that did not run read 0.
        """
        passes = self.pass_metrics()
        result = {}
        for name, _unit in PER_LAYER:
            values = [m.get(name, 0) for m in passes]
            result[name] = statistics.median(values) if values else 0
        return result

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": sorted(self.absent),
                       "spans": [{"pass": p, "name": n, "start": s, "end": e, "parent": par}
                                 for p, n, s, e, par in self.spans]}, fh)
            fh.write("\n")


def xtcancel_modules():
    """(layer name -> module, every loaded xtcancel module) after importing the CLI."""
    import xtcancel.cli  # noqa: F401  (loads every layer)
    layers = {layer: sys.modules.get("xtcancel." + layer) for layer, _ in TRACED}
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "xtcancel" or name.startswith("xtcancel."))]
    return layers, namespaces
