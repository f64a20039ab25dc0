"""The long-lived process of one benchmark run.

Usage: python3 bench/worker.py CONFIG_JSON

Without tracing, first times fresh interpreters that import every layer
(``python -m xtcancel.cli --version``).  Then runs timed passes through
``xtcancel.cli.main`` until the time budget is spent; with tracing on, half
the budget goes to untraced passes and half to passes with every traced
function wrapped.  The calibration kernel of ``speed.py`` runs between any
two passes, outside the timed region.  There is no separate warm-up:
users pay first-call costs on every CLI invocation, and the median over the
passes is insensitive to one cold pass.  Pass 0 keeps its output files for
the output checks; every later pass records the SHA-256 of its files, which
must match pass 0, and then deletes them.  The result,
including this process's peak resident memory, goes to the config's
``result_path`` as JSON.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from speed import kernel_seconds, scaled
from tracing import Tracer, xtcancel_modules
from workloads import commands

MIN_TIMED_PASSES = 3


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def interpreter_starts(count):
    """Wall times of ``count`` fresh interpreters, after one untimed start.

    Returns (times, failed starts).
    """
    argv = [sys.executable, "-m", "xtcancel.cli", "--version"]
    times, failed = [], 0
    for k in range(count + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.startswith("xtcancel "):
            failed += 1
        elif k > 0:
            times.append(elapsed)
    return times, failed


class Runner:
    def __init__(self, cfg, cli_main):
        self.cfg = cfg
        self.cli_main = cli_main
        self.in_dir = os.path.join(cfg["work_dir"], "in")
        self.passes = []
        self.kernel = kernel_seconds()

    def one_pass(self, phase):
        k = len(self.passes)
        out_dir = os.path.join(self.cfg["work_dir"], "out", "p%d" % k)
        os.makedirs(out_dir)
        cmds = commands(self.cfg["workload"], self.cfg["params"], self.in_dir, out_dir)
        ops = []
        start = time.perf_counter()
        for cmd in cmds:
            try:
                ops.append({"rc": self.cli_main(list(cmd.argv)), "error": None})
            except Exception:  # a crash is a failed operation; keep measuring
                ops.append({"rc": None, "error": traceback.format_exc(limit=8)})
        seconds = time.perf_counter() - start
        for cmd, op in zip(cmds, ops):
            paths = [os.path.join(out_dir, name) for name in cmd.outputs]
            op["hashes"] = [_sha256(p) if os.path.exists(p) else None for p in paths]
        if k > 0:
            shutil.rmtree(out_dir)
        gc.collect()  # each pass starts from the same heap, outside the timed region
        kernels = [self.kernel, kernel_seconds()]
        self.kernel = kernels[1]
        self.passes.append({"pass": k, "phase": phase, "seconds": seconds,
                            "kernels": kernels, "ops": ops})
        return scaled(seconds, kernels)

    def loop(self, phase, budget, before=None, after=None):
        """Run passes until another would overrun ``budget`` seconds.

        Returns the scaled pass times.
        """
        times = []
        start = time.perf_counter()
        while True:
            if before:
                before()
            times.append(self.one_pass(phase))
            if after:
                after()
            elapsed = time.perf_counter() - start
            if len(times) >= MIN_TIMED_PASSES and elapsed * (1 + 1 / len(times)) > budget:
                return times


def main(config_path):
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    sys.path.insert(0, cfg["src_dir"])
    layers, namespaces = xtcancel_modules()
    budget = float(cfg["seconds"])
    result = {}
    runner = Runner(cfg, layers["cli"].main)
    if cfg["trace"]:
        untraced = runner.loop("timed", budget / 2.0)
        tracer = Tracer()
        tracer.install(layers, namespaces)
        try:
            traced = runner.loop("traced", budget / 2.0, tracer.begin_pass, tracer.end_pass)
        finally:
            tracer.uninstall()
        tracer.write_spans(cfg["spans_path"])
        result["per_layer"] = tracer.per_layer()
        result["per_layer"]["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0)
        result["absent"] = sorted(tracer.absent)
    else:
        result["setup"], result["setup_failed"] = interpreter_starts(cfg["setup_starts"])
        runner.loop("timed", budget)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["passes"] = runner.passes
    with open(cfg["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
