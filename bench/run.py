"""xtcancel benchmark: one workload, measured end to end or traced by layer.

Usage (from the repository root):

    python3 bench/run.py --workload link-sim --seed 1 --seconds 35 --trace 0

Workloads are link-sim, sweep-breakout and synth-fom (see bench/README.md).
The run generates the workload's inputs from ``--seed`` under
``.bench_work/``, measures interpreter set-up, runs the workload's CLI
passes in one long-lived worker process for ``--seconds``, checks every
output and prints a human-readable summary.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Pass times are scaled to a reference machine
speed (see ``speed.py``); the summary also prints the raw times.
The exit code is 0 when every output checked out, 1 when one did not, and
2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy

import checks
from speed import scaled
from tracing import PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS, make_inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_STARTS = {"full": 7, "smoke": 1}  # fresh interpreters timed per run for setup_s
BLAS_THREADS = "1"  # one thread of control; pinned so runs are comparable
CHILD_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(work, workload, params, seconds, trace):
    cfg = {"workload": workload, "params": params, "work_dir": work, "src_dir": SRC,
           "seconds": seconds, "trace": bool(trace), "setup_starts": SETUP_STARTS[params["size"]],
           "result_path": os.path.join(work, "result.json"),
           "spans_path": os.path.join(os.path.dirname(work),
                                      "spans-%s-seed%d.json" % (workload, params["seed"]))}
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    with open(os.path.join(work, "worker.log"), "w", encoding="utf-8") as log:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), cfg_path],
                              cwd=ROOT, env=child_env(), stdout=log, stderr=log,
                              timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        with open(os.path.join(work, "worker.log"), encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError("benchmark worker exited with %d:\n%s" % (proc.returncode, tail))
    with open(cfg["result_path"], encoding="utf-8") as fh:
        return json.load(fh)


def tally(passes, checker):
    """(attempted, failed, messages) over every CLI operation of every pass.

    An operation fails on a non-zero exit, an exception, a failed output
    check (pass 0), or output bytes that differ from pass 0 (later passes).
    """
    attempted, failed, messages = 0, 0, []
    first = passes[0]["ops"]
    for p in passes:
        for op, res in enumerate(p["ops"]):
            attempted += 1
            why = None
            if res["error"] is not None:
                why = "raised:\n" + res["error"]
            elif res["rc"] != 0:
                why = "exit code %r" % res["rc"]
            elif p["pass"] == 0 and op in checker.failures:
                why = "; ".join(checker.failures[op])
            elif p["pass"] > 0 and res["hashes"] != first[op]["hashes"]:
                why = "output bytes differ from pass 0"
            if why:
                failed += 1
                messages.append("pass %d op %d: %s" % (p["pass"], op, why))
    return attempted, failed, messages


def measure(workload, seed, seconds, trace, size="full", work_root=None, keep=False):
    """Run one benchmark measurement and return its result as a dict.

    ``size`` and ``work_root``/``keep`` exist for the benchmark's own tests.
    """
    work_root = work_root or os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-" % workload, dir=work_root)
    try:
        in_dir = os.path.join(work, "in")
        params = make_inputs(workload, seed, in_dir, ROOT, size)
        res = run_worker(work, workload, params, seconds, trace)
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        checker = checks.check_outputs(workload, params, in_dir,
                                       os.path.join(work, "out", "p0"))
        attempted, failed, messages = tally(res["passes"], checker)
        setup = res.get("setup", [])
        attempted += len(setup) + res.get("setup_failed", 0)
        failed += res.get("setup_failed", 0)
        if res.get("setup_failed"):
            messages.append("%d interpreter start(s) failed" % res["setup_failed"])
        timed = [p for p in res["passes"] if p["phase"] == "timed"]
        if trace:
            metrics = dict(res["per_layer"])
            metrics["cli.nonzero_exits"] = sum(
                1 for p in res["passes"] for o in p["ops"] if o["rc"] != 0)
            metrics["check.max_dev"] = checker.max_dev
            units = dict(PER_LAYER)
        else:
            metrics = {"wall_s": statistics.median(scaled(p["seconds"], p["kernels"])
                                                   for p in timed),
                       "setup_s": statistics.median(setup) if setup else 0.0,
                       "peak_rss_mb": res["peak_rss_mb"]}
            units = dict(END_TO_END)
        return {"workload": workload, "seed": seed, "size": size, "trace": bool(trace),
                "passes": timed, "setup": setup,
                "attempted": attempted, "failed": failed, "messages": messages,
                "absent": res.get("absent", []), "params": params,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                "work": work}
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)


def environment():
    return ("python %s, numpy %s, nproc %d, BLAS threads %s"
            % (platform.python_version(), numpy.__version__, os.cpu_count() or 0, BLAS_THREADS))


def report(result):
    print("xtcancel benchmark: workload %s, seed %d, trace %d"
          % (result["workload"], result["seed"], int(result["trace"])))
    print("environment: %s" % environment())
    passes = result["passes"]
    print("pass seconds, raw (median %.4f): %s" % (
        statistics.median(p["seconds"] for p in passes),
        " ".join("%.4f" % p["seconds"] for p in passes)))
    print("pass seconds, scaled: %s"
          % " ".join("%.4f" % scaled(p["seconds"], p["kernels"]) for p in passes))
    if result["setup"]:
        print("interpreter start seconds: %s" % " ".join("%.4f" % t for t in result["setup"]))
    for name, m in result["metrics"].items():
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    print("error_rate: %d/%d = %.3g" % (result["failed"], result["attempted"],
                                        result["failed"] / result["attempted"]))
    for name in result["absent"]:
        print("absent: %s" % name)
    for msg in result["messages"]:
        print("FAILED: %s" % msg)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "xtcancel", "cli.py")):
        print("error: the xtcancel sources are not at %s" % SRC, file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    report(result)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
