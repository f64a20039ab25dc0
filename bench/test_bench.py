"""Tests of the benchmark itself, at the smoke size.

Run from the repository root:  PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
import re
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_metrics_the_benchmark_reports():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert all(UNIT.match(u) for u in units)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_same_seed_gives_identical_inputs(tmp_path):
    for w in workloads.WORKLOADS:
        files = []
        for k, seed in enumerate((5, 5, 6)):
            d = tmp_path / w / str(k)
            workloads.make_inputs(w, seed, str(d), run.ROOT, "smoke")
            files.append({f: (d / f).read_bytes() for f in sorted(os.listdir(d))})
        assert files[0] == files[1]
        assert files[0] != files[2]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One kept smoke-size run of every workload, default seed, tracing off."""
    root = str(tmp_path_factory.mktemp("bench"))
    return {w: run.measure(w, workloads.DEFAULT_SEED, 0, False, size="smoke",
                           work_root=root, keep=True)
            for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_once_and_checks_out(smoke, workload):
    res = smoke[workload]
    assert res["failed"] == 0, res["messages"]
    assert res["attempted"] >= 3
    assert list(res["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())


def _clean_passes(n_ops):
    return [{"pass": 0, "ops": [{"rc": 0, "error": None, "hashes": ["x"]}] * n_ops}]


def _copy_outputs(res, tmp_path):
    out = tmp_path / "p0"
    shutil.copytree(os.path.join(res["work"], "out", "p0"), out)
    return str(out)


def test_corrupted_waveform_csv_is_counted_as_failed(smoke, tmp_path):
    res = smoke["link-sim"]
    out = _copy_outputs(res, tmp_path)
    path = os.path.join(out, "waves.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    fields = lines[5].split(",")
    fields[3] = "nan"
    lines[5] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    ck = checks.check_outputs("link-sim", res["params"], os.path.join(res["work"], "in"), out)
    assert 0 in ck.failures
    attempted, failed, _ = run.tally(_clean_passes(2), ck)
    assert attempted == 2 and failed >= 1


def test_corrupted_fom_report_is_counted_as_failed(smoke, tmp_path):
    res = smoke["synth-fom"]
    out = _copy_outputs(res, tmp_path)
    path = os.path.join(out, "fom-lc.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["avg_power_w"] *= 1.0 + 1e-9
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    ck = checks.check_outputs("synth-fom", res["params"], os.path.join(res["work"], "in"), out)
    assert list(ck.failures) == [2]
    assert run.tally(_clean_passes(6), ck)[1] == 1


def test_output_differing_from_pass_zero_is_counted_as_failed():
    passes = _clean_passes(1) + [{"pass": 1, "ops": [{"rc": 0, "error": None, "hashes": ["y"]}]}]
    assert run.tally(passes, checks.Checker())[:2] == (2, 1)


def test_traced_run_reports_every_layer_metric(tmp_path):
    res = run.measure("sweep-breakout", workloads.DEFAULT_SEED, 0, True, size="smoke",
                      work_root=str(tmp_path))
    assert res["failed"] == 0, res["messages"]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(m) == [name for name, _ in tracing.PER_LAYER]
    assert m["mtlsim.run_transient.calls"] == 2
    assert m["mtlsim.min_delay_steps"] == 2  # the 0.5 mm breakout
    assert m["bundle.symmetric_eig.calls"] > 0 and m["cli.sweep.total_s"] > 0
    assert m["fom.bundle_fom.total_s"] == 0  # not part of this workload
    with open(tmp_path / "spans-sweep-breakout-seed1.json", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]

    def chain(span):
        names = [span["name"]]
        while span["parent"] >= 0:
            span = spans[span["parent"]]
            names.append(span["name"])
        return names

    assert ["bundle.symmetric_eig", "bundle.characteristic_impedance", "mtlsim.build_link",
            "cli.sweep"] in [chain(s) for s in spans]


def test_missing_function_is_reported_absent():
    fake = types.ModuleType("xtcancel.bundle")
    fake.characteristic_impedance = lambda bundle: (bundle, None)
    tracer = tracing.Tracer()
    tracer.install({"bundle": fake}, [fake])
    tracer.begin_pass()
    fake.characteristic_impedance(np.eye(2))
    tracer.end_pass()
    tracer.uninstall()
    assert "bundle.symmetric_eig" in tracer.absent
    metrics = tracer.per_layer()
    assert metrics["bundle.characteristic_impedance.calls"] == 1
    assert metrics["bundle.symmetric_eig.calls"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "link-sim",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
