"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest bench/tests``.  They
check the result format, seeded determinism, the stock-input calibration
against the ROADMAP baseline and that the traced counts equal what the
program returns.  Nothing here asserts on wall time.
"""

import json
import os
import shutil
import subprocess
import sys

import jsonschema
import pytest

import run
import tracer as tracer_mod
import workloads
from conftest import ROOT

OUT_DIR = os.path.join(ROOT, run.OUT_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

RESULT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["correct", "attempted", "failed", "metrics"],
    "properties": {
        "correct": {"type": "boolean"},
        "attempted": {"type": "integer", "minimum": 1},
        "failed": {"type": "integer", "minimum": 0},
        "metrics": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": False,
                "required": ["value", "unit"],
                "properties": {
                    "value": {"type": "number"},
                    "unit": {"type": "string",
                             "pattern": "^[A-Za-z0-9_/%.-]{1,16}$"},
                },
            },
        },
    },
}


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _traced_ops(wl, params):
    """Run ``params`` once under the tracer; return records, metrics, counts."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        with tr.span("bench.build"):
            items = wl.prepare(params, OUT_DIR)
        with wl.session():
            records, _ = run.timed_loop(wl, items, 0.0, tr)
    finally:
        tr.uninstall()
    metrics, counts = tracer_mod.layer_metrics(tr, records)
    return records, metrics, counts


def _total(metrics, name, n_ops):
    return round(metrics[name]["value"] * n_ops)


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END_UNITS
    layer = dict(tracer_mod.LAYER_UNITS, trace_overhead_ratio="ratio")
    assert _units("per_layer") == layer


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_validates(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pendulum-separatrix",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    jsonschema.validate(result, RESULT_SCHEMA)
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(kind)
    record_path = os.path.join(
        OUT_DIR, f"pendulum-separatrix-seed3-trace{trace}.json")
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["result"] == result
    assert all(op["kernel_s"] > 0 for op in record["ops"])
    if not trace:
        assert record["wall_metrics"].keys() == result["metrics"].keys()
    env = record["env"]
    assert env["lvim_threads"] == "unset"
    assert set(env["blas_threads"].values()) == {"1"}
    assert env["src_lines"] > 0 and env["nproc"] >= 1


def test_reference_kernel_runs_no_program_code():
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        seconds = run.reference_kernel()
    finally:
        tr.uninstall()
    assert seconds > 0
    assert len(tr.start) == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bar-shooting",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert wl.params(7) == wl.params(7)
    assert wl.params(7) != wl.params(8)
    anchors = [p for p in wl.params(7) if p["anchor"]]
    assert anchors == [p for p in wl.params(8) if p["anchor"]]
    assert wl.params(None) == anchors[:1]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_input_gives_same_counts(name):
    wl = workloads.WORKLOADS[name]
    params = [p for p in wl.params(11) if not p["anchor"]][:1]
    seen = []
    for _ in range(2):
        items = wl.prepare(params, OUT_DIR)
        with wl.session():
            (rec,), _ = run.timed_loop(wl, items, 0.0)
        assert rec.failures == []
        # the CLI report carries its own wall time, so its size may vary
        counts = {k: v for k, v in rec.counts.items() if k != "report_bytes"}
        seen.append((counts, rec.rel_discrepancy))
    assert seen[0] == seen[1]


# Stock inputs reproduce the ROADMAP baseline table exactly.
CALIBRATION = {
    "pendulum-separatrix": dict(iterations=2000, rhs_evals=10000,
                                oracle_accepted=3463, oracle_rejected=6,
                                oracle_rhs_evals=24278),
    "leo-degree8": dict(iterations=110, rhs_evals=2860, oracle_accepted=553,
                        oracle_rejected=9, oracle_rhs_evals=3926),
    "mathieu-chart-cli": dict(iterations=1077, rhs_evals=5385,
                              oracle_accepted=6059, oracle_rejected=53,
                              oracle_rhs_evals=42732),
}


@pytest.mark.parametrize("name", list(CALIBRATION))
def test_stock_input_matches_baseline(name):
    wl = workloads.WORKLOADS[name]
    items = wl.prepare(wl.params(None), OUT_DIR)
    with wl.session():
        (rec,), _ = run.timed_loop(wl, items, 0.0)
    assert rec.failures == []
    counts = {k: rec.counts[k] for k in CALIBRATION[name]}
    assert counts == CALIBRATION[name]


def test_traced_counts_equal_returned_counts():
    wl = workloads.WORKLOADS["pendulum-separatrix"]
    params = wl.params(5)[:3]
    records, metrics, counts = _traced_ops(wl, params)
    n = len(records)
    assert all(not r.failures for r in records)
    for layer, key in (("core.iterations", "iterations"),
                       ("core.rhs_evals", "rhs_evals"),
                       ("core.segments", "segments"),
                       ("rk45.steps_accepted", "oracle_accepted"),
                       ("rk45.steps_rejected", "oracle_rejected"),
                       ("rk45.rhs_evals", "oracle_rhs_evals"),
                       ("rk45.sample_at.queries", "queries")):
        assert _total(metrics, layer, n) == sum(r.counts[key] for r in records)
    assert counts["core.march"] == n and counts["rk45.integrate"] == n
    assert metrics["core.converged_ratio"]["value"] == 1.0
    assert metrics["gravity.accel.calls"]["value"] == 0.0


def test_traced_shooting_counts_equal_shot_results():
    wl = workloads.WORKLOADS["bar-shooting"]
    params = [p for p in wl.params(2) if p["load_type"] != "perpendicular_follower"]
    records, metrics, _ = _traced_ops(wl, params[:2])
    n = len(records)
    assert all(not r.failures for r in records)
    assert _total(metrics, "shooting.shots", n) == sum(r.counts["shots"] for r in records)
    assert _total(metrics, "shooting.outer_sweeps", n) == \
        sum(r.counts["outer_sweeps"] for r in records)


def test_traced_cli_counts_match_report():
    wl = workloads.WORKLOADS["mathieu-chart-cli"]
    records, metrics, counts = _traced_ops(wl, wl.params(4)[1:2])
    (rec,) = records
    assert not rec.failures
    assert counts["cli.main"] == 1
    assert metrics["cli.march_attempts"]["value"] == rec.counts["march_attempts"] == 3
    assert metrics["cli.march_failed"]["value"] == 2
    assert metrics["cli.retry_useful_ratio"]["value"] == 0.5
    assert metrics["cli.report_bytes"]["value"] == rec.counts["report_bytes"]


def test_tracer_fails_loudly_on_a_silent_layer(monkeypatch):
    wl = workloads.WORKLOADS["leo-degree8"]
    kept = tuple(b for b in tracer_mod.BOUNDARIES if b[2] != "gravity.accel")
    monkeypatch.setattr(tracer_mod, "BOUNDARIES", kept)
    _, _, counts = _traced_ops(wl, wl.params(None))
    assert run.silent_layers(wl, counts) == ["gravity.accel"]
