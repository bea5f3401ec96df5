"""Tests of the benchmark itself, on the small size of each workload.

    python3 -m pytest perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs epigraph_lab on the path)

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = run.WORKLOAD_NAMES

# one reference value per workload, deliberately wrong
WRONG_REFERENCE = {
    "large_solve": ("lambda1", lambda v: v * (1.0 + 1e-6)),
    "probe_scan": ("weierstrass_n", lambda v: v + 1),
    "restart_batch": ("failure_widths", lambda v: {**v, 1.0: 3.3}),
}


def _small(workload, trace=0, reference=None):
    return run.measure(workload, seed=3, seconds=0, trace=trace, size="small",
                       reference=reference, setup_children=1)


def _assert_metrics(result, expected):
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        m = result["metrics"][name]
        assert m["unit"] == unit
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_gate_pass(workload):
    result, record = _small(workload)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    _assert_metrics(result, metrics.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    result, record = _small(workload, trace=1)
    assert result["failed"] == 0
    _assert_metrics(result, metrics.PER_LAYER)
    traced = [p for p in record["passes"] if p["traced"]]
    untraced = [p for p in record["passes"][1:] if not p["traced"]]
    assert traced and untraced
    assert record["spans"] and all(s["end"] >= s["start"] for s in record["spans"])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    # every layer a workload leans on shows work in its traced pass
    for layer, spec in metrics.LAYERS.items():
        if workload in spec["mostly_on"]:
            assert values[f"{layer}.self_s"] > 0.0, layer


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_is_counted_as_failure(workload):
    wl_ref = copy.deepcopy(workloads.WORKLOADS[workload].reference["small"])
    key, wrong = WRONG_REFERENCE[workload]
    wl_ref[key] = wrong(wl_ref[key])
    result, _ = _small(workload, reference=wl_ref)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_nondeterministic_output_is_counted_as_failure(monkeypatch):
    wl = workloads.WORKLOADS["restart_batch"]
    calls = []

    def drifting(inp, ctx, tr):
        calls.append(1)
        return (lambda ref, tr: {}), [len(calls)]

    monkeypatch.setattr(wl, "ops", wl.ops[:1] + [("drifting", drifting)])
    result, record = _small("restart_batch")
    assert result["failed"] == 1
    assert record["failures"][0][0] == "determinism"


def test_command_line_prints_result_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "restart_batch",
         "--seed", "5", "--seconds", "0", "--trace", "0", "--size", "small"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert "fail_rate 0 ratio" in proc.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_lists_what_the_run_reports():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
