"""Tests of the benchmark itself: output shape, smoke runs, checks and hooks.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import radiofield.renderer  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "MAC", "B")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def tiny_result(workload: str, trace: int, spans=None) -> dict:
    extra = ["--spans", str(spans)] if spans else []
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == workloads.END_TO_END
    per_layer = [(name, unit) for name, unit, _, _ in tracing.PER_LAYER]
    per_layer += [("bench.trace_overhead_frac", "frac"),
                  ("bench.trace_coverage_frac", "frac")]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == per_layer
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_smoke_all_workloads_end_to_end():
    proc = run_bench("--workload", "all", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{w}/{m['name']}": m["unit"]
                for w in workloads.WORKLOADS for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_traced_and_counts_repeat(workload, tmp_path):
    first = tiny_result(workload, trace=1)
    assert first["correct"] and first["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    spans = tmp_path / "spans.jsonl"
    second = tiny_result(workload, trace=1, spans=spans)
    counts = [k for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {"id", "name", "start", "end", "parent", "request", "counts"} <= set(records[0])
    assert any(r["name"] == "render_spectrum" for r in records)


def test_corrupted_render_counts_as_failure(tmp_path, monkeypatch):
    production = radiofield.renderer.render_spectrum

    def corrupted(*args, **kwargs):
        spectrum = production(*args, **kwargs)
        spectrum[0, 0] += 1e-3
        return spectrum

    monkeypatch.setattr(radiofield.renderer, "render_spectrum", corrupted)
    result = workloads.run("infer-eval", "tiny", seed=3, seconds=1, trace=False,
                           work=tmp_path)
    assert result.outcome.failed > 0
    assert any("per-ray reference" in e for e in result.outcome.errors)


def test_missing_hook_site_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.HOOKS, "gone",
                        (["radiofield.renderer:no_such_function"], None))
    original = radiofield.renderer.composite
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        assert radiofield.renderer.composite is not original
        radiofield.renderer.composite(np.ones(3), np.ones(3), np.ones(3))
    assert hooks.absent == ["gone"]
    assert radiofield.renderer.composite is original
    metrics = tracing.per_layer_metrics(tracer)
    assert metrics["renderer.composite.calls"]["value"] == 1
    assert metrics["trainer.adam_step.ms"]["value"] == 0.0


def test_memory_guard_refuses_what_does_not_fit():
    size = workloads.SIZES["full"]["train-largegrid"]
    with pytest.raises(workloads.MemoryGuardError, match="refusing"):
        workloads.guard_memory(size, available=1 << 30)
    assert workloads.guard_memory(size, available=64 << 30)["estimated_peak_mb"] > 1024


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = workloads.tail(np.arange(1, 101))
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "infer-eval", "--seed", "1", "--seconds", "1", "--trace",
                           "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
