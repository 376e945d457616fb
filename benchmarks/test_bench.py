"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import bench  # noqa: E402
import calibration  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY_IMAGES = {"pipeline-4axis": 3, "pipeline-complement": 6, "eval-dense": 1}
PER_LAYER = bench.load_spec()["per_layer"]
# Per-layer metrics that are not times: counts, sizes and ratios of the inputs.
INPUT_DERIVED = {m["name"] for m in PER_LAYER if m["unit"] not in ("s", "ns")}


def _timed(workload: str, work_dir, monkeypatch) -> dict:
    monkeypatch.setitem(workloads.DEFAULT_IMAGES, workload, TINY_IMAGES[workload])
    work_dir.mkdir()
    workloads.make_inputs(workload, 3, Tracer(), str(work_dir))
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.001, trace=1, work_dir=str(work_dir))
    return bench.timed_phase(args)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_passes_checks_and_repeats_counts(workload, tmp_path, monkeypatch):
    first = _timed(workload, tmp_path / "first", monkeypatch)
    second = _timed(workload, tmp_path / "second", monkeypatch)

    assert first["failed"] == 0, first["problems"]
    assert second["failed"] == 0, second["problems"]
    assert first["attempted"] == 1 + 2 * bench.MIN_SAMPLES
    assert len(first["setup_s"]) == 2 * bench.MIN_SAMPLES
    counts = {k: v for k, v in first["layers"].items() if k in INPUT_DERIVED}
    assert counts == {k: v for k, v in second["layers"].items() if k in INPUT_DERIVED}
    assert counts["metrics.iou_pairs.disease"] > 0

    layers = first["layers"]
    assert set(layers) <= {m["name"] for m in PER_LAYER}
    assert layers["synth.generate_scene.s"] > 0
    if workload == "eval-dense":
        assert "artifact_mb" not in layers
        assert all(f"metrics.evaluate.{axis}.s" in layers for axis in workloads.AXES)
    else:
        assert layers["pipeline.run_pipeline.s"] > layers["pipeline.self.s"] > 0
        assert layers["io.records_parsed"] > layers["integrate.diags_in"] > 0
    if workload == "pipeline-complement":
        assert 0 < layers["complementary.kept_ratio"] < 1
        assert layers["complementary.merge_complementary.s"] > 0


def test_times_are_scaled_by_the_reference_runs_around_them(tmp_path, monkeypatch):
    timed = _timed("eval-dense", tmp_path / "work", monkeypatch)
    ref = timed["reference_s"]
    # One reference run before the loop, then two per iteration: after the
    # operation (before the set-up) and after the set-up.
    assert len(ref) == 1 + 2 * len(timed["setup_s"])
    for i, (raw, scaled) in enumerate(zip(timed["raw_setup_s"], timed["setup_s"])):
        assert scaled == pytest.approx(raw * calibration.scale(ref[2 * i + 1], ref[2 * i + 2]))
    first_op = timed["raw_untraced_s"][0] * calibration.scale(ref[0], ref[1])
    assert timed["untraced_s"][0] == pytest.approx(first_op)
    assert calibration.scale(calibration.REFERENCE_S, calibration.REFERENCE_S) == 1.0


def test_checks_reject_a_wrong_report_and_a_bad_artifact(tmp_path):
    inputs = workloads.make_inputs("pipeline-4axis", 3, Tracer(), str(tmp_path), images=2)
    cfg = workloads.pipeline_config("pipeline-4axis", str(tmp_path))
    checker = workloads.Checker("pipeline-4axis", inputs, cfg)
    result = workloads.run_operation("pipeline-4axis", cfg, inputs)
    assert checker.check(result) == []

    report = result.reports["quadrant"]
    result.reports["quadrant"] = dataclasses.replace(report, ar=report.ar - 1e-9)
    assert any("quadrant.ar" in p for p in checker.check(result))
    result.reports["quadrant"] = report

    final_path = os.path.join(cfg.out_dir, "04_final.json")
    with open(final_path, encoding="utf-8") as fh:
        records = json.load(fh)
    with open(final_path, "w", encoding="utf-8") as fh:
        json.dump(records[:-1], fh)
    assert any("04_final.json" in p for p in checker.check(result))


def test_an_operation_that_loses_an_artifact_fails_without_ending_the_run(tmp_path, monkeypatch):
    run_pipeline = workloads.run_pipeline

    def losing_run_pipeline(cfg):
        result = run_pipeline(cfg)
        os.remove(os.path.join(cfg.out_dir, "04_final.json"))
        return result

    monkeypatch.setattr(workloads, "run_pipeline", losing_run_pipeline)
    timed = _timed("pipeline-4axis", tmp_path / "work", monkeypatch)
    assert timed["failed"] == timed["attempted"] == 1 + 2 * bench.MIN_SAMPLES
    assert "04_final.json" in timed["problems"][0]
    assert timed["counts"] == {}


def test_command_prints_the_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "eval-dense", "--seed", "2",
         "--seconds", "0.001", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"].keys() == {m["name"] for m in PER_LAYER}
    assert json.loads(lines[-2])["machine"]["held_out_seed"] == bench.HELD_OUT_SEED


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "pipeline-4axis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
