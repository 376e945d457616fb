"""The benchmark's hooks into the program, checked without running a workload.

``benchmarks/tracing.py`` swaps the stage functions that ``detfuse.pipeline``
imports for timed wrappers, and ``benchmarks/workloads.py`` builds its
inputs through the public API at import. A change to ``src/`` that renames
or removes one of them breaks the benchmark; these tests catch it first.
"""

from __future__ import annotations

import importlib
import os

import detfuse.pipeline

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def bench_module(name: str, monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    return importlib.import_module(name)


def test_traced_attributes_exist_on_pipeline(monkeypatch):
    tracing = bench_module("tracing", monkeypatch)
    for attr in (*tracing.PIPELINE_SPANS, "evaluate"):
        assert callable(getattr(detfuse.pipeline, attr, None)), attr


def test_workloads_module_imports(monkeypatch):
    workloads = bench_module("workloads", monkeypatch)
    assert set(workloads.DEFAULT_IMAGES) == set(workloads.WORKLOADS)


def test_benchmark_check_passes_on_one_dense_image(monkeypatch):
    """The benchmark's own oracle check on the dense, capped ``eval-dense`` shape."""
    workloads = bench_module("workloads", monkeypatch)
    tracing = bench_module("tracing", monkeypatch)
    inputs = workloads.make_inputs("eval-dense", 1, tracing.Tracer(), images=1)
    result = workloads.run_operation("eval-dense", None, inputs)
    assert workloads.Checker("eval-dense", inputs, None).check(result) == []


def test_benchmark_check_passes_on_the_complement_pipeline(monkeypatch, tmp_path):
    """The benchmark's checks and counts on a two-image ``pipeline-complement`` run."""
    workloads = bench_module("workloads", monkeypatch)
    tracing = bench_module("tracing", monkeypatch)
    work_dir = str(tmp_path)
    inputs = workloads.make_inputs("pipeline-complement", 1, tracing.Tracer(), work_dir, images=2)
    cfg = workloads.pipeline_config("pipeline-complement", work_dir)
    result = workloads.run_operation("pipeline-complement", cfg, inputs)
    assert workloads.Checker("pipeline-complement", inputs, cfg).check(result) == []
    counts = workloads.layer_counts(inputs, result, cfg)
    assert counts["integrate.diags_in"] == len(result.fused)
    assert counts["complementary.candidates"] > 0


def test_benchmark_check_passes_on_the_four_axis_pipeline(monkeypatch, tmp_path):
    """The benchmark's checks and counts on a two-image ``pipeline-4axis`` run.

    The oracle and the counts read ``ds.annotations`` on all four axes.
    """
    workloads = bench_module("workloads", monkeypatch)
    tracing = bench_module("tracing", monkeypatch)
    work_dir = str(tmp_path)
    inputs = workloads.make_inputs("pipeline-4axis", 1, tracing.Tracer(), work_dir, images=2)
    cfg = workloads.pipeline_config("pipeline-4axis", work_dir)
    result = workloads.run_operation("pipeline-4axis", cfg, inputs)
    assert workloads.Checker("pipeline-4axis", inputs, cfg).check(result) == []
    counts = workloads.layer_counts(inputs, result, cfg)
    assert counts["io.records_parsed"] > len(inputs.dataset.annotations)
    for axis in workloads.AXES:
        assert counts[f"metrics.groups.{axis}"] > 0


def test_traced_run_records_every_span_it_reaches(monkeypatch, tmp_path):
    """A traced two-image ``pipeline-complement`` run reaches every layer the benchmark
    names, each as a closed child span of the one root, and leaves the pipeline unpatched."""
    workloads = bench_module("workloads", monkeypatch)
    tracing = bench_module("tracing", monkeypatch)
    work_dir = str(tmp_path)
    inputs = workloads.make_inputs("pipeline-complement", 1, tracing.Tracer(), work_dir, images=2)
    cfg = workloads.pipeline_config("pipeline-complement", work_dir)
    saved = {attr: getattr(detfuse.pipeline, attr) for attr in (*tracing.PIPELINE_SPANS, "evaluate")}
    tracer = tracing.Tracer()
    result = workloads.run_traced_operation("pipeline-complement", cfg, inputs, tracer)
    assert workloads.Checker("pipeline-complement", inputs, cfg).check(result) == []
    root, *layers = tracer.spans
    assert root[0] == "pipeline.run_pipeline" and root[3] is None
    assert {name for name, *_ in layers} == {
        *tracing.PIPELINE_SPANS.values(), "metrics.evaluate.disease"
    }
    assert all(parent == 0 and start <= end for _, start, end, parent in layers)
    assert {attr: getattr(detfuse.pipeline, attr) for attr in saved} == saved
