"""In-memory spans recorded from outside the program.

The traced run replaces the names that ``detfuse.pipeline`` imported from
the layer modules with timing wrappers, so every layer call made by
``run_pipeline`` becomes a child span of the ``pipeline.run_pipeline``
root. Nothing inside ``detfuse`` is changed.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import detfuse.pipeline as _pipeline

#: ``detfuse.pipeline`` attribute -> span name.
PIPELINE_SPANS = {
    "parse_ground_truth": "io.parse_ground_truth",
    "parse_detections": "io.parse_detections",
    "write_detections": "io.write_detections",
    "threshold_ensemble": "ensemble.threshold_ensemble",
    "integrate": "integrate.integrate",
    "write_integrated": "integrate.write_integrated",
    "assign_crops": "complementary.assign_crops",
    "write_crop_manifest": "complementary.write_crop_manifest",
    "parse_crop_classifications": "complementary.parse_crop_classifications",
    "classifications_to_detections": "complementary.classifications_to_detections",
    "merge_complementary": "complementary.merge_complementary",
    "as_detection_set": "pipeline.as_detection_set",
}

#: Spans that write artifacts to ``out_dir``.
WRITER_SPANS = (
    "io.write_detections",
    "integrate.write_integrated",
    "complementary.write_crop_manifest",
)


class Tracer:
    """Records ``[name, start, end, parent index]`` spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_evaluate(self, fn):
        """``fn`` (an ``evaluate``) with one ``metrics.evaluate.<axis>`` span per call."""
        @functools.wraps(fn)
        def traced(ds, dets, axis="disease", *args, **kwargs):
            with self.span(f"metrics.evaluate.{axis}"):
                return fn(ds, dets, axis, *args, **kwargs)

        return traced

    @contextmanager
    def patched_pipeline(self):
        """Trace the layer calls that ``run_pipeline`` makes while the block runs."""
        saved = {attr: getattr(_pipeline, attr) for attr in (*PIPELINE_SPANS, "evaluate")}
        try:
            for attr, name in PIPELINE_SPANS.items():
                setattr(_pipeline, attr, self._wrap(name, saved[attr]))
            _pipeline.evaluate = self.wrap_evaluate(saved["evaluate"])
            yield
        finally:
            for attr, fn in saved.items():
                setattr(_pipeline, attr, fn)

    def seconds(self, since: int = 0) -> dict[str, float]:
        """Seconds per span name over the spans recorded from index ``since`` on.

        Adds ``pipeline.self`` (the root span minus its direct children)
        and ``pipeline.artifact_write`` (the sum of the writer spans).
        """
        totals: dict[str, float] = {}
        children: dict[int, float] = {}
        for name, start, end, parent in self.spans[since:]:
            totals[name] = totals.get(name, 0.0) + (end - start)
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        for index in range(since, len(self.spans)):
            name, start, end, _ = self.spans[index]
            if name == "pipeline.run_pipeline":
                totals["pipeline.self"] = totals.get("pipeline.self", 0.0) + (
                    end - start - children.get(index, 0.0)
                )
        totals["pipeline.artifact_write"] = sum(totals.get(n, 0.0) for n in WRITER_SPANS)
        return totals
