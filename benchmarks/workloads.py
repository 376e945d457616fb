"""Benchmark workloads: seeded inputs, the operation, its checks and its counts.

Every workload is built from a seed through the public ``detfuse`` API
only. The two pipeline workloads write their input files and time one
``run_pipeline`` call per operation; ``eval-dense`` keeps its inputs in
memory and times one ``evaluate`` call per axis.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from detfuse import (
    AXES,
    CROP_LABELS,
    DISEASES,
    AnnotatedDataset,
    BoundingBox,
    CategoryTriple,
    CropClassification,
    Detection,
    DetectionSet,
    EvalConfig,
    EvaluationReport,
    PipelineConfig,
    ScenePlan,
    assign_crops,
    evaluate,
    filter_enumeration,
    generate_scene,
    load_profile,
    naive_oracle_evaluate,
    parse_detections,
    run_pipeline,
    simulate_detector,
    write_crop_classifications,
    write_detections,
    write_ground_truth,
)

from tracing import Tracer

WORKLOADS = ("pipeline-4axis", "pipeline-complement", "eval-dense")

#: Images per workload. At seed 1 the pipeline scenes are the first images
#: of the ROADMAP W500 streams, because the scene generator and the
#: detector simulator draw image by image. The sizes keep one operation
#: near 0.5 s, so that a 25 s run holds about thirty operations.
DEFAULT_IMAGES = {"pipeline-4axis": 20, "pipeline-complement": 30, "eval-dense": 3}

#: Detections per image in ``eval-dense``, the C9 acceptance shape.
DENSE_PER_IMAGE = 3000

#: ROADMAP W500 disease prior and detector streams.
W500_PRIOR = {"caries": 0.10, "deep-caries": 0.08, "impacted": 0.07, "periapical-lesion": 0.05}
STREAMS = (
    ("enumeration-model", "perfect"),
    ("diagnosis-A", "diffusiondet-like"),
    ("diagnosis-B", "dino-like"),
)

#: Share of crop verdicts replaced by a uniformly drawn label, so that some
#: complementary candidates duplicate an integrated finding and some do not.
VERDICT_ERROR_RATE = 0.15

# Pipeline settings that the counts re-derive; the workloads use the defaults.
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}
TAU = _DEFAULTS["tau"]
ENUM_GATE = _DEFAULTS["enum_score_gate"]
PAD_FRACTION = _DEFAULTS["pad_fraction"]
MIN_CONFIDENCE = _DEFAULTS["min_confidence"]
MAX_DETS = _DEFAULTS["max_dets"]
N_THRESHOLDS = len(set(EvalConfig().iou_thresholds) | {0.5, 0.75})

ORACLE_TOLERANCE = 1e-12


@dataclass
class Inputs:
    """What one workload operation reads, kept in memory for checks and counts."""

    workload: str
    dataset: AnnotatedDataset
    streams: dict[str, DetectionSet] = field(default_factory=dict)
    crops: list = field(default_factory=list)
    verdicts: list[CropClassification] = field(default_factory=list)

    @property
    def input_detections(self) -> int:
        """Detections over all input streams."""
        return sum(len(s) for s in self.streams.values())


def make_inputs(
    workload: str,
    seed: int,
    tracer: Tracer,
    work_dir: Optional[str] = None,
    images: Optional[int] = None,
) -> Inputs:
    """Generate the workload's inputs from ``seed``.

    With ``work_dir`` the pipeline workloads also write their input files
    there. ``generate_scene`` and ``simulate_detector`` calls are recorded
    as ``synth.*`` spans on ``tracer``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    n = DEFAULT_IMAGES[workload] if images is None else images
    if workload == "eval-dense":
        prior = {d: 0.25 for d in DISEASES}  # every tooth diseased: full-triple ground truth
        with tracer.span("synth.generate_scene"):
            ds = generate_scene(ScenePlan(num_images=n, disease_prior=prior, seed=seed))
        return Inputs(workload, ds, {"fused": dense_detections(ds, DENSE_PER_IMAGE, seed)})

    with tracer.span("synth.generate_scene"):
        ds = generate_scene(ScenePlan(num_images=n, disease_prior=W500_PRIOR, seed=seed))
    inputs = Inputs(workload, ds)
    for source, profile in STREAMS:
        with tracer.span("synth.simulate_detector"):
            inputs.streams[source] = simulate_detector(ds, load_profile(profile), source, seed=seed)
    if workload == "pipeline-complement":
        gated = filter_enumeration(inputs.streams["enumeration-model"], ENUM_GATE)
        inputs.crops = assign_crops(gated, ds.images, PAD_FRACTION)
        inputs.verdicts = crop_verdicts(ds, inputs.crops, seed)
    if work_dir is not None:
        paths = _input_paths(work_dir)
        write_ground_truth(ds, paths["gt"])
        for source, dets in inputs.streams.items():
            write_detections(dets, paths[source])
        if inputs.verdicts:
            write_crop_classifications(inputs.verdicts, paths["crops"])
    return inputs


def _input_paths(work_dir: str) -> dict[str, str]:
    names = ("gt", "crops") + tuple(source for source, _ in STREAMS)
    return {name: os.path.join(work_dir, f"{name}.json") for name in names}


def pipeline_config(workload: str, work_dir: str) -> PipelineConfig:
    """The pipeline config over the input files that ``make_inputs`` wrote."""
    paths = _input_paths(work_dir)
    return PipelineConfig(
        ground_truth=paths["gt"],
        enumeration=paths["enumeration-model"],
        diagnosis_a=paths["diagnosis-A"],
        diagnosis_b=paths["diagnosis-B"],
        crop_classifications=paths["crops"] if workload == "pipeline-complement" else None,
        out_dir=os.path.join(work_dir, "out"),
        axes=AXES if workload == "pipeline-4axis" else ("disease",),
    )


def dense_detections(ds: AnnotatedDataset, per_image: int, seed: int) -> DetectionSet:
    """Full-triple detections: jittered copies of ground-truth teeth plus clutter.

    Four in five detections jitter a random ground-truth tooth of the image
    (one in ten of those with a random label); the rest are uniform false
    positives. Groups therefore reach the ``max_dets`` cap and true
    positives are common.
    """
    rng = np.random.default_rng([seed, 9])
    by_image: dict = {}
    for ann in ds.annotations:
        by_image.setdefault(ann.image_id, []).append(ann)
    dets = []
    for img in ds.images:
        anns = by_image[img.image_id]
        n_fp = per_image // 5
        n_cand = per_image - n_fp
        pick = rng.integers(0, len(anns), n_cand)
        jitter = rng.normal(0.0, 0.08, (n_cand, 4))
        relabel = rng.random(n_cand) < 0.1
        cand_scores = rng.beta(4.0, 2.0, n_cand)
        fp_xy = rng.uniform(0.0, 0.9, (n_fp, 2)) * (img.width, img.height)
        fp_wh = rng.uniform(0.03, 0.1, (n_fp, 2)) * (img.width, img.height)
        fp_scores = rng.beta(2.0, 4.0, n_fp)
        labels = rng.integers(0, (4, 8, len(DISEASES)), (per_image, 3))
        for k in range(n_cand):
            gt = anns[pick[k]]
            b = gt.box
            jx, jy, jw, jh = map(float, jitter[k])
            box = BoundingBox(b.x + jx * b.w, b.y + jy * b.h, b.w * (1.0 + jw), b.h * (1.0 + jh))
            cat = _triple(labels[k]) if relabel[k] else gt.category
            dets.append(Detection(img.image_id, box, float(cand_scores[k]), cat, "fused"))
        for k in range(n_fp):
            box = BoundingBox(*map(float, fp_xy[k]), *map(float, fp_wh[k]))
            cat = _triple(labels[n_cand + k])
            dets.append(Detection(img.image_id, box, float(fp_scores[k]), cat, "fused"))
    return DetectionSet(dets, "fused", frozenset(ds.image_ids()))


def _triple(codes) -> CategoryTriple:
    q, t, d = (int(c) for c in codes)
    return CategoryTriple(quadrant=q + 1, enumeration=t + 1, disease=DISEASES[d])


def crop_verdicts(ds: AnnotatedDataset, crops: list, seed: int) -> list[CropClassification]:
    """One crop-classifier verdict per crop, derived from the ground truth.

    The verdict is the tooth's true disease (or ``normal``); with
    probability ``VERDICT_ERROR_RATE`` it is a uniformly drawn label
    instead. Confidences are uniform in [0.3, 1], so some fall below the
    merge's ``min_confidence``.
    """
    truth = {
        (a.image_id, a.category.quadrant, a.category.enumeration): a.category.disease or "normal"
        for a in ds.annotations
    }
    rng = np.random.default_rng([seed, 11])
    wrong = rng.random(len(crops)) < VERDICT_ERROR_RATE
    drawn = rng.integers(0, len(CROP_LABELS), len(crops))
    confidence = rng.uniform(0.3, 1.0, len(crops))
    return [
        CropClassification(
            crop_id,
            CROP_LABELS[drawn[crop_id]] if wrong[crop_id] else truth[(crop.image_id, *crop.tooth)],
            float(confidence[crop_id]),
        )
        for crop_id, crop in enumerate(crops)
    ]


# ---------------------------------------------------------------------------
# the operation


def run_operation(
    workload: str, cfg: Optional[PipelineConfig], inputs: Optional[Inputs], evaluate_fn=evaluate
):
    """One timed operation: ``run_pipeline(cfg)``, or ``evaluate_fn`` on every axis."""
    if workload == "eval-dense":
        dets = inputs.streams["fused"]
        return {axis: evaluate_fn(inputs.dataset, dets, axis) for axis in AXES}
    return run_pipeline(cfg)


def run_traced_operation(workload: str, cfg, inputs, tracer: Tracer):
    """``run_operation`` with a span around each layer call, under one root span."""
    if workload == "eval-dense":
        return run_operation(workload, cfg, inputs, tracer.wrap_evaluate(evaluate))
    with tracer.patched_pipeline(), tracer.span("pipeline.run_pipeline"):
        return run_operation(workload, cfg, inputs)


# ---------------------------------------------------------------------------
# checks


def _report_mismatches(axis: str, got: EvaluationReport, want: EvaluationReport) -> list[str]:
    problems = []
    for name in ("mean_ap", "ap50", "ap75", "ar"):
        a, b = getattr(got, name), getattr(want, name)
        if not abs(a - b) <= ORACLE_TOLERANCE:
            problems.append(f"{axis}.{name}: {a!r} != oracle {b!r}")
    if got.per_class.keys() != want.per_class.keys():
        problems.append(f"{axis}: classes {sorted(got.per_class)} != oracle {sorted(want.per_class)}")
        return problems
    for cls, (ap, ar) in got.per_class.items():
        oap, oar = want.per_class[cls]
        if not (abs(ap - oap) <= ORACLE_TOLERANCE and abs(ar - oar) <= ORACLE_TOLERANCE):
            problems.append(f"{axis}.{cls}: ({ap!r}, {ar!r}) != oracle ({oap!r}, {oar!r})")
    return problems


class Checker:
    """Checks every operation's output; untimed.

    Each evaluated axis must agree with ``naive_oracle_evaluate`` to 1e-12.
    The oracle runs on the first operation's evaluated detections; every
    later operation must produce exactly those detections, so the same
    oracle reports apply to it. Pipeline operations must also leave
    ``04_final.json`` and ``metrics_<axis>.json`` files that re-parse equal
    to the returned result.
    """

    def __init__(self, workload: str, inputs: Inputs, cfg: Optional[PipelineConfig]):
        self.workload = workload
        self.inputs = inputs
        self.cfg = cfg
        self.axes = AXES if cfg is None else cfg.axes
        self.evaluated: Optional[tuple] = None
        self.oracle: dict[str, EvaluationReport] = {}
        self.oracle_s = 0.0

    def check(self, result) -> list[str]:
        """Return the problems found in one operation's result; empty means it passed."""
        if self.workload == "eval-dense":
            reports, evaluated = result, self.inputs.streams["fused"]
        else:
            reports, evaluated = result.reports, result.final
        if self.evaluated is None:
            self.evaluated = evaluated.detections
            t0 = time.perf_counter()
            for axis in self.axes:
                self.oracle[axis] = naive_oracle_evaluate(self.inputs.dataset, evaluated, axis)
            self.oracle_s = time.perf_counter() - t0
        elif evaluated.detections != self.evaluated:
            return ["evaluated detections differ from the first operation's"]
        if tuple(reports) != tuple(self.axes):
            return [f"reports cover {tuple(reports)}, expected {tuple(self.axes)}"]
        problems = []
        for axis in self.axes:
            problems += _report_mismatches(axis, reports[axis], self.oracle[axis])
        if self.workload != "eval-dense":
            problems += self._round_trip(result)
        return problems

    def _round_trip(self, result) -> list[str]:
        problems = []
        out = self.cfg.out_dir
        universe = frozenset(self.inputs.dataset.image_ids())
        parsed = parse_detections(os.path.join(out, "04_final.json"), "fused", universe)
        if parsed.detections != result.final.detections:
            problems.append("04_final.json does not re-parse to the returned final detections")
        for axis, report in result.reports.items():
            with open(os.path.join(out, f"metrics_{axis}.json"), encoding="utf-8") as fh:
                if json.load(fh) != report.as_dict():
                    problems.append(f"metrics_{axis}.json does not re-parse to the returned report")
        return problems


# ---------------------------------------------------------------------------
# counts derived from the inputs


def _axis_key(category: CategoryTriple, axis: str):
    if axis == "agnostic":
        return "all"
    if axis == "quadrant":
        return category.quadrant
    if axis == "disease":
        return category.disease
    if category.quadrant is None or category.enumeration is None:
        return None
    return (category.quadrant, category.enumeration)


def evaluation_counts(ds: AnnotatedDataset, dets: DetectionSet, axis: str) -> dict[str, int]:
    """Groups, IoU pairs and match steps that the evaluation protocol implies."""
    gt: dict = {}
    for ann in ds.annotations:
        key = _axis_key(ann.category, axis)
        if key is not None:
            gt[(ann.image_id, key)] = gt.get((ann.image_id, key), 0) + 1
    classes = {key for _, key in gt}
    det: dict = {}
    for d in dets:
        key = _axis_key(d.category, axis)
        if key in classes:
            det[(d.image_id, key)] = det.get((d.image_id, key), 0) + 1
    kept = {g: min(n, MAX_DETS) for g, n in det.items()}
    return {
        f"metrics.groups.{axis}": len(gt.keys() | det.keys()),
        f"metrics.iou_pairs.{axis}": sum(n * gt.get(g, 0) for g, n in kept.items()),
        f"metrics.match_steps.{axis}": sum(kept.values()) * N_THRESHOLDS,
    }


def layer_counts(inputs: Inputs, result, cfg: Optional[PipelineConfig]) -> dict[str, float]:
    """Per-layer counts and sizes of one operation; they depend only on the inputs."""
    counts: dict[str, float] = {}
    if inputs.workload == "eval-dense":
        for axis in AXES:
            counts.update(evaluation_counts(inputs.dataset, inputs.streams["fused"], axis))
        return counts
    ds, streams = inputs.dataset, inputs.streams
    n_fused = len(result.fused)
    counts["artifact_mb"] = sum(os.path.getsize(path) for path in result.artifacts) / 2**20
    counts["io.records_parsed"] = len(ds.images) + len(ds.annotations) + inputs.input_detections
    counts["io.records_written"] = n_fused + len(result.final)
    counts["io.bytes_written"] = sum(
        os.path.getsize(os.path.join(cfg.out_dir, name)) for name in ("01_fused.json", "04_final.json")
    )
    counts["ensemble.primary_kept"] = sum(d.score >= TAU for d in streams["diagnosis-A"])
    counts["ensemble.secondary_kept"] = sum(d.score < TAU for d in streams["diagnosis-B"])
    # merge_complementary returns the integrated list unchanged, then the kept candidates.
    integrated = result.integrated[:n_fused]
    counts["integrate.diags_in"] = n_fused
    counts["integrate.teeth_gated"] = sum(d.score > ENUM_GATE for d in streams["enumeration-model"])
    counts["integrate.matched"] = sum(it.matched_enum_id is not None for it in integrated)
    counts["integrate.unmatched_kept"] = n_fused - counts["integrate.matched"]
    if inputs.verdicts:
        candidates = [
            inputs.crops[v.crop_id].image_id
            for v in inputs.verdicts
            if v.label != "normal" and v.confidence >= MIN_CONFIDENCE
        ]
        kept = len(result.integrated) - n_fused
        per_image: dict = {}
        for it in integrated:
            per_image[it.image_id] = per_image.get(it.image_id, 0) + 1
        counts["complementary.candidates"] = len(candidates)
        counts["complementary.suppressed"] = len(candidates) - kept
        counts["complementary.kept_ratio"] = kept / len(candidates)
        counts["complementary.merge_pairs"] = sum(per_image.get(i, 0) for i in candidates)
    for axis in cfg.axes:
        counts.update(evaluation_counts(ds, result.final, axis))
    return counts
