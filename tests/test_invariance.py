"""Whole-pipeline invariances: input transformations that must not change a run's result.

Each property draws a small synthetic scene, writes its inputs, runs
``run_pipeline`` with the crop stage on and every axis evaluated, applies one
transformation to the same inputs, runs it again and compares the two runs.
The last property compares a run whose verdict file keeps no verdict with a
run without the crop stage.
This is metamorphic testing: no expected report is written down, only the
relation between the two runs.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detfuse import (
    AXES,
    CROP_LABELS,
    AnnotatedDataset,
    AnnotatedImage,
    CropClassification,
    DetectionSet,
    IntegrationConfig,
    MergeConfig,
    PipelineConfig,
    ScenePlan,
    assign_crops,
    filter_enumeration,
    generate_scene,
    load_profile,
    run_pipeline,
    simulate_detector,
    write_crop_classifications,
    write_detections,
    write_ground_truth,
)

PRIOR = {"caries": 0.3, "deep-caries": 0.15, "impacted": 0.15, "periapical-lesion": 0.1}
#: Each detection stream: its source, detector profile and pipeline config key.
STREAMS = (
    ("enumeration-model", "perfect", "enumeration"),
    ("diagnosis-A", "diffusiondet-like", "diagnosis_a"),
    ("diagnosis-B", "dino-like", "diagnosis_b"),
)
#: A scene's seed and image count.
scenes = st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 12))


def make_scene(seed: int, images: int):
    """A dataset, its three detection streams and one crop verdict per gated tooth.

    A verdict is the tooth's true label, or with probability 0.15 a drawn one;
    its confidence is uniform in [0.3, 1].
    """
    ds = generate_scene(ScenePlan(num_images=images, disease_prior=PRIOR, seed=seed))
    streams = {
        source: simulate_detector(ds, load_profile(profile), source, seed=seed)
        for source, profile, _ in STREAMS
    }
    truth = {
        (a.image_id, a.category.quadrant, a.category.enumeration): a.category.disease or "normal"
        for a in ds.annotations
    }
    # The pipeline's crops: its teeth above the gate, in order; the padding changes no crop's tooth.
    gated = filter_enumeration(streams["enumeration-model"], IntegrationConfig().enum_score_gate)
    crops = assign_crops(gated, ds.images, 0.1)
    rng = np.random.default_rng(seed)
    verdicts = [
        CropClassification(
            k,
            CROP_LABELS[rng.integers(len(CROP_LABELS))] if rng.random() < 0.15
            else truth[(crop.image_id, *crop.tooth)],
            float(rng.uniform(0.3, 1.0)),
        )
        for k, crop in enumerate(crops)
    ]
    return ds, streams, verdicts


def run(root: Path, ds, streams, verdicts):
    """``run_pipeline`` over the scene, its inputs and artifacts written under ``root``;
    without the crop stage when ``verdicts`` is None."""
    root.mkdir()
    paths = {"ground_truth": str(root / "gt.json")}
    write_ground_truth(ds, paths["ground_truth"])
    if verdicts is not None:
        paths["crop_classifications"] = str(root / "crops.json")
        write_crop_classifications(verdicts, paths["crop_classifications"])
    for source, _, key in STREAMS:
        paths[key] = str(root / f"{key}.json")
        write_detections(streams[source], paths[key])
    cfg = PipelineConfig(**paths, out_dir=str(root / "out"), max_match_distance=None, axes=AXES)
    return run_pipeline(cfg)


def transformed(ds, streams, image=lambda im: im, box=lambda b: b, image_id=lambda i: i):
    """The scene with each image, box and image id mapped; everything else kept."""
    ds2 = AnnotatedDataset(
        [replace(image(im), image_id=image_id(im.image_id)) for im in ds.images],
        [replace(a, image_id=image_id(a.image_id), box=box(a.box)) for a in ds.annotations],
    )
    streams2 = {
        source: DetectionSet(
            [replace(d, image_id=image_id(d.image_id), box=box(d.box)) for d in dets],
            dets.source,
            frozenset(map(image_id, ds.image_ids())),
        )
        for source, dets in streams.items()
    }
    return ds2, streams2


def reports(result) -> dict:
    return {axis: report.as_dict() for axis, report in result.reports.items()}


def curves(result) -> dict:
    """Each report's ``pr_curve`` as bytes, so that equal means bit for bit."""
    return {axis: report.pr_curve.tobytes() for axis, report in result.reports.items()}


@settings(max_examples=25, deadline=None)
@given(scene=scenes)
@example(scene=(1, 12))
@example(scene=(7, 12))
def test_doubling_every_extent_changes_no_report(scene):
    """Every box and image extent times 2, which is exact: the same reports, and each
    stage's boxes doubled with their scores, categories and links kept."""
    ds, streams, verdicts = make_scene(*scene)
    double = lambda b: replace(b, x=2 * b.x, y=2 * b.y, w=2 * b.w, h=2 * b.h)
    ds2, streams2 = transformed(
        ds, streams, image=lambda im: replace(im, width=2 * im.width, height=2 * im.height), box=double
    )
    with tempfile.TemporaryDirectory() as tmp:
        base = run(Path(tmp, "base"), ds, streams, verdicts)
        scaled = run(Path(tmp, "scaled"), ds2, streams2, verdicts)
    assert set(base.reports) == set(AXES)
    assert any(path.endswith("03_complementary.json") for path in base.artifacts)
    assert reports(scaled) == reports(base)
    for stage in ("fused", "integrated", "final"):
        got, want = getattr(scaled, stage).columns, getattr(base, stage).columns
        assert np.array_equal(got.xywh, 2 * want.xywh), stage
        for column in ("score", "key", "link"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), (stage, column)


@settings(max_examples=25, deadline=None)
@given(scene=scenes)
@example(scene=(1, 12))
@example(scene=(7, 12))
def test_string_image_ids_change_no_report(scene):
    """Int image ids renamed to strings (``img-0001``): the same reports and stage columns."""
    ds, streams, verdicts = make_scene(*scene)
    ds2, streams2 = transformed(ds, streams, image_id=lambda i: f"img-{i:04d}")
    with tempfile.TemporaryDirectory() as tmp:
        base = run(Path(tmp, "base"), ds, streams, verdicts)
        renamed = run(Path(tmp, "renamed"), ds2, streams2, verdicts)
    assert reports(renamed) == reports(base)
    for stage in ("fused", "integrated", "final"):
        got, want = getattr(renamed, stage).columns, getattr(base, stage).columns
        for column in ("xywh", "score", "key", "link"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), (stage, column)


@settings(max_examples=25, deadline=None)
@given(scene=scenes, position=st.integers(0, 12))
@example(scene=(1, 12), position=12)
@example(scene=(7, 12), position=0)
def test_an_empty_image_changes_no_report(scene, position):
    """A ground-truth image with no annotations and no detections, inserted before
    image ``position`` (or last): the same reports and the same ``pr_curve`` bits."""
    ds, streams, verdicts = make_scene(*scene)
    images = list(ds.images)
    images.insert(min(position, len(images)), AnnotatedImage(max(ds.image_ids()) + 1, 640, 480))
    ds2 = AnnotatedDataset(images, ds.annotations)
    with tempfile.TemporaryDirectory() as tmp:
        base = run(Path(tmp, "base"), ds, streams, verdicts)
        padded = run(Path(tmp, "padded"), ds2, streams, verdicts)
    assert set(base.reports) == set(AXES)
    assert reports(padded) == reports(base)
    assert curves(padded) == curves(base)


@settings(max_examples=25, deadline=None)
@given(scene=scenes, normal=st.booleans())
@example(scene=(1, 12), normal=True)
@example(scene=(7, 12), normal=False)
def test_a_verdict_file_that_keeps_no_verdict_changes_nothing(scene, normal):
    """Every verdict ``normal``, or every confidence under ``min_confidence`` (those at or
    above it set just under it): 03 has the bytes of 02, and 04 and every report are
    those of the run without the crop stage."""
    ds, streams, verdicts = make_scene(*scene)
    under = float(np.nextafter(MergeConfig().min_confidence, 0))
    verdicts = [
        replace(v, label="normal") if normal else replace(v, confidence=min(v.confidence, under))
        for v in verdicts
    ]
    with tempfile.TemporaryDirectory() as tmp:
        on = run(Path(tmp, "on"), ds, streams, verdicts)
        off = run(Path(tmp, "off"), ds, streams, None)
        out_on, out_off = Path(tmp, "on", "out"), Path(tmp, "off", "out")
        assert (out_on / "03_complementary.json").read_bytes() == (
            out_on / "02_integrated.json"
        ).read_bytes()
        assert (out_on / "04_final.json").read_bytes() == (out_off / "04_final.json").read_bytes()
    assert set(on.reports) == set(AXES)
    assert reports(on) == reports(off)
    assert curves(on) == curves(off)
