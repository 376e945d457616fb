"""Shared builders for randomized evaluation instances and tiny datasets."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from detfuse import (
    DISEASES,
    AnnotatedDataset,
    AnnotatedImage,
    BoundingBox,
    CategoryTriple,
    Detection,
    DetectionSet,
    GroundTruthAnnotation,
)


#: A longer search for the property tests, chosen with ``--hypothesis-profile=thorough``.
settings.register_profile("thorough", max_examples=1000, deadline=None)


def examples(count: int) -> int:
    """``count`` examples, scaled by the profile: ten times as many under ``thorough``. A test
    that sets its own ``max_examples`` outright keeps it under every profile."""
    return count * settings.default.max_examples // 100


#: An integer too large for a float.
HUGE = 10**400


def huge_id(value):
    """The test id of ``HUGE`` and ``-HUGE``; None (pytest's own id) for any other value."""
    if type(value) is int and abs(value) == HUGE:
        return "HUGE" if value > 0 else "-HUGE"
    return None


def grid_box(rng: np.random.Generator, span: int = 100, step: int = 5) -> BoundingBox:
    """A box on a coarse integer grid; collisions and exact ties are common."""
    x = int(rng.integers(0, span // step)) * step
    y = int(rng.integers(0, span // step)) * step
    w = int(rng.integers(1, 8)) * step
    h = int(rng.integers(1, 8)) * step
    return BoundingBox(x, y, w, h)


def random_triple(rng: np.random.Generator) -> CategoryTriple:
    return CategoryTriple(
        quadrant=int(rng.integers(1, 5)),
        enumeration=int(rng.integers(1, 9)),
        disease=DISEASES[int(rng.integers(0, len(DISEASES)))],
    )


def random_eval_instance(
    rng: np.random.Generator,
    max_images: int = 10,
    max_boxes: int = 50,
    source: str = "fused",
) -> tuple[AnnotatedDataset, DetectionSet]:
    """A random dataset/detections pair for evaluator cross-checking.

    Sizes are drawn up to the caps but skewed small; scores land on a
    coarse grid so exact ties are exercised constantly.
    """
    n_images = int(rng.integers(1, max_images + 1))
    images = [AnnotatedImage(i + 1, 200, 200) for i in range(n_images)]
    annotations = []
    detections = []
    for img in images:
        shrink = rng.random()
        n_gt = int(rng.integers(0, max_boxes + 1) * shrink)
        n_det = int(rng.integers(0, max_boxes + 1) * shrink)
        for _ in range(n_gt):
            annotations.append(
                GroundTruthAnnotation(img.image_id, grid_box(rng), random_triple(rng))
            )
        for _ in range(n_det):
            score = int(rng.integers(0, 21)) / 20
            detections.append(
                Detection(img.image_id, grid_box(rng), score, random_triple(rng), source)
            )
    if not annotations:  # every axis needs at least one labelled gt box
        annotations.append(
            GroundTruthAnnotation(images[0].image_id, grid_box(rng), random_triple(rng))
        )
    ds = AnnotatedDataset(images, annotations)
    dets = DetectionSet(detections, source, frozenset(ds.image_ids()))
    return ds, dets


@pytest.fixture
def tiny_scene() -> AnnotatedDataset:
    """Two images, three labelled teeth; minimal but fully typed."""
    images = [AnnotatedImage(1, 1000, 500), AnnotatedImage(2, 1000, 500)]
    annotations = [
        GroundTruthAnnotation(
            1, BoundingBox(100, 100, 80, 120), CategoryTriple(1, 3, "caries")
        ),
        GroundTruthAnnotation(
            1, BoundingBox(300, 100, 80, 120), CategoryTriple(1, 5, "impacted")
        ),
        GroundTruthAnnotation(
            2, BoundingBox(500, 200, 90, 110), CategoryTriple(4, 2, "deep-caries")
        ),
    ]
    return AnnotatedDataset(images, annotations)


def perfect_detections(ds: AnnotatedDataset, source: str = "fused") -> DetectionSet:
    """Detections that reproduce the ground truth exactly at score 1.0."""
    dets = [
        Detection(ann.image_id, ann.box, 1.0, ann.category, source) for ann in ds.annotations
    ]
    return DetectionSet(dets, source, frozenset(ds.image_ids()))
