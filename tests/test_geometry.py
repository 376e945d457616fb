"""Box primitives, and the pipeline's IoU checked against a pixel-counting oracle."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detfuse import (
    BoundingBox,
    CategoryTriple,
    Detection,
)
from detfuse.metrics import _iou_block

coord = st.integers(min_value=0, max_value=24)
extent = st.integers(min_value=1, max_value=12)
int_boxes = st.builds(BoundingBox, coord, coord, extent, extent)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """The IoU that evaluation and the crop merge compute, for one pair of boxes."""
    return float(_iou_block(np.array([a.as_xywh()], float), np.array([b.as_xywh()], float))[0, 0])


def pixel_iou(a: BoundingBox, b: BoundingBox) -> Fraction:
    """Count unit pixels inside each integer box; exact by construction."""
    cells_a = {
        (i, j)
        for i in range(int(a.x), int(a.x + a.w))
        for j in range(int(a.y), int(a.y + a.h))
    }
    cells_b = {
        (i, j)
        for i in range(int(b.x), int(b.x + b.w))
        for j in range(int(b.y), int(b.y + b.h))
    }
    union = cells_a | cells_b
    return Fraction(len(cells_a & cells_b), len(union))


class TestIou:
    def test_quarter_overlap_example(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 5, 10, 10)
        assert iou(a, b) == 25 / 175

    def test_identical_boxes(self):
        a = BoundingBox(3, 7, 11, 13)
        assert iou(a, a) == 1.0

    def test_disjoint_and_touching(self):
        a = BoundingBox(0, 0, 10, 10)
        assert iou(a, BoundingBox(20, 0, 10, 10)) == 0.0
        # edge contact has zero intersection area
        assert iou(a, BoundingBox(10, 0, 10, 10)) == 0.0

    def test_contained_box(self):
        outer = BoundingBox(0, 0, 10, 10)
        inner = BoundingBox(2, 2, 5, 5)
        assert iou(outer, inner) == 25 / 100

    @given(int_boxes, int_boxes)
    def test_matches_pixel_count_oracle(self, a, b):
        expected = pixel_iou(a, b)
        assert abs(iou(a, b) - float(expected)) < 1e-12

    @given(int_boxes, int_boxes)
    def test_symmetry_and_range(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(int_boxes, int_boxes, st.integers(-50, 50), st.integers(0, 50))
    def test_translation_invariance(self, a, b, dx, dy):
        shifted_a = BoundingBox(a.x + dx, a.y + dy, a.w, a.h)
        shifted_b = BoundingBox(b.x + dx, b.y + dy, b.w, b.h)
        assert iou(shifted_a, shifted_b) == iou(a, b)


class TestValidation:
    @pytest.mark.parametrize("w,h", [(0, 5), (5, 0), (-1, 5), (5, -3)])
    def test_degenerate_extent_rejected(self, w, h):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, w, h)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(float("nan"), 0, 1, 1)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, float("inf"), 1)

    def test_area(self):
        assert BoundingBox(0, 0, 4, 5).area == 20

    def test_triple_requires_an_axis(self):
        with pytest.raises(ValueError):
            CategoryTriple()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quadrant": 0},
            {"quadrant": 5},
            {"enumeration": 0},
            {"enumeration": 9},
            {"disease": "gingivitis"},
        ],
    )
    def test_triple_ranges(self, kwargs):
        with pytest.raises(ValueError):
            CategoryTriple(**kwargs)

    def test_fdi_notation(self):
        assert CategoryTriple(quadrant=3, enumeration=8).fdi == 38
        assert CategoryTriple(quadrant=1, enumeration=1, disease="caries").fdi == 11
        assert CategoryTriple(disease="caries").fdi is None

    def test_detection_score_bounds(self):
        box = BoundingBox(0, 0, 1, 1)
        cat = CategoryTriple(disease="caries")
        with pytest.raises(ValueError):
            Detection(1, box, 1.5, cat, "fused")
        with pytest.raises(ValueError):
            Detection(1, box, -0.1, cat, "fused")
        with pytest.raises(ValueError):
            Detection(1, box, 0.5, cat, "not-a-source")
