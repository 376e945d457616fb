"""Closest-center integration, cross-checked against a brute-force matcher."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detfuse import (
    DISEASES,
    DROP,
    BoundingBox,
    CategoryTriple,
    Detection,
    DetectionSet,
    IntegrationConfig,
    as_detection_set,
    filter_enumeration,
    integrate,
    parse_detections,
    write_integrated,
)
from detfuse.integrate import _closest

from conftest import grid_box


def enum_det(x, y, score, image_id=1, quadrant=1, tooth=1) -> Detection:
    return Detection(
        image_id,
        BoundingBox(x, y, 10, 10),
        score,
        CategoryTriple(quadrant=quadrant, enumeration=tooth),
        "enumeration-model",
    )


def diag_det(x, y, score, image_id=1, disease="caries") -> Detection:
    return Detection(
        image_id, BoundingBox(x, y, 10, 10), score, CategoryTriple(disease=disease), "fused"
    )


def enum_set(dets, universe=None) -> DetectionSet:
    return DetectionSet(dets, "enumeration-model", universe)


def diag_set(dets, universe=None) -> DetectionSet:
    return DetectionSet(dets, "fused", universe)


def brute_force_match(enums, diags, max_match_distance=None):
    """Reference matcher: exhaustive same-image minimum with explicit ties."""
    out = []
    for i, diag in enumerate(diags):
        dcx = diag.box.x + diag.box.w / 2.0
        dcy = diag.box.y + diag.box.h / 2.0
        best_key = None
        best_j = None
        for j, e in enumerate(enums):
            if e.image_id != diag.image_id:
                continue
            dx = dcx - (e.box.x + e.box.w / 2.0)
            dy = dcy - (e.box.y + e.box.h / 2.0)
            key = (dx * dx + dy * dy, -e.score, j)
            if best_key is None or key < best_key:
                best_key = key
                best_j = j
        if best_j is not None and max_match_distance is not None:
            if math.sqrt(best_key[0]) > max_match_distance:
                best_j = None
        out.append((i, best_j))
    return out


def matched_enum_ids(enums, diags, cfg=IntegrationConfig()):
    """The enumeration index each diagnosis detection is matched to, or None."""
    return [d.matched_enum_id for d in integrate(enums, diags, cfg)]


class TestMatching:
    def test_simple_nearest(self):
        enums = enum_set([enum_det(0, 0, 0.9), enum_det(100, 0, 0.9)])
        diags = diag_set([diag_det(90, 0, 0.5)])
        assert matched_enum_ids(enums, diags) == [1]

    def test_matching_is_per_image(self):
        enums = enum_set([enum_det(0, 0, 0.9, image_id=1), enum_det(90, 0, 0.9, image_id=2)])
        diags = diag_set([diag_det(90, 0, 0.5, image_id=1)])
        # the nearer box lives on another image and must be ignored
        assert matched_enum_ids(enums, diags) == [0]

    def test_no_enums_on_image(self):
        enums = enum_set([enum_det(0, 0, 0.9, image_id=2)], universe={1, 2})
        diags = diag_set([diag_det(0, 0, 0.5, image_id=1)], universe={1, 2})
        assert matched_enum_ids(enums, diags) == [None]

    def test_distance_tie_goes_to_higher_score(self):
        # centers (5,5) and (15,5); diag center (10,5) is exactly between
        enums = enum_set([enum_det(0, 0, 0.8), enum_det(10, 0, 0.9)])
        diags = diag_set([diag_det(5, 0, 0.5)])
        assert matched_enum_ids(enums, diags) == [1]

    def test_distance_and_score_tie_goes_to_lower_index(self):
        enums = enum_set([enum_det(0, 0, 0.9), enum_det(10, 0, 0.9)])
        diags = diag_set([diag_det(5, 0, 0.5)])
        assert matched_enum_ids(enums, diags) == [0]

    def test_many_to_one_is_allowed(self):
        enums = enum_set([enum_det(0, 0, 0.9), enum_det(200, 0, 0.9)])
        diags = diag_set([diag_det(0, 0, 0.5), diag_det(10, 0, 0.5)])
        assert matched_enum_ids(enums, diags) == [0, 0]

    def test_max_match_distance(self):
        enums = enum_set([enum_det(0, 0, 0.9)])
        diags = diag_set([diag_det(30, 40, 0.5)])  # center distance exactly 50
        near = IntegrationConfig(max_match_distance=50.0)
        far = IntegrationConfig(max_match_distance=49.9)
        assert matched_enum_ids(enums, diags, near) == [0]
        assert matched_enum_ids(enums, diags, far) == [None]

    def test_fuzzed_against_brute_force(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            n_img = int(rng.integers(1, 4))
            enums, diags = [], []
            for img in range(1, n_img + 1):
                for _ in range(int(rng.integers(0, 6))):
                    enums.append(
                        Detection(
                            img,
                            grid_box(rng),
                            int(rng.integers(0, 21)) / 20,
                            CategoryTriple(
                                quadrant=int(rng.integers(1, 5)),
                                enumeration=int(rng.integers(1, 9)),
                            ),
                            "enumeration-model",
                        )
                    )
                for _ in range(int(rng.integers(0, 6))):
                    diags.append(
                        Detection(
                            img,
                            grid_box(rng),
                            int(rng.integers(0, 21)) / 20,
                            CategoryTriple(disease=DISEASES[int(rng.integers(0, 4))]),
                            "fused",
                        )
                    )
            universe = set(range(1, n_img + 1))
            max_dist = None if rng.random() < 0.5 else float(rng.integers(5, 80))
            teeth = enum_set(enums, universe)
            kept = rng.random(len(enums)) < 0.7  # the teeth a gate keeps
            order = teeth._score_order
            rows = order[kept[order]]  # in score order, as ``integrate`` passes them
            got = _closest(teeth.columns, rows, diag_set(diags, universe).columns, max_dist)
            want = brute_force_match([enums[r] for r in rows], diags, max_dist)
            assert got.tolist() == [-1 if j is None else rows[j] for _, j in want]


class TestIntegrate:
    def test_gate_is_strict(self):
        enums = enum_set([enum_det(0, 0, 0.7)])  # exactly at the gate: excluded
        diags = diag_set([diag_det(0, 0, 0.5)])
        out = integrate(enums, diags, IntegrationConfig(enum_score_gate=0.7))
        assert len(out) == 1
        assert out[0].matched_enum_id is None
        assert out[0].category == CategoryTriple(disease="caries")

    def test_matched_output_fields(self):
        enums = enum_set([enum_det(0, 0, 0.6), enum_det(0, 0, 0.9, quadrant=2, tooth=5)])
        diags = diag_set([diag_det(2, 2, 0.5, disease="impacted")])
        out = integrate(enums, diags)
        assert len(out) == 1
        got = out[0]
        assert got.box == diags.detections[0].box  # diagnosis geometry kept
        assert got.score == 0.9 * 0.5
        assert got.category == CategoryTriple(2, 5, "impacted")
        # index refers to the pre-gate enumeration stream
        assert got.matched_enum_id == 1

    def test_score_product_is_exact(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            es = float(rng.uniform(0.7001, 1.0))
            ds_ = float(rng.uniform(0.0, 1.0))
            enums = enum_set([enum_det(0, 0, es)])
            diags = diag_set([diag_det(1, 1, ds_)])
            out = integrate(enums, diags)
            assert out[0].score == es * ds_

    def test_unmatched_policy_drop(self):
        enums = enum_set([], universe={1})
        diags = diag_set([diag_det(0, 0, 0.5)], universe={1})
        assert len(integrate(enums, diags, IntegrationConfig(unmatched_policy=DROP))) == 0

    def test_unmatched_policy_keep(self):
        enums = enum_set([], universe={1})
        diags = diag_set([diag_det(0, 0, 0.5)], universe={1})
        out = integrate(enums, diags)
        assert len(out) == 1
        assert out[0].score == 0.5
        assert out[0].category.quadrant is None

    def test_diag_without_disease_rejected(self):
        enums = enum_set([enum_det(0, 0, 0.9)])
        bad = Detection(
            1, BoundingBox(0, 0, 5, 5), 0.5, CategoryTriple(quadrant=1), "fused"
        )
        with pytest.raises(ValueError):
            integrate(enums, diag_set([bad]))

    def test_filter_enumeration(self):
        enums = enum_set([enum_det(0, 0, 0.7), enum_det(0, 0, 0.71), enum_det(0, 0, 0.1)])
        kept = filter_enumeration(enums, 0.7)
        assert [d.score for d in kept] == [0.71]
        assert kept.source == "enumeration-model"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegrationConfig(enum_score_gate=1.2)
        with pytest.raises(ValueError):
            IntegrationConfig(max_match_distance=-1.0)
        with pytest.raises(ValueError):
            IntegrationConfig(unmatched_policy="invent")


class TestIntegratedIO:
    def test_roundtrip(self, tmp_path):
        enums = enum_set([enum_det(0, 0, 0.9, quadrant=3, tooth=4)], universe={1})
        diags = diag_set([diag_det(2, 2, 0.5), diag_det(400, 400, 0.25)], universe={1})
        out = integrate(enums, diags)
        path = tmp_path / "integrated.json"
        write_integrated(out, path)
        back = parse_detections(path, "fused")
        assert list(back) == list(out)

    def test_as_detection_set(self):
        items = [
            Detection(
                1, BoundingBox(0, 0, 5, 5), 0.25, CategoryTriple(1, 2, "caries"), "fused", 0
            )
        ]
        dets = as_detection_set(DetectionSet(items, "fused"), "fused", {1, 2})
        assert dets.source == "fused"
        assert dets.image_universe == frozenset({1, 2})
        assert dets.detections[0].score == 0.25
        assert dets.detections[0].category == CategoryTriple(1, 2, "caries")
        assert dets.detections[0].matched_enum_id is None


#: Grid coordinates and extents: exact center-distance ties are common.
grid_coord = st.integers(0, 4).map(lambda v: 5 * v)
grid_extent = st.integers(1, 3).map(lambda v: 5 * v)

grid_teeth = st.lists(
    st.builds(
        lambda image_id, x, y, w, h, score, q, t: Detection(
            image_id, BoundingBox(x, y, w, h), score, CategoryTriple(q, t), "enumeration-model"
        ),
        st.integers(1, 2),
        grid_coord,
        grid_coord,
        grid_extent,
        grid_extent,
        st.sampled_from([0.5, 0.7, 0.8, 0.9, 1.0]),
        st.integers(1, 4),
        st.integers(1, 8),
    ),
    max_size=10,
)

grid_findings = st.lists(
    st.builds(
        lambda image_id, x, y, w, h, score, disease: Detection(
            image_id, BoundingBox(x, y, w, h), score, CategoryTriple(disease=disease), "fused"
        ),
        st.integers(1, 2),
        grid_coord,
        grid_coord,
        grid_extent,
        grid_extent,
        st.sampled_from([0.1, 0.5, 1.0]),
        st.sampled_from(DISEASES),
    ),
    max_size=10,
)


class TestIntegrationProperties:
    @given(
        teeth=grid_teeth,
        findings=grid_findings,
        gate=st.sampled_from([0.0, 0.7, 0.85]),
        max_distance=st.none() | st.sampled_from([5.0, 7.5, 20.0]),
    )
    def test_every_diagnosis_gives_one_output_at_the_nearest_gated_tooth(
        self, teeth, findings, gate, max_distance
    ):
        """Many-to-one and total: checked against an exhaustive search per diagnosis."""
        cfg = IntegrationConfig(enum_score_gate=gate, max_match_distance=max_distance)
        out = integrate(enum_set(teeth, {1, 2}), diag_set(findings, {1, 2}), cfg)
        assert len(out) == len(findings)
        for item, diag in zip(out, findings):
            dcx, dcy = diag.box.x + diag.box.w / 2.0, diag.box.y + diag.box.h / 2.0
            candidates = [
                ((dcx - (e.box.x + e.box.w / 2.0)) ** 2 + (dcy - (e.box.y + e.box.h / 2.0)) ** 2,
                 -e.score, j)
                for j, e in enumerate(teeth)
                if e.image_id == diag.image_id and e.score > gate
            ]
            best = min(candidates, default=None)  # distance, then higher score, then lower index
            assert (item.image_id, item.box, item.source) == (diag.image_id, diag.box, "fused")
            if best is None or (max_distance is not None and math.sqrt(best[0]) > max_distance):
                assert item.matched_enum_id is None
                assert item.category == CategoryTriple(disease=diag.category.disease)
                assert item.score == diag.score
                continue
            tooth = teeth[item.matched_enum_id]
            assert item.matched_enum_id == best[2]
            assert tooth.image_id == diag.image_id and tooth.score > gate
            assert item.category == CategoryTriple(
                tooth.category.quadrant, tooth.category.enumeration, diag.category.disease
            )
            assert item.score == tooth.score * diag.score
