"""Crop manifests, balance plans and the complementary merge."""

from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detfuse import (
    DEFAULT_BOOST,
    DISEASES,
    AnnotatedImage,
    BalancePlan,
    BoundingBox,
    CategoryTriple,
    ConfigError,
    CropAssignment,
    CropClassification,
    CropSet,
    CropVerdicts,
    DanglingCrop,
    Detection,
    DetectionSet,
    InvalidCategory,
    MalformedFile,
    MergeConfig,
    MissingImage,
    assign_crops,
    audit_balance,
    classifications_to_detections,
    merge_complementary,
    oversample_plan,
    parse_crop_classifications,
    read_crop_manifest,
    write_crop_classifications,
    write_crop_manifest,
)
from detfuse.geometry import _ID_RANGE

from conftest import HUGE, huge_id


def enum_det(x, y, w, h, score=0.9, image_id=1, quadrant=2, tooth=3) -> Detection:
    return Detection(
        image_id,
        BoundingBox(x, y, w, h),
        score,
        CategoryTriple(quadrant=quadrant, enumeration=tooth),
        "enumeration-model",
    )


IMAGES = [AnnotatedImage(1, 100, 100)]

#: Stands for a field left out of a record.
MISSING = object()


class TestAssignCrops:
    def test_padding_arithmetic(self):
        enums = DetectionSet([enum_det(40, 40, 20, 10)], "enumeration-model")
        crops = assign_crops(enums, IMAGES, pad_fraction=0.1)
        crop = crops[0]
        # 10% of 20 = 2 per side horizontally, 10% of 10 = 1 vertically
        assert crop.crop_box == BoundingBox(38, 39, 24, 12)
        assert crop.source_box == BoundingBox(40, 40, 20, 10)
        assert crop.tooth == (2, 3)
        assert crop.enum_score == 0.9

    def test_clamped_to_image(self):
        enums = DetectionSet([enum_det(0, 90, 20, 10)], "enumeration-model")
        crops = assign_crops(enums, IMAGES, pad_fraction=0.5)
        crop = crops[0].crop_box
        assert crop.x == 0  # left pad clipped at the border
        assert crop.y == 85
        assert crop.x + crop.w == 20 + 10  # right pad survives
        assert crop.y + crop.h == 100  # bottom pad clipped

    def test_zero_padding_identity(self):
        enums = DetectionSet([enum_det(10, 10, 30, 30)], "enumeration-model")
        crops = assign_crops(enums, IMAGES, pad_fraction=0.0)
        assert crops[0].crop_box == BoundingBox(10, 10, 30, 30)

    def test_unknown_image_raises(self):
        enums = DetectionSet([enum_det(0, 0, 10, 10, image_id=9)], "enumeration-model")
        with pytest.raises(MissingImage):
            assign_crops(enums, IMAGES, pad_fraction=0.1)

    def test_requires_position_axes(self):
        bare = Detection(
            1, BoundingBox(0, 0, 5, 5), 0.9, CategoryTriple(disease="caries"), "enumeration-model"
        )
        with pytest.raises(ValueError):
            assign_crops(DetectionSet([bare], "enumeration-model"), IMAGES, pad_fraction=0.1)

    def test_negative_padding_rejected(self):
        enums = DetectionSet([enum_det(0, 0, 10, 10)], "enumeration-model")
        with pytest.raises(ValueError):
            assign_crops(enums, IMAGES, pad_fraction=-0.1)

    @pytest.mark.parametrize("x", [150, 102])
    def test_a_tooth_outside_its_image_is_refused(self, x):
        """Its crop had no extent: the manifest was written, then refused by its reader."""
        enums = DetectionSet(
            [enum_det(10, 10, 20, 20), enum_det(x, 10, 20, 20, image_id="far")], "enumeration-model"
        )
        with pytest.raises(
            MalformedFile,
            match=r"^enumeration detection on image 'far' lies entirely outside the image$",
        ):
            assign_crops(enums, IMAGES + [AnnotatedImage("far", 100, 100)], pad_fraction=0.1)

    @pytest.mark.parametrize(
        "boxes,key,message",
        [
            ([[0.0, 0.0, 0.0, 5.0]], 2 * 45 + 3 * 5, "crop w[0] must be a number in (0, inf), got 0.0"),
            ([[0.0, 0.0, 5.0, 5.0]], 3 * 5 + 1, "quadrant[0] must be an integer in [0, 3], got -1"),
            ([[0.0, 0.0, 5.0, 5.0]], 2 * 45 + 1, "tooth[0] must be an integer in [0, 7], got -1"),
            (
                [[0.0, 0.0, 5.0, 5.0]] * 2, 2 * 45 + 3 * 5,
                "crop x, crop y, crop w, crop h, quadrant and tooth must be of one length, "
                "got [2, 2, 2, 2, 1, 1]",
            ),
        ],
    )
    def test_crop_columns_are_checked(self, boxes, key, message):
        """A crop of no extent, or a row without a quadrant or a tooth, is refused when built."""
        rows = DetectionSet([enum_det(0, 0, 5, 5)], "enumeration-model").columns
        rows = dataclasses.replace(rows, key=np.array([key]))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            CropSet(rows, np.array(boxes))


class TestBalance:
    def test_audit_from_dataset(self, tiny_scene):
        plan = audit_balance(tiny_scene)
        assert plan.counts["caries"] == 1
        assert plan.counts["impacted"] == 1
        assert plan.counts["deep-caries"] == 1
        assert plan.counts["periapical-lesion"] == 0
        assert plan.multipliers == {d: 1 for d in DISEASES}

    def test_default_boost_doubles_rare_classes(self):
        counts = {"caries": 10, "deep-caries": 4, "impacted": 7, "periapical-lesion": 3}
        plan = oversample_plan(counts)
        assert plan.planned() == {
            "caries": 10,
            "deep-caries": 8,
            "impacted": 7,
            "periapical-lesion": 6,
        }
        assert DEFAULT_BOOST == {"periapical-lesion": 2, "deep-caries": 2}

    def test_custom_boost(self):
        plan = oversample_plan({"caries": 5}, {"caries": 3})
        assert plan.planned()["caries"] == 15
        assert plan.planned()["impacted"] == 0

    def test_boost_validation(self):
        with pytest.raises(ValueError):
            oversample_plan({}, {"bad-disease": 2})
        with pytest.raises(ValueError):
            oversample_plan({}, {"caries": 0})
        with pytest.raises(ValueError):
            BalancePlan(multipliers={"caries": -1})
        for boost, named in (
            ({"caries": 1.5}, "multipliers['caries']"),
            ({"caries": "2"}, "multipliers['caries']"),
            ({"impacted": True}, "multipliers['impacted']"),
            ({"gum": 2, "caries": 0}, "unknown disease 'gum' in multipliers; multipliers['caries']"),
        ):
            with pytest.raises(ConfigError, match=re.escape(named)):
                oversample_plan({}, boost)


class TestClassificationsToDetections:
    CROPS = assign_crops(
        DetectionSet(
            [
                enum_det(1, 1, 10, 10, 0.9, image_id=1, quadrant=1, tooth=2),
                enum_det(21, 1, 10, 10, 0.8, image_id=1, quadrant=1, tooth=3),
                enum_det(1, 1, 10, 10, 0.75, image_id=2, quadrant=4, tooth=8),
            ],
            "enumeration-model",
        ),
        IMAGES + [AnnotatedImage(2, 100, 100)],
        pad_fraction=0.1,
    )

    def test_crops_are_viewed_as_assignments(self):
        assert list(self.CROPS) == [
            CropAssignment(1, BoundingBox(0, 0, 12, 12), (1, 2), 0.9, BoundingBox(1, 1, 10, 10)),
            CropAssignment(1, BoundingBox(20, 0, 12, 12), (1, 3), 0.8, BoundingBox(21, 1, 10, 10)),
            CropAssignment(2, BoundingBox(0, 0, 12, 12), (4, 8), 0.75, BoundingBox(1, 1, 10, 10)),
        ]
        assert self.CROPS[2].tooth == (4, 8)

    def test_conversion_rules(self):
        verdicts = [
            CropClassification(0, "caries", 0.9),
            CropClassification(1, "normal", 0.99),  # dropped: healthy verdict
            CropClassification(2, "impacted", 0.4),  # dropped: below min confidence
        ]
        dets = classifications_to_detections(self.CROPS, verdicts, min_confidence=0.5)
        assert len(dets) == 1
        d = dets.detections[0]
        assert d.source == "complementary"
        assert d.box == BoundingBox(1, 1, 10, 10)  # source box, not the padded crop
        assert d.score == 0.9 * 0.9
        assert d.category == CategoryTriple(1, 2, "caries")
        # universe spans all crops, including those without emitted detections
        assert dets.image_universe == frozenset({1, 2})

    def test_confidence_boundary_inclusive(self):
        verdicts = [CropClassification(0, "caries", 0.5)]
        dets = classifications_to_detections(self.CROPS, verdicts, min_confidence=0.5)
        assert len(dets) == 1

    def test_unknown_crop_id(self):
        with pytest.raises(DanglingCrop):
            classifications_to_detections(self.CROPS, [CropClassification(3, "caries", 0.9)])

    def test_duplicate_crop_id(self):
        verdicts = [CropClassification(0, "caries", 0.9), CropClassification(0, "normal", 0.9)]
        with pytest.raises(DanglingCrop):
            classifications_to_detections(self.CROPS, verdicts)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            CropClassification(0, "cavity", 0.9)
        with pytest.raises(ValueError):
            CropClassification(0, "caries", 1.1)

    @pytest.mark.parametrize("crop_id", ["a", 1.5, True, None, -1, 10**20, 2**63])
    def test_crop_id_must_be_an_int64_index(self, tmp_path, crop_id):
        """Each crop id here raised a bare TypeError or IndexError, or passed to DanglingCrop."""
        with pytest.raises(ConfigError, match="crop_id must be an integer in"):
            CropClassification(crop_id, "caries", 0.5)
        path = tmp_path / "cls.json"
        path.write_text(json.dumps([{"crop_id": crop_id, "label": "caries", "confidence": 0.5}]))
        with pytest.raises(MalformedFile, match=r"cls\.json \[0\]: crop_id must be an integer in"):
            parse_crop_classifications(path)

    def test_the_largest_crop_id_is_an_unknown_crop(self, tmp_path):
        path = tmp_path / "cls.json"
        write_crop_classifications([CropClassification(2**63 - 1, "caries", 0.5)], path)
        for verdicts in (parse_crop_classifications(path), list(parse_crop_classifications(path))):
            with pytest.raises(DanglingCrop, match="unknown crop 9223372036854775807"):
                classifications_to_detections(self.CROPS, verdicts)

    @pytest.mark.parametrize(
        "crop_ids,message",
        [
            ([0, 5, 0, 1, 1], "classification references unknown crop 5"),
            ([0, 1, 0, 5], "crop 0 classified more than once"),
            ([2, 7, 7], "classification references unknown crop 7"),
        ],
    )
    def test_the_first_offending_verdict_is_reported(self, crop_ids, message):
        verdicts = [CropClassification(i, "caries", 0.9) for i in crop_ids]
        with pytest.raises(DanglingCrop, match=f"^{message}$"):
            classifications_to_detections(self.CROPS, verdicts)

    def test_parsed_verdicts_convert_as_their_objects(self, tmp_path):
        """A ``CropVerdicts`` and the list of its views give the same rows and the same audit."""
        path = tmp_path / "cls.json"
        labels = ["caries", "normal", "impacted", "periapical-lesion"]
        write_crop_classifications(
            [CropClassification(i, label, c) for i, label, c in zip([2, 0, 1], labels, [0.9, 0.7, 0.5])],
            path,
        )
        verdicts = parse_crop_classifications(path)
        assert isinstance(verdicts, CropVerdicts) and len(verdicts) == 3
        assert verdicts[0] is verdicts[0]
        assert verdicts.label.tolist() == [1, 0, 3]
        parsed = classifications_to_detections(self.CROPS, verdicts)
        listed = classifications_to_detections(self.CROPS, list(verdicts))
        assert list(parsed.detections) == list(listed.detections)
        assert [d.category.disease for d in parsed.detections] == ["caries", "impacted"]

    @pytest.mark.parametrize(
        "crop_id,label,confidence,message",
        [
            ([0, 1], [1, 2], [0.5, float("nan")], "confidence[1] must be a number in [0, 1], got nan"),
            ([0, 1], [1, 2], [0.5, float("inf")], "confidence[1] must be a number in [0, 1], got inf"),
            ([0, 1], [1, 2], [1.5, 0.5], "confidence[0] must be a number in [0, 1], got 1.5"),
            ([0, 1], [1, 5], [0.5, 0.5], "label[1] must be an integer in [0, 4], got 5"),
            ([0, 1], [-1, 2], [0.5, 0.5], "label[0] must be an integer in [0, 4], got -1"),
            ([0, -1], [1, 2], [0.5, 0.5], f"crop_id[1] must be an integer in {_ID_RANGE}, got -1"),
            (
                [0, -1], [1, 9], [0.5, -0.5],
                f"crop_id[1] must be an integer in {_ID_RANGE}, got -1; "
                "label[1] must be an integer in [0, 4], got 9; "
                "confidence[1] must be a number in [0, 1], got -0.5",
            ),
            ([0, 1], [1], [0.5, 0.5], "crop_id, label and confidence must be of one length, got [2, 1, 2]"),
        ],
    )
    def test_verdict_columns_are_checked(self, tmp_path, crop_id, label, confidence, message):
        """A bad row of the columns is one ConfigError naming the first bad row, before
        anything could write it: a NaN confidence was written as ``nan``, which no reader takes."""
        columns = np.array(crop_id, np.int64), np.array(label, np.int8), np.array(confidence)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            CropVerdicts(*columns)


def diagnoses(source: str):
    """Lists of diagnoses on grid boxes over two images."""
    coord = st.integers(0, 4).map(lambda v: 5 * v)
    extent = st.integers(1, 4).map(lambda v: 5 * v)
    diagnosis = st.builds(
        lambda image_id, x, y, w, h, disease: Detection(
            image_id, BoundingBox(x, y, w, h), 0.5, CategoryTriple(1, 1, disease), source
        ),
        st.integers(1, 2), coord, coord, extent, extent, st.sampled_from(DISEASES),
    )
    return st.lists(diagnosis, max_size=8)


class TestMerge:
    def integrated(self, x, disease="caries", image_id=1):
        return Detection(
            image_id, BoundingBox(x, 0, 10, 10), 0.5, CategoryTriple(1, 1, disease), "fused", 0
        )

    def integrated_set(self, x, disease="caries", image_id=1):
        return DetectionSet([self.integrated(x, disease, image_id)], "fused")

    def comp_set(self, x, disease="caries", image_id=1):
        det = Detection(
            image_id,
            BoundingBox(x, 0, 10, 10),
            0.4,
            CategoryTriple(1, 2, disease),
            "complementary",
        )
        return DetectionSet([det], "complementary")

    def test_same_disease_overlap_suppressed(self):
        merged = merge_complementary(self.integrated_set(0), self.comp_set(1))
        assert len(merged) == 1  # iou 9/11 >= 0.5 and same disease

    def test_different_disease_overlap_kept(self):
        merged = merge_complementary(self.integrated_set(0), self.comp_set(1, "impacted"))
        assert len(merged) == 2

    def test_low_overlap_kept(self):
        merged = merge_complementary(self.integrated_set(0), self.comp_set(6))
        # iou = 4/16 = 0.25 < 0.5: kept even with the same disease
        assert len(merged) == 2

    def test_other_image_no_suppression(self):
        merged = merge_complementary(self.integrated_set(0), self.comp_set(1, image_id=2))
        assert len(merged) == 2

    def test_exact_threshold_suppresses(self):
        # x offset 10/3 gives iou exactly... use iou 1/3 with threshold 1/3
        merged = merge_complementary(
            self.integrated_set(0), self.comp_set(5), MergeConfig(overlap_iou=1 / 3)
        )
        assert len(merged) == 1  # iou(offset 5) = 5/15 = 1/3 >= 1/3

    def test_integrated_passes_through_untouched(self):
        base = [self.integrated(0), self.integrated(50, "impacted")]
        comp = self.comp_set(100)
        merged = merge_complementary(DetectionSet(base, "fused"), comp)
        assert list(merged[:2]) == base
        assert len(merged) == 3
        assert merged[2] == comp.detections[0]  # appended as it is
        assert merged[2].matched_enum_id is None

    @given(
        integrated=diagnoses("fused"),
        comp=diagnoses("complementary"),
        overlap_iou=st.sampled_from([0.0, 1 / 3, 0.5, 1.0]),
    )
    def test_merging_twice_adds_nothing(self, integrated, comp, overlap_iou):
        """Each kept candidate has IoU 1 with itself, so a second merge suppresses it."""
        cfg = MergeConfig(overlap_iou=overlap_iou)
        comp_set = DetectionSet(comp, "complementary")
        merged = merge_complementary(DetectionSet(integrated, "fused"), comp_set, cfg)
        assert merge_complementary(merged, comp_set, cfg) == merged


class TestCropIO:
    def test_manifest_roundtrip(self, tmp_path):
        enums = DetectionSet(
            [enum_det(40, 40, 20, 10), enum_det(10, 10, 8, 8, score=0.8, quadrant=4, tooth=1)],
            "enumeration-model",
        )
        crops = assign_crops(enums, IMAGES, pad_fraction=0.25)
        path = tmp_path / "crops.json"
        write_crop_manifest(crops, path)
        assert list(read_crop_manifest(path)) == list(crops)

    def test_manifest_requires_dense_ids(self, tmp_path):
        path = tmp_path / "crops.json"
        crops = assign_crops(
            DetectionSet([enum_det(0, 0, 10, 10)], "enumeration-model"), IMAGES, 0.0
        )
        write_crop_manifest(crops, path)
        records = json.loads(path.read_text())
        records[0]["crop_id"] = 5
        path.write_text(json.dumps(records))
        with pytest.raises(MalformedFile):
            read_crop_manifest(path)

    MANIFEST_RECORD = {
        "crop_id": 0,
        "image_id": 1,
        "crop_bbox": [1, 2, 3, 4],
        "source_bbox": [1, 2, 3, 4],
        "category_id_1": 0,
        "category_id_2": 1,
        "enum_score": 0.5,
    }

    @pytest.mark.parametrize(
        "key,value,error",
        [
            ("image_id", [1], MalformedFile),
            ("image_id", True, MalformedFile),
            ("image_id", 1.5, MalformedFile),
            ("image_id", None, MalformedFile),
            ("image_id", MISSING, MalformedFile),
            ("crop_id", True, MalformedFile),
            ("crop_bbox", [0, 0, True, 4], MalformedFile),
            ("source_bbox", [0, 0, 3], MalformedFile),
            ("category_id_1", True, MalformedFile),
            ("category_id_1", 4, InvalidCategory),
            ("category_id_2", 2.0, MalformedFile),
            ("category_id_2", MISSING, MalformedFile),
        ],
    )
    def test_manifest_rejects_a_bad_field(self, tmp_path, key, value, error):
        """The second record, crop 1, breaks one rule; the error names it."""
        record = {**self.MANIFEST_RECORD, "crop_id": 1, key: value}
        if value is MISSING:
            del record[key]
        path = tmp_path / "crops.json"
        path.write_text(json.dumps([self.MANIFEST_RECORD, record]))
        with pytest.raises(error, match=r"crops\.json \[1\]: "):
            read_crop_manifest(path)

    def test_classifications_roundtrip(self, tmp_path):
        items = [CropClassification(0, "normal", 0.75), CropClassification(1, "caries", 0.5)]
        path = tmp_path / "cls.json"
        write_crop_classifications(items, path)
        assert list(parse_crop_classifications(path)) == items

    def test_classifications_with_numpy_values_are_written(self, tmp_path):
        """numpy crop ids and confidences, which the value rule accepts, are written as numbers."""
        items = [
            CropClassification(np.int64(3), "caries", np.float32(0.5)),
            CropClassification(0, "normal", 1),
            CropClassification(1, "impacted", np.float64(0.25)),
        ]
        path = tmp_path / "cls.json"
        write_crop_classifications(items, path)
        assert path.read_text() == (
            '[\n{"crop_id":3,"label":"caries","confidence":0.5},\n'
            '{"crop_id":0,"label":"normal","confidence":1.0},\n'
            '{"crop_id":1,"label":"impacted","confidence":0.25}\n]\n'
        )

    @pytest.mark.parametrize("confidence", [HUGE, -HUGE], ids=huge_id)
    def test_confidence_must_be_a_finite_number(self, tmp_path, confidence):
        path = tmp_path / "cls.json"
        good = {"crop_id": 0, "label": "caries", "confidence": 0.5}
        path.write_text(json.dumps([good, {**good, "confidence": confidence}]))
        with pytest.raises(MalformedFile, match=r"cls\.json \[1\]: confidence must be a number"):
            parse_crop_classifications(path)

    def test_classification_rejections(self, tmp_path):
        path = tmp_path / "cls.json"
        for bad in (
            {"crop_id": -1, "label": "caries", "confidence": 0.5},
            {"crop_id": 0, "label": "bogus", "confidence": 0.5},
            {"crop_id": 0, "label": "caries", "confidence": 2.0},
            {"crop_id": True, "label": "caries", "confidence": 0.5},
        ):
            path.write_text(json.dumps([bad]))
            with pytest.raises(MalformedFile):
                parse_crop_classifications(path)
