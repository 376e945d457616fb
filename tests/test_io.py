"""File formats, validation and deterministic splitting."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from click.testing import CliRunner
from hypothesis import strategies as st

from detfuse import (
    CROP_LABELS,
    DISEASES,
    AnnotatedDataset,
    AnnotatedImage,
    AxisUnavailable,
    BoundingBox,
    CategoryTriple,
    ConfigError,
    CountMismatch,
    CropClassification,
    CropSet,
    CropVerdicts,
    DanglingReference,
    DetfuseError,
    Detection,
    DetectionSet,
    GroundTruthAnnotation,
    InvalidCategory,
    IntegrationConfig,
    InvalidScore,
    MalformedFile,
    MergeConfig,
    MissingImage,
    ScenePlan,
    SplitSpec,
    as_detection_set,
    assign_crops,
    evaluate,
    generate_scene,
    integrate,
    load_profile,
    merge_complementary,
    parse_crop_classifications,
    parse_detections,
    parse_ground_truth,
    read_crop_manifest,
    simulate_detector,
    split_ids,
    subset_dataset,
    write_crop_classifications,
    write_crop_manifest,
    write_detections,
    write_ground_truth,
    write_id_list,
    write_integrated,
    write_pr_csv,
)
import detfuse.detections as detections_module
from detfuse.cli import main
from detfuse.detections import (
    CATEGORY_KEYS, Columns, _category_key, _encode_compact, _json_floats, category_codes, category_of
)
from detfuse.geometry import source_code
from detfuse.io import (
    _MAX_DEPTH, _dump_json, _exceeding, _load_json, _orjson_may_differ, _write_lines,
)

from conftest import HUGE, huge_id, perfect_detections


def gt_payload() -> dict:
    return {
        "images": [
            {"id": 1, "width": 1000, "height": 500, "file_name": "a.png"},
            {"id": 2, "width": 1000, "height": 500, "file_name": "b.png"},
        ],
        "annotations": [
            {
                "id": 0,
                "image_id": 1,
                "bbox": [100, 100, 80, 120],
                "category_id_1": 0,
                "category_id_2": 2,
                "category_id_3": 0,
            },
            {
                "id": 1,
                "image_id": 2,
                "bbox": [500, 200, 90, 110],
                "category_id_1": 3,
                "category_id_2": 1,
                "segmentation": [[1, 2, 3, 4]],
            },
        ],
    }


UNIT = BoundingBox(0, 0, 1, 1)
CARIES = CategoryTriple(disease="caries")


def write_payload(tmp_path, payload, name="gt.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestGroundTruthParsing:
    def test_happy_path(self, tmp_path):
        ds = parse_ground_truth(write_payload(tmp_path, gt_payload()))
        assert len(ds) == 2
        assert len(ds.annotations) == 2
        first = ds.annotations[0]
        assert first.category == CategoryTriple(1, 3, "caries")
        assert first.box == BoundingBox(100, 100, 80, 120)
        assert ds.annotations[1].category == CategoryTriple(4, 2, None)
        assert ds.annotations[1].mask_payload == [[1, 2, 3, 4]]

    def test_bare_product_category(self, tmp_path):
        payload = gt_payload()
        payload["annotations"][0] = {
            "image_id": 1,
            "bbox": [10, 10, 5, 5],
            "category_id": 17,  # quadrant 3, tooth 2
        }
        ds = parse_ground_truth(write_payload(tmp_path, payload))
        assert ds.annotations[0].category == CategoryTriple(3, 2, None)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MalformedFile):
            parse_ground_truth(path)

    def test_missing_sections(self, tmp_path):
        with pytest.raises(MalformedFile):
            parse_ground_truth(write_payload(tmp_path, {"images": []}))

    def test_dangling_image_reference(self, tmp_path):
        payload = gt_payload()
        payload["annotations"][0]["image_id"] = 99
        with pytest.raises(DanglingReference):
            parse_ground_truth(write_payload(tmp_path, payload))

    def test_duplicate_image_ids(self, tmp_path):
        payload = gt_payload()
        payload["images"][1]["id"] = 1
        with pytest.raises(MalformedFile):
            parse_ground_truth(write_payload(tmp_path, payload))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda a: a.__setitem__("bbox", [0, 0, 0, 10]),
            lambda a: a.__setitem__("bbox", [0, 0, 10]),
            lambda a: a.__setitem__("bbox", [0, 0, float("nan"), 10]),
            lambda a: a.__setitem__("bbox", [0, 0, True, 10]),
            lambda a: a.pop("bbox"),
        ],
    )
    def test_bad_boxes(self, tmp_path, mutate):
        payload = gt_payload()
        mutate(payload["annotations"][0])
        with pytest.raises(MalformedFile):
            parse_ground_truth(write_payload(tmp_path, payload))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("category_id_1", 4),
            ("category_id_1", -1),
            ("category_id_2", 8),
            ("category_id_3", 4),
            ("category_id_1", True),
            ("category_id_1", "0"),
        ],
    )
    def test_bad_category_ids(self, tmp_path, field, value):
        """A code out of range is InvalidCategory; one that is no integer is MalformedFile."""
        payload = gt_payload()
        payload["annotations"][0][field] = value
        with pytest.raises(InvalidCategory if type(value) is int else MalformedFile):
            parse_ground_truth(write_payload(tmp_path, payload))

    def test_no_category_fields(self, tmp_path):
        payload = gt_payload()
        payload["annotations"][0] = {"image_id": 1, "bbox": [0, 0, 5, 5]}
        with pytest.raises(MalformedFile):
            parse_ground_truth(write_payload(tmp_path, payload))

    def test_out_of_bounds_box_clamped(self, tmp_path, caplog):
        payload = gt_payload()
        payload["annotations"][0]["bbox"] = [950, 450, 100, 100]
        with caplog.at_level("WARNING"):
            ds = parse_ground_truth(write_payload(tmp_path, payload))
        assert ds.annotations[0].box == BoundingBox(950, 450, 50, 50)
        assert any("clamped" in r.message for r in caplog.records)

    def test_clamped_boxes_give_one_warning(self, tmp_path, caplog):
        payload = gt_payload()
        payload["annotations"][0]["bbox"] = [950, 450, 100, 100]
        payload["annotations"][1]["bbox"] = [-10, 0, 50, 50]
        payload["annotations"].append(
            {"image_id": 2, "bbox": [0, 480, 20, 40], "category_id_3": 1}
        )
        with caplog.at_level("WARNING"):
            parse_ground_truth(write_payload(tmp_path, payload))
        warnings = [r for r in caplog.records if r.name == "detfuse.io"]
        assert len(warnings) == 1
        assert "3 boxes" in warnings[0].message
        assert "annotations[0]" in warnings[0].message
        assert "exceeds the 1000x500 image" in warnings[0].message  # each extent as the file holds it

    @pytest.mark.parametrize("width,height", [(3, 4), (3.0, 4.5), (2**64, 1e-05)])
    def test_extents_keep_their_json_values(self, tmp_path, width, height):
        """An extent is read as the file holds it, an int or a float, so writing what was read
        gives the file's bytes again: ``"width": 3`` stayed ``3`` only on the first write."""
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        ds = AnnotatedDataset._from_columns(
            [AnnotatedImage(1, width, height)], np.array([0], np.int32),
            np.array([[0.0, 0.0, 1.0, 1e-05]]), np.array([1]), [None],
        )
        write_ground_truth(ds, first)
        back = parse_ground_truth(first)
        assert [(type(im.width), im.width, type(im.height), im.height) for im in back.images] == [
            (type(width), width, type(height), height)
        ]
        write_ground_truth(back, second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("key", ["width", "height"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), HUGE], ids=huge_id)
    def test_image_extent_must_be_a_finite_number(self, tmp_path, key, value):
        payload = gt_payload()
        payload["images"][1][key] = value
        with pytest.raises(MalformedFile, match=rf"images\[1\]: {key} must be a number in \(0, inf\)"):
            parse_ground_truth(write_payload(tmp_path, payload))

    def test_fully_outside_box_rejected(self, tmp_path):
        payload = gt_payload()
        payload["annotations"][0]["bbox"] = [2000, 0, 10, 10]
        with pytest.raises(MalformedFile):
            parse_ground_truth(write_payload(tmp_path, payload))

    def test_roundtrip_preserves_everything(self, tmp_path, tiny_scene):
        path = tmp_path / "round.json"
        write_ground_truth(tiny_scene, path)
        back = parse_ground_truth(path)
        assert back.images == tiny_scene.images
        assert len(back.annotations) == len(tiny_scene.annotations)
        for a, b in zip(back.annotations, tiny_scene.annotations):
            assert a.image_id == b.image_id
            assert a.box == b.box
            assert a.category == b.category

    def test_mask_payload_roundtrip(self, tmp_path):
        ds = parse_ground_truth(write_payload(tmp_path, gt_payload()))
        out = tmp_path / "again.json"
        write_ground_truth(ds, out)
        raw = json.loads(out.read_text())
        assert raw["annotations"][1]["segmentation"] == [[1, 2, 3, 4]]
        assert "segmentation" not in raw["annotations"][0]


class TestDetectionParsing:
    def detections_payload(self):
        return [
            {"image_id": 1, "bbox": [10, 10, 40, 40], "score": 0.9, "category_id": 2},
            {"image_id": 2, "bbox": [20, 20, 30, 30], "score": 0.25, "category_id": 0},
        ]

    def test_disease_mode_for_diagnosis_sources(self, tmp_path):
        path = write_payload(tmp_path, self.detections_payload(), "dets.json")
        dets = parse_detections(path, "diagnosis-A")
        assert dets.source == "diagnosis-A"
        assert dets.detections[0].category == CategoryTriple(disease="impacted")
        assert dets.detections[1].category == CategoryTriple(disease="caries")

    def test_a_directory_cannot_be_read(self, tmp_path):
        with pytest.raises(MalformedFile, match=f"cannot read {re.escape(str(tmp_path))}: "):
            parse_detections(tmp_path, "fused")

    def test_product_mode_for_enumeration_source(self, tmp_path):
        path = write_payload(tmp_path, self.detections_payload(), "dets.json")
        dets = parse_detections(path, "enumeration-model")
        assert dets.detections[0].category == CategoryTriple(quadrant=1, enumeration=3)

    def test_bare_id_forbidden_for_fused(self, tmp_path):
        path = write_payload(tmp_path, self.detections_payload(), "dets.json")
        with pytest.raises(MalformedFile):
            parse_detections(path, "fused")

    def test_triple_fields_work_for_any_source(self, tmp_path):
        payload = [
            {
                "image_id": 1,
                "bbox": [0, 0, 5, 5],
                "score": 0.5,
                "category_id_1": 1,
                "category_id_2": 4,
                "category_id_3": 3,
            }
        ]
        dets = parse_detections(write_payload(tmp_path, payload, "d.json"), "fused")
        assert dets.detections[0].category == CategoryTriple(2, 5, "periapical-lesion")

    @pytest.mark.parametrize("score", [-0.1, 1.5, float("nan"), float("inf"), HUGE], ids=huge_id)
    def test_invalid_scores(self, tmp_path, score):
        payload = [{"image_id": 1, "bbox": [0, 0, 5, 5], "score": score, "category_id": 0}]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidScore):
            parse_detections(path, "diagnosis-A")

    def test_score_must_be_number(self, tmp_path):
        payload = [{"image_id": 1, "bbox": [0, 0, 5, 5], "score": "high", "category_id": 0}]
        with pytest.raises(MalformedFile):
            parse_detections(write_payload(tmp_path, payload, "d.json"), "diagnosis-A")

    def test_universe_enforcement(self, tmp_path):
        path = write_payload(tmp_path, self.detections_payload(), "d.json")
        with pytest.raises(DanglingReference):
            parse_detections(path, "diagnosis-A", image_universe={1})
        with pytest.raises(DanglingReference):
            parse_detections(path, "diagnosis-A", image_universe=set())
        dets = parse_detections(path, "diagnosis-A", image_universe={1, 2, 3})
        assert dets.image_universe == frozenset({1, 2, 3})

    def test_universe_derived_when_absent(self, tmp_path):
        path = write_payload(tmp_path, self.detections_payload(), "d.json")
        dets = parse_detections(path, "diagnosis-A")
        assert dets.image_universe == frozenset({1, 2})

    def test_not_an_array(self, tmp_path):
        with pytest.raises(MalformedFile):
            parse_detections(write_payload(tmp_path, {"a": 1}, "d.json"), "diagnosis-A")

    def test_roundtrip(self, tmp_path, tiny_scene):
        dets = perfect_detections(tiny_scene)
        path = tmp_path / "dets.json"
        write_detections(dets, path)
        back = parse_detections(path, "fused", dets.image_universe)
        assert back.detections == dets.detections

    def test_unknown_source_rejected(self, tmp_path):
        path = write_payload(tmp_path, [], "d.json")
        with pytest.raises(ValueError):
            parse_detections(path, "mystery-model")

    @pytest.mark.parametrize("link", ["x", -1, True, 1.5])
    def test_bad_matched_enum_id(self, tmp_path, link):
        payload = self.detections_payload()
        payload[1]["matched_enum_id"] = link
        path = write_payload(tmp_path, payload, "d.json")
        with pytest.raises(MalformedFile, match=r"d\.json \[1\]: matched_enum_id"):
            parse_detections(path, "diagnosis-A")


#: Triples, each with the category it stands for, that a record may hold beside a bare id.
TRIPLES_BESIDE_BARE = [
    ({"category_id_1": 1, "category_id_2": 4}, CategoryTriple(2, 5)),
    ({"category_id_3": 2}, CategoryTriple(disease="impacted")),
    ({"category_id_1": 0, "category_id_2": 7, "category_id_3": 0}, CategoryTriple(1, 8, "caries")),
]


class TestTripleBesideBareId:
    """A record that holds a triple ignores its bare ``category_id``, in range or not, also
    when other records of the file are read by their bare id."""

    @pytest.mark.parametrize("bare", [2, 31, 99, -1, "x", None])
    @pytest.mark.parametrize(
        "source,decoded",
        [
            ("enumeration-model", CategoryTriple(1, 2)),
            ("diagnosis-A", CategoryTriple(disease="deep-caries")),
            ("fused", None),
        ],
    )
    def test_detection_file(self, tmp_path, source, decoded, bare):
        record = {"image_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}
        records = [{**record, **triple, "category_id": bare} for triple, _ in TRIPLES_BESIDE_BARE]
        if decoded is not None:  # a stream that reads bare ids; "fused" forbids them
            records.insert(1, {**record, "category_id": 1})
        dets = parse_detections(write_payload(tmp_path, records, "d.json"), source)
        expected = [category for _, category in TRIPLES_BESIDE_BARE]
        if decoded is not None:
            expected.insert(1, decoded)
        assert [d.category for d in dets] == expected

    @pytest.mark.parametrize("bare", [2, 31, 99, -1, "x", None])
    def test_ground_truth(self, tmp_path, bare):
        payload = gt_payload()
        annotation = {"image_id": 1, "bbox": [0, 0, 5, 5]}
        payload["annotations"] = [
            {**annotation, **triple, "category_id": bare} for triple, _ in TRIPLES_BESIDE_BARE
        ]
        payload["annotations"].insert(1, {**annotation, "category_id": 17})
        ds = parse_ground_truth(write_payload(tmp_path, payload))
        expected = [category for _, category in TRIPLES_BESIDE_BARE]
        expected.insert(1, CategoryTriple(3, 2))
        assert [a.category for a in ds.annotations] == expected


class TestImageIds:
    """An image id is an integer or a string; anything else names its record."""

    BAD_IDS = [[1], True, 1.5, None, {"id": 1}]

    @pytest.mark.parametrize("image_id", BAD_IDS)
    def test_detection_image_id(self, tmp_path, image_id):
        record = {"image_id": 1, "bbox": [1, 2, 3, 4], "score": 0.5, "category_id_3": 0}
        path = write_payload(tmp_path, [record, {**record, "image_id": image_id}], "d.json")
        with pytest.raises(MalformedFile, match=r"d\.json \[1\]: image_id must be an integer"):
            parse_detections(path, "diagnosis-A")

    def test_true_does_not_alias_image_one(self, tmp_path):
        record = {"image_id": True, "bbox": [1, 2, 3, 4], "score": 0.5, "category_id_3": 0}
        path = write_payload(tmp_path, [record], "d.json")
        with pytest.raises(MalformedFile, match=r"\[0\]: image_id"):
            parse_detections(path, "diagnosis-A", image_universe={1})

    @pytest.mark.parametrize("image_id", BAD_IDS)
    def test_ground_truth_image_id(self, tmp_path, image_id):
        payload = gt_payload()
        payload["images"][1]["id"] = image_id
        with pytest.raises(MalformedFile, match=r"images\[1\]: id must be an integer"):
            parse_ground_truth(write_payload(tmp_path, payload))

    @pytest.mark.parametrize("image_id", [[1], True, 1.5, None])
    def test_annotation_image_id(self, tmp_path, image_id):
        payload = gt_payload()
        payload["annotations"][1]["image_id"] = image_id
        with pytest.raises(MalformedFile, match=r"annotations\[1\]: image_id must be"):
            parse_ground_truth(write_payload(tmp_path, payload))

    def test_annotation_without_image_id(self, tmp_path):
        payload = gt_payload()
        del payload["annotations"][1]["image_id"]
        with pytest.raises(MalformedFile, match=r"annotations\[1\]: record lacks image_id"):
            parse_ground_truth(write_payload(tmp_path, payload))


def finite_number(value) -> bool:
    """An int or a float, not a bool, whose float is finite; an int too large for a float is not."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def decode_record(rec, source: str):
    """One record as the file format defines it: its ``Detection``, or the error class it raises."""
    if not isinstance(rec, dict) or "image_id" not in rec:
        return MalformedFile
    image_id = rec["image_id"]
    if type(image_id) not in (int, str):
        return MalformedFile
    box = rec.get("bbox")
    if type(box) is not list or len(box) != 4:
        return MalformedFile
    if not all(map(finite_number, box)):
        return MalformedFile
    if box[2] <= 0 or box[3] <= 0:
        return MalformedFile
    score = rec.get("score")
    if type(score) not in (int, float):
        return MalformedFile
    if not 0 <= score <= 1:
        return InvalidScore
    axes = []
    if any(key in rec for key in ("category_id_1", "category_id_2", "category_id_3")):
        for key, upper in (("category_id_1", 4), ("category_id_2", 8), ("category_id_3", 4)):
            v = rec.get(key)
            if key in rec and type(v) is not int:
                return MalformedFile
            if key in rec and not 0 <= v < upper:
                return InvalidCategory
            axes.append(v if key in rec else None)
    elif "category_id" in rec:
        cid = rec["category_id"]
        if type(cid) is not int or source == "fused":
            return MalformedFile
        if source == "enumeration-model" and 0 <= cid < 32:
            axes = [cid // 8, cid % 8, None]
        elif source == "diagnosis-A" and 0 <= cid < 4:
            axes = [None, None, cid]
        else:
            return InvalidCategory
    else:
        return MalformedFile
    link = rec.get("matched_enum_id")
    if link is not None and (type(link) is not int or link < 0):
        return MalformedFile
    q, t, d = axes
    category = CategoryTriple(
        None if q is None else q + 1, None if t is None else t + 1, None if d is None else DISEASES[d]
    )
    return Detection(image_id, BoundingBox(*map(float, box)), float(score), category, source, link)


#: Valid values of each record field, and invalid ones.
VALID_FIELDS = {
    "image_id": st.sampled_from([0, 1, "img-2"]),
    "bbox": st.lists(st.integers(1, 30) | st.floats(0.5, 30.0), min_size=4, max_size=4),
    "score": st.floats(0.0, 1.0) | st.sampled_from([0, 1]),
    "category_id_1": st.integers(0, 3),
    "category_id_2": st.integers(0, 7),
    "category_id_3": st.integers(0, 3),
    "category_id": st.integers(0, 31),
    "matched_enum_id": st.none() | st.integers(0, 40),
}
INVALID_FIELDS = {
    "image_id": [True, 1.5, None, [1]],
    "bbox": [
        [0, 0, 0, 5], [0, 0, 5, -1], [0, 0, True, 5], [0, float("nan"), 5, 5],
        [0, 0, float("inf"), 5], [1, 2, 3], "box", None, [0, 0, "5", 5],
    ],
    "score": [True, -0.1, 1.5, float("nan"), float("inf"), "high", None],
    "category_id_1": [4, -1, True, "0", None, 1.0],
    "category_id_2": [8, -1, False, 2.0],
    "category_id_3": [4, -1, True, None],
    "category_id": [32, -1, True, "3", 4.0],
    "matched_enum_id": [-1, True, 1.5, "x"],
}
REQUIRED_FIELDS = ("image_id", "bbox", "score", "category_id_3")
MISSING = object()
#: One way to break a record: a field set to an invalid value or left out.
#: Without ``category_id_3`` a record may fall back on a bare ``category_id``.
BREAKS = [(key, value) for key, values in INVALID_FIELDS.items() for value in values]
BREAKS += [(key, MISSING) for key in REQUIRED_FIELDS]
#: Numbers too large for a float, after the other breaks so that their test ids stay.
TOO_LARGE_FIELDS = {"bbox": [[0, 0, HUGE, 5]], "score": [HUGE]}
BREAKS += [(key, value) for key, values in TOO_LARGE_FIELDS.items() for value in values]


valid_records = st.fixed_dictionaries(
    {key: VALID_FIELDS[key] for key in REQUIRED_FIELDS},
    optional={key: v for key, v in VALID_FIELDS.items() if key not in REQUIRED_FIELDS},
)


def broken(record: dict, key: str, value) -> dict:
    """``record`` with ``key`` set to ``value``, or left out for ``MISSING``."""
    out = {k: v for k, v in record.items() if k != key}
    if value is not MISSING:
        out[key] = value
    return out


#: Records with no triple, whose bare ``category_id`` is valid or not.
bare_records = st.builds(
    lambda rec, category_id: {
        **{k: v for k, v in rec.items() if k not in ("category_id_1", "category_id_2", "category_id_3")},
        "category_id": category_id,
    },
    valid_records,
    VALID_FIELDS["category_id"] | st.sampled_from(INVALID_FIELDS["category_id"]),
)

#: Valid records, records with one broken field, bare records and values that are no record.
detection_records = st.one_of(
    valid_records,
    bare_records,
    st.builds(lambda rec, brk: broken(rec, *brk), valid_records, st.sampled_from(BREAKS)),
    st.sampled_from([[], 7, "record", None]),
)


class TestParsingProperties:
    SOURCES = st.sampled_from(["enumeration-model", "diagnosis-A", "fused"])

    @staticmethod
    def check(path, records, source):
        """The detections a per-record decode gives, or its error for the first bad record."""
        path.write_text(json.dumps(records))
        decoded = [decode_record(rec, source) for rec in records]
        bad = [i for i, d in enumerate(decoded) if isinstance(d, type)]
        if bad:
            with pytest.raises(decoded[bad[0]], match=rf"records\.json \[{bad[0]}\]: "):
                parse_detections(path, source)
        else:
            assert list(parse_detections(path, source)) == decoded

    @pytest.mark.parametrize("key,value", BREAKS, ids=huge_id)
    def test_each_broken_field(self, tmp_path, key, value):
        bases = [
            {"image_id": 1, "bbox": [1, 2, 3, 4], "score": 0.5, "category_id_1": 0,
             "category_id_2": 1, "category_id_3": 2, "matched_enum_id": 3},
            {"image_id": "a", "bbox": [1.5, 2, 3, 4.25], "score": 1, "category_id": 3},
        ]
        for base in bases:
            for source in ("enumeration-model", "diagnosis-A", "fused"):
                self.check(tmp_path / "records.json", [base, broken(base, key, value)], source)

    @given(records=st.lists(detection_records, max_size=6), source=SOURCES)
    def test_records_parse_like_a_per_record_decode(self, tmp_path_factory, records, source):
        self.check(tmp_path_factory.getbasetemp() / "records.json", records, source)


#: The images of the ground-truth property test, by id, as (width, height).
GT_IMAGES = {1: (100, 80), "a": (64.5, 100.25)}


def decode_annotation(rec):
    """One annotation as the file format defines it.

    Its ``GroundTruthAnnotation``, with the box clamped to its image, or
    the error class it raises with the stage that raises it: 0 for a rule
    of the record itself, 1 for an unknown image, 2 for a box entirely
    outside its image. An annotation follows the detection rules without
    score and link, with a bare ``category_id`` as quadrant * 8 + tooth.
    """
    det = decode_record({**rec, "score": 1} if isinstance(rec, dict) else rec, "enumeration-model")
    if isinstance(det, type):
        return det, 0
    if det.image_id not in GT_IMAGES:
        return DanglingReference, 1
    width, height = GT_IMAGES[det.image_id]
    b = box = det.box
    if not (b.x >= 0 and b.y >= 0 and b.x + b.w <= width and b.y + b.h <= height):
        x0, y0 = min(max(b.x, 0.0), width), min(max(b.y, 0.0), height)
        x1, y1 = min(max(b.x + b.w, 0.0), width), min(max(b.y + b.h, 0.0), height)
        if x1 - x0 <= 0 or y1 - y0 <= 0:
            return MalformedFile, 2
        box = BoundingBox(x0, y0, x1 - x0, y1 - y0)
    return GroundTruthAnnotation(det.image_id, box, det.category, rec.get("segmentation"))


#: Box corners and extents at, near and beyond the edges of ``GT_IMAGES``.
edge_boxes = st.tuples(
    st.sampled_from([-20, -0.5, 0, 0.25, 30, 63.5, 64.5, 80, 99.75, 100, 100.25, 130])
    | st.floats(-150.0, 150.0),
    st.sampled_from([-20, 0, 50, 80, 100.25, 130]) | st.floats(-150.0, 150.0),
    st.sampled_from([0.5, 1, 20, 34.5, 64.5, 80, 100.25, 250]) | st.floats(0.01, 250.0),
    st.sampled_from([0.5, 1, 20, 80, 100.25, 250]) | st.floats(0.01, 250.0),
).map(list)

#: Well-formed annotations, on known images (1, "a") and unknown ones (7, "b").
valid_annotations = st.fixed_dictionaries(
    {"image_id": st.sampled_from([1, "a", 7, "b"]), "bbox": edge_boxes | VALID_FIELDS["bbox"]},
    optional={
        **{key: VALID_FIELDS[key] for key in ("category_id_1", "category_id_2", "category_id_3")},
        "category_id": VALID_FIELDS["category_id"],
        "segmentation": st.lists(st.lists(st.integers(0, 9), max_size=4), max_size=2),
    },
)
#: Well-formed annotations on the images of ``GT_IMAGES``.
edge_annotations = st.fixed_dictionaries(
    {
        "image_id": st.sampled_from(list(GT_IMAGES)),
        "bbox": edge_boxes,
        "category_id_3": VALID_FIELDS["category_id_3"],
    }
)
ANNOTATION_BREAKS = [
    (key, value)
    for key, values in (*INVALID_FIELDS.items(), *TOO_LARGE_FIELDS.items())
    if key not in ("score", "matched_enum_id")
    for value in values
] + [(key, MISSING) for key in ("image_id", "bbox")]
ground_truth_annotations = st.one_of(
    valid_annotations,
    st.builds(lambda rec, brk: broken(rec, *brk), valid_annotations, st.sampled_from(ANNOTATION_BREAKS)),
    st.sampled_from([[], 7, "record", None]),
)


class TestGroundTruthProperties:
    @staticmethod
    def check(path, annotations):
        """The clamped annotations a per-annotation decode gives, or the first bad one's error at its stage."""
        images = [{"id": k, "width": w, "height": h} for k, (w, h) in GT_IMAGES.items()]
        path.write_text(json.dumps({"images": images, "annotations": annotations}))
        decoded = [decode_annotation(rec) for rec in annotations]
        bad = sorted((d[1], i, d[0]) for i, d in enumerate(decoded) if isinstance(d, tuple))
        if bad:
            _, i, error = bad[0]
            with pytest.raises(error, match=rf"gt\.json annotations\[{i}\]: "):
                parse_ground_truth(path)
        else:
            assert list(parse_ground_truth(path).annotations) == decoded

    @given(annotations=st.lists(ground_truth_annotations, max_size=6))
    def test_annotations_parse_like_a_per_annotation_decode(self, tmp_path_factory, annotations):
        self.check(tmp_path_factory.getbasetemp() / "gt.json", annotations)

    @given(annotations=st.lists(edge_annotations, max_size=4))
    def test_boxes_clamp_like_a_per_annotation_decode(self, tmp_path_factory, annotations):
        """Well-formed annotations on known images: clamping and the outside check decide."""
        self.check(tmp_path_factory.getbasetemp() / "gt.json", annotations)


#: Boxes on a coarse grid inside 55x55, so repeats and exact ties are common.
grid_boxes = st.builds(
    BoundingBox,
    st.integers(0, 6).map(lambda v: 5 * v),
    st.integers(0, 6).map(lambda v: 5 * v),
    st.integers(1, 5).map(lambda v: 5 * v),
    st.integers(1, 5).map(lambda v: 5 * v),
)

labelled_triples = (
    st.tuples(
        st.none() | st.integers(1, 4),
        st.none() | st.integers(1, 8),
        st.none() | st.sampled_from(DISEASES),
    )
    .filter(lambda axes: axes != (None, None, None))
    .map(lambda axes: CategoryTriple(*axes))
)

#: Detections on a coarse box grid, each category axis optional, with and
#: without a link into an enumeration stream.
grid_detections = st.lists(
    st.builds(
        Detection,
        st.sampled_from([0, 1, "img-2"]),
        grid_boxes,
        st.floats(0.0, 1.0),
        labelled_triples,
        st.just("fused"),
        st.none() | st.integers(0, 40),
    ),
    max_size=8,
)


@st.composite
def grid_datasets(draw) -> AnnotatedDataset:
    """Images of at least 60x60 (so no grid box is clamped) and their annotations."""
    ids = draw(st.lists(st.integers(0, 50) | st.text(max_size=4), unique=True, max_size=4))
    images = [
        AnnotatedImage(
            image_id,
            draw(st.sampled_from([60, 64.5, 1000])),
            draw(st.sampled_from([60, 500.25])),
            draw(st.text(max_size=6)),
        )
        for image_id in ids
    ]
    annotations = draw(
        st.lists(
            st.builds(
                GroundTruthAnnotation,
                st.sampled_from(ids),
                grid_boxes,
                labelled_triples,
                st.none() | st.lists(st.lists(st.integers(0, 9), max_size=4), max_size=2),
            ),
            max_size=6,
        )
        if ids
        else st.just([])
    )
    return AnnotatedDataset(images, annotations)


def crop_set(entries) -> CropSet:
    """The crops of ``(image_id, crop_box, tooth, enum_score, source_box)`` entries."""
    teeth = [
        Detection(image_id, source, score, CategoryTriple(*tooth), "enumeration-model")
        for image_id, _, tooth, score, source in entries
    ]
    boxes = np.array([crop.as_xywh() for _, crop, *_ in entries], float).reshape(-1, 4)
    return CropSet(DetectionSet(teeth, "enumeration-model").columns, boxes)


grid_crops = st.lists(
    st.tuples(
        st.sampled_from([0, 1, "img-2"]),
        grid_boxes,
        st.tuples(st.integers(1, 4), st.integers(1, 8)),
        st.floats(0.0, 1.0),
        grid_boxes,
    ),
    max_size=8,
).map(crop_set)


class TestRoundTrips:
    @given(dets=grid_detections)
    def test_integrated_file_keeps_the_link(self, tmp_path_factory, dets):
        path = tmp_path_factory.getbasetemp() / "integrated.json"
        write_integrated(DetectionSet(dets, "fused"), path)
        assert list(parse_detections(path, "fused")) == dets

    @given(dets=grid_detections)
    def test_detection_file_drops_the_link(self, tmp_path_factory, dets):
        path = tmp_path_factory.getbasetemp() / "detections.json"
        write_detections(DetectionSet(dets, "fused"), path)
        unlinked = [Detection(d.image_id, d.box, d.score, d.category, d.source) for d in dets]
        assert list(parse_detections(path, "fused")) == unlinked

    @given(ds=grid_datasets())
    def test_ground_truth_file_keeps_everything(self, tmp_path_factory, ds):
        path = tmp_path_factory.getbasetemp() / "gt.json"
        write_ground_truth(ds, path)
        assert parse_ground_truth(path) == ds
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    @given(crops=grid_crops)
    def test_crop_manifest_keeps_every_crop(self, tmp_path_factory, crops):
        path = tmp_path_factory.getbasetemp() / "crops.json"
        write_crop_manifest(crops, path)
        assert list(read_crop_manifest(path)) == list(crops)
        assert len(path.read_text().splitlines()) == (len(crops) + 2 if crops else 1)


#: Floats that a file must carry bit for bit: subnormals, 1e-5 and 1e16, which ``orjson``
#: would write in other digits, and both zeros.
odd_floats = st.sampled_from([5e-324, 2.5e-310, 1e-5, 1e16, -0.0, 0.0])
finite_floats = odd_floats | st.floats(allow_nan=False, allow_infinity=False)
extents = st.sampled_from([5e-324, 1e-5, 1e16]) | st.floats(
    min_value=0.0, exclude_min=True, allow_infinity=False
)
unit_floats = odd_floats.filter(lambda v: v <= 1) | st.floats(0.0, 1.0)
#: Image ids: any integer, and strings with quotes, backslashes and characters outside ASCII.
any_image_ids = st.integers() | st.text() | st.sampled_from(['"', "\\", 'q"\\ü\n', "\u2028", "😀"])
links = st.just(-1) | st.integers(0, 2**63 - 1) | st.just(2**63 - 1)


def column_of(draw, values, n: int, dtype) -> np.ndarray:
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype)


def box_column(draw, n: int) -> np.ndarray:
    """``n`` boxes that ``BoundingBox`` takes, as ``float64 [n, 4]``."""
    fields = (finite_floats, finite_floats, extents, extents)
    return np.stack([column_of(draw, values, n, float) for values in fields], axis=1).reshape(n, 4)


@st.composite
def drawn_columns(draw, keys=st.integers(1, CATEGORY_KEYS - 1)) -> Columns:
    """Valid columns of up to 6 rows over up to 4 image ids."""
    ids = tuple(draw(st.lists(any_image_ids, min_size=1, max_size=4, unique=True)))
    n = draw(st.integers(0, 6))
    return Columns(
        ids, column_of(draw, st.integers(0, len(ids) - 1), n, np.int32), box_column(draw, n),
        column_of(draw, unit_floats, n, float), column_of(draw, keys, n, np.intp),
        column_of(draw, st.integers(0, 4), n, np.int8), column_of(draw, links, n, np.int64),
    )


#: Category keys that carry a quadrant and a tooth, as every crop's row does.
tooth_keys = st.integers(1, CATEGORY_KEYS - 1).filter(lambda k: min(category_codes(k)[:2]) >= 0)


@st.composite
def inside_boxes(draw, width: float, height: float) -> list[float]:
    """A box inside a ``width`` x ``height`` image, which the reader keeps as it is; the reader
    compares each box with its image's extents as floats."""
    box = []
    for extent in (float(width), float(height)):
        start = draw(odd_floats | st.floats(0.0, extent))
        size = min(draw(extents), extent - start)
        assume(0 < size and start + size <= extent)
        box += [start, size]
    return [box[0], box[2], box[1], box[3]]


@st.composite
def drawn_datasets(draw) -> AnnotatedDataset:
    ids = draw(st.lists(any_image_ids, min_size=1, max_size=4, unique=True))
    sizes = extents | st.integers(1, 2**64)
    images = [AnnotatedImage(i, draw(sizes), draw(sizes), draw(st.text(max_size=4))) for i in ids]
    image = draw(st.lists(st.integers(0, len(ids) - 1), max_size=6))
    boxes = [draw(inside_boxes(images[k].width, images[k].height)) for k in image]
    payloads = st.none() | st.lists(st.lists(st.integers() | finite_floats, max_size=4), max_size=2)
    return AnnotatedDataset._from_columns(
        images, np.array(image, np.int32), np.array(boxes, float).reshape(-1, 4),
        column_of(draw, st.integers(1, CATEGORY_KEYS - 1), len(image), np.intp),
        draw(st.lists(payloads, min_size=len(image), max_size=len(image))),
    )


def assert_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def row_ids(cols: Columns) -> list:
    """Each row's image id, with its type."""
    return [(type(cols.ids[k]), cols.ids[k]) for k in cols.image.tolist()]


class TestColumnRoundTrips:
    """Every writer's file reads back as the valid columns it was written from, bit for bit."""

    @pytest.mark.parametrize("links_kept", [False, True], ids=["detections", "integrated"])
    @given(cols=drawn_columns())
    def test_detection_files(self, tmp_path_factory, links_kept, cols):
        path = tmp_path_factory.getbasetemp() / "detections.json"
        (write_integrated if links_kept else write_detections)(DetectionSet.from_columns(cols, "fused"), path)
        got = parse_detections(path, "fused", cols.ids).columns
        assert [(type(i), i) for i in got.ids] == [(type(i), i) for i in cols.ids]
        for name in ("image", "xywh", "score", "key"):
            assert_bits(getattr(got, name), getattr(cols, name))
        assert_bits(got.origin, np.full_like(cols.origin, source_code("fused")))
        assert_bits(got.link, cols.link if links_kept else np.full_like(cols.link, -1))

    @given(ds=drawn_datasets())
    def test_ground_truth_files(self, tmp_path_factory, ds):
        path = tmp_path_factory.getbasetemp() / "gt.json"
        write_ground_truth(ds, path)
        got = parse_ground_truth(path)
        image = lambda im: (
            type(im.image_id), im.image_id, type(im.width), im.width, type(im.height), im.height,
            im.file_name,
        )
        assert repr(list(map(image, got.images))) == repr(list(map(image, ds.images)))
        for name in ("image", "xywh", "key"):
            assert_bits(getattr(got, name), getattr(ds, name))
        assert repr(got.segmentation) == repr(ds.segmentation)

    @given(cols=drawn_columns(tooth_keys), data=st.data())
    def test_crop_manifests(self, tmp_path_factory, cols, data):
        path = tmp_path_factory.getbasetemp() / "crops.json"
        n = len(cols.score)
        boxes = box_column(data.draw, n)
        write_crop_manifest(CropSet(cols, boxes), path)
        got = read_crop_manifest(path)
        assert row_ids(got.rows) == row_ids(cols)
        assert_bits(got.boxes, boxes)
        assert_bits(got.rows.xywh, cols.xywh)
        assert_bits(got.rows.score, cols.score)
        assert_bits(got.rows.key, _category_key(cols.quadrant, cols.tooth, np.full(n, -1)))
        assert_bits(got.rows.origin, np.full_like(cols.origin, source_code("enumeration-model")))
        assert_bits(got.rows.link, np.full_like(cols.link, -1))

    @given(data=st.data(), n=st.integers(0, 6))
    def test_verdict_files(self, tmp_path_factory, data, n):
        path = tmp_path_factory.getbasetemp() / "verdicts.json"
        verdicts = CropVerdicts(
            column_of(data.draw, st.integers(0, 2**63 - 1) | st.just(2**63 - 1), n, np.int64),
            column_of(data.draw, st.integers(0, len(CROP_LABELS) - 1), n, np.int8),
            column_of(data.draw, unit_floats, n, float),
        )
        write_crop_classifications(verdicts, path)
        got = parse_crop_classifications(path)
        for name in ("crop_id", "label", "confidence"):
            assert_bits(getattr(got, name), getattr(verdicts, name))

    @given(ids=st.lists(any_image_ids, max_size=6))
    def test_id_lists(self, tmp_path_factory, ids):
        path = tmp_path_factory.getbasetemp() / "ids.json"
        write_id_list(ids, path)
        assert [(type(i), i) for i in _load_json(path, "ids")] == [(type(i), i) for i in ids]


#: A ground-truth file with integer and float boxes, a bare ``category_id``,
#: a string image id, segmentations and two boxes that are clamped.
PINNED_GT = {
    "images": [
        {"id": 1, "width": 1000, "height": 500, "file_name": "a.png"},
        {"id": "b", "width": 640.5, "height": 480},
    ],
    "annotations": [
        {
            "id": 7, "image_id": 1, "bbox": [100, 100, 80, 120],
            "category_id_1": 0, "category_id_2": 2, "category_id_3": 0,
        },
        {
            "image_id": "b", "bbox": [10.25, 20.5, 30, 40.125], "category_id": 13,
            "segmentation": [[1, 2, 3, 4]],
        },
        {
            "image_id": 1, "bbox": [950, 450, 100, 100], "category_id_3": 3,
            "segmentation": {"counts": "x", "size": [2, 2]},
        },
        {"image_id": "b", "bbox": [-5, 0, 20, 20], "category_id_2": 7},
    ],
}
PINNED_MANIFEST = [
    {
        "crop_id": 0, "image_id": 1, "crop_bbox": [1, 2, 3, 4], "source_bbox": [1.5, 2, 3, 4],
        "category_id_1": 0, "category_id_2": 1, "enum_score": 1,
    },
    {
        "crop_id": 1, "image_id": "b", "crop_bbox": [0.1, 0.2, 30.3, 40],
        "source_bbox": [5, 6, 7, 8], "category_id_1": 3, "category_id_2": 7, "enum_score": 0.72,
    },
]
#: Diagnosis records: a bare disease ``category_id``, odd floats and ids, a link to drop.
PINNED_DIAGNOSES = [
    {"image_id": 1, "bbox": [1, 2, 3, 4], "score": 1, "category_id_3": 0},
    {"image_id": 'b"\\ü\n', "bbox": [0.1, 0.2, 1e-07, 1e16], "score": 5e-324, "category_id": 2},
    {
        "image_id": 1, "bbox": [-0.0, 7.25, 2, 3], "score": 0.30000000000000004,
        "category_id_1": 3, "category_id_2": 7, "category_id_3": 3, "matched_enum_id": 4,
    },
    {"image_id": 1, "bbox": [400, 400, 5, 5], "score": 0.5, "category_id_3": 1},
]
#: Teeth on image 1 only, one under the default gate of 0.7.
PINNED_TEETH = [
    {"image_id": 1, "bbox": [0, 0, 10, 10], "score": 0.9, "category_id": 13},
    {"image_id": 1, "bbox": [0, 5, 4, 4], "score": 0.75, "category_id_1": 2, "category_id_2": 0},
    {"image_id": 1, "bbox": [390, 390, 20, 20], "score": 0.5, "category_id": 31},
]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedWriters:
    """Writer output, pinned by sha256 from when ground truth and crops were objects
    and records were encoded as dicts."""

    def test_synth_ground_truth(self, tmp_path):
        args = ["synth", "--out-dir", str(tmp_path), "--images", "3", "--seed", "7"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert sha256(tmp_path / "gt.json") == (
            "71e9100cb139707aab7ef43f263cde4b8aa27af015aa9ccd4aebb406e6cac179"
        )

    def test_parsed_ground_truth(self, tmp_path):
        """The image extents are written as the file holds them: ``1000``, not ``1000.0``. That
        is the one difference from the bytes pinned before extents kept their JSON values."""
        out = tmp_path / "out.json"
        write_ground_truth(parse_ground_truth(write_payload(tmp_path, PINNED_GT)), out)
        assert sha256(out) == "986a611dcfeff3e8c58a9785df9d42381b2108209893b448145e4af19acbc1a6"

    def test_read_crop_manifest(self, tmp_path):
        out = tmp_path / "out.json"
        write_crop_manifest(read_crop_manifest(write_payload(tmp_path, PINNED_MANIFEST)), out)
        assert sha256(out) == "a80a4e3a8fa1c2ca302c630d3f3afe5aa0314231d9c795328fb91e1636586284"

    def test_parsed_detections(self, tmp_path):
        out = tmp_path / "out.json"
        write_detections(parse_detections(write_payload(tmp_path, PINNED_DIAGNOSES), "diagnosis-A"), out)
        assert sha256(out) == "fef20c68806d9b926c6359ce6fca3dd387d027feee4201ec9e5694f1c7d7f58d"

    def test_integrated_under_drop(self, tmp_path):
        """Unmatched findings are dropped: the one beyond the distance and the one on no tooth's image."""
        diags = parse_detections(write_payload(tmp_path, PINNED_DIAGNOSES), "diagnosis-A")
        teeth = parse_detections(write_payload(tmp_path, PINNED_TEETH, "teeth.json"), "enumeration-model")
        cfg = IntegrationConfig(max_match_distance=100.0, unmatched_policy="drop")
        out = tmp_path / "out.json"
        write_integrated(integrate(teeth, diags, cfg), out)
        assert len(json.loads(out.read_text())) == 2
        assert sha256(out) == "4d151b309913e04057063abc91813c157fd8b14edab08d98060163eb3f153e39"

    def test_crop_classifications(self, tmp_path):
        verdicts = [
            CropClassification(0, "normal", 1.0),
            CropClassification(3, "deep-caries", 0.30000000000000004),
            CropClassification(1, "caries", 5e-324),
        ]
        out = tmp_path / "out.json"
        write_crop_classifications(verdicts, out)
        assert sha256(out) == "2d11591547650b078829c862d4ad52edd06b915472c254583d50f496014cab26"

    def test_pr_csv(self, tmp_path):
        """The class mean of 32 enumeration curves, pinned from when it was summed point by point."""
        plan = ScenePlan(6, 0.1, {"caries": 0.2, "impacted": 0.1}, 3)
        ds = generate_scene(plan)
        dets = simulate_detector(ds, load_profile("diffusiondet-like"), "enumeration-model", seed=3)
        out = tmp_path / "pr.csv"
        write_pr_csv(evaluate(ds, dets, "enumeration"), out)
        assert sha256(out) == "d59eee74a7bb2bc7400a0722230a688085a6ee44a924ede482dc9987212437b8"

    def test_id_list(self, tmp_path):
        out = tmp_path / "out.json"
        write_id_list([3, 1, "x-7", 'q"\\ü\n'], out)
        assert sha256(out) == "4d17b2af6f3408e63474d2711c10dd39cb90468cbccb7af4a178093139e8a512"


def dict_layout(dets: DetectionSet, *, links: bool) -> bytes:
    """The bytes of ``dets`` as dict records, each encoded with ``json`` and one per line."""
    cols = dets.columns
    names = ("category_id_1", "category_id_2", "category_id_3")
    records = []
    for row in zip(
        cols.image.tolist(), cols.xywh.tolist(), cols.score.tolist(), cols.quadrant.tolist(),
        cols.tooth.tolist(), cols.disease.tolist(), cols.link.tolist(),
    ):
        image, box, score, *codes, link = row
        rec = {"image_id": cols.ids[image], "bbox": box, "score": score}
        rec.update((name, code) for name, code in zip(names, codes) if code >= 0)
        if links and link >= 0:
            rec["matched_enum_id"] = link
        records.append(rec)
    encode = json.JSONEncoder(separators=(",", ":")).encode
    text = "[\n" + ",\n".join(map(encode, records)) + "\n]\n" if records else "[]\n"
    return text.encode()


#: Float edge cases: a signed zero, the least subnormal, exponent forms and integer values.
ODD_FLOATS = [-0.0, 5e-324, 1e-07, 1e16, 3.0, 0.1 + 0.2]
#: Image ids: integers, and strings that need escaping, with non-ASCII characters and a newline.
ROW_IMAGE_IDS = st.sampled_from([0, 7, 2**40, 'say "hi"', "back\\slash", "zähne-🦷", "two\nlines"])
COORDINATES = st.sampled_from(ODD_FLOATS) | st.floats(-1e3, 1e3)
EXTENTS = st.sampled_from([5e-324, 1e-07, 1e16, 3.0, 12.5]) | st.floats(0.5, 1e3)
SCORES = st.sampled_from([-0.0, 5e-324, 1e-07, 1.0, 0.5]) | st.floats(0, 1)


def detection_sets(source: str, *, disease: bool = True) -> st.SearchStrategy:
    """Sets of ``source`` detections, any axis absent but the disease if ``disease``, any link."""
    diseases = st.sampled_from(DISEASES)
    axes = st.tuples(
        st.none() | st.integers(1, 4),
        st.none() | st.integers(1, 8),
        diseases if disease else st.none() | diseases,
    ).filter(any)
    one = st.builds(
        lambda image_id, box, score, axes, link: Detection(
            image_id, BoundingBox(*box), score, CategoryTriple(*axes), source, link
        ),
        ROW_IMAGE_IDS,
        st.tuples(COORDINATES, COORDINATES, EXTENTS, EXTENTS),
        SCORES,
        axes,
        st.none() | st.integers(0, 2**63 - 1),
    )
    return st.lists(one, max_size=8).map(lambda dets: DetectionSet(dets, source))


#: Without the explain phase, which re-runs a failing example about a thousand times.
ROW_TEXT_SETTINGS = settings(
    max_examples=40, deadline=None, phases=[p for p in Phase if p is not Phase.explain]
)
INTEGRATIONS = st.builds(
    IntegrationConfig,
    enum_score_gate=st.sampled_from([0.0, 0.5]),
    max_match_distance=st.none() | st.floats(1.0, 100.0),
    unmatched_policy=st.sampled_from(["keep-without-enumeration", "drop"]),
)


class TestRowText:
    """Records written from shared row text have the bytes of dict records encoded by ``json``.

    Each set is written, and so given its text, or not before the next step.
    """

    @staticmethod
    def check(path, dets: DetectionSet) -> None:
        """Both writers write ``dets`` as ``json`` writes its dict records (which builds its text)."""
        write_detections(dets, path)
        assert path.read_bytes() == dict_layout(dets, links=False)
        write_integrated(dets, path)
        assert path.read_bytes() == dict_layout(dets, links=True)

    @ROW_TEXT_SETTINGS
    @given(
        fused=detection_sets("fused"),
        extra=detection_sets("diagnosis-B"),
        mask=st.lists(st.booleans(), max_size=8),
        written=st.tuples(st.booleans(), st.booleans()),
    )
    def test_take_and_concat(self, tmp_path_factory, fused, extra, mask, written):
        path = tmp_path_factory.getbasetemp() / "rows.json"
        for dets, write in zip((fused, extra), written):
            if write:
                self.check(path, dets)
        self.check(path, fused.take((mask + [True] * len(fused))[: len(fused)]))
        self.check(path, DetectionSet.concat([fused, extra.take(slice(None, None, -1))], "fused"))

    @ROW_TEXT_SETTINGS
    @given(
        teeth=detection_sets("enumeration-model", disease=False),
        fused=detection_sets("fused"),
        comp=detection_sets("complementary"),
        cfg=INTEGRATIONS,
        written=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    )
    def test_integrate_merge_and_retag(self, tmp_path_factory, teeth, fused, comp, cfg, written):
        path = tmp_path_factory.getbasetemp() / "rows.json"
        if written[0]:
            self.check(path, fused)
        integrated = integrate(teeth, fused, cfg)
        for dets, write in zip((integrated, comp), written[1:]):
            if write:
                self.check(path, dets)
        merged = merge_complementary(integrated, comp, MergeConfig(overlap_iou=0.3))
        self.check(path, merged)
        self.check(path, as_detection_set(merged, "fused"))

    def test_matched_rows_carry_the_product_score(self, tmp_path):
        """Writing 01 builds the fused score text; 02 must not take it for a matched row."""
        caries = CategoryTriple(disease="caries")
        fused = DetectionSet(
            [Detection(1, BoundingBox(i, i, 4, 4), 0.5, caries, "fused") for i in range(3)]
            + [Detection(2, BoundingBox(0, 0, 4, 4), 0.25, caries, "fused")],
            "fused",
        )
        position = CategoryTriple(quadrant=1, enumeration=2)
        tooth = Detection(1, BoundingBox(0, 0, 5, 5), 0.9, position, "enumeration-model")
        teeth = DetectionSet([tooth], "enumeration-model")
        write_detections(fused, tmp_path / "01.json")
        write_integrated(integrate(teeth, fused), tmp_path / "02.json")
        records = json.loads((tmp_path / "02.json").read_text())
        assert [r.get("matched_enum_id") for r in records] == [0, 0, 0, None]
        assert [r["score"] for r in records] == [0.9 * 0.5] * 3 + [0.25]


#: Each float at an edge of the range whose ``orjson`` text is its ``repr``, with that text.
EDGE_TEXT = [
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (5e-324, "5e-324"),
    (float(np.nextafter(1e-4, 0)), "9.999999999999999e-05"),
    (1e-4, "0.0001"),
    (float(np.nextafter(1e16, 0)), "9999999999999998.0"),
    (1e16, "1e+16"),
]
#: Those edges and their negations, with NaN and the infinities, which orjson writes as null.
EDGE_FLOATS = st.sampled_from(
    [v for v, _ in EDGE_TEXT] + [-v for v, _ in EDGE_TEXT] + [math.nan, math.inf, -math.inf]
)


@st.composite
def float_arrays(draw) -> np.ndarray:
    """A float column or an ``[N, 4]`` box array, contiguous or a view of a larger array."""
    n = draw(st.integers(0, 10))
    base = np.array(draw(st.lists(EDGE_FLOATS | st.floats(), min_size=5 * n, max_size=5 * n)))
    base = base.reshape(n, 5)
    return draw(
        st.sampled_from([
            base[:, 0].copy(),  # a column
            base[:, 2],  # a column of a larger array
            base[:, :4].copy(),  # boxes
            base[:, 1:],  # boxes within wider rows
            np.ascontiguousarray(base.T)[:4].T,  # boxes stored by column
        ])
    )


def repr_text(a: np.ndarray) -> list[str]:
    """Each entry or box of ``a`` as the writers built its text with ``repr``."""
    if a.ndim == 1:
        return [f"{x!r}" for x in a.tolist()]
    return [f"[{x!r},{y!r},{w!r},{h!r}]" for x, y, w, h in a.tolist()]


class TestFloatText:
    """The writers take floats' text from ``orjson`` and keep ``repr``'s text for every value."""

    @settings(max_examples=300, deadline=None)
    @given(a=float_arrays())
    def test_text_is_repr(self, a):
        assert _json_floats(a) == repr_text(a)

    @pytest.mark.parametrize("value, text", EDGE_TEXT, ids=[t for _, t in EDGE_TEXT])
    def test_files_at_the_edges_keep_their_bytes(self, tmp_path, value, text):
        """A detections file and a crop manifest whose floats sit on an edge are written
        with the bytes they were written with when every float was formatted by ``repr``."""
        size = text if value > 0 else "1.0"  # a box's w and h are positive
        score = text if value <= 1 else "1.0"  # a score is in [0, 1]
        box = f"[{text},{text},{size},{size}]"
        files = {
            "detections.json": (
                f'{{"image_id":1,"bbox":{box},"score":{score},"category_id_3":0}}',
                lambda path: parse_detections(path, "diagnosis-A"),
                write_detections,
            ),
            "crops.json": (
                f'{{"crop_id":0,"image_id":1,"crop_bbox":{box},"source_bbox":{box},'
                f'"category_id_1":0,"category_id_2":0,"enum_score":{score}}}',
                read_crop_manifest,
                write_crop_manifest,
            ),
        }
        for name, (record, read, write) in files.items():
            written = f"[\n{record}\n]\n".encode()
            (tmp_path / name).write_bytes(written)
            write(read(tmp_path / name), tmp_path / "out.json")
            assert (tmp_path / "out.json").read_bytes() == written


class TestBareErrorDefects:
    """Each raised a bare TypeError, KeyError or ValueError instead of a DetfuseError."""

    def test_unhashable_source_tag(self):
        with pytest.raises(ConfigError, match=r"unknown source tag \['x'\]"):
            DetectionSet([], ["x"])

    def test_long_source_tag_is_cut(self):
        with pytest.raises(ConfigError, match=r"unknown source tag 'x+\.\.\. \(502 characters\); expected"):
            Detection(1, UNIT, 0.5, CARIES, "x" * 500)

    def test_unhashable_source_tag_when_parsing(self, tmp_path):
        path = write_payload(tmp_path, [], "dets.json")
        with pytest.raises(ConfigError, match=r"unknown source tag \['x'\]"):
            parse_detections(path, ["x"])

    def test_subset_of_an_unknown_image(self):
        with pytest.raises(MissingImage, match="image 99 is not in the dataset"):
            subset_dataset(generate_scene(ScenePlan(num_images=2)), [1, 99])

    def test_subset_with_a_repeated_image(self):
        with pytest.raises(ConfigError, match="duplicate image ids"):
            subset_dataset(generate_scene(ScenePlan(num_images=2)), [1, 1])

    def test_subset_with_an_unhashable_image_id(self):
        with pytest.raises(ConfigError, match=r"image id must be an int or a str, got list \[1\]"):
            subset_dataset(generate_scene(ScenePlan(num_images=2)), [[1]])

    def test_unhashable_image_id_in_a_universe(self):
        """An unhashable id is refused in a universe, and on a row before it reaches one."""
        with pytest.raises(ConfigError, match=r"image id must be an int or a str, got list \[1\]"):
            DetectionSet([], "fused", [[1]])
        with pytest.raises(ConfigError, match=r"image id must be an int or a str, got list \[1\]"):
            Detection([1], BoundingBox(0, 0, 5, 5), 0.5, CategoryTriple(disease="caries"), "fused")

    def test_universe_that_is_not_iterable(self):
        with pytest.raises(ConfigError, match="image universe 5 is not a collection of image ids"):
            DetectionSet([], "fused", 5)

    def test_iterator_universe_with_an_unhashable_id(self):
        with pytest.raises(ConfigError, match=r"image id must be an int or a str, got list \[1\]"):
            DetectionSet([], "fused", iter([[1]]))

    @pytest.mark.parametrize(
        "make,echo",
        [
            (lambda: BoundingBox(HUGE, 0, 1, 1), "(401 characters)"),
            (lambda: BoundingBox("1", 0, 1, 1), "got '1'"),
            (lambda: Detection(1, UNIT, "0.5", CARIES, "fused"), "got '0.5'"),
            (lambda: Detection(1, UNIT, HUGE, CARIES, "fused"), "(401 characters)"),
            (lambda: AnnotatedImage(1, "5", 5), "width must be a number in (0, inf), got '5'"),
            (lambda: CropClassification(0, "caries", "0.9"), "got '0.9'"),
            (lambda: BoundingBox(0, 0, -(10**300), 1), "(302 characters)"),
            (lambda: AnnotatedImage(1, HUGE, 5), "(401 characters)"),
            (lambda: CropClassification(0, "x" * 500, 0.5), "(502 characters)"),
            (lambda: CropClassification(0, ["x"], 0.5), "unknown crop label ['x']"),
            (lambda: CategoryTriple(quadrant="x" * 300), "(302 characters)"),
            (lambda: CategoryTriple(quadrant=HUGE), "(401 characters)"),
            (lambda: CategoryTriple(disease="x" * 500), "(502 characters)"),
        ],
        ids=[
            "huge-box", "string-box", "string-score", "huge-score", "string-extent",
            "string-confidence", "long-negative-extent", "huge-extent", "long-label", "list-label",
            "long-quadrant", "huge-quadrant", "long-disease",
        ],
    )
    def test_value_types_reject_what_is_no_number(self, make, echo):
        with pytest.raises(ConfigError) as raised:
            make()
        assert str(raised.value).endswith(echo) and len(str(raised.value)) < 200


class TestOneImageIdRule:
    """The ids that memory accepts are the ids that files hold."""

    @pytest.mark.parametrize("image_id", [0, -3, 2**70, "", "img-1"])
    def test_every_int_and_str_round_trips(self, image_id, tmp_path):
        ds = AnnotatedDataset(
            [AnnotatedImage(image_id, 5, 5)], [GroundTruthAnnotation(image_id, UNIT, CARIES)]
        )
        dets = DetectionSet([Detection(image_id, UNIT, 0.5, CARIES, "fused")], "fused", [image_id])
        write_ground_truth(ds, tmp_path / "gt.json")
        write_detections(dets, tmp_path / "dets.json")
        assert parse_ground_truth(tmp_path / "gt.json") == ds
        assert parse_detections(tmp_path / "dets.json", "fused") == dets

    @pytest.mark.parametrize(
        "ids,echo",
        [([np.int64(1)], "got int64"), ([1.5, (1, 2)], "got float 1.5")],
        ids=["numpy-int", "float-and-tuple"],
    )
    def test_id_list_refuses_other_ids_and_writes_nothing(self, ids, echo, tmp_path):
        """The first raised a bare TypeError, and the second was written as given."""
        out = tmp_path / "ids.json"
        with pytest.raises(ConfigError, match=re.escape(echo)) as raised:
            write_id_list(ids, out)
        assert str(raised.value).count("image id must be") == 1
        assert not out.exists()

    def test_id_list_reads_an_iterator_once(self, tmp_path):
        """Checking the ids must not use up an iterator before it is written."""
        out = tmp_path / "ids.json"
        write_id_list(iter([3, "x-7"]), out)
        assert json.loads(out.read_text()) == [3, "x-7"]


class TestMatchedEnumIdRule:
    """``matched_enum_id`` is None or an int (not a bool) in [0, 2**63), as in files. Before
    the rule "x" and 2**70 raised a bare ValueError and OverflowError when the columns were
    first read, True and 1.5 were written as 1, and -5 was read as unset."""

    @pytest.mark.parametrize("link", ["x", 2**70, 2**63, True, 1.5, -5])
    def test_anything_else_is_refused(self, link):
        named = f"matched_enum_id must be an integer in [0, {float(2**63)!r}) when set, got {link!r}"
        with pytest.raises(ConfigError, match=re.escape(named)):
            Detection(1, UNIT, 0.5, CARIES, "fused", link)

    @pytest.mark.parametrize("link", [None, 0, 2**63 - 1, np.int64(7)])
    def test_what_is_accepted_round_trips(self, link, tmp_path):
        dets = DetectionSet([Detection(1, UNIT, 0.5, CARIES, "fused", link)], "fused")
        write_integrated(dets, tmp_path / "out.json")
        assert parse_detections(tmp_path / "out.json", "fused")[0].matched_enum_id == link


class TestDatasetContainers:
    def test_dataset_rejects_dangling_annotation(self):
        images = [AnnotatedImage(1, 100, 100)]
        anns = [
            GroundTruthAnnotation(2, BoundingBox(0, 0, 5, 5), CategoryTriple(disease="caries"))
        ]
        with pytest.raises(DanglingReference):
            AnnotatedDataset(images, anns)

    def test_dataset_converts_annotation_objects_once(self, tiny_scene):
        """Objects, even from iterators, become the columns and are kept as the views."""
        anns = tiny_scene.annotations
        ds = AnnotatedDataset(iter(tiny_scene.images), iter(anns))
        assert ds.images == tiny_scene.images
        assert all(view is ann for view, ann in zip(ds.annotations, anns))
        assert ds.image.tolist() == [0, 0, 1]
        assert ds.xywh.tolist() == [ann.box.as_xywh() for ann in anns]
        assert [category_of(key) for key in ds.key.tolist()] == [ann.category for ann in anns]

    def test_dataset_rejects_duplicate_images(self):
        images = [AnnotatedImage(1, 100, 100), AnnotatedImage(1, 50, 50)]
        with pytest.raises(ValueError):
            AnnotatedDataset(images, [])

    @pytest.mark.parametrize("extent", [(math.nan, 10), (10, math.inf)])
    def test_image_rejects_a_non_finite_extent(self, extent):
        with pytest.raises(ValueError):
            AnnotatedImage(1, *extent)

    def test_detectionset_universe_check(self):
        det = Detection(
            5, BoundingBox(0, 0, 5, 5), 0.5, CategoryTriple(disease="caries"), "fused"
        )
        with pytest.raises(DanglingReference):
            DetectionSet([det], "fused", frozenset({1, 2}))

    def test_columns_hold_one_category_key(self):
        names = [field.name for field in dataclasses.fields(Columns)]
        assert names == ["ids", "image", "xywh", "score", "key", "origin", "link"]

    def test_detectionset_derives_universe(self):
        det = Detection(
            5, BoundingBox(0, 0, 5, 5), 0.5, CategoryTriple(disease="caries"), "fused"
        )
        assert DetectionSet([det], "fused").image_universe == frozenset({5})

    def test_sets_equal_no_other_type(self, tiny_scene):
        dets = perfect_detections(tiny_scene)
        assert dets != list(dets) and tiny_scene != tiny_scene.annotations
        assert repr(dets) == "DetectionSet(3 detections, source='fused', 2 images)"


def one_row(**changes) -> dict:
    """The fields of a valid one-row :class:`Columns`, with ``changes``."""
    fields = dict(
        ids=(1,), image=np.array([0], np.int32), xywh=np.array([[0.0, 0.0, 1.0, 1.0]]),
        score=np.array([0.5]), key=np.array([1]), origin=np.array([0], np.int8),
        link=np.array([-1], np.int64),
    )
    return {**fields, **changes}


class TestColumnChecks:
    """Every column set checks its columns when built, so that nothing detfuse holds is written
    into a file that its readers refuse: each probe below was written, then refused on read."""

    @pytest.mark.parametrize(
        "box,outside",
        [
            ([150.0, 10.0, 20.0, 20.0], True),
            ([100.0, 10.0, 20.0, 20.0], True),
            ([-20.0, 10.0, 20.0, 20.0], True),
            ([10.0, -30.0, 20.0, 20.0], True),
            ([1e16, 10.0, 1.0, 20.0], True),
            ([90.0, 10.0, 20.0, 20.0], False),
            ([-10.0, 99.0, 20.0, 20.0], False),
        ],
    )
    def test_a_ground_truth_box_outside_its_image_is_refused_when_built(self, tmp_path, box, outside):
        """A box entirely outside its 100x100 image was held and written, then refused by
        ``parse_ground_truth``; the dataset refuses it now, by the reader's test, and a box
        that only exceeds its image is still held, written and read back clamped."""
        build = lambda: AnnotatedDataset._from_columns(
            [AnnotatedImage(1, 100, 100)], np.array([0], np.int32), np.array([box]),
            np.array([1]), [None],
        )
        payload = {
            "images": [{"id": 1, "width": 100, "height": 100}],
            "annotations": [{"image_id": 1, "bbox": box, "category_id_3": 0}],
        }
        path = write_payload(tmp_path, payload)
        if outside:
            message = f"box[0] {box} lies entirely outside its image"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                build()
            with pytest.raises(MalformedFile, match="lies entirely outside the image"):
                parse_ground_truth(path)
        else:
            write_ground_truth(build(), tmp_path / "out.json")
            assert len(parse_ground_truth(tmp_path / "out.json").key) == 1

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"score": np.array([math.nan])}, "score[0] must be a number in [0, 1], got nan"),
            ({"xywh": np.array([[0.0, 0.0, math.inf, 1.0]])}, "box w[0] must be a number in (0, inf), got inf"),
            ({"score": np.array([1.5])}, "score[0] must be a number in [0, 1], got 1.5"),
            ({"xywh": np.array([[0.0, 0.0, 0.0, 1.0]])}, "box w[0] must be a number in (0, inf), got 0.0"),
            ({"ids": (1.5,)}, "image id must be an int or a str, got float 1.5"),
            ({"ids": (True,)}, "image id must be an int or a str, got bool True"),
            ({"image": np.array([1], np.int32)}, "image[0] must be an integer in [0, 1), got 1"),
            ({"key": np.array([0])}, f"key[0] must be an integer in [1, {CATEGORY_KEYS - 1}], got 0"),
            ({"origin": np.array([5], np.int8)}, "origin[0] must be an integer in [0, 4], got 5"),
            ({"link": np.array([-2])}, f"link[0] must be an integer in [-1, {2.0**63!r}), got -2"),
            ({"link": np.array([1.0])}, f"link[0] must be an integer in [-1, {2.0**63!r}), got 1.0"),
            ({"score": np.array([True])}, "score[0] must be a number in [0, 1], got True"),
            (
                {"score": np.array([0.5, 0.5])},
                "image, box x, box y, box w, box h, score, key, origin and link must be of one "
                "length, got [1, 1, 1, 1, 1, 2, 1, 1, 1]",
            ),
            ({"xywh": np.array([0.0, 0.0, 1.0, 1.0])}, "box must be an [N, 4] array, got shape (4,)"),
        ],
    )
    def test_a_bad_column_is_refused_when_built(self, changes, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            Columns(**one_row(**changes))

    def test_the_first_bad_row_names_each_of_its_bad_values(self):
        columns = one_row(
            image=np.array([0, 0, 0], np.int32), xywh=np.array([[0, 0, 1, 1], [0, 0, 1, 1], [0, 0, -1, 1.0]]),
            score=np.array([0.5, 2.0, math.nan]), key=np.array([1, 1, 1]),
            origin=np.array([0, 0, 0], np.int8), link=np.array([-1, -5, -1], np.int64),
        )
        message = (
            "score[1] must be a number in [0, 1], got 2.0; "
            f"link[1] must be an integer in [-1, {2.0**63!r}), got -5"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            Columns(**columns)

    def test_the_largest_link_is_kept(self):
        cols = Columns(**one_row(link=np.array([2**63 - 1], np.int64)))
        assert cols.link.tolist() == [2**63 - 1]

    def test_every_construction_runs_the_rule(self, monkeypatch):
        """``take``, ``concat`` and ``dataclasses.replace`` build through the constructor."""
        calls = []
        rule = detections_module.column_problems
        monkeypatch.setattr(
            detections_module, "column_problems", lambda columns: calls.append(1) or rule(columns)
        )
        cols = Columns(**one_row())
        dets = DetectionSet.from_columns(cols, "fused")
        dets.take([0])
        DetectionSet.concat([dets, dets], "fused")
        with pytest.raises(ConfigError, match=r"^score\[0\] must be a number in \[0, 1\], got nan$"):
            dataclasses.replace(cols, score=np.array([math.nan]))
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"image": np.array([1], np.int32)}, "image[0] must be an integer in [0, 1), got 1"),
            ({"xywh": np.array([[0.0, 0.0, 0.0, 1.0]])}, "box w[0] must be a number in (0, inf), got 0.0"),
            ({"key": np.array([0])}, f"key[0] must be an integer in [1, {CATEGORY_KEYS - 1}], got 0"),
            (
                {"segmentation": []},
                "image, box x, box y, box w, box h, key and segmentation must be of one length, "
                "got [1, 1, 1, 1, 1, 1, 0]",
            ),
        ],
    )
    def test_a_bad_ground_truth_column_is_refused_when_built(self, changes, message):
        fields = dict(
            images=[AnnotatedImage(1, 10, 10)], image=np.array([0], np.int32),
            xywh=np.array([[0.0, 0.0, 1.0, 1.0]]), key=np.array([1]), segmentation=[None],
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            AnnotatedDataset._from_columns(**{**fields, **changes})


def universe_rows() -> list:
    """Rows on the images 2, "b", 2 and 7, in that order."""
    return [
        Detection(image_id, BoundingBox(k, 0, 5, 5), 0.5, CategoryTriple(disease="caries"), "fused")
        for k, image_id in enumerate([2, "b", 2, 7])
    ]


def from_objects(rows, universe, tmp_path) -> DetectionSet:
    return DetectionSet(rows, "fused", universe)


def from_file(rows, universe, tmp_path) -> DetectionSet:
    path = tmp_path / "rows.json"
    write_detections(DetectionSet(rows, "fused"), path)
    return parse_detections(path, "fused", universe)


def retagged(rows, universe, tmp_path) -> DetectionSet:
    return as_detection_set(DetectionSet(rows, "fused"), "fused", universe)


#: Every category: each axis absent or set, but never all three absent.
ALL_TRIPLES = [
    CategoryTriple(q, t, d)
    for q in (None, 1, 2, 3, 4)
    for t in (None, *range(1, 9))
    for d in (None, *DISEASES)
    if (q, t, d) != (None, None, None)
]


@pytest.mark.parametrize("make", [from_objects, from_file, retagged])
class TestUniverseRule:
    """Every way a set is made follows one image-universe rule."""

    def test_none_derives_the_rows_images_in_first_row_order(self, tmp_path, make):
        dets = make(universe_rows(), None, tmp_path)
        assert dets.image_universe == frozenset({2, "b", 7})
        assert dets.columns.ids == (2, "b", 7)
        assert list(dets) == universe_rows()

    def test_empty_universe_rejects_every_row(self, tmp_path, make):
        with pytest.raises(DanglingReference, match="image 2 outside the universe"):
            make(universe_rows(), set(), tmp_path)

    def test_given_universe_is_kept(self, tmp_path, make):
        dets = make(universe_rows(), {2, "b", 7, 9}, tmp_path)
        assert dets.image_universe == frozenset({2, "b", 7, 9})
        assert list(dets) == universe_rows()

    def test_first_row_outside_is_named(self, tmp_path, make):
        with pytest.raises(DanglingReference) as exc_info:
            make(universe_rows(), {2, 7}, tmp_path)
        assert type(exc_info.value) is DanglingReference
        assert str(exc_info.value) == "detection references image 'b' outside the universe"

    def test_every_category_has_the_key_of_ground_truth(self, tmp_path, make):
        box = BoundingBox(0, 0, 5, 5)
        rows = [Detection(1, box, 0.5, category, "fused") for category in ALL_TRIPLES]
        dets = make(rows, None, tmp_path)
        annotations = [GroundTruthAnnotation(1, box, category) for category in ALL_TRIPLES]
        ds = AnnotatedDataset([AnnotatedImage(1, 10, 10)], annotations)
        keys = dets.columns.key.tolist()
        assert len(ALL_TRIPLES) == len(set(keys)) == 224
        assert keys == ds.key.tolist()
        assert [category_of(key) for key in keys] == ALL_TRIPLES
        assert list(dets) == rows

    def test_a_row_is_one_view(self, tmp_path, make):
        dets = make(universe_rows(), None, tmp_path)
        assert dets[0] is dets[0]
        assert dets[-1] is dets.detections[-1]

    def test_slices_and_concatenations_keep_views_and_bytes(self, tmp_path, make):
        rows = universe_rows()
        built = DetectionSet(rows[:2], "fused")
        made = make(rows[2:], None, tmp_path)
        written = [record_lines(dets, tmp_path / f"{k}.json") for k, dets in enumerate((built, made))]
        joined = DetectionSet.concat([built, made], "fused")
        assert joined.image_universe == frozenset({2, "b", 7})
        assert all(view is row for view, row in zip(joined, (*built, *made), strict=True))
        part = joined[1:3]
        assert all(view is row for view, row in zip(part, (built[1], made[0]), strict=True))
        assert record_lines(joined, tmp_path / "joined.json") == written[0] + written[1]
        assert record_lines(part, tmp_path / "part.json") == written[0][1:] + written[1][:1]


#: An image id of 5,000 characters.
LONG_ID = "x" * 5000
TOOTH = CategoryTriple(1, 1)
ONE_IMAGE = AnnotatedDataset([AnnotatedImage(1, 5, 5)], [GroundTruthAnnotation(1, UNIT, CARIES)])


def long_set(category, source="fused") -> DetectionSet:
    """One row of ``category`` on the image ``LONG_ID``."""
    return DetectionSet([Detection(LONG_ID, UNIT, 0.5, category, source)], source)


def long_gt_file(tmp_path):
    payload = gt_payload()
    payload["annotations"][0]["image_id"] = LONG_ID
    return parse_ground_truth(write_payload(tmp_path, payload))


class TestOneRefusalRule:
    """Every stage refuses a row outside its set, or without its axis, by one rule: the
    error names the row's image id through ``shorten``. Before the rule seven of them
    echoed the whole id, 5,000 characters of it here."""

    @pytest.mark.parametrize(
        "refuse,error",
        [
            (lambda tmp: DetectionSet(long_set(CARIES), "fused", [1]), DanglingReference),
            (
                lambda tmp: AnnotatedDataset(
                    ONE_IMAGE.images, [GroundTruthAnnotation(LONG_ID, UNIT, CARIES)]
                ),
                DanglingReference,
            ),
            (long_gt_file, DanglingReference),
            (lambda tmp: subset_dataset(ONE_IMAGE, [LONG_ID]), MissingImage),
            (
                lambda tmp: assign_crops(long_set(CARIES, "enumeration-model"), [], 0.1),
                AxisUnavailable,
            ),
            (lambda tmp: assign_crops(long_set(TOOTH, "enumeration-model"), [], 0.1), MissingImage),
            (lambda tmp: evaluate(ONE_IMAGE, long_set(CARIES)), DanglingReference),
            (
                lambda tmp: integrate(DetectionSet([], "enumeration-model"), long_set(TOOTH)),
                AxisUnavailable,
            ),
            (
                lambda tmp: merge_complementary(long_set(TOOTH), DetectionSet([], "complementary")),
                AxisUnavailable,
            ),
        ],
        ids=[
            "universe", "dataset", "ground-truth-file", "subset", "crops-axis", "crops-image",
            "evaluate", "integrate", "merge",
        ],
    )
    def test_a_long_image_id_is_echoed_short(self, refuse, error, tmp_path):
        with pytest.raises(DetfuseError) as raised:
            refuse(tmp_path)
        assert type(raised.value) is error
        assert "... (5002 characters)" in str(raised.value)
        assert len(str(raised.value)) <= 300


def record_lines(dets: DetectionSet, path) -> list[str]:
    """The records that ``write_detections`` writes for ``dets``, one text each."""
    write_detections(dets, path)
    return [line.rstrip(",") for line in path.read_text().splitlines()[1:-1]]


class TestSplitting:
    def test_sizes_634(self):
        ids = list(range(634))
        train, val, test = split_ids(ids, SplitSpec(534, 50, 50, seed=0))
        assert (len(train), len(val), len(test)) == (534, 50, 50)
        assert sorted(train + val + test) == ids

    def test_sizes_705(self):
        ids = list(range(705))
        train, val, test = split_ids(ids, SplitSpec(605, 50, 50, seed=0))
        assert (len(train), len(val), len(test)) == (605, 50, 50)
        assert sorted(train + val + test) == ids

    def test_deterministic_for_seed(self):
        ids = [f"img-{i}" for i in range(100)]
        a = split_ids(ids, SplitSpec(80, 10, 10, seed=7))
        b = split_ids(ids, SplitSpec(80, 10, 10, seed=7))
        assert a == b
        c = split_ids(ids, SplitSpec(80, 10, 10, seed=8))
        assert a != c

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            split_ids(list(range(10)), SplitSpec(5, 3, 3))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(-1, 5, 5)
        for args, named in (
            ((1.5, 1, 1), "train_count"),
            ((1, True, 1), "val_count"),
            ((1, 1, 1, -1), "seed"),
            ((1, 1, -1, 0.5), "test_count must be an integer in [0, inf), got -1; seed"),
        ):
            with pytest.raises(ConfigError, match=re.escape(named)):
                SplitSpec(*args)

    def test_subset_dataset(self, tiny_scene):
        sub = subset_dataset(tiny_scene, [2])
        assert sub.image_ids() == [2]
        assert len(sub.annotations) == 1
        assert sub.annotations[0].image_id == 2

    def test_subset_reads_an_iterator_once(self, tiny_scene):
        """Checking the ids must not use up an iterator before the images are picked."""
        sub = subset_dataset(tiny_scene, iter([1, 2]))
        assert sub.image_ids() == [1, 2]
        assert sub == tiny_scene


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, tmp_path, tiny_scene):
        path = tmp_path / "dets.json"
        write_detections(perfect_detections(tiny_scene), path)
        before = path.read_bytes()
        # the third record cannot be serialized, so the dump fails partway
        with pytest.raises(TypeError):
            _dump_json([{"image_id": 1}, {"image_id": 2}, {"image_id": object()}], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["dets.json"]

    def test_array_is_one_compact_record_per_line(self, tmp_path):
        records = [{"image_id": 1, "bbox": [1.5, 2, 3, 4], "score": 0.25}, {"a": None}, {}]
        path = tmp_path / "out.json"
        _write_lines(list(map(_encode_compact, records)), path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(records) + 2
        assert lines == [
            "[",
            '{"image_id":1,"bbox":[1.5,2,3,4],"score":0.25},',
            '{"a":null},',
            "{}",
            "]",
        ]
        assert json.loads(path.read_text()) == records

    def test_empty_array(self, tmp_path):
        path = tmp_path / "out.json"
        write_id_list([], path)
        assert path.read_text() == "[]\n"

    def test_string_image_ids_round_trip(self, tmp_path):
        box = BoundingBox(0, 0, 5, 5)
        ids = ['say "hi"', "back\\slash", "zähne-🦷", "two\nlines"]
        dets = [Detection(i, box, 0.5, CategoryTriple(disease="caries"), "fused") for i in ids]
        path = tmp_path / "dets.json"
        write_detections(DetectionSet(dets, "fused"), path)
        text = path.read_text(encoding="utf-8")
        assert text.isascii()
        assert len(text.splitlines()) == len(ids) + 2
        assert [r["image_id"] for r in json.loads(text)] == ids
        assert list(parse_detections(path, "fused")) == dets

    def test_replaces_with_the_same_bytes_as_a_direct_dump(self, tmp_path):
        payload = {"b": [1, 2.5, None], "a": "x"}
        path = tmp_path / "out.json"
        path.write_text("old")
        _dump_json(payload, path)
        assert path.read_text() == json.dumps(payload, indent=2) + "\n"


def load_as_before(path):
    """``_load_json`` as it read a records file with ``json`` alone: text mode, then ``json.load``.

    A file that is not UTF-8 raised a bare ``UnicodeDecodeError`` there; it is
    named here as the reader names it now.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise MalformedFile(f"{path}: records must be a JSON array")
    return data


def outcome(load, path) -> str:
    """What ``load`` makes of ``path``: the ``repr`` of its value, or its error."""
    try:
        value = load(path)
    except MalformedFile as exc:
        return f"MalformedFile: {exc}"
    except RecursionError:
        return "RecursionError"
    return repr(value)


def assert_decoders_agree(path, text: bytes) -> None:
    path.write_bytes(text)
    assert outcome(lambda p: _load_json(p, "records"), path) == outcome(load_as_before, path)


#: The integers at the ends of the ranges that orjson reads as integers.
BOUNDARY_INTEGERS = [2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1, -(2**64)]
#: The whitespace JSON allows between tokens, in each newline convention.
GAPS = st.sampled_from(["", " ", "\t", "\n", "\r\n", "\r", " \r\n\t"])
DIGITS = "0123456789"


@st.composite
def long_decimals(draw) -> str:
    """A decimal literal with up to 70 significant digits, subnormal to overflowing."""
    whole = str(draw(st.integers(0, 10**30) | st.integers(0, 999)))
    fraction = draw(st.text(DIGITS, max_size=40))
    exponent = draw(st.none() | st.integers(-420, 420))
    return (
        draw(st.sampled_from(["", "-"]))
        + whole
        + (f".{fraction}" if fraction else "")
        + ("" if exponent is None else f"{draw(st.sampled_from('eE'))}{exponent}")
    )


NUMBERS = st.one_of(
    st.floats().map(json.dumps),
    long_decimals(),
    st.integers(-(2**70), 2**70).map(str),
    st.integers(-999, 999).map(str),
    st.sampled_from(BOUNDARY_INTEGERS).map(str),
    st.sampled_from(["NaN", "Infinity", "-Infinity"]),
)
STRINGS = st.one_of(
    st.text().map(json.dumps),
    st.text().map(lambda s: json.dumps(s, ensure_ascii=False)),
    st.text(DIGITS, min_size=19, max_size=30).map(json.dumps),
    # lone surrogates: escaped they are json's to read; unescaped they are no UTF-8
    st.text(st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), min_size=1, max_size=2).map(
        lambda s: json.dumps(s, ensure_ascii=bool(len(s) % 2))
    ),
)
SCALARS = NUMBERS | STRINGS | st.sampled_from(["true", "false", "null"])


def json_arrays(items):
    return st.lists(st.tuples(GAPS, items, GAPS), max_size=5).map(
        lambda parts: "[" + ",".join(a + item + b for a, item, b in parts) + "]"
    )


def json_objects(items):
    keys = st.sampled_from(["a", "b", "image_id"]).map(json.dumps) | STRINGS
    return st.lists(st.tuples(GAPS, keys, GAPS, items), max_size=5).map(
        lambda parts: "{" + ",".join(g + k + h + ":" + v for g, k, h, v in parts) + "}"
    )


VALUES = st.recursive(SCALARS, lambda items: json_arrays(items) | json_objects(items), max_leaves=10)


@st.composite
def json_files(draw) -> bytes:
    """The bytes of a JSON text: mostly an array, now and then with a BOM or a stray byte."""
    body = draw(GAPS) + draw(json_arrays(VALUES) | VALUES) + draw(GAPS)
    raw = body.encode("utf-8", "surrogatepass")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b",", b"]", b"}", b"x", b"\x01", b"'", b'"', b"\xff", b"\\"])) + raw[at:]
    if draw(st.integers(0, 19)) == 0:
        raw = b"\xef\xbb\xbf" + raw
    return raw


#: The four record file readers.
READERS = [
    parse_ground_truth,
    lambda path: parse_detections(path, "fused"),
    read_crop_manifest,
    parse_crop_classifications,
]
READER_IDS = ["ground-truth", "detections", "crop-manifest", "classifications"]


@pytest.fixture(scope="class")
def records_path(tmp_path_factory):
    return tmp_path_factory.mktemp("decode") / "records.json"


class TestDecoderAgreement:
    """Records files decode with orjson, but every value and every error is json's."""

    @settings(max_examples=400, deadline=None)
    @given(text=json_files())
    def test_load_json_reads_as_json_did(self, records_path, text):
        assert_decoders_agree(records_path, text)

    @settings(max_examples=200, deadline=None)
    @given(numbers=st.lists(st.tuples(GAPS, NUMBERS), max_size=6))
    def test_numbers_read_as_json_did(self, records_path, numbers):
        text = "[" + ",".join(gap + number for gap, number in numbers) + "]"
        assert_decoders_agree(records_path, text.encode())

    @pytest.mark.parametrize(
        "text",
        [
            b"\xef\xbb\xbf[1]",
            b"[\r\n1,\r\n2 3\r\n]\r\n",
            b"[\r1,\r2 3\r]\r",
            b'[\r\n{"a": 1},\r\n{"a": 2}\r\n]\r\n',
            b'["a\x01b"]',
            b'["a\tb"]',
            b'["\\ud800", "\\udc00\\ud800"]',
            b'["\xed\xa0\x80"]',
            b'["\xff"]',
            b"[NaN, Infinity, -Infinity]",
            b"[1e400, -1e400, 1e-400]",
            b"[18446744073709551616, -9223372036854775809, 9223372036854775807]",
            b"[" + b"9" * 400 + b"]",
            b"18446744073709551616",
            b'[{"a": 1, "b": 2, "a": 3}]',
            b"[" * 65 + b"]" * 65,
            b"",
            b"[1,]",
        ],
        ids=[
            "bom", "crlf-error-on-line-3", "cr-error-on-line-3", "crlf-values", "control-character",
            "raw-tab", "lone-surrogate-escapes", "utf8-surrogate", "latin-1", "nan-and-infinity",
            "overflow", "beyond-int64", "400-digits", "top-level-integer", "duplicate-keys",
            "nested-65", "empty", "trailing-comma",
        ],
    )
    def test_named_cases(self, records_path, text):
        assert_decoders_agree(records_path, text)

    @pytest.mark.parametrize(
        "text",
        [
            b"[" * 1025 + b"]" * 1025,
            # ['"]"', ['"]"', ... 0, '"["'], '"["'], 1,025 deep: unless escaped quotes are
            # dropped first, each string seems to close or open one level, and orjson reads it
            b'["\\"]\\"", ' * 1025 + b"0" + b', "\\"[\\""]' * 1025,
        ],
        ids=["nested-1025", "nesting-behind-escaped-quotes"],
    )
    def test_deep_nesting_is_malformed(self, records_path, text):
        """Where json gives up with a bare RecursionError, the reader names the file."""
        records_path.write_bytes(text)
        assert outcome(load_as_before, records_path) == "RecursionError"
        with pytest.raises(
            MalformedFile, match=r"records\.json is nested too deeply to read: maximum recursion"
        ):
            _load_json(records_path, "records")

    @settings(max_examples=200, deadline=None)
    @given(
        depth=st.integers(0, _MAX_DEPTH + 10),
        strings=st.lists(st.text('"[]{}\\ab'), max_size=4),
    )
    def test_nesting_guard_is_exact(self, depth, strings):
        """Brackets, quotes and backslashes inside strings neither hide nor add a level."""
        value = strings
        for level in range(depth):
            value = [value, "]"] if level % 2 else {"[": value}
        assert _orjson_may_differ(json.dumps(value).encode()) is (depth + 1 > _MAX_DEPTH)

    @pytest.mark.parametrize("text", [b"1" * 19, b"[" + b"1" * 19 + b"]", b'{"a":-' + b"1" * 19 + b"}"])
    def test_an_integer_of_19_digits_goes_to_json(self, text):
        assert _orjson_may_differ(text)

    @given(st.lists(st.floats() | st.integers(-(10**18) + 1, 10**18 - 1)))
    @example([0.00012345678901234567, -0.0012345678901234567, 1.2345678901234567e-05])
    def test_written_numbers_stay_with_orjson(self, numbers):
        """No float that Python writes and no integer of 18 digits or fewer is sent to json."""
        assert not _orjson_may_differ(json.dumps(numbers).encode())

    @pytest.mark.parametrize("read", READERS, ids=READER_IDS)
    def test_a_file_that_is_not_utf8_is_malformed(self, tmp_path, read):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'[{"file_name": "\xff"}]')
        with pytest.raises(
            MalformedFile,
            match=r"latin1\.json is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 16",
        ):
            read(path)

    @pytest.mark.parametrize("read", READERS, ids=READER_IDS)
    def test_a_file_nested_too_deeply_is_malformed(self, tmp_path, read):
        path = tmp_path / "deep.json"
        path.write_bytes(b'[{"file_name": ' + b"[" * 1100 + b"]" * 1100 + b"}]")
        with pytest.raises(MalformedFile, match=r"deep\.json is nested too deeply to read: "):
            read(path)


def ground_truth_before(ds: AnnotatedDataset) -> bytes:
    """The bytes ``write_ground_truth`` wrote when it built one dict per annotation and
    encoded the document with ``json.dumps(indent=2)``."""
    images = [
        {"id": im.image_id, "width": im.width, "height": im.height, "file_name": im.file_name}
        for im in ds.images
    ]
    names = ("category_id_1", "category_id_2", "category_id_3")
    ids = ds.image_ids()
    annotations = []
    rows = zip(ds.image.tolist(), ds.xywh.tolist(), ds.key.tolist(), ds.segmentation)
    for i, (image, box, key, mask) in enumerate(rows):
        rec = {"id": i, "image_id": ids[image], "bbox": box}
        rec.update((name, code) for name, code in zip(names, category_codes(key)) if code >= 0)
        if mask is not None:
            rec["segmentation"] = mask
        annotations.append(rec)
    return (json.dumps({"images": images, "annotations": annotations}, indent=2) + "\n").encode()


def crop_classifications_before(verdicts) -> bytes:
    """The bytes ``write_crop_classifications`` wrote when it encoded one dict per verdict."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    lines = [
        encode({"crop_id": v.crop_id, "label": v.label, "confidence": float(v.confidence)})
        for v in verdicts
    ]
    return ("[\n" + ",\n".join(lines) + "\n]\n" if lines else "[]\n").encode()


#: Text with characters that ``json`` escapes: quotes, backslashes, control characters, DEL,
#: a lone surrogate and non-ASCII characters.
ESCAPED_TEXT = st.text(
    st.sampled_from('a"\\\x00\x01\n\t\x1f\x7fü🦷\u2028\ud800') | st.characters(), max_size=6
)
ODD_IDS = st.integers(-(2**70), 2**70) | ESCAPED_TEXT
EXTENTS_OF_IMAGES = st.integers(1, 10**6) | st.floats(0, exclude_min=True, allow_infinity=False)
#: Every finite ``EDGE_TEXT`` float, positive ones for a box's width and height.
BOX_COORDINATES = EDGE_FLOATS.filter(math.isfinite) | st.floats(allow_nan=False, allow_infinity=False)
BOX_EXTENTS = st.sampled_from([v for v, _ in EDGE_TEXT if v > 0]) | st.floats(
    0, exclude_min=True, allow_infinity=False
)
#: Opaque payloads: nested lists and dicts of strings with newlines, None, NaN and numbers.
PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(math.nan) | st.floats() | ESCAPED_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ESCAPED_TEXT, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def odd_datasets(draw) -> AnnotatedDataset:
    """Datasets with escaped ids and names, edge boxes, every category key and any payload."""
    ids = draw(st.lists(ODD_IDS, unique=True, max_size=4))
    images = [
        AnnotatedImage(image_id, draw(EXTENTS_OF_IMAGES), draw(EXTENTS_OF_IMAGES), draw(ESCAPED_TEXT))
        for image_id in ids
    ]
    one = st.builds(
        GroundTruthAnnotation,
        st.sampled_from(ids),
        st.builds(BoundingBox, BOX_COORDINATES, BOX_COORDINATES, BOX_EXTENTS, BOX_EXTENTS),
        st.integers(1, CATEGORY_KEYS - 1).map(category_of),
        st.none() | PAYLOADS,
    )
    annotations = draw(st.lists(one, max_size=8)) if ids else []
    # A dataset holds no box that lies entirely outside its image, so such a box is dropped.
    image = np.array([ids.index(a.image_id) for a in annotations], np.intp)
    xywh = np.array([a.box.as_xywh() for a in annotations], float).reshape(-1, 4)
    outside = set(_exceeding(xywh, images, image)[2].tolist())
    return AnnotatedDataset(images, [a for k, a in enumerate(annotations) if k not in outside])


VERDICTS = st.lists(
    st.builds(
        CropClassification,
        st.sampled_from([0, 1, 2**63 - 1]) | st.integers(0, 2**63 - 1),
        st.sampled_from(CROP_LABELS),
        st.sampled_from([0, 1, 0.0, 1.0, 5e-324, 0.30000000000000004]) | st.floats(0, 1),
    ),
    max_size=8,
)


#: Each kind of value that the drawn datasets hold, in one dataset; image 2**63 has no annotation.
ODD_DATASET = AnnotatedDataset(
    [
        AnnotatedImage(1, 640, 480.5, 'a"\\\x01\x7fü\n'),
        AnnotatedImage('q"\\ü\x00\x7f\ud800\n', 5e-324, 1e16),
        AnnotatedImage(2**63, 1, 1),
    ],
    [
        GroundTruthAnnotation(1, BoundingBox(-0.0, 5e-324, 1e16, 1e-4), category_of(1)),
        GroundTruthAnnotation(
            'q"\\ü\x00\x7f\ud800\n', BoundingBox(-1e16, 9.999999999999999e-05, 2e16, 3.0),
            CategoryTriple(2, 7, "caries"), {"counts": "a\nb", "size": [2, 2], "": None},
        ),
        GroundTruthAnnotation(
            1, BoundingBox(0.1, 0.0, 9999999999999998.0, 7.25),
            CategoryTriple(quadrant=4, disease="impacted"), [[1, 2.5], [None, math.nan], []],
        ),
    ],
)


class TestWriterAgreement:
    """Ground truth and crop verdicts are written from their columns, with the bytes that
    ``json`` wrote for their dict records."""

    @settings(deadline=None)
    @given(ds=odd_datasets())
    @example(ds=ODD_DATASET)
    @example(ds=AnnotatedDataset([], []))
    def test_ground_truth_is_written_as_json_wrote_it(self, tmp_path_factory, ds):
        path = tmp_path_factory.getbasetemp() / "gt.json"
        write_ground_truth(ds, path)
        assert path.read_bytes() == ground_truth_before(ds)

    @settings(deadline=None)
    @given(verdicts=VERDICTS)
    @example(
        verdicts=[
            CropClassification(0, "normal", 0),
            CropClassification(2**63 - 1, "caries", 1),
            CropClassification(5, "deep-caries", 5e-324),
            CropClassification(7, "periapical-lesion", 0.30000000000000004),
        ]
    )
    @example(verdicts=[])
    def test_crop_verdicts_are_written_as_json_wrote_them(self, tmp_path_factory, verdicts):
        path = tmp_path_factory.getbasetemp() / "verdicts.json"
        write_crop_classifications(verdicts, path)
        assert path.read_bytes() == crop_classifications_before(verdicts)
        write_crop_classifications(parse_crop_classifications(path), path)
        assert path.read_bytes() == crop_classifications_before(verdicts)
