"""Pseudo-label bookkeeping around an external per-tooth classifier.

The classifier itself never runs here.  This module derives the per-tooth
crop manifest the external cropper consumes, audits disease class balance,
plans rare-class oversampling, turns per-crop classifier verdicts back into
detections, and merges those with the integrated stream to recover findings
the diagnosis pathway missed.

Crops and verdicts are held as columns: a :class:`CropSet` is the gated
enumeration rows plus an array of crop boxes, a :class:`CropVerdicts` one
crop id, label and confidence per verdict; :class:`CropAssignment` and
:class:`CropClassification` objects are views. A verdict takes its crop's row.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .detections import (
    _TRIPLES,
    Columns,
    DetectionSet,
    _category_key,
    _encode_compact,
    _json_floats,
    _json_ids,
    _per_row,
    _refuse,
    _resolve_universe,
    category_codes,
    same_image_blocks,
)
from .errors import (
    AxisUnavailable,
    DanglingCrop,
    InvalidCategory,
    MalformedFile,
    MissingImage,
    column_problems,
    raise_problems,
    setting_problems,
    shorten,
)
from .geometry import (
    _FAST, _ID_END, _ID_RANGE, CROP_LABELS, DISEASES, BoundingBox, ImageId, _box_columns, source_code
)
from .io import (
    _TRIPLE_KEYS,
    AnnotatedDataset,
    AnnotatedImage,
    PathLike,
    _boxes,
    _clip,
    _field,
    _FirstBreak,
    _image_ids,
    _load_json,
    _number_field,
    _records,
    _write_lines,
)
from .metrics import _iou_block

#: Rare-class duplication factors applied when no explicit boost is given.
DEFAULT_BOOST = {"periapical-lesion": 2, "deep-caries": 2}
_LABEL_CODE = {label: code for code, label in enumerate(CROP_LABELS)}
_LABEL_TEXT = [_encode_compact(label) for label in CROP_LABELS]
#: The crop padding of the pipeline and ``crops --pad``; ``assign_crops`` takes it explicitly.
_PAD_FRACTION = 0.1


@dataclass(frozen=True, slots=True)
class CropAssignment:
    """One crop of a :class:`CropSet`, as a view built by indexing or iterating the set.

    ``crop_box`` is the padded, clamped region handed to the external
    cropper; ``source_box`` is the original unpadded enumeration box, which
    is what re-emitted detections use.
    """

    image_id: ImageId
    crop_box: BoundingBox
    tooth: tuple[int, int]
    enum_score: float
    source_box: BoundingBox


@dataclass(frozen=True, eq=False)
class CropSet:
    """Per-tooth crops: gated enumeration rows and the crop box of each.

    Crop ``i`` is row ``i`` of ``rows``, enumeration :class:`Columns` whose
    every row has a quadrant and a tooth; its ``xywh`` is the unpadded
    source box and its ``score`` the enumeration score. ``boxes`` is the
    ``float64 [N, 4]`` array of padded, clamped crop regions. Indexing or
    iterating the set gives :class:`CropAssignment` views, built once.
    ``rows`` are checked as every :class:`Columns` is, and the set is checked
    when built by :func:`~detfuse.errors.column_problems`: unequal lengths,
    or a crop box that :class:`BoundingBox` refuses or a row without a
    quadrant or a tooth, is one :class:`ConfigError`.
    """

    rows: Columns
    boxes: np.ndarray

    def __post_init__(self) -> None:
        quadrant, tooth, _ = category_codes(self.rows.key)
        raise_problems(
            column_problems(
                [
                    *_box_columns("crop", self.boxes),
                    ("quadrant", quadrant, _TRIPLE_KEYS[0][1], True),
                    ("tooth", tooth, _TRIPLE_KEYS[1][1], True),
                ]
            )
        )

    @cached_property
    def _assignments(self) -> tuple[CropAssignment, ...]:
        rows = self.rows
        columns = (self.boxes, rows.quadrant, rows.tooth, rows.score, rows.xywh)
        values = _per_row(rows.ids, rows.image, *columns)
        return tuple(
            CropAssignment(image_id, BoundingBox(*crop), (q + 1, t + 1), score, BoundingBox(*box))
            for image_id, crop, q, t, score, box in values
        )

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, i: int) -> CropAssignment:
        return self._assignments[i]


@dataclass(frozen=True, slots=True)
class CropClassification:
    """One classifier verdict on a crop; a view when read from a :class:`CropVerdicts`."""

    crop_id: int
    label: str
    confidence: float

    def __post_init__(self) -> None:
        crop_id, label, confidence = self.crop_id, self.label, self.confidence
        if not (
            type(crop_id) is int and 0 <= crop_id < _ID_END and label in CROP_LABELS
            and type(confidence) in _FAST and 0.0 <= confidence <= 1.0
        ):
            raise_problems(
                setting_problems("crop_id", crop_id, _ID_RANGE, integer=True)
                + ([] if label in CROP_LABELS else [f"unknown crop label {shorten(label)}"])
                + setting_problems("confidence", confidence, "[0, 1]")
            )


@dataclass(frozen=True, eq=False)
class CropVerdicts:
    """Crop classifier verdicts as columns, one row per verdict.

    ``crop_id`` (``int64``) indexes a :class:`CropSet`, ``label`` (``int8``)
    indexes :data:`CROP_LABELS` and ``confidence`` is ``float64``. Indexing
    or iterating gives :class:`CropClassification` views, built once. A set
    is checked when built by :func:`~detfuse.errors.column_problems`: unequal
    lengths, or a row with a ``crop_id`` < 0, an unknown label or a confidence
    outside [0, 1], is one :class:`ConfigError`.
    """

    crop_id: np.ndarray
    label: np.ndarray
    confidence: np.ndarray

    def __post_init__(self) -> None:
        raise_problems(
            column_problems(
                [
                    ("crop_id", self.crop_id, _ID_RANGE, True),
                    ("label", self.label, f"[0, {len(CROP_LABELS) - 1}]", True),
                    ("confidence", self.confidence, "[0, 1]", False),
                ]
            )
        )

    @cached_property
    def _classifications(self) -> tuple[CropClassification, ...]:
        values = zip(self.crop_id.tolist(), self.label.tolist(), self.confidence.tolist())
        return tuple(CropClassification(i, CROP_LABELS[k], c) for i, k, c in values)

    def __len__(self) -> int:
        return len(self.crop_id)

    def __getitem__(self, i: int) -> CropClassification:
        return self._classifications[i]


def _verdicts(verdicts: Iterable[CropClassification]) -> CropVerdicts:
    """``verdicts`` as columns: a :class:`CropVerdicts` as it is, objects converted once."""
    if isinstance(verdicts, CropVerdicts):
        return verdicts
    items = list(verdicts)
    return CropVerdicts(
        np.array([v.crop_id for v in items], np.int64),
        np.array([_LABEL_CODE[v.label] for v in items], np.int8),
        np.array([v.confidence for v in items], float),
    )


@dataclass
class BalancePlan:
    """Per-disease sample counts and the duplication multipliers to apply."""

    counts: dict[str, int] = field(default_factory=dict)
    multipliers: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        problems = []
        for kind, bounds in (("counts", "[0, inf)"), ("multipliers", "[1, inf)")):
            plan = getattr(self, kind)
            if not isinstance(plan, Mapping):
                problems.append(f"{kind} must be a mapping, got {shorten(plan)}")
                continue
            for name, value in plan.items():
                if name not in DISEASES:
                    problems.append(f"unknown disease {shorten(name)} in {kind}")
                problems += setting_problems(f"{kind}[{shorten(name)}]", value, bounds, integer=True)
        raise_problems(problems)
        self.counts = {d: int(self.counts.get(d, 0)) for d in DISEASES}
        self.multipliers = {d: int(self.multipliers.get(d, 1)) for d in DISEASES}

    def planned(self) -> dict[str, int]:
        """Effective per-class counts after duplication."""
        return {d: self.counts[d] * self.multipliers[d] for d in DISEASES}


@dataclass(frozen=True, slots=True)
class MergeConfig:
    overlap_iou: float = 0.5
    min_confidence: float = 0.5

    def __post_init__(self) -> None:
        raise_problems(
            setting_problems("overlap_iou", self.overlap_iou, "[0, 1]")
            + setting_problems("min_confidence", self.min_confidence, "[0, 1]")
        )


def _pad_problems(pad_fraction) -> list[str]:
    """The problem with a crop padding, a fraction of the box added on each side, if any."""
    return setting_problems("pad_fraction", pad_fraction, "[0, inf)")


def assign_crops(
    enums: DetectionSet,
    images: Sequence[AnnotatedImage],
    pad_fraction: float,
) -> CropSet:
    """Derive one crop per enumeration detection.

    Each box is expanded by ``pad_fraction`` of its own width/height on
    every side, then clamped to its image.  The input is expected to be
    score-gated already.

    Raises:
        ConfigError: ``pad_fraction`` is not a finite number >= 0.
        AxisUnavailable: an enumeration detection lacks its quadrant or tooth.
        MissingImage: an enumeration detection references an image id not
            present in ``images``.
        MalformedFile: the padded box of an enumeration detection lies
            entirely outside its image, so its crop would have no extent.
    """
    raise_problems(_pad_problems(pad_fraction))
    cols = enums.columns
    _refuse(
        (cols.quadrant < 0) | (cols.tooth < 0), cols.image_id, AxisUnavailable,
        "enumeration detection on image {} lacks quadrant/tooth axes",
    )
    image = cols.image_index(tuple(im.image_id for im in images))
    _refuse(
        image < 0, cols.image_id, MissingImage, "enumeration detection references unknown image {}"
    )
    pad = pad_fraction * cols.xywh[:, 2:]
    crop = np.concatenate([cols.xywh[:, :2] - pad, cols.xywh[:, 2:] + 2 * pad], axis=1)
    size = np.array([(im.width, im.height) for im in images], float).reshape(-1, 2)[image]
    crop = _clip(crop, size)
    _refuse(
        (crop[:, 2] <= 0) | (crop[:, 3] <= 0), cols.image_id, MalformedFile,
        "enumeration detection on image {} lies entirely outside the image",
    )
    return CropSet(cols, crop)


def audit_balance(ds: AnnotatedDataset) -> BalancePlan:
    """Histogram the disease labels of ``ds``; multipliers are left at the identity."""
    return BalancePlan(counts=Counter(c.disease for c in _TRIPLES[ds.key] if c.disease))


def oversample_plan(
    counts: Mapping[str, int],
    boost: Optional[Mapping[str, int]] = None,
) -> BalancePlan:
    """Attach duplication multipliers to a class histogram.

    The default boost doubles the two rarest classes (periapical lesions
    and deep caries) and leaves everything else untouched.
    """
    return BalancePlan(counts, DEFAULT_BOOST if boost is None else boost)


def classifications_to_detections(
    crops: CropSet,
    classifications: Iterable[CropClassification],
    min_confidence: float = MergeConfig().min_confidence,
) -> DetectionSet:
    """Convert confident non-normal crop verdicts into detections.

    Each emitted detection is the crop's enumeration row: its original box
    and tooth axes, labelled with the classifier's disease and scored as
    ``enum_score * confidence``.  At most one detection is emitted per
    crop.  The set covers the images of every crop.  ``classifications`` is
    a :class:`CropVerdicts` or any iterable of :class:`CropClassification`.

    Raises:
        DanglingCrop: the first classification that references a crop id
            outside the manifest, or a crop an earlier one classified.
    """
    MergeConfig(min_confidence=min_confidence)  # checks its range
    verdicts = _verdicts(classifications)
    crop_id = verdicts.crop_id
    unknown = crop_id >= len(crops)
    repeated = np.ones_like(unknown)
    repeated[np.unique(crop_id, return_index=True)[1]] = False
    bad = np.flatnonzero(unknown | repeated)
    if len(bad):
        first = bad[0]
        if unknown[first]:
            raise DanglingCrop(f"classification references unknown crop {crop_id[first]}")
        raise DanglingCrop(f"crop {crop_id[first]} classified more than once")
    kept = np.flatnonzero((verdicts.label > 0) & (verdicts.confidence >= min_confidence))

    rows, taken, n = crops.rows, crop_id[kept], len(kept)
    images, image = np.unique(rows.image, return_inverse=True)  # the images of every crop
    quadrant, tooth, _ = category_codes(rows.key.take(taken))
    found = Columns(
        tuple(rows.ids[k] for k in images.tolist()),
        image.astype(np.int32).take(taken),
        rows.xywh.take(taken, axis=0),
        rows.score.take(taken) * verdicts.confidence[kept],
        _category_key(quadrant, tooth, verdicts.label[kept] - 1),
        np.full(n, source_code("complementary"), np.int8),
        np.full(n, -1, np.int64),
    )
    return DetectionSet.from_columns(found, "complementary")


def merge_complementary(
    integrated: DetectionSet,
    comp: DetectionSet,
    cfg: MergeConfig = MergeConfig(),
) -> DetectionSet:
    """Append complementary detections the integrated stream missed.

    A complementary detection is suppressed only when some same-image
    integrated detection overlaps it with IoU >= ``cfg.overlap_iou`` AND
    carries the same disease label; spatial overlap with a different
    disease keeps both.  Integrated entries pass through untouched, and
    kept complementary detections are appended as they are.  The result
    is tagged ``fused`` and covers both universes.

    Raises:
        AxisUnavailable: an integrated detection has no disease label.
    """
    found, extra = integrated.columns, comp.columns
    found_disease, extra_disease = found.disease, extra.disease
    _refuse(
        found_disease < 0, found.image_id, AxisUnavailable,
        "integrated detection on image {} has no disease label",
    )

    duplicate = np.zeros(len(extra.score), bool)
    for c, f in same_image_blocks(extra.image_index(found.ids), found.image):
        overlap = _iou_block(extra.xywh[c], found.xywh[f]) >= cfg.overlap_iou
        same = extra_disease[c, None] == found_disease[f]
        duplicate[c] = (overlap & same).any(axis=1)
    return DetectionSet.concat([integrated, comp.take(~duplicate)], "fused")


# ---------------------------------------------------------------------------
# file formats


def write_crop_manifest(crops: CropSet, path: PathLike) -> None:
    """Write the crop manifest consumed by the external cropper/classifier, from its columns."""
    rows = crops.rows
    values = zip(
        _json_ids(rows.ids, rows.image), _json_floats(crops.boxes), _json_floats(rows.xywh),
        rows.quadrant.tolist(), rows.tooth.tolist(), _json_floats(rows.score),
    )
    lines = [
        f'{{"crop_id":{i},"image_id":{image_id},"crop_bbox":{crop},"source_bbox":{box},'
        f'"category_id_1":{q},"category_id_2":{t},"enum_score":{score}}}'
        for i, (image_id, crop, box, q, t, score) in enumerate(values)
    ]
    _write_lines(lines, path)


def read_crop_manifest(path: PathLike) -> CropSet:
    """Read a crop manifest, checked a field at a time by the rules of detection files.

    The error raised is that of the first bad record, for the first rule it
    breaks in this order: a record object, an ``int64`` ``crop_id`` that
    equals its index, ``image_id``, ``crop_bbox``, ``source_bbox``, the
    tooth codes ``category_id_1`` and ``category_id_2``, and ``enum_score``
    in [0, 1]. A bad number is named as :func:`setting_problems` names it:
    a value that is no number, or a code that is no integer, is
    :class:`MalformedFile`, and a code out of range ``InvalidCategory``.
    The rows cover the images of the crops.
    """
    data = _load_json(path, "crop manifest")
    rules = _FirstBreak(f"{path} ")
    records = _records(data, "crop", rules)
    n = len(records)
    crop_ids = _number_field(records, "crop_id", _ID_RANGE, MalformedFile, rules, integer=True)
    rules.note(crop_ids != np.arange(n), MalformedFile, lambda i: "crop ids must be dense and ordered")
    ids = _image_ids(records, "image_id", rules)
    crop = _boxes(records, "crop_bbox", rules)
    source = _boxes(records, "source_bbox", rules)
    quadrant, tooth = (
        _number_field(records, key, bounds, InvalidCategory, rules, integer=True)
        for key, bounds in _TRIPLE_KEYS[:2]
    )
    score = _number_field(records, "enum_score", "[0, 1]", MalformedFile, rules)
    rules.raise_first()
    universe, image = _resolve_universe(ids, None)
    key = _category_key(quadrant, tooth, np.full(n, -1, np.int8))
    origin = np.full(n, source_code("enumeration-model"), np.int8)
    link = np.full(n, -1, np.int64)
    rows = Columns(universe, image, source, score, key, origin, link)
    return CropSet(rows, crop)


def parse_crop_classifications(path: PathLike) -> CropVerdicts:
    """Parse the external classifier's output: ``{crop_id, label, confidence}``.

    A :class:`MalformedFile` names the first bad record and the first rule it
    breaks: a record object, an ``int64`` ``crop_id`` >= 0, a known label, a
    confidence in [0, 1]. A bad number is named as :func:`setting_problems` names it.
    """
    data = _load_json(path, "classifications")
    rules = _FirstBreak(f"{path} ")
    records = _records(data, "classification", rules)
    crop_id = _number_field(records, "crop_id", _ID_RANGE, MalformedFile, rules, integer=True)
    labels = _field(records, "label", None)
    label = np.array([_LABEL_CODE.get(v, -1) if type(v) is str else -1 for v in labels], np.int8)
    rules.note(label < 0, MalformedFile, lambda i: f"unknown label {shorten(labels[i])}")
    confidence = _number_field(records, "confidence", "[0, 1]", MalformedFile, rules)
    rules.raise_first()
    return CropVerdicts(crop_id, label, confidence)


def write_crop_classifications(items: Iterable[CropClassification], path: PathLike) -> None:
    """Write verdicts as ``{crop_id, label, confidence}`` records, from their columns."""
    v = _verdicts(items)
    values = zip(v.crop_id.tolist(), v.label.tolist(), _json_floats(v.confidence))
    lines = [f'{{"crop_id":{i},"label":{_LABEL_TEXT[k]},"confidence":{c}}}' for i, k, c in values]
    _write_lines(lines, path)
