"""Dataset and detection file ingestion, serialization and splitting.

Two file families are understood, both UTF-8 JSON:

* Ground truth: a COCO-style object with ``images`` and ``annotations``
  lists.  Annotation categories come either as the triple
  ``category_id_1`` (quadrant, 0..3), ``category_id_2`` (tooth, 0..7),
  ``category_id_3`` (disease, 0..3), or as a single ``category_id`` in
  0..31 encoding ``quadrant * 8 + tooth``.  All ids are 0-based on disk
  and normalized to 1-based quadrant/enumeration plus a named disease
  internally.  ``segmentation`` payloads are carried opaquely and never
  interpreted.
* Detections: a COCO results array of ``{image_id, bbox, score, ...}``
  records with the same category fields.  A bare ``category_id`` is
  decoded according to the stream's source tag: the enumeration model
  uses the 32-class product, diagnosis streams use the 4 disease
  classes.  Integrated files are detection files whose records may also
  carry ``matched_enum_id``.  They are read and written by
  :mod:`detfuse.results`; this module holds the JSON helpers both use.

An image id is an integer (not a bool) or a string; anything else is a
:class:`MalformedFile` naming its record.

Unknown extra keys are ignored on read; writers emit a canonical subset
of keys so that parse -> write round-trips are stable.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .detections import DetectionSet  # noqa: F401  (the oracle reads it from here)
from .errors import (
    CountMismatch,
    DanglingReference,
    InvalidCategory,
    MalformedFile,
)
from .geometry import DISEASES, BoundingBox, CategoryTriple, ImageId

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]


@dataclass(frozen=True, slots=True)
class AnnotatedImage:
    image_id: ImageId
    width: float
    height: float
    file_name: str = ""

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image extent must be positive, got {self.width}x{self.height}")


@dataclass(frozen=True, slots=True)
class GroundTruthAnnotation:
    image_id: ImageId
    box: BoundingBox
    category: CategoryTriple
    mask_payload: object = None


@dataclass
class AnnotatedDataset:
    """Images plus their ground-truth annotations."""

    images: tuple[AnnotatedImage, ...]
    annotations: tuple[GroundTruthAnnotation, ...]

    def __post_init__(self) -> None:
        self.images = tuple(self.images)
        self.annotations = tuple(self.annotations)
        ids = [im.image_id for im in self.images]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate image ids in dataset")
        known = set(ids)
        for ann in self.annotations:
            if ann.image_id not in known:
                raise DanglingReference(f"annotation references unknown image {ann.image_id!r}")

    def image_ids(self) -> list[ImageId]:
        return [im.image_id for im in self.images]

    def images_by_id(self) -> dict[ImageId, AnnotatedImage]:
        return {im.image_id: im for im in self.images}

    def __len__(self) -> int:
        return len(self.images)


@dataclass(frozen=True, slots=True)
class SplitSpec:
    """Deterministic train/val/test partition sizes plus the shuffle seed."""

    train_count: int
    val_count: int
    test_count: int
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.train_count, self.val_count, self.test_count) < 0:
            raise ValueError("split counts must be non-negative")

    @property
    def total(self) -> int:
        return self.train_count + self.val_count + self.test_count


# ---------------------------------------------------------------------------
# parsing helpers


def _load_json(path: PathLike):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path} is not valid JSON: {exc}") from exc


@contextlib.contextmanager
def _atomic_open(path: PathLike, newline: Optional[str] = None) -> Iterator[TextIO]:
    """A UTF-8 text file that replaces ``path`` only once the ``with`` block completes.

    The file is written next to ``path`` and ``os.replace``d into place, so
    a failure partway leaves the previous ``path`` untouched and no temp file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# The C encoder, which ``json.dump`` gives up as soon as ``indent`` is set.
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


def _dump_json(obj, path: PathLike) -> None:
    """Write ``obj`` as JSON ending in a newline; ``path`` changes only once the write is complete.

    A list (every record artifact) is written as ``[``, then one compact
    record per line, then ``]``; ``[]`` when empty.  Records are encoded
    one at a time, so the whole array is never held as text.  Any other
    value (metrics reports, ground truth, balance plans) is indented by 2.
    """
    with _atomic_open(path) as fh:
        if isinstance(obj, list):
            sep = "[\n"
            for rec in obj:
                fh.write(sep)
                fh.write(_encode_compact(rec))
                sep = ",\n"
            fh.write("\n]\n" if obj else "[]\n")
        else:
            json.dump(obj, fh, indent=2)
            fh.write("\n")


def _is_image_id(value) -> bool:
    """True for an image id: an integer (not a bool) or a string."""
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def _require_int(rec: dict, key: str, where: str) -> int:
    v = rec.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise MalformedFile(f"{where}: field {key!r} must be an integer, got {v!r}")
    return v


def _parse_bbox(rec: dict, where: str) -> BoundingBox:
    raw = rec.get("bbox")
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise MalformedFile(f"{where}: bbox must be a 4-element [x, y, w, h] list, got {raw!r}")
    vals = []
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise MalformedFile(f"{where}: bbox values must be finite numbers, got {raw!r}")
        vals.append(float(v))
    x, y, w, h = vals
    if w <= 0 or h <= 0:
        raise MalformedFile(f"{where}: bbox must have positive width and height, got {raw!r}")
    return BoundingBox(x, y, w, h)


def _ranged_id(rec: dict, key: str, upper: int, where: str) -> Optional[int]:
    """Read an optional 0-based id field, enforcing 0 <= id < upper."""
    if key not in rec:
        return None
    v = rec[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise InvalidCategory(f"{where}: {key!r} must be an integer, got {v!r}")
    if not 0 <= v < upper:
        raise InvalidCategory(f"{where}: {key!r} out of range 0..{upper - 1}, got {v}")
    return v


def _decode_product_id(cid: int, where: str) -> CategoryTriple:
    if not 0 <= cid < 32:
        raise InvalidCategory(f"{where}: category_id out of range 0..31, got {cid}")
    return CategoryTriple(quadrant=cid // 8 + 1, enumeration=cid % 8 + 1)


def _decode_category(rec: dict, where: str, *, bare_id_mode: Optional[str]) -> CategoryTriple:
    """Normalize on-disk category fields to a :class:`CategoryTriple`.

    ``bare_id_mode`` selects how a single ``category_id`` is decoded:
    ``"product"`` (32-class quadrant x tooth) or ``"disease"`` (4-class).
    ``None`` forbids the bare form.
    """
    has_triple = any(k in rec for k in ("category_id_1", "category_id_2", "category_id_3"))
    if has_triple:
        q = _ranged_id(rec, "category_id_1", 4, where)
        t = _ranged_id(rec, "category_id_2", 8, where)
        d = _ranged_id(rec, "category_id_3", 4, where)
        return CategoryTriple(
            quadrant=None if q is None else q + 1,
            enumeration=None if t is None else t + 1,
            disease=None if d is None else DISEASES[d],
        )
    if "category_id" in rec:
        cid = _require_int(rec, "category_id", where)
        if bare_id_mode == "product":
            return _decode_product_id(cid, where)
        if bare_id_mode == "disease":
            if not 0 <= cid < 4:
                raise InvalidCategory(f"{where}: disease category_id out of range 0..3, got {cid}")
            return CategoryTriple(disease=DISEASES[cid])
        raise MalformedFile(
            f"{where}: bare category_id is ambiguous for this stream; "
            "use category_id_1/2/3"
        )
    raise MalformedFile(f"{where}: record has no category fields")


def _clip_to_image(box: BoundingBox, image: AnnotatedImage) -> BoundingBox:
    """The part of ``box`` inside ``image``; ValueError when nothing is inside."""
    x0 = min(max(box.x, 0.0), image.width)
    y0 = min(max(box.y, 0.0), image.height)
    x1 = min(max(box.x + box.w, 0.0), image.width)
    y1 = min(max(box.y + box.h, 0.0), image.height)
    return BoundingBox(x0, y0, x1 - x0, y1 - y0)


def _clamp_box(box: BoundingBox, image: AnnotatedImage, where: str) -> BoundingBox:
    """``box`` itself when it lies inside ``image``, else its clipped part."""
    inside = (
        box.x >= 0 and box.y >= 0
        and box.x + box.w <= image.width and box.y + box.h <= image.height
    )
    if inside:
        return box
    try:
        clamped = _clip_to_image(box, image)
    except ValueError as exc:
        raise MalformedFile(
            f"{where}: box {box.as_xywh()} lies entirely outside the image"
        ) from exc
    return clamped


# ---------------------------------------------------------------------------
# ground truth


def parse_ground_truth(path: PathLike) -> AnnotatedDataset:
    """Parse a COCO/DENTEX-style ground-truth file.

    Boxes that exceed their image are clamped to it; one warning per file
    gives their count and the first of them.

    Raises:
        MalformedFile: bad JSON, missing keys, or degenerate boxes.
        DanglingReference: annotation pointing at a missing image.
        InvalidCategory: category ids outside their documented ranges.
    """
    data = _load_json(path)
    if not isinstance(data, dict):
        raise MalformedFile(f"{path}: ground truth must be a JSON object")
    for key in ("images", "annotations"):
        if key not in data or not isinstance(data[key], list):
            raise MalformedFile(f"{path}: missing or non-list {key!r} section")

    images = []
    for i, rec in enumerate(data["images"]):
        where = f"{path} images[{i}]"
        if not isinstance(rec, dict):
            raise MalformedFile(f"{where}: image record must be an object")
        if "id" not in rec:
            raise MalformedFile(f"{where}: image record lacks an id")
        if not _is_image_id(rec["id"]):
            raise MalformedFile(f"{where}: id must be an integer or a string, got {rec['id']!r}")
        width = rec.get("width")
        height = rec.get("height")
        for name, v in (("width", width), ("height", height)):
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
                raise MalformedFile(f"{where}: {name} must be a positive number, got {v!r}")
        images.append(
            AnnotatedImage(rec["id"], float(width), float(height), rec.get("file_name", ""))
        )
    by_id = {im.image_id: im for im in images}
    if len(by_id) != len(images):
        raise MalformedFile(f"{path}: duplicate image ids")

    annotations = []
    clamped = 0
    first_clamp = ""
    for i, rec in enumerate(data["annotations"]):
        where = f"{path} annotations[{i}]"
        if not isinstance(rec, dict):
            raise MalformedFile(f"{where}: annotation record must be an object")
        image_id = rec.get("image_id")
        if "image_id" in rec and not _is_image_id(image_id):
            raise MalformedFile(
                f"{where}: image_id must be an integer or a string, got {image_id!r}"
            )
        if image_id not in by_id:
            raise DanglingReference(f"{where}: unknown image_id {image_id!r}")
        raw = _parse_bbox(rec, where)
        image = by_id[image_id]
        box = _clamp_box(raw, image, where)
        if box is not raw:
            if not clamped:
                first_clamp = (
                    f"annotations[{i}] box {raw.as_xywh()} exceeds the "
                    f"{image.width}x{image.height} image, clamped to {box.as_xywh()}"
                )
            clamped += 1
        category = _decode_category(rec, where, bare_id_mode="product")
        annotations.append(
            GroundTruthAnnotation(image_id, box, category, rec.get("segmentation"))
        )
    if clamped:
        logger.warning(
            "%s: %d boxes exceed their image bounds and were clamped; first: %s",
            path, clamped, first_clamp,
        )

    return AnnotatedDataset(tuple(images), tuple(annotations))


def _encode_category(cat: CategoryTriple) -> dict:
    rec: dict = {}
    if cat.quadrant is not None:
        rec["category_id_1"] = cat.quadrant - 1
    if cat.enumeration is not None:
        rec["category_id_2"] = cat.enumeration - 1
    if cat.disease is not None:
        rec["category_id_3"] = DISEASES.index(cat.disease)
    return rec


def write_ground_truth(ds: AnnotatedDataset, path: PathLike) -> None:
    """Serialize a dataset back to the canonical COCO-style layout."""
    images = [
        {"id": im.image_id, "width": im.width, "height": im.height, "file_name": im.file_name}
        for im in ds.images
    ]
    annotations = []
    for i, ann in enumerate(ds.annotations):
        rec: dict = {"id": i, "image_id": ann.image_id, "bbox": ann.box.as_xywh()}
        rec.update(_encode_category(ann.category))
        if ann.mask_payload is not None:
            rec["segmentation"] = ann.mask_payload
        annotations.append(rec)
    _dump_json({"images": images, "annotations": annotations}, path)


# ---------------------------------------------------------------------------
# splitting


def split_ids(ids: Sequence[ImageId], spec: SplitSpec) -> tuple[list, list, list]:
    """Shuffle ``ids`` with a seeded PRNG and slice into train/val/test."""
    if spec.total != len(ids):
        raise CountMismatch(
            f"split counts sum to {spec.total} but there are {len(ids)} ids"
        )
    perm = np.random.default_rng(spec.seed).permutation(len(ids))
    shuffled = [ids[i] for i in perm]
    train = shuffled[: spec.train_count]
    val = shuffled[spec.train_count : spec.train_count + spec.val_count]
    test = shuffled[spec.train_count + spec.val_count :]
    return train, val, test


def subset_dataset(ds: AnnotatedDataset, ids: Sequence[ImageId]) -> AnnotatedDataset:
    """Restrict a dataset to ``ids``, keeping images in the given order."""
    by_id = ds.images_by_id()
    images = tuple(by_id[i] for i in ids)
    wanted = set(ids)
    annotations = tuple(a for a in ds.annotations if a.image_id in wanted)
    return AnnotatedDataset(images, annotations)


def split_dataset(
    ds: AnnotatedDataset, spec: SplitSpec
) -> tuple[AnnotatedDataset, AnnotatedDataset, AnnotatedDataset]:
    """Deterministically partition a dataset into train/val/test.

    The image id list is shuffled with a PRNG seeded from ``spec.seed``
    and sliced; annotations follow their images.  The three outputs are
    pairwise disjoint and jointly cover the input.
    """
    train_ids, val_ids, test_ids = split_ids(ds.image_ids(), spec)
    return (
        subset_dataset(ds, train_ids),
        subset_dataset(ds, val_ids),
        subset_dataset(ds, test_ids),
    )


def write_id_list(ids: Sequence[ImageId], path: PathLike) -> None:
    _dump_json(list(ids), path)


def read_id_list(path: PathLike) -> list:
    data = _load_json(path)
    if not isinstance(data, list):
        raise MalformedFile(f"{path}: id list must be a JSON array")
    return data
