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
  :mod:`detfuse.results`.

Ground truth is held as columns: an :class:`AnnotatedDataset` keeps one
row per annotation (image index, ``xywh``, category key, segmentation),
and :class:`GroundTruthAnnotation` objects are views of those rows.

This module holds the JSON helpers and the field rules that every record
file follows: detections, ground truth and crop manifests.  An image id is
an integer (not a bool) or a string; anything else is a
:class:`MalformedFile` naming its record, and a :class:`ConfigError` where
an id enters memory.

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
from functools import cached_property
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .detections import (
    _TRIPLES,
    _category_key,
    _encode_compact,
    _image_index,
    _per_row,
    _record_columns,
    _refuse,
    category_codes,
)
from .errors import (
    ConfigError,
    CountMismatch,
    DanglingReference,
    InvalidCategory,
    MalformedFile,
    MissingImage,
    raise_problems,
    setting_problems,
    shorten,
)
from .geometry import (
    _FAST, _FLOAT_MAX, _ID_TYPES, BoundingBox, CategoryTriple, ImageId, _image_id_problems
)

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]


@dataclass(frozen=True, slots=True)
class AnnotatedImage:
    image_id: ImageId
    width: float
    height: float
    file_name: str = ""

    def __post_init__(self) -> None:
        w, h = self.width, self.height
        fast = type(w) in _FAST and type(h) in _FAST and 0 < w <= _FLOAT_MAX and 0 < h <= _FLOAT_MAX
        if type(self.image_id) not in _ID_TYPES:
            raise_problems(_image_id_problems((self.image_id,)))
        if not fast and (setting_problems("w", w, "(0, inf)") or setting_problems("h", h, "(0, inf)")):
            raise ConfigError(f"image extent must be finite and > 0, got {shorten(w)}x{shorten(h)}")


@dataclass(frozen=True, slots=True)
class GroundTruthAnnotation:
    """One row of an :class:`AnnotatedDataset`, as a view built when ``annotations`` is read."""

    image_id: ImageId
    box: BoundingBox
    category: CategoryTriple
    mask_payload: object = None


class AnnotatedDataset:
    """Images plus their ground-truth annotations, held as columns.

    One row per annotation: ``image`` (``int32``) indexes ``images``,
    ``xywh`` is ``float64 [N, 4]``, ``key`` is the category key, as in
    :attr:`~detfuse.detections.Columns.key`, and ``segmentation``
    is a tuple of opaque payloads, ``None`` where absent. A
    :class:`GroundTruthAnnotation` is a view, built when ``annotations`` is
    first read. A dataset constructed from annotation objects converts them
    to columns once and keeps them as its views.
    """

    __hash__ = None

    def __init__(
        self, images: Iterable[AnnotatedImage], annotations: Iterable[GroundTruthAnnotation]
    ) -> None:
        images, objects = tuple(images), tuple(annotations)
        ids = [a.image_id for a in objects]
        raise_problems(_image_id_problems(ids))
        image, xywh, key = _record_columns(objects, [im.image_id for im in images])
        self._fill(images, image, xywh, key, [a.mask_payload for a in objects])
        _refuse(image < 0, ids.__getitem__, DanglingReference, "annotation references unknown image {}")
        self.annotations = objects

    @classmethod
    def _from_columns(cls, images, image, xywh, key, segmentation) -> "AnnotatedDataset":
        """The dataset of ``images`` and checked columns whose ``image`` indexes them."""
        return cls.__new__(cls)._fill(images, image, xywh, key, segmentation)

    def _fill(self, images, image, xywh, key, segmentation) -> "AnnotatedDataset":
        self.images = tuple(images)
        ids = self.image_ids()
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate image ids in dataset")
        self.image, self.xywh, self.key, self.segmentation = image, xywh, key, tuple(segmentation)
        return self

    @cached_property
    def annotations(self) -> tuple[GroundTruthAnnotation, ...]:
        categories = _TRIPLES[self.key]
        rows = _per_row(self.image_ids(), self.image, self.xywh, categories, self.segmentation)
        return tuple(
            GroundTruthAnnotation(image_id, BoundingBox(*box), category, mask)
            for image_id, box, category, mask in rows
        )

    def image_ids(self) -> list[ImageId]:
        return [im.image_id for im in self.images]

    def __len__(self) -> int:
        return len(self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnnotatedDataset):
            return NotImplemented
        return (self.images, self.annotations) == (other.images, other.annotations)


@dataclass(frozen=True, slots=True)
class SplitSpec:
    """Deterministic train/val/test partition sizes plus the shuffle seed."""

    train_count: int
    val_count: int
    test_count: int
    seed: int = 0

    def __post_init__(self) -> None:
        raise_problems(
            setting_problems("train_count", self.train_count, "[0, inf)", integer=True)
            + setting_problems("val_count", self.val_count, "[0, inf)", integer=True)
            + setting_problems("test_count", self.test_count, "[0, inf)", integer=True)
            + setting_problems("seed", self.seed, "[0, inf)", integer=True)
        )

    @property
    def total(self) -> int:
        return self.train_count + self.val_count + self.test_count


# ---------------------------------------------------------------------------
# parsing helpers


def _load_json(path: PathLike, what: str, kind: type = list):
    """The JSON in ``path``; :class:`MalformedFile` unless it is a ``kind``, calling it ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, kind):
        raise MalformedFile(f"{path}: {what} must be a JSON {'array' if kind is list else 'object'}")
    return data


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


def _write_lines(lines: list[str], path: PathLike) -> None:
    """Write the record texts ``lines`` as a JSON array, one per line, as every record file is."""
    with _atomic_open(path) as fh:
        fh.write("[\n" + ",\n".join(lines) + "\n]\n" if lines else "[]\n")


def _dump_json(obj, path: PathLike) -> None:
    """Write ``obj`` as JSON ending in a newline; ``path`` changes only once the write is complete.

    A list is written one compact record per line by :func:`_write_lines`, the
    writer of every record file. Any other value (metrics reports, ground
    truth, balance plans) is indented by 2.
    """
    if isinstance(obj, list):
        _write_lines(list(map(_encode_compact, obj)), path)
        return
    with _atomic_open(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# record rules
#
# Every record file is checked a field at a time: each rule below reads one
# field of every record and notes the first record that breaks it. The
# records given to a rule hold ``{}`` for each value that is no object, so
# every rule can run on every row.

#: Stands for a field that a record does not have.
_ABSENT = object()

#: The 0-based id fields of a category triple and their number of values.
_TRIPLE_KEYS = (("category_id_1", 4), ("category_id_2", 8), ("category_id_3", 4))


#: The ``category_id_1/2/3`` fields of each category key; an absent axis is left out.
_KEY_FIELDS = np.array([
    {name: c for (name, _), c in zip(_TRIPLE_KEYS, category_codes(k)) if c >= 0}
    for k in range(len(_TRIPLES))
], object)
#: The fields of :data:`_KEY_FIELDS` as record text, ``,"category_id_1":0`` and on.
_KEY_TEXT = np.array(["".join(f',"{n}":{c}' for n, c in f.items()) for f in _KEY_FIELDS], object)


#: Stands in for a rejected box, so that the later checks can run on every row.
_UNIT_BOX = [0.0, 0.0, 1.0, 1.0]


class _FirstBreak:
    """The first record that breaks a rule, and the first rule it breaks.

    Rules are noted in the order a record is checked, so that of the rules
    one record breaks, the first noted is the one reported. ``where`` is the
    message prefix that the record's ``[index]`` follows.
    """

    def __init__(self, where: str) -> None:
        self.where = where
        self.first: Optional[tuple] = None

    def note(self, bad: np.ndarray, error: type, message: Callable[[int], str]) -> None:
        """Rows ``bad`` break a rule; ``message(i)`` says how row ``i`` does."""
        if bad.any():
            i = int(bad.argmax())
            if self.first is None or i < self.first[0]:
                self.first = (i, error, message)

    def raise_first(self) -> None:
        if self.first is not None:
            i, error, message = self.first
            raise error(f"{self.where}[{i}]: {message(i)}")


def _mistyped(values: list, kinds: set) -> Optional[np.ndarray]:
    """None when the type of every value is in ``kinds``, else the mask of the values whose is not."""
    if set(map(type, values)) <= kinds:
        return None
    return np.array([type(v) not in kinds for v in values], bool)


def _float(value) -> float:
    """``float(value)``, or NaN for an integer too large for a float."""
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _numbers(values: list) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as ``float64``, and the mask of those that are no number.

    A number is an ``int`` or a ``float``; a bool is neither. A value that
    is no number, or an integer too large for a float, reads as NaN, so
    ``~np.isfinite`` of the result marks every value that is no finite number.
    """
    mistyped = _mistyped(values, {int, float})
    if mistyped is None:
        mistyped = np.zeros(len(values), bool)
    else:
        values = [v if ok else math.nan for v, ok in zip(values, ~mistyped)]
    try:
        return np.fromiter(values, float, len(values)), mistyped
    except OverflowError:
        return np.fromiter(map(_float, values), float, len(values)), mistyped


def _field(records: list, key: str, default=_ABSENT) -> list:
    return list(map(dict.get, records, repeat(key), repeat(default)))


def _present(records: list, key: str) -> np.ndarray:
    return np.fromiter(map(dict.__contains__, records, repeat(key)), bool, len(records))


def _records(data: list, noun: str, rules: _FirstBreak) -> list:
    """``data`` with ``{}`` for each value that is no object; such a value breaks the first rule."""
    bad = _mistyped(data, {dict})
    if bad is None:
        return data
    rules.note(bad, MalformedFile, lambda i: f"{noun} record must be an object")
    return [rec if ok else {} for rec, ok in zip(data, ~bad)]


def _image_ids(records: list, key: str, rules: _FirstBreak) -> list:
    """The ``key`` field of each record, an integer (not a bool) or a string; 0 where it is not."""
    ids = _field(records, key)
    bad = _mistyped(ids, _ID_TYPES)
    if bad is None:
        return ids
    rules.note(bad & ~_present(records, key), MalformedFile, lambda i: f"record lacks {key}")
    rules.note(
        bad,
        MalformedFile,
        lambda i: f"{key} must be an integer or a string, got {shorten(records[i][key])}",
    )
    return [image_id if ok else 0 for image_id, ok in zip(ids, ~bad)]


def _boxes(records: list, key: str, rules: _FirstBreak) -> np.ndarray:
    """The ``key`` box of each record as ``float64 [N, 4]``: 4 finite numbers, positive width and height."""
    n = len(records)
    boxes = _field(records, key)
    if not (set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {4}):
        bad = np.array([type(box) is not list or len(box) != 4 for box in boxes], bool)
        rules.note(
            bad,
            MalformedFile,
            lambda i: f"{key} must be a 4-element [x, y, w, h] list, got {shorten(records[i].get(key))}",
        )
        boxes = [_UNIT_BOX if b else box for box, b in zip(boxes, bad)]
    xywh = _numbers(list(chain.from_iterable(boxes)))[0].reshape(n, 4)
    rules.note(
        ~np.isfinite(xywh).all(axis=1),
        MalformedFile,
        lambda i: f"{key} values must be finite numbers, got {shorten(records[i][key])}",
    )
    rules.note(
        (xywh[:, 2] <= 0) | (xywh[:, 3] <= 0),
        MalformedFile,
        lambda i: f"{key} must have positive width and height, got {shorten(records[i][key])}",
    )
    return xywh


def _code_column(
    records: list, key: str, upper: int, present: np.ndarray, rules: _FirstBreak
) -> np.ndarray:
    """The ``int8`` codes of the 0-based id field ``key``, -1 where it is absent.

    Rows ``present`` must hold an integer in ``0..upper - 1``; a record
    without the field is one of them when ``present`` says so.
    """
    values = _field(records, key, -1)
    if set(map(type, values)) <= {int} and set(values) <= set(range(-1, upper)):
        codes = np.fromiter(values, np.int8, len(values))
        if not (present & (codes < 0)).any():
            return codes
    values = _field(records, key, None)
    mistyped = present & np.array([type(v) is not int for v in values], bool)
    rules.note(
        mistyped,
        InvalidCategory,
        lambda i: f"{key!r} must be an integer, got {shorten(records[i].get(key))}",
    )
    in_range = [type(v) is int and 0 <= v < upper for v in values]
    rules.note(
        present & ~mistyped & ~np.array(in_range, bool),
        InvalidCategory,
        lambda i: f"{key!r} out of range 0..{upper - 1}, got {shorten(records[i][key])}",
    )
    return np.fromiter((v if ok else -1 for v, ok in zip(values, in_range)), np.int8, len(values))


def _decode_bare(
    records: list, bare: np.ndarray, mode: Optional[str], codes: list, rules: _FirstBreak
) -> None:
    """Decode the bare ``category_id`` of the ``bare`` rows into the quadrant, tooth and disease ``codes``."""
    values = _field(records, "category_id", 0)
    mistyped = bare & np.array([type(v) is not int for v in values], bool)
    rules.note(
        mistyped,
        MalformedFile,
        lambda i: f"field 'category_id' must be an integer, got {shorten(records[i]['category_id'])}",
    )
    rows = bare & ~mistyped
    if mode is None:
        rules.note(
            rows,
            MalformedFile,
            lambda i: "bare category_id is ambiguous for this stream; use category_id_1/2/3",
        )
        return
    upper = 32 if mode == "product" else 4
    cid = np.fromiter((v if type(v) is int and 0 <= v < upper else -1 for v in values), int, len(values))
    label = "category_id" if mode == "product" else "disease category_id"
    rules.note(
        rows & (cid < 0),
        InvalidCategory,
        lambda i: f"{label} out of range 0..{upper - 1}, got {shorten(records[i]['category_id'])}",
    )
    ok = rows & (cid >= 0)
    if mode == "product":
        codes[0][ok] = cid[ok] // 8
        codes[1][ok] = cid[ok] % 8
    else:
        codes[2][ok] = cid[ok]


def _categories(records: list, bare_mode: Optional[str], rules: _FirstBreak) -> np.ndarray:
    """The category key of each record's category fields.

    A record holds a triple of 0-based ids or, without one, a bare
    ``category_id``: ``bare_mode`` ``"product"`` reads it as quadrant * 8 +
    tooth, ``"disease"`` as a disease, and ``None`` forbids it.
    """
    triple = np.zeros(len(records), bool)
    codes = []
    for key, upper in _TRIPLE_KEYS:
        present = _present(records, key)
        triple |= present
        codes.append(_code_column(records, key, upper, present, rules))
    bare = ~triple & _present(records, "category_id")
    rules.note(~triple & ~bare, MalformedFile, lambda i: "record has no category fields")
    if bare.any():
        _decode_bare(records, bare, bare_mode, codes, rules)
    return _category_key(*codes)


def _clip(xywh: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The part of each box inside its ``(width, height)`` image; a zero extent where no part is."""
    x, y, w, h = xywh.T
    lo = np.stack([x, y], axis=1)
    hi = np.stack([x + w, y + h], axis=1)
    # min(max(v, 0.0), extent), with Python's choice between equal values.
    lo = np.where(lo < 0.0, 0.0, lo)
    lo = np.where(size < lo, size, lo)
    hi = np.where(hi < 0.0, 0.0, hi)
    hi = np.where(size < hi, size, hi)
    return np.concatenate([lo, hi - lo], axis=1)


# ---------------------------------------------------------------------------
# ground truth


def parse_ground_truth(path: PathLike) -> AnnotatedDataset:
    """Parse a COCO/DENTEX-style ground-truth file.

    Images and annotations are checked a field at a time, by the rules
    detection files follow. The error raised is that of the first bad
    record, for the first rule it breaks: an image is an object with an
    ``id`` and a positive ``width`` and ``height``; an annotation is an
    object with an ``image_id``, a ``bbox`` and category fields, where a
    bare ``category_id`` is quadrant * 8 + tooth. Only when every
    annotation passes, one on an unknown image raises, and after that one
    whose box lies entirely outside its image. Other boxes that exceed
    their image are clamped to it; one warning per file gives their count
    and the first of them.

    Raises:
        MalformedFile: bad JSON, missing keys, or degenerate boxes.
        DanglingReference: annotation pointing at a missing image.
        InvalidCategory: category ids outside their documented ranges.
    """
    data = _load_json(path, "ground truth", dict)
    for key in ("images", "annotations"):
        if key not in data or not isinstance(data[key], list):
            raise MalformedFile(f"{path}: missing or non-list {key!r} section")
    images = _parse_images(data["images"], path)

    rules = _FirstBreak(f"{path} annotations")
    records = _records(data["annotations"], "annotation", rules)
    ids = _image_ids(records, "image_id", rules)
    xywh = _boxes(records, "bbox", rules)
    key = _categories(records, "product", rules)
    rules.raise_first()

    image = _image_index(ids, [im.image_id for im in images])
    _refuse(image < 0, ids.__getitem__, DanglingReference, "unknown image_id {}", f"{path} annotations")
    size = np.array([(im.width, im.height) for im in images], float).reshape(-1, 2)[image]
    with np.errstate(over="ignore"):
        inside = (xywh[:, :2] >= 0).all(axis=1) & (xywh[:, :2] + xywh[:, 2:] <= size).all(axis=1)
        exceeds = np.flatnonzero(~inside)
        clipped = _clip(xywh[exceeds], size[exceeds])
    outside = exceeds[(clipped[:, 2] <= 0) | (clipped[:, 3] <= 0)]
    if len(outside):
        i = outside[0]
        raise MalformedFile(
            f"{path} annotations[{i}]: box {xywh[i].tolist()} lies entirely outside the image"
        )
    if len(exceeds):
        i = exceeds[0]
        im = images[image[i]]
        logger.warning(
            "%s: %d boxes exceed their image bounds and were clamped; first: %s",
            path, len(exceeds),
            f"annotations[{i}] box {xywh[i].tolist()} exceeds the {im.width}x{im.height} image, "
            f"clamped to {clipped[0].tolist()}",
        )
        xywh[exceeds] = clipped
    segmentation = _field(records, "segmentation", None)
    return AnnotatedDataset._from_columns(images, image, xywh, key, segmentation)


def _parse_images(data: list, path: PathLike) -> tuple[AnnotatedImage, ...]:
    rules = _FirstBreak(f"{path} images")
    records = _records(data, "image", rules)
    ids = _image_ids(records, "id", rules)
    extents = []
    for key in ("width", "height"):
        extent = _numbers(_field(records, key))[0]
        rules.note(
            ~(np.isfinite(extent) & (extent > 0)),
            MalformedFile,
            lambda i, key=key: f"{key} must be a positive number, got {shorten(records[i].get(key))}",
        )
        extents.append(extent.tolist())
    rules.raise_first()
    if len(set(ids)) != len(ids):
        raise MalformedFile(f"{path}: duplicate image ids")
    return tuple(
        AnnotatedImage(image_id, width, height, name)
        for image_id, width, height, name in zip(ids, *extents, _field(records, "file_name", ""))
    )


def write_ground_truth(ds: AnnotatedDataset, path: PathLike) -> None:
    """Serialize a dataset back to the canonical COCO-style layout, from its columns."""
    images = [
        {"id": im.image_id, "width": im.width, "height": im.height, "file_name": im.file_name}
        for im in ds.images
    ]
    rows = _per_row(ds.image_ids(), ds.image, ds.xywh, _KEY_FIELDS[ds.key], ds.segmentation)
    annotations = []
    for i, (image_id, box, fields, mask) in enumerate(rows):
        rec: dict = {"id": i, "image_id": image_id, "bbox": box, **fields}
        if mask is not None:
            rec["segmentation"] = mask
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


def subset_dataset(ds: AnnotatedDataset, ids: Iterable[ImageId]) -> AnnotatedDataset:
    """Restrict a dataset to ``ids``, in their order; an id not in it is :class:`MissingImage`."""
    ids = list(ids)
    raise_problems(_image_id_problems(ids))
    index = _image_index(ids, ds.image_ids())
    _refuse(index < 0, ids.__getitem__, MissingImage, "image {} is not in the dataset")
    images = tuple(map(ds.images.__getitem__, index.tolist()))
    image = _image_index(ds.image_ids(), ids)[ds.image]
    rows = image >= 0
    segmentation = compress(ds.segmentation, rows.tolist())
    return AnnotatedDataset._from_columns(
        images, image[rows], ds.xywh[rows], ds.key[rows], segmentation
    )


def write_id_list(ids: Sequence[ImageId], path: PathLike) -> None:
    """Write ``ids`` as a JSON list; an id that is not an int or a str is :class:`ConfigError`."""
    ids = list(ids)
    raise_problems(_image_id_problems(ids))
    _dump_json(ids, path)
