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
import operator
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np
import orjson

from .detections import (
    _KEY_RANGE,
    _TRIPLES,
    _category_key,
    _encode_compact,
    _image_index,
    _json_floats,
    _json_ids,
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
    _within,
    column_problems,
    raise_problems,
    setting_problems,
    shorten,
)
from .geometry import (
    _BOX_BOUNDS, _FAST, _FLOAT_MAX, _ID_TYPES, _LOWEST, BoundingBox, CategoryTriple, ImageId,
    _box_columns, _image_id_problems,
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
        if not fast:
            raise_problems(
                setting_problems("width", w, "(0, inf)") + setting_problems("height", h, "(0, inf)")
            )


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

    Every construction checks its columns by
    :func:`~detfuse.errors.column_problems`, as :class:`~detfuse.detections.Columns`
    does: columns of unequal lengths, or a row holding an image outside
    ``images``, a box that :class:`BoundingBox` refuses or a key that is no
    category, is one :class:`ConfigError`; so is a box that lies entirely
    outside its image, which :func:`parse_ground_truth` would refuse.
    """

    __hash__ = None

    def __init__(
        self, images: Iterable[AnnotatedImage], annotations: Iterable[GroundTruthAnnotation]
    ) -> None:
        images, objects = tuple(images), tuple(annotations)
        ids = [a.image_id for a in objects]
        raise_problems(_image_id_problems(ids))
        image, xywh, key = _record_columns(objects, [im.image_id for im in images])
        _refuse(image < 0, ids.__getitem__, DanglingReference, "annotation references unknown image {}")
        self._fill(images, image, xywh, key, [a.mask_payload for a in objects])
        self.annotations = objects

    @classmethod
    def _from_columns(cls, images, image, xywh, key, segmentation) -> "AnnotatedDataset":
        """The dataset of ``images`` and the columns whose ``image`` indexes them, checked here."""
        return cls.__new__(cls)._fill(images, image, xywh, key, segmentation)

    def _fill(self, images, image, xywh, key, segmentation) -> "AnnotatedDataset":
        self.images = tuple(images)
        ids = self.image_ids()
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate image ids in dataset")
        segmentation = tuple(segmentation)
        raise_problems(
            column_problems(
                [
                    ("image", image, f"[0, {len(ids)})", True),
                    *_box_columns("box", xywh),
                    ("key", key, _KEY_RANGE, True),
                    ("segmentation", segmentation, None, False),
                ]
            )
        )
        outside = _exceeding(xywh, self.images, image)[2]
        if len(outside):
            i = outside[0]
            raise ConfigError(f"box[{i}] {xywh[i].tolist()} lies entirely outside its image")
        self.image, self.xywh, self.key, self.segmentation = image, xywh, key, segmentation
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


#: Each digit byte as ``0``, ``.`` as itself and every other byte as a space.
_NUMBER_BYTES = bytes(48 if 48 <= b <= 57 else b if b == 46 else 32 for b in range(256))
#: An integer part of 19 or more digits: the first 19, in ``_NUMBER_BYTES``.
_LONG_INTEGER = b"0" * 19
#: Each opening bracket or brace as ``[``, each closing one as ``]``; ``"`` is the one other
#: byte that ``_NOT_NESTING`` leaves.
_NESTING = bytes(91 if b in b"[{" else 93 if b in b"]}" else b for b in range(256))
_NOT_NESTING = bytes(b for b in range(256) if b not in b'"[]{}')
#: The deepest nesting left to ``orjson``; ``json`` reads it unless called within 64 frames of
#: the recursion limit.
_MAX_DEPTH = 64


def _orjson_may_differ(raw: bytes) -> bool:
    """Whether ``orjson`` could read the JSON text ``raw`` other than ``json`` does.

    It could where an integer literal has 19 or more digits, since ``orjson``
    reads one outside [-2**63, 2**64) as a float. It could where values nest
    deeper than ``_MAX_DEPTH``: ``json`` raises ``RecursionError`` near 1,000
    levels, and ``orjson`` 3.8 reads on until it crashes the interpreter near a
    million. Neither test misses on valid JSON. The digits of an integer follow
    a byte that is no digit and no ``.``; a fraction's follow ``.``. With escaped
    backslashes and quotes dropped, each ``"`` opens or closes a string, and the
    brackets outside strings nest as the values do.
    """
    digits = raw.translate(_NUMBER_BYTES)
    if b" " + _LONG_INTEGER in digits or digits.startswith(_LONG_INTEGER):
        return True
    if b"\\" in raw:
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = raw.translate(_NESTING, _NOT_NESTING).replace(b'""', b"")
    if b'"' in marks:  # a string holds a bracket
        marks = b"".join(marks.split(b'"')[::2])
    for _ in range(_MAX_DEPTH):  # each pass takes off the innermost level
        marks = marks.replace(b"[]", b"")
    return marks != b""


def _decode(raw: bytes):
    """The value of the JSON text ``raw``, as ``json`` reads its UTF-8 text.

    ``orjson`` decodes it, unless it refuses the text or could read it other
    than ``json`` does (see :func:`_orjson_may_differ`). ``json`` then reads
    what a text-mode read gives, newlines translated, so that its values and
    the lines and columns of its messages hold whichever decoder ran.
    """
    if not _orjson_may_differ(raw):
        with contextlib.suppress(orjson.JSONDecodeError):
            return orjson.loads(raw)
    return json.loads(raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))


def _read(read: Callable, error: type, name):
    """``read()``, each read or decode fault raised as an ``error`` naming ``name``."""
    try:
        return read()
    except OSError as exc:
        raise error(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{name} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{name} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{name} is nested too deeply to read: {exc}") from exc


def _load_json(path: PathLike, what: str, kind: type = list):
    """The JSON in ``path``; :class:`MalformedFile` unless it is a ``kind``, calling it ``what``."""
    data = _read(lambda: _decode(Path(path).read_bytes()), MalformedFile, path)
    if not isinstance(data, kind):
        raise MalformedFile(f"{path}: {what} must be a JSON {'array' if kind is list else 'object'}")
    return data


def _load_config(path: Path, what: str):
    """The JSON in the UTF-8 file ``path``, a ``Path`` or a package resource, read by ``json``;
    :class:`ConfigError`, calling it ``what``, if it cannot be read or decoded."""
    return _read(lambda: json.loads(path.read_text("utf-8")), ConfigError, what)


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


def _indented(value, depth: int) -> str:
    """``value`` as ``json.dumps(indent=2)`` writes it ``depth`` levels deep in a document."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _dump_json(obj, path: PathLike) -> None:
    """Write ``obj`` indented by 2, ending in a newline; ``path`` changes only once the write is complete.

    This is the writer of the indented objects that ``json`` encodes whole:
    metrics reports and balance plans. Record files and id lists are written by
    :func:`_write_lines`; :func:`write_ground_truth` builds this layout itself.
    """
    with _atomic_open(path) as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# record rules
#
# Every record file is checked a field at a time: each rule below reads one
# field of every record and notes the first record that breaks it. The
# records given to a rule hold ``{}`` for each value that is no object, so
# every rule can run on every row.

#: Stands for a field that a record does not have.
_ABSENT = object()

#: The 0-based code fields of a category triple and the bounds of each.
_TRIPLE_KEYS = (("category_id_1", "[0, 3]"), ("category_id_2", "[0, 7]"), ("category_id_3", "[0, 3]"))


#: The ``category_id_1/2/3`` fields of each category key; an absent axis is left out.
_KEY_FIELDS = [
    {name: c for (name, _), c in zip(_TRIPLE_KEYS, category_codes(k)) if c >= 0}
    for k in range(len(_TRIPLES))
]
#: The fields of :data:`_KEY_FIELDS` as record text, ``,"category_id_1":0`` and on.
_KEY_TEXT = np.array(["".join(f',"{n}":{c}' for n, c in f.items()) for f in _KEY_FIELDS], object)
#: The same fields as ground-truth text, each on its own line of an annotation.
_KEY_INDENTED = np.array(
    ["".join(f',\n      "{n}": {c}' for n, c in f.items()) for f in _KEY_FIELDS], object
)


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


def _column(values: Sequence, bounds: str, integer: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``values`` as ``int64`` with ``integer``, else ``float64``; the mask of those of the wrong
    type, which is ``int`` with ``integer`` and else ``int`` or ``float`` (a bool is neither); and
    the mask of those that :func:`setting_problems` refuses with ``bounds``, which read as -1.

    Each value is compared as it is, an ``int`` exactly, so an integer past the largest float is
    refused even where a float would round it to the largest float. A column whose least and
    greatest entries lie in ``bounds`` and strictly between the largest floats of either sign is
    read in one pass; any other is read value by value. An integer field's bounds lie in int64.
    """
    n = len(values)
    kinds, dtype = ({int}, np.int64) if integer else (_FAST, np.float64)
    if n and set(map(type, values)) <= kinds:
        with contextlib.suppress(OverflowError):  # an int outside int64, or past every float
            column = np.fromiter(values, dtype, n)
            low, high = np.minimum.reduce(column).item(), np.maximum.reduce(column).item()
            held = _within(low, bounds, integer) and _within(high, bounds, integer)
            if held and _LOWEST < low and high < _FLOAT_MAX:
                return column, np.zeros(n, bool), np.zeros(n, bool)
    inside = [type(v) in kinds and _within(v, bounds, integer) for v in values]
    column = np.fromiter((v if ok else -1 for v, ok in zip(values, inside)), dtype, n)
    return column, np.array([type(v) not in kinds for v in values], bool), ~np.array(inside, bool)


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
    """The ``key`` box of each record as ``float64 [N, 4]``, each number named as in :class:`BoundingBox`."""
    boxes = _field(records, key)
    if not (set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {4}):
        bad = np.array([type(box) is not list or len(box) != 4 for box in boxes], bool)
        rules.note(
            bad,
            MalformedFile,
            lambda i: f"{key} must be a 4-element [x, y, w, h] list, got {shorten(records[i].get(key))}",
        )
        boxes = [_UNIT_BOX if b else box for box, b in zip(boxes, bad)]
    coordinates = zip(*boxes) if boxes else [()] * 4  # the x, y, w and h of every box
    columns = []
    for k, (values, (field, bounds)) in enumerate(zip(coordinates, _BOX_BOUNDS)):
        def named(i: int, k=k, name=f"{key} {field}", bounds=bounds) -> str:
            return setting_problems(name, records[i][key][k], bounds)[0]

        column, _, bad = _column(values, bounds, False)
        rules.note(bad, MalformedFile, named)
        columns.append(column)
    return np.stack(columns, axis=1)


def _number_field(
    records: list, key: str, bounds: str, error: type, rules: _FirstBreak, *,
    integer: bool = False, optional: bool = False, rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The number field ``key`` of the records ``rows`` (all by default), -1 in every other row.

    A value read must pass :func:`setting_problems` with ``bounds``, ``integer`` and
    ``optional``, and a fault is named in its words: no number (with ``integer``, no
    ``int``; a bool is neither) is :class:`MalformedFile`, and a number outside
    ``bounds`` or not finite is ``error``. With ``optional`` a null or absent value is
    not read. The column is ``int64`` with ``integer``, else ``float64``.
    """
    values = _field(records, key, None)
    if optional:
        held = np.fromiter(map(operator.is_not, values, repeat(None)), bool, len(values))
        rows = held if rows is None else rows & held
    if rows is not None and not rows.all():
        values = list(compress(values, rows.tolist()))
    else:
        rows = None
    column, mistyped, bad = _column(values, bounds, integer)
    if bad.any():
        def named(i: int) -> str:
            value = records[i].get(key)
            return setting_problems(key, value, bounds, integer=integer, optional=optional)[0]

        for faults, kind in ((mistyped, MalformedFile), (bad & ~mistyped, error)):
            if rows is not None:
                faults = _spread(faults, rows, False)
            rules.note(faults, kind, named)
    return column if rows is None else _spread(column, rows, -1)


def _spread(column: np.ndarray, rows: np.ndarray, fill) -> np.ndarray:
    """``column``, one value per row of the mask ``rows``, with ``fill`` in every other row."""
    out = np.full(len(rows), fill, column.dtype)
    out[rows] = column
    return out


def _categories(records: list, bare_mode: Optional[str], rules: _FirstBreak) -> np.ndarray:
    """The category key of each record's category fields.

    A record holds a triple of 0-based codes or, without one, a bare
    ``category_id``: ``bare_mode`` ``"product"`` reads it as quadrant * 8 +
    tooth in [0, 31], ``"disease"`` as a disease in [0, 3], and ``None``
    forbids it. Each code is read by :func:`_number_field`, out of range
    :class:`InvalidCategory`, and a record with a triple ignores its bare
    ``category_id``.
    """
    triple = np.zeros(len(records), bool)
    codes = []
    for key, bounds in _TRIPLE_KEYS:
        present = _present(records, key)
        triple |= present
        codes.append(
            _number_field(records, key, bounds, InvalidCategory, rules, integer=True, rows=present)
        )
    bare = ~triple & _present(records, "category_id")
    rules.note(~triple & ~bare, MalformedFile, lambda i: "record has no category fields")
    if bare_mode is None:
        ambiguous = "bare category_id is ambiguous for this stream; use category_id_1/2/3"
        rules.note(bare, MalformedFile, lambda i: ambiguous)
    elif bare.any():
        bounds = "[0, 31]" if bare_mode == "product" else "[0, 3]"
        cid = _number_field(
            records, "category_id", bounds, InvalidCategory, rules, integer=True, rows=bare
        )
        ok = cid >= 0
        if bare_mode == "product":
            codes[0][ok], codes[1][ok] = np.divmod(cid[ok], 8)
        else:
            codes[2][ok] = cid[ok]
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


def _exceeding(xywh: np.ndarray, images: Sequence[AnnotatedImage], image: np.ndarray) -> tuple:
    """The rows whose box exceeds its image, where ``image`` indexes ``images``; their boxes
    clamped to the image; and the rows, among them, whose box lies entirely outside it."""
    size = np.array([(im.width, im.height) for im in images], float).reshape(-1, 2)[image]
    with np.errstate(over="ignore"):
        inside = (xywh[:, :2] >= 0).all(axis=1) & (xywh[:, :2] + xywh[:, 2:] <= size).all(axis=1)
        exceeds = np.flatnonzero(~inside)
        clipped = _clip(xywh[exceeds], size[exceeds])
    return exceeds, clipped, exceeds[(clipped[:, 2] <= 0) | (clipped[:, 3] <= 0)]


# ---------------------------------------------------------------------------
# ground truth


def parse_ground_truth(path: PathLike) -> AnnotatedDataset:
    """Parse a COCO/DENTEX-style ground-truth file.

    Images and annotations are checked a field at a time, by the rules
    detection files follow. The error raised is that of the first bad
    record, for the first rule it breaks: an image is an object with an
    ``id`` and a positive ``width`` and ``height``; an annotation is an
    object with an ``image_id``, a ``bbox`` and category fields, where a
    bare ``category_id``, read only without a triple, is quadrant * 8 +
    tooth. Only when every annotation passes, one on an unknown image
    raises, and after that one whose box lies entirely outside its image.
    Other boxes that exceed their image are clamped to it; one warning per
    file gives their count and the first of them. A bad number is named as
    :func:`setting_problems` names it.

    Raises:
        MalformedFile: bad JSON, missing keys, degenerate boxes, or no
            number where one belongs (no integer for a category code).
        DanglingReference: annotation pointing at a missing image.
        InvalidCategory: category codes outside their documented ranges.
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
    exceeds, clipped, outside = _exceeding(xywh, images, image)
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
    for key in ("width", "height"):
        _number_field(records, key, "(0, inf)", MalformedFile, rules)
    rules.raise_first()
    if len(set(ids)) != len(ids):
        raise MalformedFile(f"{path}: duplicate image ids")
    # Each extent keeps its JSON value, an int or a float, so that it is written back as read.
    width, height = _field(records, "width"), _field(records, "height")
    return tuple(map(AnnotatedImage, ids, width, height, _field(records, "file_name", "")))


def write_ground_truth(ds: AnnotatedDataset, path: PathLike) -> None:
    """Serialize a dataset to the canonical COCO-style layout, from its columns.

    The text is what ``json.dumps(indent=2)`` writes for the dict records:
    ``json`` encodes the images list, each image id once and each
    segmentation payload, and the box floats take the number rule of
    :func:`~detfuse.detections._json_floats`.
    """
    images = [
        {"id": im.image_id, "width": im.width, "height": im.height, "file_name": im.file_name}
        for im in ds.images
    ]
    floats = iter(_json_floats(ds.xywh.reshape(-1)))
    masks = (
        "" if mask is None else f',\n      "segmentation": {_indented(mask, 3)}'
        for mask in ds.segmentation
    )
    rows = zip(
        _json_ids(ds.image_ids(), ds.image), floats, floats, floats, floats,
        _KEY_INDENTED[ds.key].tolist(), masks,
    )
    annotations = [
        f'    {{\n      "id": {i},\n      "image_id": {image_id},\n      "bbox": [\n        {x},'
        f"\n        {y},\n        {w},\n        {h}\n      ]{fields}{mask}\n    }}"
        for i, (image_id, x, y, w, h, fields, mask) in enumerate(rows)
    ]
    listed = "[\n" + ",\n".join(annotations) + "\n  ]" if annotations else "[]"
    with _atomic_open(path) as fh:
        fh.write(f'{{\n  "images": {_indented(images, 1)},\n  "annotations": {listed}\n}}\n')


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
    _write_lines(list(map(_encode_compact, ids)), path)
