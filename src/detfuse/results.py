"""COCO results files: detections read into columns and written from them.

A results file is a JSON array of ``{image_id, bbox, score, ...}``
records with the category fields of :mod:`detfuse.io`. Records are read
field by field into :class:`~detfuse.detections.Columns` and checked a
field at a time; writers build their records from the columns.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .detections import Columns, DetectionSet, as_set, category_codes, source_code
from .errors import DanglingReference, InvalidCategory, InvalidScore, MalformedFile
from .geometry import Detection, ImageId
from .io import PathLike, _dump_json, _load_json

#: Stands for a field that a record does not have.
_ABSENT = object()

#: How a bare ``category_id`` is decoded, by stream source; other sources forbid it.
_BARE_MODES = {"enumeration-model": "product", "diagnosis-A": "disease", "diagnosis-B": "disease"}

#: The 0-based id fields of a category triple and their number of values.
_TRIPLE_KEYS = (("category_id_1", 4), ("category_id_2", 8), ("category_id_3", 4))

_MAX_LINK = int(np.iinfo(np.int64).max)

_CATEGORY_FIELDS = tuple(key for key, _ in _TRIPLE_KEYS)

#: Stands in for a rejected bbox, so that the later checks can run on every row.
_UNIT_BOX = [0.0, 0.0, 1.0, 1.0]


class _FirstBreak:
    """The first record that breaks a rule, and the first rule it breaks.

    Rules are noted in the order a record is checked, so that of the rules
    one record breaks, the first noted is the one reported.
    """

    def __init__(self) -> None:
        self.first: Optional[tuple] = None

    def note(self, bad: np.ndarray, error: type, message: Callable[[int], str]) -> None:
        """Rows ``bad`` break a rule; ``message(i)`` says how row ``i`` does."""
        if bad.any():
            i = int(bad.argmax())
            if self.first is None or i < self.first[0]:
                self.first = (i, error, message)

    def raise_first(self, path: PathLike) -> None:
        if self.first is not None:
            i, error, message = self.first
            raise error(f"{path} [{i}]: {message(i)}")


def _mistyped(values: list, kinds: set) -> Optional[np.ndarray]:
    """None when the type of every value is in ``kinds``, else the mask of the values whose is not."""
    if set(map(type, values)) <= kinds:
        return None
    return np.array([type(v) not in kinds for v in values], bool)


def _code_column(
    values: list, present: np.ndarray, upper: int, key: str, data: list, rules: _FirstBreak
) -> np.ndarray:
    """The ``int8`` codes of an optional 0-based id field; ``values`` holds -1 where it is absent."""
    if set(map(type, values)) <= {int} and set(values) <= set(range(-1, upper)):
        codes = np.fromiter(values, np.int8, len(values))
        if not (present & (codes < 0)).any():
            return codes
    mistyped = np.array([type(v) is not int for v in values], bool)
    rules.note(mistyped, InvalidCategory, lambda i: f"{key!r} must be an integer, got {data[i][key]!r}")
    in_range = [type(v) is int and 0 <= v < upper for v in values]
    rules.note(
        present & ~mistyped & ~np.array(in_range, bool),
        InvalidCategory,
        lambda i: f"{key!r} out of range 0..{upper - 1}, got {data[i][key]}",
    )
    return np.fromiter((v if ok else -1 for v, ok in zip(values, in_range)), np.int8, len(values))


def _decode_bare(
    values: list,
    bare: np.ndarray,
    mode: Optional[str],
    codes: list[np.ndarray],
    data: list,
    rules: _FirstBreak,
) -> None:
    """Decode the bare ``category_id`` of the ``bare`` rows into the quadrant, tooth and disease ``codes``."""
    mistyped = bare & np.array([type(v) is not int for v in values], bool)
    rules.note(
        mistyped,
        MalformedFile,
        lambda i: f"field 'category_id' must be an integer, got {data[i]['category_id']!r}",
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
    if mode == "product":
        rules.note(
            rows & (cid < 0),
            InvalidCategory,
            lambda i: f"category_id out of range 0..31, got {data[i]['category_id']}",
        )
        ok = rows & (cid >= 0)
        codes[0][ok] = cid[ok] // 8
        codes[1][ok] = cid[ok] % 8
    else:
        rules.note(
            rows & (cid < 0),
            InvalidCategory,
            lambda i: f"disease category_id out of range 0..3, got {data[i]['category_id']}",
        )
        ok = rows & (cid >= 0)
        codes[2][ok] = cid[ok]


def parse_detections(
    path: PathLike,
    source: str,
    image_universe: Optional[Iterable[ImageId]] = None,
) -> DetectionSet:
    """Parse a COCO results array into a :class:`DetectionSet`.

    An optional ``matched_enum_id`` (a non-negative integer) is kept on
    the detection, so integrated files are read here too.

    ``image_universe`` widens the covered id set beyond the images that
    actually carry records (e.g. to the full test split); records outside
    a supplied universe are an error.

    The records are read field by field into columns and checked a field
    at a time. The error raised is that of the first bad record, for the
    first rule it breaks in this order: a record object, an ``image_id``
    that is an integer or a string, the bbox, the score, the category
    fields, ``matched_enum_id``. Only when every record passes is each
    image checked against ``image_universe``.
    """
    code = source_code(source)
    data = _load_json(path)
    if not isinstance(data, list):
        raise MalformedFile(f"{path}: detections must be a JSON array")
    bare_mode = _BARE_MODES.get(source)
    n = len(data)
    rules = _FirstBreak()

    records = data
    bad = _mistyped(data, {dict})
    if bad is not None:
        rules.note(bad, MalformedFile, lambda i: "detection record must be an object")
        records = [rec if ok else {} for rec, ok in zip(data, ~bad)]

    def field(key: str, default=_ABSENT) -> list:
        return list(map(dict.get, records, repeat(key, n), repeat(default, n)))

    def present(key: str) -> np.ndarray:
        return np.fromiter(map(dict.__contains__, records, repeat(key, n)), bool, n)

    ids = field("image_id")
    bad = _mistyped(ids, {int, str})
    if bad is not None:
        rules.note(bad & ~present("image_id"), MalformedFile, lambda i: "record lacks image_id")
        rules.note(
            bad,
            MalformedFile,
            lambda i: f"image_id must be an integer or a string, got {data[i]['image_id']!r}",
        )
        ids = [image_id if ok else 0 for image_id, ok in zip(ids, ~bad)]

    boxes = field("bbox")
    if not (set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {4}):
        bad = np.array([type(box) is not list or len(box) != 4 for box in boxes], bool)
        rules.note(
            bad,
            MalformedFile,
            lambda i: f"bbox must be a 4-element [x, y, w, h] list, got {data[i].get('bbox')!r}",
        )
        boxes = [_UNIT_BOX if b else box for box, b in zip(boxes, bad)]
    flat = list(chain.from_iterable(boxes))
    bad = _mistyped(flat, {int, float})
    if bad is not None:
        bad = bad.reshape(n, 4).any(axis=1)
        flat = list(chain.from_iterable(_UNIT_BOX if b else box for box, b in zip(boxes, bad)))
    xywh = np.fromiter(flat, float, 4 * n).reshape(n, 4)
    nonfinite = ~np.isfinite(xywh).all(axis=1)
    rules.note(
        nonfinite if bad is None else bad | nonfinite,
        MalformedFile,
        lambda i: f"bbox values must be finite numbers, got {data[i]['bbox']!r}",
    )
    rules.note(
        (xywh[:, 2] <= 0) | (xywh[:, 3] <= 0),
        MalformedFile,
        lambda i: f"bbox must have positive width and height, got {data[i]['bbox']!r}",
    )

    scores = field("score")
    bad = _mistyped(scores, {int, float})
    if bad is not None:
        rules.note(
            bad, MalformedFile, lambda i: f"score must be a number, got {data[i].get('score')!r}"
        )
        scores = [s if ok else 0.0 for s, ok in zip(scores, ~bad)]
    score = np.fromiter(scores, float, n)
    rules.note(
        ~((score >= 0.0) & (score <= 1.0)),  # NaN fails both
        InvalidScore,
        lambda i: f"score {data[i]['score']!r} outside [0, 1]",
    )

    triple = np.zeros(n, bool)
    codes = []
    for key, upper in _TRIPLE_KEYS:
        present_key = present(key)
        triple |= present_key
        codes.append(_code_column(field(key, -1), present_key, upper, key, data, rules))
    quadrant, tooth, disease = codes
    bare = ~triple & present("category_id")
    rules.note(~triple & ~bare, MalformedFile, lambda i: "record has no category fields")
    if bare.any():
        _decode_bare(field("category_id", 0), bare, bare_mode, codes, data, rules)

    links = field("matched_enum_id", None)
    if set(map(type, links)) <= {type(None)}:
        link = np.full(n, -1, np.int64)
    else:
        bad = np.array(
            [v is not None and not (type(v) is int and 0 <= v <= _MAX_LINK) for v in links], bool
        )
        rules.note(
            bad,
            MalformedFile,
            lambda i: (
                "matched_enum_id must be a non-negative integer, "
                f"got {data[i]['matched_enum_id']!r}"
            ),
        )
        link = np.fromiter(
            (-1 if v is None or b else v for v, b in zip(links, bad)), np.int64, n
        )
    rules.raise_first(path)

    if image_universe is None:
        universe = tuple(dict.fromkeys(ids))
    else:
        universe = tuple(frozenset(image_universe))
    position = {image_id: k for k, image_id in enumerate(universe)}
    image = np.fromiter(map(position.get, ids, repeat(-1, n)), np.int32, n)
    outside = np.flatnonzero(image < 0)
    if len(outside):
        raise DanglingReference(
            f"detection references image {ids[outside[0]]!r} outside the universe"
        )
    origin = np.full(n, code, np.int8)
    columns = Columns(universe, image, xywh, score, quadrant, tooth, disease, origin, link)
    return DetectionSet.from_columns(columns, source)


def detection_records(dets: Union[DetectionSet, Iterable[Detection]], *, links: bool) -> list[dict]:
    """COCO results records of ``dets``, built from its columns.

    Each record holds ``image_id``, ``bbox``, ``score`` and the category
    fields that are set, then ``matched_enum_id`` where ``links`` is set
    and the detection has one.
    """
    cols = as_set(dets).columns
    ids = cols.ids
    keys = cols.category_key().tolist()
    categories = {
        key: {name: code for name, code in zip(_CATEGORY_FIELDS, category_codes(key)) if code >= 0}
        for key in set(keys)
    }
    link_list = cols.link.tolist() if links else repeat(-1)
    records = []
    for image, box, score, key, link in zip(
        cols.image.tolist(), cols.xywh.tolist(), cols.score.tolist(), keys, link_list
    ):
        rec = {"image_id": ids[image], "bbox": box, "score": score, **categories[key]}
        if link >= 0:
            rec["matched_enum_id"] = link
        records.append(rec)
    return records


def write_detections(dets: Union[DetectionSet, Sequence[Detection]], path: PathLike) -> None:
    """Write detections as a COCO results array with explicit triple fields."""
    _dump_json(detection_records(dets, links=False), path)
