"""COCO results files: detections read into columns and written from them.

A results file is a JSON array of ``{image_id, bbox, score, ...}``
records with the category fields of :mod:`detfuse.io`. Records are read
field by field into :class:`~detfuse.detections.Columns` and checked a
field at a time. Writers build no records: a line is the set's shared row text
(see :class:`~detfuse.detections.DetectionSet`), its category fields and its link.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .detections import Columns, DetectionSet, _resolve_universe
from .errors import InvalidScore, MalformedFile, shorten
from .geometry import _ID_END, ImageId, source_code
from .io import (
    PathLike,
    _boxes,
    _categories,
    _field,
    _FirstBreak,
    _image_ids,
    _KEY_TEXT,
    _load_json,
    _numbers,
    _records,
    _write_lines,
)

#: How a bare ``category_id`` is decoded, by stream source; other sources forbid it.
_BARE_MODES = {"enumeration-model": "product", "diagnosis-A": "disease", "diagnosis-B": "disease"}


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
    data = _load_json(path, "detections")
    n = len(data)
    rules = _FirstBreak(f"{path} ")
    records = _records(data, "detection", rules)
    ids = _image_ids(records, "image_id", rules)
    xywh = _boxes(records, "bbox", rules)

    score, mistyped = _numbers(_field(records, "score"))
    rules.note(
        mistyped,
        MalformedFile,
        lambda i: f"score must be a number, got {shorten(records[i].get('score'))}",
    )
    rules.note(
        ~((score >= 0.0) & (score <= 1.0)),  # NaN fails both
        InvalidScore,
        lambda i: f"score {shorten(records[i]['score'])} outside [0, 1]",
    )

    key = _categories(records, _BARE_MODES.get(source), rules)

    links = _field(records, "matched_enum_id", None)
    if set(map(type, links)) <= {type(None)}:
        link = np.full(n, -1, np.int64)
    else:
        bad = np.array(
            [v is not None and not (type(v) is int and 0 <= v < _ID_END) for v in links], bool
        )
        rules.note(
            bad,
            MalformedFile,
            lambda i: (
                "matched_enum_id must be a non-negative integer, "
                f"got {shorten(records[i]['matched_enum_id'])}"
            ),
        )
        link = np.fromiter(
            (-1 if v is None or b else v for v, b in zip(links, bad)), np.int64, n
        )
    rules.raise_first()

    universe, image = _resolve_universe(ids, image_universe)
    origin = np.full(n, code, np.int8)
    columns = Columns(universe, image, xywh, score, key, origin, link)
    return DetectionSet.from_columns(columns, source)


def _write_records(dets: DetectionSet, path: PathLike, *, links: bool) -> None:
    """Write ``dets`` from its row text: ``image_id``, ``bbox``, ``score``, the category
    fields that are set, then ``matched_enum_id`` where ``links`` is set and the row has one."""
    cols = dets.columns
    tails = _KEY_TEXT[cols.key].tolist()
    if links:
        link = cols.link.tolist()
        tails = [f'{t},"matched_enum_id":{k}' if k >= 0 else t for t, k in zip(tails, link)]
    rows = zip(dets._row_text("box"), dets._row_text("score"), tails)
    _write_lines([f"{box}{score}{tail}}}" for box, score, tail in rows], path)


def write_detections(dets: DetectionSet, path: PathLike) -> None:
    """Write detections as a COCO results array with explicit triple fields."""
    _write_records(dets, path, links=False)
