"""The detection set: detections held as columns, with ``Detection`` views on demand.

Every stage reads and writes a :class:`DetectionSet` through its
:class:`Columns`: one array per field, one row per detection. A
:class:`~detfuse.geometry.Detection` is built from a row only when the
public per-record API asks for one, so the pipeline's hot path builds
none; a set holds its rows' JSON text the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, DanglingReference, raise_problems, shorten
from .geometry import (
    _SOURCE_CODE, DISEASES, SOURCES, BoundingBox, CategoryTriple, Detection, ImageId,
    _image_id_problems, source_code,
)

_IMAGE_ID = attrgetter("image_id")
_BOX = attrgetter("box")
_XYWH = attrgetter("x", "y", "w", "h")
_SCORE = attrgetter("score")
_CATEGORY = attrgetter("category")
_SOURCE = attrgetter("source")
_LINK = attrgetter("matched_enum_id")

#: The per-row arrays of :class:`Columns`, in order.
_ROW_FIELDS = ("image", "xywh", "score", "key", "origin", "link")

# The C encoder, which ``json.dump`` gives up as soon as ``indent`` is set.
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(frozen=True, slots=True, eq=False)
class Columns:
    """Detections as arrays, one row per detection.

    ``image`` (``int32``) indexes ``ids``, the image ids of the set's
    universe. ``xywh`` is ``float64 [N, 4]``. ``key`` is each row's category
    key, as ground truth holds it; ``quadrant``, ``tooth`` and ``disease``
    decode it into the 0-based ids of the file format, -1 where the axis is
    absent. ``origin`` (``int8``) indexes :data:`SOURCES`, and ``link``
    (``int64``) is ``matched_enum_id``, -1 where unset.
    """

    ids: tuple
    image: np.ndarray
    xywh: np.ndarray
    score: np.ndarray
    key: np.ndarray
    origin: np.ndarray
    link: np.ndarray

    quadrant = property(lambda self: category_codes(self.key)[0])
    tooth = property(lambda self: category_codes(self.key)[1])
    disease = property(lambda self: category_codes(self.key)[2])

    def take(self, rows) -> "Columns":
        """The rows ``rows`` (a mask, indices or a slice), over the same ids."""
        return Columns(self.ids, *(getattr(self, name)[rows] for name in _ROW_FIELDS))

    def image_index(self, ids: tuple) -> np.ndarray:
        """Each row's image as an index into ``ids``; -1 for an image not in ``ids``."""
        if ids == self.ids:
            return self.image
        return _image_index(self.ids, ids)[self.image]

    def image_id(self, row: int) -> ImageId:
        """The image id of row ``row``."""
        return self.ids[self.image[row]]


def _image_index(ids: Iterable[ImageId], universe: Sequence[ImageId]) -> np.ndarray:
    """Each of ``ids`` as an ``int32`` index into ``universe``; -1 where it is absent."""
    position = {image_id: k for k, image_id in enumerate(universe)}
    return np.fromiter(map(position.get, ids, repeat(-1)), np.int32)


def _refuse(bad: np.ndarray, image_of: Callable, error: type, message: str, where=None) -> None:
    """Raise ``error`` for the first row that ``bad`` marks, naming its image ``image_of(row)``,
    shortened, at the ``{}`` of ``message``; after ``where[row]: `` when ``where`` is given."""
    if bad.any():
        row = int(bad.argmax())
        text = message.format(shorten(image_of(row)))
        raise error(text if where is None else f"{where}[{row}]: {text}")


def _resolve_universe(row_ids: Sequence[ImageId], image_universe: Optional[Iterable]) -> tuple:
    """The image ids of a set whose rows are on the images ``row_ids``, and each row's index into them.

    With no ``image_universe`` (``None``) they are the rows' images in
    first-row order. A given one, even an empty one or an iterator, is read
    once, kept in its order without repeats and must hold every row; the
    first row outside it raises :class:`DanglingReference`, and a universe
    that is not iterable or holds a value that is no image id :class:`ConfigError`.
    """
    if image_universe is None:
        universe = tuple(dict.fromkeys(row_ids))
    elif not isinstance(image_universe, Iterable):
        raise ConfigError(
            f"image universe {shorten(image_universe)} is not a collection of image ids"
        )
    else:
        given = tuple(image_universe)
        raise_problems(_image_id_problems(given))
        universe = tuple(dict.fromkeys(given))
    image = _image_index(row_ids, universe)
    _refuse(
        image < 0, row_ids.__getitem__, DanglingReference,
        "detection references image {} outside the universe",
    )
    return universe, image


def _category_key(quadrant: np.ndarray, tooth: np.ndarray, disease: np.ndarray) -> np.ndarray:
    """The category key of the quadrant, tooth and disease code arrays (-1 where absent)."""
    return (quadrant.astype(np.intp) + 1) * 45 + (tooth + 1) * 5 + disease + 1


#: The number of category key values; key 0 carries no axis and is no category.
CATEGORY_KEYS = 5 * 9 * 5


def category_codes(key: int) -> tuple[int, int, int]:
    """The quadrant, tooth and disease codes of a category key, or of an array of keys."""
    return key // 45 - 1, key // 5 % 9 - 1, key % 5 - 1


def category_of(key: int) -> CategoryTriple:
    """The category of a category key."""
    q, t, d = category_codes(key)
    return CategoryTriple(
        None if q < 0 else q + 1, None if t < 0 else t + 1, None if d < 0 else DISEASES[d]
    )


#: The category of each key (``None`` for key 0, which carries no axis), and the key of each.
_TRIPLES = np.array([None, *map(category_of, range(1, CATEGORY_KEYS))], object)
_KEY_OF = {category: k for k, category in enumerate(_TRIPLES.tolist()) if k}


def _concat(parts: Sequence[Columns], ids: tuple) -> Columns:
    arrays = [np.concatenate([getattr(c, name) for c in parts]) for name in _ROW_FIELDS[1:]]
    return Columns(ids, np.concatenate([c.image_index(ids) for c in parts]), *arrays)


def _record_columns(records: Sequence, ids: Sequence[ImageId]) -> tuple:
    """The image index into ``ids`` (-1 where absent), ``xywh`` and category
    key of objects with an ``image_id``, a ``box`` and a ``category``:
    detections or ground-truth annotations."""
    n = len(records)
    image = _image_index(map(_IMAGE_ID, records), ids)
    xywh = np.fromiter(chain.from_iterable(map(_XYWH, map(_BOX, records))), float, 4 * n)
    key = np.fromiter(map(_KEY_OF.__getitem__, map(_CATEGORY, records)), np.intp, n)
    return image, xywh.reshape(n, 4), key


def _columns_of(dets: Sequence[Detection], ids: tuple) -> Columns:
    """The columns of ``Detection`` objects, whose image ids are all in ``ids``."""
    n = len(dets)
    image, xywh, key = _record_columns(dets, ids)
    score = np.fromiter(map(_SCORE, dets), float, n)
    origin = np.fromiter(map(_SOURCE_CODE.__getitem__, map(_SOURCE, dets)), np.int8, n)
    links = (-1 if link is None else link for link in map(_LINK, dets))
    link = np.fromiter(links, np.int64, n)
    return Columns(ids, image, xywh, score, key, origin, link)


def _per_row(ids: Sequence[ImageId], image: np.ndarray, *columns) -> Iterator[tuple]:
    """Each row's image id, then its entry in each of ``columns``, as Python values.

    ``image`` indexes ``ids``. A column is an array or any other iterable of
    Python values.
    """
    lists = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns)
    return zip([ids[k] for k in image.tolist()], *lists)


def _views(cols: Columns) -> tuple[Detection, ...]:
    """One :class:`Detection` per row; rows with equal categories share one triple."""
    categories = _TRIPLES[cols.key]
    rows = _per_row(cols.ids, cols.image, cols.xywh, cols.score, categories, cols.origin, cols.link)
    return tuple(
        Detection(
            image_id, BoundingBox(*box), score, category, SOURCES[origin],
            None if link < 0 else link,
        )
        for image_id, box, score, category, origin, link in rows
    )


def _json_ids(cols: Columns) -> list[str]:
    """Each row's image id as JSON text, encoded once per id of ``cols.ids``."""
    ids = [_encode_compact(image_id) for image_id in cols.ids]
    return [ids[k] for k in cols.image.tolist()]


def _json_boxes(xywh: np.ndarray) -> list[str]:
    """Each box of ``xywh`` as a JSON array; a float's text is its ``repr``, as in ``json``."""
    return [f"[{x!r},{y!r},{w!r},{h!r}]" for x, y, w, h in xywh.tolist()]


#: How each piece of the rows' text is built from their columns.
_ROW_TEXT = {
    "box": lambda cols: [
        f'{{"image_id":{i},"bbox":{b}' for i, b in zip(_json_ids(cols), _json_boxes(cols.xywh))
    ],
    "score": lambda cols: [f',"score":{s!r}' for s in cols.score.tolist()],
}


def same_image_blocks(
    a_image: np.ndarray, b_image: np.ndarray, a_key: Optional[np.ndarray] = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows of each image that has rows in both ``a_image`` and ``b_image``.

    Both arrays index the same image ids; a negative entry is on no image.
    Each block is a pair of row-index arrays. ``b`` rows keep their order;
    ``a`` rows are ordered by ``a_key`` when it is given, ties keeping their
    order.
    """
    if a_key is None:
        a_order = np.argsort(a_image, kind="stable")
    else:
        a_order = np.lexsort((a_key, a_image))
    b_order = np.argsort(b_image, kind="stable")
    size = max(a_image.max(initial=-1), b_image.max(initial=-1)) + 1
    # Each image's rows end at the cumulative count, after the negative entries.
    bounds = []
    for image in (a_image, b_image):
        count = np.bincount(image[image >= 0], minlength=size)
        end = np.cumsum(count) + np.count_nonzero(image < 0)
        bounds.append((count, end))
    (a_count, a_end), (b_count, b_end) = bounds
    for k in np.flatnonzero((a_count > 0) & (b_count > 0)).tolist():
        yield (
            a_order[a_end[k] - a_count[k] : a_end[k]],
            b_order[b_end[k] - b_count[k] : b_end[k]],
        )


class DetectionSet:
    """A tagged collection of detections covering a set of images.

    A set is its :class:`Columns`. Everything else it holds is a cache of
    them, built once, when first read: the :class:`Detection` views
    (``detections``, iterating, indexing a row) and the rows' JSON text.
    A set constructed from ``Detection`` objects holds them as its views
    and builds its columns when a stage or writer first reads them.
    ``take``, ``concat`` and slicing build a set from columns and carry
    every cache their parts hold; ``concat`` builds one that only some
    parts hold for the rest.

    With no ``image_universe`` (``None``) the set is the images the
    detections are on; a given one, even an empty one, must hold them all.

    The row text comes in two pieces: ``"box"`` (``{"image_id":…,"bbox":[…]``)
    and ``"score"`` (``,"score":…``). A stage that keeps a row's box or
    score passes that text on.
    """

    __hash__ = None

    def __init__(
        self,
        detections: Iterable[Detection],
        source: str,
        image_universe: Optional[Iterable[ImageId]] = None,
    ) -> None:
        objects = tuple(detections)
        self._start(source, _resolve_universe([d.image_id for d in objects], image_universe)[0])
        self.detections = objects

    @classmethod
    def from_columns(cls, columns: Columns, source: str) -> "DetectionSet":
        """The set of ``columns``; its universe is ``columns.ids``."""
        out = cls.__new__(cls)
        out._start(source, columns.ids)
        out.columns = columns
        return out

    def _start(self, source: str, ids: tuple) -> None:
        source_code(source)
        self.source = source
        self.image_universe = frozenset(ids)
        self._ids = ids
        self._text: dict[str, list[str]] = {}

    @cached_property
    def columns(self) -> Columns:
        return _columns_of(self.detections, self._ids)

    @cached_property
    def detections(self) -> tuple[Detection, ...]:
        return _views(self.columns)

    def _row_text(self, piece: str) -> list[str]:
        """Each row's ``"box"`` or ``"score"`` text, built from the columns at the first call."""
        if piece not in self._text:
            self._text[piece] = _ROW_TEXT[piece](self.columns)
        return self._text[piece]

    def _share_text(self, rows: "DetectionSet", *pieces: str) -> "DetectionSet":
        """This set, holding those of ``pieces`` that ``rows``, a set of the same rows, holds."""
        self._text.update((p, rows._text[p]) for p in pieces if p in rows._text)
        return self

    def take(self, rows) -> "DetectionSet":
        """The rows ``rows`` (a mask, indices or a slice), with the same tag and universe."""
        index = np.arange(len(self))[rows]
        out = DetectionSet.from_columns(self.columns.take(index), self.source)
        pick = index.tolist()
        if "detections" in vars(self):
            out.detections = tuple(map(self.detections.__getitem__, pick))
        for piece, text in self._text.items():
            out._text[piece] = list(map(text.__getitem__, pick))
        return out

    @staticmethod
    def concat(parts: Sequence["DetectionSet"], source: str) -> "DetectionSet":
        """The rows of ``parts`` in order, over the union of their universes."""
        ids = tuple(dict.fromkeys(chain.from_iterable(p._ids for p in parts)))
        out = DetectionSet.from_columns(_concat([p.columns for p in parts], ids), source)
        if any("detections" in vars(p) for p in parts):
            out.detections = tuple(chain.from_iterable(p.detections for p in parts))
        for piece in {piece for p in parts for piece in p._text}:
            out._text[piece] = list(chain.from_iterable(p._row_text(piece) for p in parts))
        return out

    def __len__(self) -> int:
        return len(self.columns.score)

    def __iter__(self) -> Iterator[Detection]:
        return iter(self.detections)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(key)
        return self.detections[key]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DetectionSet):
            return NotImplemented
        return (self.source, self.image_universe, self.detections) == (
            other.source, other.image_universe, other.detections
        )

    def __repr__(self) -> str:
        return (
            f"DetectionSet({len(self)} detections, source={self.source!r}, "
            f"{len(self.image_universe)} images)"
        )
