"""Core value types: boxes, category triples and detections.

Boxes follow the COCO ``[x, y, w, h]`` convention everywhere: ``(x, y)`` is
the top-left corner in image pixel coordinates and ``w``/``h`` must be
strictly positive.  All types in this module are immutable, so they are
safe to share across threads.  Box IoU is :func:`detfuse.metrics._iou_block`
and clipping to an image is :func:`detfuse.io._clip`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import ConfigError, raise_problems, setting_problems, shorten

ImageId = Union[int, str]

#: The exact types of an image id, in memory as in files: an ``int`` (not a bool) or a ``str``.
_ID_TYPES = frozenset((int, str))

#: Crop ids and ``matched_enum_id`` are ``int64``: the integers in this range.
_ID_END = 2**63
_ID_RANGE = f"[0, {float(_ID_END)!r})"

#: Disease class names, in canonical index order (index 0..3 in data files).
DISEASES = ("caries", "deep-caries", "impacted", "periapical-lesion")

#: Crop classifier label set: the four diseases plus "normal".
CROP_LABELS = ("normal",) + DISEASES

#: Closed set of detection provenance tags.
SOURCES = ("enumeration-model", "diagnosis-A", "diagnosis-B", "complementary", "fused")

_SOURCE_CODE = {name: code for code, name in enumerate(SOURCES)}

#: Each field of a box and its bounds, as a box and every box column are checked.
_BOX_BOUNDS = (("x", "(-inf, inf)"), ("y", "(-inf, inf)"), ("w", "(0, inf)"), ("h", "(0, inf)"))

#: A number field passes at once if its exact type is in ``_FAST`` and it is finite and in range.
_FAST = frozenset((int, float))
_LOWEST, _FLOAT_MAX = -sys.float_info.max, sys.float_info.max


def _image_id_problems(ids: Sequence) -> list[str]:
    """The problem with the first of ``ids`` that is no image id, if any, as a list of at most
    one message; the ids' types are read in one pass."""
    if set(map(type, ids)) <= _ID_TYPES:
        return []
    bad = next(image_id for image_id in ids if type(image_id) not in _ID_TYPES)
    return [f"image id must be an int or a str, got {type(bad).__name__} {shorten(bad)}"]


def _box_columns(name: str, xywh) -> list[tuple]:
    """The x, y, w and h columns of the ``[N, 4]`` box array ``xywh``, named ``{name} x`` and on,
    as :func:`~detfuse.errors.column_problems` takes them; :class:`ConfigError` for another shape.

    The columns are copied once into one contiguous block: on a few thousand rows, their
    reductions cost less there, copy included, than in place.
    """
    if xywh.ndim != 2 or xywh.shape[1] != 4:
        raise ConfigError(f"{name} must be an [N, 4] array, got shape {xywh.shape}")
    columns = xywh.T.copy()
    return [(f"{name} {field}", columns[k], bounds, False) for k, (field, bounds) in enumerate(_BOX_BOUNDS)]


def source_code(source: str) -> int:
    """The index of a source tag in :data:`SOURCES`; :class:`ConfigError` for an unknown tag."""
    code = _SOURCE_CODE.get(source) if isinstance(source, str) else None
    if code is None:
        raise ConfigError(f"unknown source tag {shorten(source)}; expected one of {SOURCES}")
    return code


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned rectangle, COCO xywh convention, sub-pixel allowed."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        x, y, w, h = self.x, self.y, self.w, self.h
        if not (
            type(x) in _FAST and type(y) in _FAST and type(w) in _FAST and type(h) in _FAST
            and _LOWEST <= x <= _FLOAT_MAX and _LOWEST <= y <= _FLOAT_MAX
            and 0 < w <= _FLOAT_MAX and 0 < h <= _FLOAT_MAX
        ):
            raise_problems(
                [
                    problem
                    for (field, bounds), value in zip(_BOX_BOUNDS, (x, y, w, h))
                    for problem in setting_problems(f"box {field}", value, bounds)
                ]
            )

    def as_xywh(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]


@dataclass(frozen=True, slots=True)
class CategoryTriple:
    """Label along up to three axes: quadrant, tooth enumeration, disease.

    Each axis is independently optional, but at least one must be present.
    Quadrant and enumeration are 1-based (FDI notation digits), the disease
    axis is one of :data:`DISEASES`.
    """

    quadrant: Optional[int] = None
    enumeration: Optional[int] = None
    disease: Optional[str] = None

    def __post_init__(self) -> None:
        quadrant, enumeration, disease = self.quadrant, self.enumeration, self.disease
        if quadrant is None and enumeration is None and disease is None:
            raise ConfigError("category must carry at least one axis")
        known = disease is None or disease in DISEASES
        if not (
            (quadrant is None or type(quadrant) is int and 1 <= quadrant <= 4)
            and (enumeration is None or type(enumeration) is int and 1 <= enumeration <= 8)
            and known
        ):
            raise_problems(
                setting_problems("quadrant", quadrant, "[1, 4]", integer=True, optional=True)
                + setting_problems("enumeration", enumeration, "[1, 8]", integer=True, optional=True)
                + ([] if known else [f"unknown disease {shorten(disease)}"])
            )

    @property
    def fdi(self) -> Optional[int]:
        """Two-digit FDI tooth number, when both position axes are present."""
        if self.quadrant is None or self.enumeration is None:
            return None
        return 10 * self.quadrant + self.enumeration


@dataclass(frozen=True, slots=True)
class Detection:
    """A single detector output: box, confidence and category, with provenance.

    ``matched_enum_id`` is set only on integrated detections: the index of
    the matched tooth in the original enumeration stream, an ``int64``.
    """

    image_id: ImageId
    box: BoundingBox
    score: float
    category: CategoryTriple
    source: str
    matched_enum_id: Optional[int] = None

    def __post_init__(self) -> None:
        image_id, score, source, link = self.image_id, self.score, self.source, self.matched_enum_id
        if not (
            type(image_id) in _ID_TYPES and type(score) in _FAST and 0.0 <= score <= 1.0
            and (link is None or type(link) is int and 0 <= link < _ID_END)
        ):
            raise_problems(
                _image_id_problems((image_id,)) + setting_problems("score", score, "[0, 1]")
                + setting_problems("matched_enum_id", link, _ID_RANGE, integer=True, optional=True)
            )
        if type(source) is not str or source not in _SOURCE_CODE:
            source_code(source)
